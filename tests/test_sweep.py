"""Tests for the exhaustive 4x4 sweep machinery."""

import numpy as np
import pytest

from pcmaudit import (
    ConfigurationError,
    ValidationError,
    build_matrix,
    check_monotonicity,
    consistency_ratio,
    enumerate_n4_discrete,
)
from pcmaudit.generate import SAATY_VALUES
from pcmaudit.simulate import CrHistogram, resolve_examples
from pcmaudit.sweep import (
    TOTAL_MATRICES,
    ordinal_to_upper,
    sweep_chunk,
    upper_to_ordinal,
)

from conftest import KINKED_UPPER

KINKED_ORDINAL = upper_to_ordinal(KINKED_UPPER)


def test_ordinal_endpoints():
    assert TOTAL_MATRICES == 24_137_569
    first = ordinal_to_upper(np.array([0]))[0]
    last = ordinal_to_upper(np.array([TOTAL_MATRICES - 1]))[0]
    assert np.all(first == SAATY_VALUES[0])
    assert np.all(last == 9.0)


def test_ordinal_is_base17_most_significant_first():
    upper = ordinal_to_upper(np.array([5]))[0]
    assert np.all(upper[:5] == SAATY_VALUES[0])
    assert upper[5] == SAATY_VALUES[5]
    upper = ordinal_to_upper(np.array([3 * 17**5]))[0]
    assert upper[0] == SAATY_VALUES[3]
    assert np.all(upper[1:] == SAATY_VALUES[0])


def test_ordinal_round_trip():
    for ordinal in (0, 1, 16, 17, 12_345_678, TOTAL_MATRICES - 1, KINKED_ORDINAL):
        upper = ordinal_to_upper(np.array([ordinal]))[0]
        assert upper_to_ordinal(upper) == ordinal


def test_ordinal_order_is_lexicographic():
    ordinals = np.arange(0, TOTAL_MATRICES, 1_000_003)
    uppers = ordinal_to_upper(ordinals)
    for prev, cur in zip(uppers, uppers[1:]):
        assert tuple(prev) < tuple(cur)


def test_ordinal_range_validation():
    with pytest.raises(ValidationError):
        ordinal_to_upper(np.array([-1]))
    with pytest.raises(ValidationError):
        ordinal_to_upper(np.array([TOTAL_MATRICES]))
    with pytest.raises(ValidationError):
        upper_to_ordinal((2.5, 1, 1, 1, 1, 1))
    # 4.5e-8 off 1/9 relative, though within 1e-8 absolute
    with pytest.raises(ValidationError):
        upper_to_ordinal([1 / 9 + 5e-9] * 6)
    # every exact scale value is its own digit
    assert [upper_to_ordinal([v]) for v in SAATY_VALUES] == list(range(17))


def test_sweep_chunk_matches_scalar_audits():
    # dual route: replay a window of ordinals through the scalar API
    start, stop, stride = KINKED_ORDINAL - 40_000, KINKED_ORDINAL + 40_001, 4_000
    hists = sweep_chunk(start, stop, stride, beta=0.1,
                        factors=(1.01, 1.1), cap=3.5, margin=1e-9)
    ordinals = np.arange(((start + stride - 1) // stride) * stride, stop, stride)
    for factor in (1.01, 1.1):
        expected = CrHistogram(beta=0.1, cap=3.5)
        for ordinal in ordinals:
            m = build_matrix(4, ordinal_to_upper(np.array([ordinal]))[0])
            cr = consistency_ratio(m).cr
            flag = not check_monotonicity(m, factor=factor).monotonic
            expected.record_array(np.array([cr]), np.array([True]), np.array([flag]))
        assert hists[factor].bins == expected.bins
        assert hists[factor].overflow == expected.overflow
        assert hists[factor].samples == expected.samples


def test_sweep_finds_the_kinked_matrix_as_minimum():
    # a small window around its ordinal: the known counterexample must come
    # out as the minimum-CR violating matrix at a 1% step
    window = sweep_chunk(KINKED_ORDINAL - 2, KINKED_ORDINAL + 3, 1,
                         beta=0.1, factors=(1.01,), cap=3.5, margin=1e-9)
    example = window[1.01].min_cr_example
    assert example is not None
    assert example.upper_entries == KINKED_UPPER
    assert example.cr == pytest.approx(0.4869, abs=0.0005)
    # a chunk leaves the witness to its output
    assert example.i is example.j is example.k is None
    resolve_examples(window, 4, 1e-9)
    assert (example.i, example.j, example.k) == (1, 3, 4)


def test_enumerate_stride_worker_invariance():
    kwargs = dict(beta=0.1, factors=[1.01], stride=300_000, cap=3.5)
    seq = enumerate_n4_discrete(**kwargs, workers=1)
    par = enumerate_n4_discrete(**kwargs, workers=2)
    assert seq[1.01] == par[1.01]
    assert seq[1.01].samples == (TOTAL_MATRICES + 300_000 - 1) // 300_000


def test_enumerate_checkpoint_resume(tmp_path):
    path = tmp_path / "sweep.ckpt"
    kwargs = dict(beta=0.1, factors=[1.01], stride=400_000, cap=3.5)
    full = enumerate_n4_discrete(**kwargs)
    example = full[1.01].min_cr_example
    assert all(type(v) is int for v in (example.i, example.j, example.k))

    import json

    # force a checkpoint after every chunk, then resume from a truncated
    # copy; each progress call sees the checkpoint of the chunk before
    written = []

    def progress(done, total):
        if path.exists():
            written.append(json.loads(path.read_text())["histograms"]["1.01"])

    enumerate_n4_discrete(**kwargs, checkpoint_path=path, checkpoint_every=1, progress=progress)
    examples = [h["min_cr_example"] for h in written if h["min_cr_example"]]
    assert examples and all(type(ex[v]) is int for ex in examples for v in "ijk")
    doc = json.loads(path.read_text())
    assert doc["completed_through"] == TOTAL_MATRICES
    assert doc["histograms"]["1.01"]["min_cr_example"] == example.to_dict()

    from pcmaudit.sweep import ENUM_CHUNK, sweep_chunk as chunk_fn, write_checkpoint, _checkpoint_doc

    midpoint = (TOTAL_MATRICES // ENUM_CHUNK // 2) * ENUM_CHUNK
    partial = {1.01: CrHistogram(beta=0.1, cap=3.5)}
    for lo in range(0, midpoint, ENUM_CHUNK):
        parts = chunk_fn(lo, lo + ENUM_CHUNK, 400_000, 0.1, (1.01,), 3.5, 1e-9)
        partial[1.01].merge(parts[1.01])
    write_checkpoint(path, _checkpoint_doc(0.1, (1.01,), 400_000, 3.5, 1e-9,
                                           midpoint, partial))
    resumed = enumerate_n4_discrete(**kwargs, checkpoint_path=path, resume=True)
    assert resumed[1.01] == full[1.01]
    assert json.loads(path.read_text()) == doc


def test_resume_rejects_mismatched_config(tmp_path):
    path = tmp_path / "sweep.ckpt"
    enumerate_n4_discrete(beta=0.1, factors=[1.01], stride=2_000_000, cap=3.5,
                          checkpoint_path=path)
    with pytest.raises(ConfigurationError):
        enumerate_n4_discrete(beta=0.1, factors=[1.01], stride=1_000_000, cap=3.5,
                              checkpoint_path=path, resume=True)


def test_enumerate_parameter_validation():
    with pytest.raises(ValidationError):
        enumerate_n4_discrete(0.1, [])
    with pytest.raises(ValidationError):
        enumerate_n4_discrete(0.1, [0.9])
    with pytest.raises(ValidationError):
        enumerate_n4_discrete(0.1, [1.01, 1.01])
    with pytest.raises(ValidationError):
        enumerate_n4_discrete(0.1, [1.01], stride=0)
    for every in (0, -5):
        with pytest.raises(ValidationError, match="checkpoint_every"):
            enumerate_n4_discrete(0.1, [1.01], stride=1_000_000, checkpoint_every=every)
    with pytest.raises(ConfigurationError):
        enumerate_n4_discrete(0.1, [1.01], resume=True)
