"""The chord-step audit must flag exactly what per-pair squaring solves flag.

``squaring_scan`` is the audit as it was before the chord kernel: every
perturbed matrix is copied and re-solved from scratch by ``perron_batch``.
It stays here as the reference that ``bulk.violation_flags`` is compared to,
and, with ``full``, the reference for the no-early-exit scan behind
``check_monotonicity``.
"""

import functools
import itertools

import numpy as np
import pytest

from conftest import STALLED_UPPER
from pcmaudit import GeneratorConfig, build_matrix, bulk
from pcmaudit.errors import ValidationError
from pcmaudit.generate import generate_batch

FACTORS = (1.001, 1.01, 1.1)


def squaring_scan(mats, w0, factor, margin, rtol=bulk.RESIDUAL_RTOL, full=False):
    """Reference audit: one explicit copy and squaring solve per entry.

    With ``full`` no matrix leaves the scan at a flag or a failed solve, and
    the perturbed weights (E, B, n), ``ok`` (E, B) and drop bits (E, B, n) of
    every upper entry e, in row-major order, are returned instead.
    """
    b, n, _ = mats.shape
    entries = list(itertools.combinations(range(n), 2))
    violated = np.zeros(b, dtype=bool)
    ok = np.ones(b, dtype=bool)
    first = np.zeros((b, 3), dtype=np.int64)
    scan = (np.empty((len(entries), b, n)), np.zeros((len(entries), b), dtype=bool),
            np.zeros((len(entries), b, n), dtype=bool))
    for e, (i, j) in enumerate(entries):
        active = np.arange(b) if full else np.flatnonzero(~violated & ok)
        pert = mats[active].copy()
        pert[:, i, j] *= factor
        pert[:, j, i] /= factor
        _, w1, _, ok1 = bulk.perron_batch(pert, rtol=rtol)
        scan[0][e, active], scan[1][e, active] = w1, ok1
        ok[active[~ok1]] = False
        active, w1 = active[ok1], w1[ok1]
        r0 = w0[active, i, None] / w0[active]
        r1 = w1[:, i, None] / w1
        worse = r1 < r0 * (1.0 - margin)
        worse[:, i] = False
        scan[2][e, active] = worse
        hit = np.any(worse, axis=1)
        rows = active[hit]
        violated[rows] = True
        first[rows, :2] = i + 1, j + 1
        first[rows, 2] = np.argmax(worse[hit], axis=1) + 1
    return scan if full else (violated, ok, first)


def _population(n, scale, count=2048):
    mats = generate_batch(GeneratorConfig(n, scale, 100 + n), 0, count)
    _, w0, _, ok = bulk.perron_batch(mats)
    assert ok.all()
    return mats, w0


@functools.lru_cache(maxsize=None)
def _reference(n, scale, factor):
    """The squaring scan of ``_population(n, scale)``, shared by the tests."""
    return squaring_scan(*_population(n, scale), factor, 1e-9)


def _one(flags, f=0):
    """The (violated, ok, first) of factor ``f`` from a multi-factor result."""
    return tuple(x[f] for x in flags)


def _assert_same(got, want):
    for name, g, w in zip(("violated", "ok", "first"), got, want):
        np.testing.assert_array_equal(g, w, err_msg=name)


@pytest.mark.parametrize("factor", FACTORS)
@pytest.mark.parametrize("scale", ["discrete", "continuous"])
@pytest.mark.parametrize("n", range(3, 10))
def test_chord_flags_match_squaring(n, scale, factor):
    mats, w0 = _population(n, scale)
    _assert_same(_one(bulk.violation_flags(mats, w0, (factor,), 1e-9)),
                 _reference(n, scale, factor))


@pytest.mark.parametrize("scale", ["discrete", "continuous"])
@pytest.mark.parametrize("n", range(3, 10))
def test_one_call_over_all_factors_matches_squaring(n, scale):
    mats, w0 = _population(n, scale)
    got = bulk.violation_flags(mats, w0, FACTORS, 1e-9)
    assert got[0].shape == got[1].shape == (3, len(mats))
    assert got[2].shape == (3, len(mats), 3)
    for f, factor in enumerate(FACTORS):
        _assert_same(_one(got, f), _reference(n, scale, factor))


@pytest.mark.parametrize("scale", ["discrete", "continuous"])
@pytest.mark.parametrize("n", range(3, 10))
def test_full_scan_matches_squaring_bit_for_bit(n, scale):
    # every entry of every matrix at every factor, with no early exit: the
    # scalar audit's path, on a block small enough to skip the chord steps
    mats, w0 = _population(n, scale, bulk.CHORD_MIN_ROWS - 1)
    b = len(mats)
    w1, ok, drops = bulk._audit_block(
        mats, w0, np.array(FACTORS), 1.0 - 1e-9, True, bulk.RESIDUAL_RTOL, full=True)
    assert ok.all()
    for f, factor in enumerate(FACTORS):
        cols = slice(f * b, (f + 1) * b)
        for name, got, want in zip(("w1", "ok", "drops"), (w1[:, cols], ok[:, cols], drops[:, cols]),
                                   squaring_scan(mats, w0, factor, 1e-9, full=True)):
            np.testing.assert_array_equal(got, want, err_msg=f"{name} at {factor}")
        # the early-exit scan flags exactly the matrices with some drop
        violated = _one(bulk.violation_flags(mats, w0, (factor,), 1e-9))[0]
        np.testing.assert_array_equal(drops[:, cols].any(axis=(0, 2)), violated)


# the dip at entry (1, 3) is narrow: a 10% step jumps over it
@pytest.mark.parametrize("factor, flagged", [(1.001, True), (1.01, True), (1.1, False)])
@pytest.mark.parametrize("min_rows", [1, bulk.CHORD_MIN_ROWS])
def test_chord_flags_match_squaring_on_counterexample(
        monkeypatch, kinked_matrix, min_rows, factor, flagged):
    monkeypatch.setattr(bulk, "CHORD_MIN_ROWS", min_rows)
    mats = kinked_matrix.entries[None]
    _, w0, _, _ = bulk.perron_batch(mats)
    got = _one(bulk.violation_flags(mats, w0, (factor,), 1e-9))
    _assert_same(got, squaring_scan(mats, w0, factor, 1e-9))
    assert got[0][0] == flagged


@pytest.mark.parametrize("min_rows", [1, bulk.CHORD_MIN_ROWS])
def test_counterexample_in_one_call(monkeypatch, kinked_matrix, min_rows):
    monkeypatch.setattr(bulk, "CHORD_MIN_ROWS", min_rows)
    mats = kinked_matrix.entries[None]
    _, w0, _, _ = bulk.perron_batch(mats)
    violated, ok, first = bulk.violation_flags(mats, w0, FACTORS, 1e-9)
    assert ok.all()
    assert violated[:, 0].tolist() == [True, True, False]
    assert first[:, 0].tolist() == [[1, 3, 4], [1, 3, 4], [0, 0, 0]]


def test_audit_blocks_do_not_change_flags(monkeypatch):
    # blocks of 300, 300, 300 and 100 matrices; the last one is below
    # CHORD_MIN_ROWS and is audited by squaring alone
    mats, w0 = _population(6, "discrete", 1000)
    want = bulk.violation_flags(mats, w0, (1.01,), 1e-9)
    monkeypatch.setattr(bulk, "AUDIT_BLOCK", 300)
    _assert_same(bulk.violation_flags(mats, w0, (1.01,), 1e-9), want)


def test_audit_blocks_over_all_factors_match_squaring(monkeypatch):
    # the same blocks, with every matrix audited at three factors at once
    mats, w0 = _population(6, "discrete", 1000)
    monkeypatch.setattr(bulk, "AUDIT_BLOCK", 300)
    got = bulk.violation_flags(mats, w0, FACTORS, 1e-9)
    for f, factor in enumerate(FACTORS):
        _assert_same(_one(got, f), squaring_scan(mats, w0, factor, 1e-9))


def test_one_inverse_per_block_whatever_the_factors(monkeypatch):
    mats, w0 = _population(4, "discrete", 1000)
    monkeypatch.setattr(bulk, "AUDIT_BLOCK", 300)
    inverted = []

    def counting(a):
        inverted.append(len(a))
        return inv(a)

    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", counting)
    for factors in ((1.01,), FACTORS):
        inverted.clear()
        bulk.violation_flags(mats, w0, factors, 1e-9)
        # the tail block of 100 matrices is below CHORD_MIN_ROWS
        assert inverted == [300, 300, 300], factors


@pytest.mark.parametrize("factors", [1.01, ()])
def test_factors_must_be_a_non_empty_sequence(factors):
    mats, w0 = _population(4, "discrete", 8)
    with pytest.raises(ValidationError):
        bulk.violation_flags(mats, w0, factors, 1e-9)


def test_audit_factors_returns_float_tuple():
    assert bulk.audit_factors([1.001, np.float64(1.1)], 0.0) == (1.001, 1.1)
    assert bulk.audit_factors(np.array([1.01]), 0.999) == (1.01,)


@pytest.mark.parametrize("factors, margin, match", [
    ([[1.01]], 1e-9, "non-empty"),
    ((1.0,), 1e-9, "exceed 1"),
    ((1.01, 0.5), 1e-9, "exceed 1"),
    ((float("nan"),), 1e-9, "exceed 1"),
    ((float("inf"),), 1e-9, "finite"),
    ((1.01, 1.01), 1e-9, "distinct"),
    ((1.01,), -1e-9, "margin"),
    ((1.01,), 1.0, "margin"),
    ((1.01,), float("nan"), "margin"),
])
def test_audit_factors_rejects(factors, margin, match):
    with pytest.raises(ValidationError, match=match):
        bulk.audit_factors(factors, margin)


def test_n9_audit_at_factor_101_needs_no_fallback(monkeypatch):
    mats, w0 = _population(9, "discrete")
    fallback_rows = []

    def counting(pert, **kwargs):
        fallback_rows.append(len(pert))
        return perron_batch(pert, **kwargs)

    perron_batch = bulk.perron_batch
    monkeypatch.setattr(bulk, "perron_batch", counting)
    bulk.violation_flags(mats, w0, (1.01,), 1e-9)
    assert fallback_rows == []


@pytest.mark.parametrize("n, factor", [(4, 1.1), (9, 1.01)])
def test_squaring_fallback_alone_gives_the_same_flags(monkeypatch, n, factor):
    mats, w0 = _population(n, "discrete", 512)
    want = squaring_scan(mats, w0, factor, 1e-9)
    monkeypatch.setattr(bulk, "CHORD_STEPS", 0)
    _assert_same(_one(bulk.violation_flags(mats, w0, (factor,), 1e-9)), want)


def test_unreachable_tolerance_fails_every_row():
    # a chord iterate can reach a residual of exactly 0.0 in floating point,
    # so only a negative tolerance is out of reach for every row
    mats, w0 = _population(5, "discrete", 256)
    violated, ok, first = _one(bulk.violation_flags(mats, w0, (1.01,), 1e-9, rtol=-1.0))
    assert not ok.any()
    assert not violated.any()
    assert not first.any()
    _assert_same((violated, ok, first), squaring_scan(mats, w0, 1.01, 1e-9, rtol=-1.0))


def test_empty_batch():
    violated, ok, first = bulk.violation_flags(np.ones((0, 4, 4)), np.ones((0, 4)), FACTORS, 1e-9)
    assert violated.shape == ok.shape == (3, 0)
    assert first.shape == (3, 0, 3)


def test_retries_stop_at_max_squarings(monkeypatch):
    exponents = []

    def recording(mats, squarings):
        exponents.append(squarings)
        return power_weights(mats, squarings)

    power_weights = bulk._power_weights
    monkeypatch.setattr(bulk, "_power_weights", recording)
    _, _, _, ok = bulk.perron_batch(build_matrix(4, STALLED_UPPER).entries[None])
    assert not ok.any()
    assert exponents == [bulk.BASE_SQUARINGS, 17, 21, bulk.MAX_SQUARINGS]
    assert max(exponents) == bulk.MAX_SQUARINGS


@pytest.mark.parametrize("scale", ["discrete", "continuous"])
@pytest.mark.parametrize("n", [3, 4, 6, 9])
def test_perron_bounds_hold_the_perron_root(n, scale):
    mpmath = pytest.importorskip("mpmath")
    mats = generate_batch(GeneratorConfig(n, scale, 12), 0, 512)
    lo, hi = bulk.perron_bounds(mats)
    lam, _, _, ok = bulk.perron_batch(mats)
    assert ok.all()
    assert np.all(lo <= lam) and np.all(lam <= hi)
    assert np.all(hi - lo < 0.05 * lo)
    # the exact root of a few rows, at 40 digits
    with mpmath.workdps(40):
        for r in range(0, 512, 64):
            rho = max(mpmath.re(e) for e in mpmath.eig(mpmath.matrix(mats[r].tolist()))[0])
            assert mpmath.mpf(lo[r]) <= rho <= mpmath.mpf(hi[r])


def test_perron_bounds_of_consistent_and_overflowing_matrices():
    w = np.array([0.4, 0.3, 0.2, 0.1])
    consistent = w[:, None] / w[None, :]
    huge = build_matrix(4, [1e300, 1.0, 1.0, 1.0, 1.0, 1.0]).entries
    lo, hi = bulk.perron_bounds(np.stack([consistent, huge]))
    assert lo[0] <= 4.0 <= hi[0] and hi[0] - lo[0] < 1e-13
    assert (lo[1], hi[1]) == (0.0, np.inf)
