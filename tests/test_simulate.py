"""Tests for the Monte Carlo pipeline and the CR histogram."""

import numpy as np
import pytest

from pcmaudit import (
    CrHistogram,
    GeneratorConfig,
    ValidationError,
    check_monotonicity,
    consistency_ratio,
    generate,
    run_simulation,
)
from pcmaudit.generate import matrices_from_upper
from pcmaudit.simulate import MinCrExample, _min_example, histogram_csv_lines


def test_bin_assignment_and_tie_rule():
    hist = CrHistogram(beta=0.1)
    cr = np.array([0.0, 0.05, 0.09999, 0.1, 0.1 + 5e-13, 0.1 - 5e-13, 0.249, 0.35])
    hist.record_array(cr, np.ones(cr.size, dtype=bool), np.zeros(cr.size, dtype=bool))
    # values within 1e-12 of a boundary drop into the lower bin
    assert [hist.bin_counts(lo) for lo in (0.0, 0.1, 0.2, 0.3)] == [(6, 0), (0, 0), (1, 0), (1, 0)]
    assert sorted(hist.bins) == [0, 2, 3]
    assert hist.boundary_ties == 3  # 0.1 exactly and both 5e-13 offsets


def test_record_and_counts():
    hist = CrHistogram(beta=0.1)
    cr = np.array([0.05, 0.15, 0.17, 0.55])
    checked = np.array([True, True, True, True])
    violated = np.array([False, True, False, True])
    hist.record_array(cr, checked, violated)
    assert hist.bin_counts(0.0) == (1, 0)
    assert hist.bin_counts(0.1) == (2, 1)
    assert hist.bin_counts(0.5) == (1, 1)
    assert hist.total == 4
    assert hist.total_violating == 2
    assert hist.samples == 4


def test_cap_routes_to_overflow():
    hist = CrHistogram(beta=0.1, cap=0.4)
    # 0.4 sits exactly on the cap boundary: the tie rule bins it low
    cr = np.array([0.05, 0.39, 0.4, 0.73])
    checked = np.array([True, True, True, False])
    violated = np.array([False, True, False, False])
    hist.record_array(cr, checked, violated)
    assert hist.overflow == [1, 0]
    assert hist.bin_counts(0.3) == (2, 1)
    assert hist.boundary_ties == 1
    assert hist.total == 4
    rows = hist.rows()
    assert len(rows) == 5  # four fine bins plus overflow
    assert rows[-1][1] is None


def test_cap_must_align_with_beta():
    with pytest.raises(ValidationError):
        CrHistogram(beta=0.1, cap=0.45)
    with pytest.raises(ValidationError):
        CrHistogram(beta=-0.1)


def test_merge_conserves_everything():
    a = CrHistogram(beta=0.1)
    b = CrHistogram(beta=0.1)
    a.record_array(np.array([0.05, 0.33]), np.array([True, True]),
                   np.array([False, True]))
    b.record_array(np.array([0.34]), np.array([True]), np.array([True]))
    b.record_failures(2)
    a.offer_min_example(MinCrExample((1.0,), 0.33, 1, 2, 3))
    b.offer_min_example(MinCrExample((2.0,), 0.31, 1, 3, 2))
    a.merge(b)
    assert a.samples == 5
    assert a.failures == 2
    assert a.total == 3
    assert a.total_violating == 2
    assert a.min_cr_example.cr == 0.31
    with pytest.raises(ValidationError):
        a.merge(CrHistogram(beta=0.2))


def test_min_example_tie_breaks_lexicographically():
    hist = CrHistogram(beta=0.1)
    hist.offer_min_example(MinCrExample((3.0, 1.0), 0.5, 1, 2, 3))
    hist.offer_min_example(MinCrExample((2.0, 9.0), 0.5, 1, 2, 3))
    assert hist.min_cr_example.upper_entries == (2.0, 9.0)

    # within a batch: the last two rows share the minimum CR and differ only
    # in their last upper entry; the first row sorts lowest but has a higher CR
    mats = matrices_from_upper(3, np.array([[1.0, 1.0, 1.0], [2.0, 1.0, 5.0],
                                            [2.0, 1.0, 4.0]]))
    first = np.array([[1, 2, 3], [1, 3, 2], [2, 3, 1]])
    example = _min_example(mats, np.array([0.7, 0.5, 0.5]), first)
    assert example == MinCrExample((2.0, 1.0, 4.0), 0.5, 2, 3, 1)


def test_histogram_json_round_trip():
    hist = CrHistogram(beta=0.02, cap=0.4)
    hist.record_array(np.array([0.01, 0.05, 0.41]),
                      np.array([True, True, False]),
                      np.array([False, True, False]))
    hist.offer_min_example(MinCrExample((1.0, 2.0), 0.05, 1, 2, 4))
    again = CrHistogram.from_dict(hist.to_dict())
    assert again == hist


def test_simulation_determinism_and_worker_invariance():
    config = GeneratorConfig(n=4, scale="discrete", seed=11)
    kwargs = dict(iterations=40_000, beta=0.1, factor=1.01)
    one = run_simulation(config, **kwargs)
    two = run_simulation(config, **kwargs)
    par = run_simulation(config, workers=2, **kwargs)
    assert one == two == par
    assert histogram_csv_lines(one) == histogram_csv_lines(par)
    assert one.samples == 40_000
    assert one.total == 40_000 - one.failures


def test_simulation_against_scalar_pipeline():
    # dual route: replay a small run matrix by matrix with the scalar API
    config = GeneratorConfig(n=4, scale="discrete", seed=23)
    iterations = 400
    hist = run_simulation(config, iterations, beta=0.1, factor=1.01)

    expected = CrHistogram(beta=0.1)
    best = None
    for t in range(iterations):
        m = generate(config, t)
        cr = consistency_ratio(m).cr
        report = check_monotonicity(m, factor=1.01)
        expected.record_array(np.array([cr]), np.array([True]),
                              np.array([not report.monotonic]))
        if not report.monotonic and (best is None or cr < best[0]):
            v = report.violations[0]
            best = (cr, m.upper_triangle(), v.i, v.j, v.k)

    assert hist.bins == expected.bins
    assert hist.boundary_ties == expected.boundary_ties
    assert best is not None
    example = hist.min_cr_example
    assert example.cr == pytest.approx(best[0], rel=1e-12)
    assert np.allclose(example.upper_entries, best[1], rtol=0)
    assert (example.i, example.j, example.k) == (best[2], best[3], best[4])


def test_cr_cap_skips_audit_and_fills_overflow():
    config = GeneratorConfig(n=5, scale="discrete", seed=31)
    capped = run_simulation(config, 20_000, beta=0.1, factor=1.01, cr_cap=0.4)
    full = run_simulation(config, 20_000, beta=0.1, factor=1.01)
    # identical totals below the cap, same matrices overall
    for m in range(4):
        assert capped.bin_counts(m * 0.1) == full.bin_counts(m * 0.1)
    assert capped.overflow[0] == sum(
        t for idx, (t, _) in full.bins.items() if idx >= 4)
    assert capped.overflow[1] == 0
    assert capped.total == full.total


def test_violating_counted_once_per_matrix():
    # a matrix with several violating triples still increments its bin by one
    config = GeneratorConfig(n=6, scale="discrete", seed=5)
    for t in range(200):
        report = check_monotonicity(generate(config, t), factor=1.01)
        if len(report.violations) > 1:
            break
    else:
        pytest.fail("no multi-violation matrix found in the probe range")
    hist = run_simulation(config, t + 1, beta=0.1, factor=1.01)
    assert hist.total_violating <= hist.total
    scalar_flags = sum(
        not check_monotonicity(generate(config, u), factor=1.01).monotonic
        for u in range(t + 1))
    assert hist.total_violating == scalar_flags


def test_n9_high_cr_bins_are_fully_violating():
    # heavily inconsistent 9x9 matrices essentially always misbehave: every
    # bin from CR 1.3 upward comes out at proportion 1.0
    hist = run_simulation(GeneratorConfig(9, "discrete", 4242), 100_000,
                          beta=0.1, factor=1.01, workers=2)
    high = {m: tv for m, tv in hist.bins.items() if m >= 13}
    assert sum(t for t, _ in high.values()) > 1000
    assert all(v == t for t, v in high.values())


def test_rejects_bad_simulation_parameters():
    config = GeneratorConfig(n=4, scale="discrete", seed=1)
    with pytest.raises(ValidationError):
        run_simulation(config, 0, beta=0.1, factor=1.01)
    with pytest.raises(ValidationError):
        run_simulation(config, 10, beta=0.1, factor=1.0)
    with pytest.raises(ValidationError):
        run_simulation(config, 10, beta=0.0, factor=1.01)
