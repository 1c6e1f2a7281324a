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
from pcmaudit import bulk
from pcmaudit.consistency import default_random_index_table
from pcmaudit.generate import generate_batch, matrices_from_upper
from pcmaudit.monotonic import VIOLATION_MARGIN
from pcmaudit.simulate import (
    BIN_TIE_TOL,
    MinCrExample,
    _cr,
    _min_example,
    _settled_over_cap,
    audit_population,
    histogram_csv_lines,
    resolve_examples,
    simulate_chunk,
)


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


def test_bin_geometry_is_bounded():
    # tie zones of neighbouring boundaries must not meet
    with pytest.raises(ValidationError):
        CrHistogram(beta=2 * BIN_TIE_TOL)
    with pytest.raises(ValidationError):
        CrHistogram(beta=1e-310, cap=1.0)
    with pytest.raises(ValidationError):
        CrHistogram(beta=1e-9, cap=0.1)  # 1e8 bins under the cap
    with pytest.raises(ValidationError):
        CrHistogram(beta=3e-12, cap=1e300)  # cap / beta overflows
    hist = CrHistogram(beta=1e-9)
    with pytest.raises(ValidationError):
        hist.record_array(np.array([0.01]), np.array([True]), np.array([False]))
    assert hist.samples == 0


def test_cap_takes_crs_beyond_the_bin_bound():
    # 10 lies 10**7 bins up, past MAX_BINS: under a cap it is overflow, and
    # its tie with the boundary 10**7 beta still counts
    hist = CrHistogram(beta=1e-6, cap=0.4)
    hist.record_array(np.array([10.0, 10.0 + 5e-7]), np.ones(2, dtype=bool),
                      np.zeros(2, dtype=bool))
    assert hist.overflow == [2, 0]
    assert hist.boundary_ties == 1
    assert not hist.bins
    hist.record_array(np.array([1e20]), np.ones(1, dtype=bool), np.zeros(1, dtype=bool))
    assert hist.overflow == [3, 0]  # 1e26 bins up would wrap an int64


def test_capped_run_with_fine_bins_folds_to_coarse():
    # 4e5 bins under the cap, while CRs over 1 lie more than MAX_BINS bins up
    config = GeneratorConfig(n=5, scale="discrete", seed=5)
    fine = run_simulation(config, 4096, beta=1e-6, factor=1.01, cr_cap=0.4)
    coarse = run_simulation(config, 4096, beta=0.02, factor=1.01, cr_cap=0.4)
    folded = {}
    for m, (total, violating) in fine.bins.items():
        into = folded.setdefault(m // 20_000, [0, 0])
        into[0] += total
        into[1] += violating
    assert folded == coarse.bins
    assert fine.overflow == coarse.overflow
    assert fine.overflow[0] > 0 and coarse.bins
    assert (fine.samples, fine.failures, fine.boundary_ties) == (
        coarse.samples, coarse.failures, coarse.boundary_ties)


def test_overflow_certain_applies_the_bin_rule_to_intervals():
    hist = CrHistogram(beta=0.1, cap=0.4)
    lo = np.array([0.41, 0.4 + 5e-13, 0.4 + 2e-12, 0.49, 0.5 + 5e-13, 0.39, 0.45, np.nan, 0.41])
    hi = np.array([0.42, 0.45, 0.45, 0.51, 0.55, 0.45, np.inf, np.nan, 0.5 - 5e-13])
    assert hist.overflow_certain(lo, hi).tolist() == [
        True,   # inside bin 4
        False,  # low end tied to the cap
        True,   # just clear of the cap's tie zone
        False,  # holds the boundary 0.5
        False,  # low end tied to 0.5
        False,  # reaches under the cap
        False,  # unbounded
        False,  # not a number
        False,  # high end tied to 0.5
    ]


def test_merge_conserves_everything():
    a = CrHistogram(beta=0.1)
    b = CrHistogram(beta=0.1)
    a.record_array(np.array([0.05, 0.33]), np.array([True, True]),
                   np.array([False, True]))
    b.record_array(np.array([0.34]), np.array([True]), np.array([True]))
    b.failures += 2
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
    cr = np.array([0.7, 0.5, 0.5])
    flagged = np.ones(3, dtype=bool)
    example = _min_example(mats, cr, flagged)
    assert example == MinCrExample((2.0, 1.0, 4.0), 0.5)
    # only flagged rows compete
    flagged[2] = False
    example = _min_example(mats, cr, flagged)
    assert example == MinCrExample((2.0, 1.0, 5.0), 0.5)


def test_min_example_resolves_a_predicted_witness():
    # the pick carries no witness; resolving it solves for the row-major
    # first drop from the matrix alone, as the full scalar audit reports it
    mats = generate_batch(GeneratorConfig(6, "continuous", 5), 0, 64)
    lam = bulk.perron_batch(mats)[0]
    cr = _cr(lam, 6, default_random_index_table("continuous").lookup(6))
    violated = np.array([not check_monotonicity(generate(GeneratorConfig(6, "continuous", 5), t),
                                                factor=1.01).monotonic for t in range(64)])
    hist = CrHistogram(beta=0.1)
    hist.offer_min_example(_min_example(mats, cr, violated))
    example = hist.min_cr_example
    assert example.i is example.j is example.k is None
    resolve_examples({1.01: hist}, 6, 1e-9)
    best = np.flatnonzero(violated)[np.argmin(cr[violated])]
    v = check_monotonicity(generate(GeneratorConfig(6, "continuous", 5), int(best)),
                           factor=1.01).violations[0]
    assert (example.cr, example.i, example.j, example.k) == (cr[best], v.i, v.j, v.k)


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
    assert all(type(v) is int for v in (example.i, example.j, example.k))
    assert (example.i, example.j, example.k) == (best[2], best[3], best[4])
    # the run resolved that witness; its one chunk's result leaves it unset
    ri = default_random_index_table("discrete").lookup(4)
    chunk = simulate_chunk(config, 0, iterations, 0.1, 1.01, None, VIOLATION_MARGIN, ri)
    assert chunk.min_cr_example.upper_entries == example.upper_entries
    assert chunk.min_cr_example.i is chunk.min_cr_example.j is chunk.min_cr_example.k is None


@pytest.mark.parametrize("n,scale", [(5, "discrete"), (9, "discrete"), (5, "continuous")])
def test_cr_cap_skips_audit_and_fills_overflow(n, scale):
    config = GeneratorConfig(n=n, scale=scale, seed=31)
    capped = run_simulation(config, 20_000, beta=0.1, factor=1.01, cr_cap=0.4)
    full = run_simulation(config, 20_000, beta=0.1, factor=1.01)
    # identical totals below the cap, same matrices overall
    for m in range(4):
        assert capped.bin_counts(m * 0.1) == full.bin_counts(m * 0.1)
    assert capped.overflow[0] == sum(
        t for idx, (t, _) in full.bins.items() if idx >= 4)
    assert capped.overflow[1] == 0
    assert capped.total == full.total
    assert capped.boundary_ties == full.boundary_ties
    assert capped.failures == full.failures == 0


def _population(n, scale, count=2048, seed=8):
    mats = generate_batch(GeneratorConfig(n, scale, seed), 0, count)
    return mats, default_random_index_table(scale).lookup(n)


@pytest.mark.parametrize("scale", ["discrete", "continuous"])
@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9])
def test_settled_rows_bin_in_overflow_untied(n, scale):
    # at the fig4 geometry most rows over the cap settle; bins of 1e-5 are
    # narrower than most intervals, so few rows settle there
    mats, ri = _population(n, scale)
    for beta, least in ((0.02, len(mats) // 4), (1e-3, 1), (1e-5, 0)):
        hist = CrHistogram(beta=beta, cap=0.4)
        settled = _settled_over_cap(mats, ri, hist)
        assert settled.sum() >= least
        lam, _, _, ok = bulk.perron_batch(mats[settled])
        assert ok.all()
        m, tie = hist._bins_and_ties(_cr(lam, n, ri))
        assert (m >= hist.cap_bins).all()
        assert not tie.any()


def test_base_solve_gets_only_unsettled_rows(monkeypatch):
    mats, ri = _population(9, "discrete")
    seen = []
    solve = bulk.perron_batch

    def spy(batch, *args, **kwargs):
        seen.append(batch)
        return solve(batch, *args, **kwargs)

    monkeypatch.setattr(bulk, "perron_batch", spy)
    audit_population(mats, ri, 0.02, (1.01,), 0.4, VIOLATION_MARGIN, audit_overflow=False)
    assert len(seen[0]) < len(mats) // 20  # the base solve sees the unsettled rows
    # no CR reaches a cap of 100, so nothing settles and the base solve gets mats itself
    assert not _settled_over_cap(mats, ri, CrHistogram(beta=0.1, cap=100.0)).any()
    seen.clear()
    audit_population(mats, ri, 0.1, (1.01,), 100.0, VIOLATION_MARGIN, audit_overflow=False)
    assert seen[0] is mats


def _row_counts(monkeypatch, name):
    """The rows of every call to ``bulk.<name>`` from here on."""
    seen, call = [], getattr(bulk, name)

    def spy(batch, *args, **kwargs):
        seen.append(len(batch))
        return call(batch, *args, **kwargs)

    monkeypatch.setattr(bulk, name, spy)
    return seen


@pytest.mark.parametrize("settle", ["every row", "no row"])
def test_capped_population_bins_as_uncapped(monkeypatch, settle):
    # at the fig4 geometry, the rows the screen settles (n = 9), so that the
    # base solve and the audit get zero rows, or those it does not (n = 6),
    # so that the rows over the cap take the base solve and bin in overflow
    # unaudited: either way the counts are the uncapped run's, binned under
    # the cap
    mats, ri = _population(9 if settle == "every row" else 6, "discrete")
    beta = 0.02
    settled = _settled_over_cap(mats, ri, CrHistogram(beta=beta, cap=0.4))
    mats = mats[settled] if settle == "every row" else mats[~settled]
    full, = audit_population(mats, ri, beta, (1.01,), None, VIOLATION_MARGIN,
                             audit_overflow=True).values()
    cap_bins = CrHistogram(beta=beta, cap=0.4).cap_bins
    over = sum(t for m, (t, _) in full.bins.items() if m >= cap_bins)
    assert 0 < over < len(mats) if settle == "no row" else over == len(mats)

    solved = _row_counts(monkeypatch, "perron_batch")
    audited = _row_counts(monkeypatch, "violation_flags")
    capped, = audit_population(mats, ri, beta, (1.01,), 0.4, VIOLATION_MARGIN,
                               audit_overflow=False).values()
    assert solved == [0 if settle == "every row" else len(mats)]
    assert audited == [len(mats) - over]
    assert capped.samples == full.samples == len(mats)
    assert capped.overflow == [over, 0]
    assert capped.bins == {m: tv for m, tv in full.bins.items() if m < cap_bins}
    assert capped.boundary_ties == full.boundary_ties
    assert capped.failures == full.failures == 0


def _one_cr(mats, ri):
    """The row of ``mats`` with CR over 0.02 whose root interval is the
    narrowest (1e-14 relative or less at n = 4), so that only the widening
    for the base solve's error keeps its CR interval wide; with its CR from
    the base solve."""
    lam, _, _, _ = bulk.perron_batch(mats)
    cr = _cr(lam, mats.shape[1], ri)
    lo, hi = bulk.perron_bounds(mats)
    width = np.where(cr > 0.02, (hi - lo) / lo, np.inf)
    row = int(np.argmin(width))
    assert width[row] < 1e-13
    return row, float(cr[row])


def test_tie_above_cap_is_not_settled():
    mats, ri = _population(4, "discrete")
    row, c = _one_cr(mats, ri)
    beta = c / 30
    hist = CrHistogram(beta=beta, cap=20 * beta)
    assert hist._bins_and_ties(np.array([c]))[1][0]  # c sits on the boundary 30 beta
    assert not _settled_over_cap(mats, ri, hist)[row]
    capped, = audit_population(mats, ri, beta, (1.01,), 20 * beta, VIOLATION_MARGIN,
                               audit_overflow=False).values()
    full, = audit_population(mats, ri, beta, (1.01,), None, VIOLATION_MARGIN,
                             audit_overflow=True).values()
    assert capped.boundary_ties == full.boundary_ties >= 1
    assert capped.samples == full.samples == len(mats)


def test_cr_just_above_cap_tie_zone_is_not_settled():
    mats, ri = _population(4, "discrete")
    row, c = _one_cr(mats, ri)
    cap = c - 2 * BIN_TIE_TOL
    hist = CrHistogram(beta=cap / 20, cap=cap)
    m, tie = hist._bins_and_ties(np.array([c]))
    assert m[0] == hist.cap_bins and not tie[0]  # overflow, untied
    assert not _settled_over_cap(mats, ri, hist)[row]


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
