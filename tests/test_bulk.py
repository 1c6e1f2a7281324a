"""The chord-step audit must flag exactly what per-pair squaring solves flag.

``squaring_scan`` is the audit as it was before the chord kernel: every
perturbed matrix is copied and re-solved from scratch by ``perron_batch``.
It stays here as the reference that ``bulk.violation_flags`` is compared to,
with ``full``, the reference for the no-early-exit scan behind
``check_monotonicity``, and its ``first`` the reference for the witness that
``bulk.first_violations`` resolves.
"""

import functools
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import STALLED_UPPER
from pcmaudit import GeneratorConfig, build_matrix, bulk
from pcmaudit.consistency import default_random_index_table
from pcmaudit.errors import ValidationError
from pcmaudit.generate import SAATY_VALUES, generate_batch
from pcmaudit.matrix import matrices_from_upper, read_matrix_file
from pcmaudit.sweep import ordinal_to_upper

REPO = Path(__file__).resolve().parents[1]
FACTORS = (1.001, 1.01, 1.1)


def squaring_scan(mats, w0, factor, margin, full=False):
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
        _, w1, _, ok1 = bulk.perron_batch(pert)
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
def _reference(n, scale, factor, count=2048):
    """The squaring scan of ``_population(n, scale, count)``, shared by the
    tests."""
    return squaring_scan(*_population(n, scale, count), factor, 1e-9)


def _one(flags, f=0):
    """The (violated, ok) of factor ``f`` from a multi-factor result."""
    return tuple(x[f] for x in flags)


def _assert_same(got, want):
    """Every row's flag and ok bit against the reference ``want``."""
    for name, g, w in zip(("violated", "ok"), got, want):
        np.testing.assert_array_equal(g, w, err_msg=name)


def _assert_witness(want, mats, factor):
    """The witness that ``bulk.first_violations`` resolves for each row the
    reference ``want`` flags, against the reference's ``first``."""
    flagged = want[0]
    np.testing.assert_array_equal(bulk.first_violations(mats[flagged], factor, 1e-9),
                                  want[2][flagged])


@pytest.mark.parametrize("factor", FACTORS)
@pytest.mark.parametrize("scale", ["discrete", "continuous"])
@pytest.mark.parametrize("n", range(3, 10))
def test_chord_flags_match_squaring(n, scale, factor):
    mats, w0 = _population(n, scale)
    want = _reference(n, scale, factor)
    _assert_same(_one(bulk.violation_flags(mats, w0, (factor,), 1e-9)), want)
    _assert_witness(want, mats, factor)


@pytest.mark.parametrize("scale", ["discrete", "continuous"])
@pytest.mark.parametrize("n", range(3, 10))
def test_one_call_over_all_factors_matches_squaring(n, scale):
    mats, w0 = _population(n, scale)
    got = bulk.violation_flags(mats, w0, FACTORS, 1e-9)
    assert got[0].shape == got[1].shape == (3, len(mats))
    for f, factor in enumerate(FACTORS):
        _assert_same(_one(got, f), _reference(n, scale, factor))


@pytest.mark.parametrize("scale", ["discrete", "continuous"])
@pytest.mark.parametrize("n", range(3, 10))
def test_full_scan_matches_squaring_bit_for_bit(n, scale):
    # every entry of every matrix at every factor, with no early exit: the
    # scalar audit's path
    mats, w0 = _population(n, scale, 127)
    b = len(mats)
    w1, ok, drops, _ = bulk._full_scan(mats, w0, np.array(FACTORS), 1.0 - 1e-9, True)
    assert ok.all()
    for f, factor in enumerate(FACTORS):
        cols = slice(f * b, (f + 1) * b)
        for name, got, want in zip(("w1", "ok", "drops"), (w1[:, cols], ok[:, cols], drops[:, cols]),
                                   squaring_scan(mats, w0, factor, 1e-9, full=True)):
            np.testing.assert_array_equal(got, want, err_msg=f"{name} at {factor}")
        # the early-exit scan flags exactly the matrices with some drop
        violated = _one(bulk.violation_flags(mats, w0, (factor,), 1e-9))[0]
        np.testing.assert_array_equal(drops[:, cols].any(axis=(0, 2)), violated)


def _with_counterexample(kinked_matrix, rows):
    """A block of ``rows`` matrices, the counterexample first and random
    4x4 matrices after it, and its Perron vectors."""
    mats = np.concatenate([kinked_matrix.entries[None], _population(4, "discrete")[0][:rows - 1]])
    return mats, bulk.perron_batch(mats)[1]


# the dip at entry (1, 3) is narrow: a 10% step jumps over it
@pytest.mark.parametrize("factor, flagged", [(1.001, True), (1.01, True), (1.1, False)])
@pytest.mark.parametrize("rows", [1, 128])
def test_chord_flags_match_squaring_on_counterexample(kinked_matrix, rows, factor, flagged):
    mats, w0 = _with_counterexample(kinked_matrix, rows)
    got = _one(bulk.violation_flags(mats, w0, (factor,), 1e-9))
    want = squaring_scan(mats, w0, factor, 1e-9)
    _assert_same(got, want)
    _assert_witness(want, mats, factor)
    assert got[0][0] == flagged


@pytest.mark.parametrize("rows", [1, 128])
def test_counterexample_in_one_call(kinked_matrix, rows):
    mats, w0 = _with_counterexample(kinked_matrix, rows)
    violated, ok = bulk.violation_flags(mats, w0, FACTORS, 1e-9)
    assert ok.all()
    assert violated[:, 0].tolist() == [True, True, False]
    first = [bulk.first_violations(mats[:1], f, 1e-9)[0].tolist() for f in FACTORS]
    assert first == [[1, 3, 4], [1, 3, 4], [0, 0, 0]]


def _low_cr_population(n, count=2048):
    """Matrices under CR 0.4 and their Perron vectors. Uniform draws at
    n >= 8 hold too few of them (a fig4 run at n = 9 audits a few per
    16,384), so these are drawn near consistency: each upper entry is
    w_i/w_j times a log-normal factor (sigma 1), snapped to the discrete
    scale, and the draws at CR 0.4 and above are dropped."""
    rng = np.random.default_rng(n)
    iu, ju = np.triu_indices(n, 1)
    logw = rng.uniform(-1.5, 1.5, size=(count, n))
    target = logw[:, iu] - logw[:, ju] + rng.normal(0.0, 1.0, size=(count, iu.size))
    scale = np.log(SAATY_VALUES)
    mats = matrices_from_upper(n, SAATY_VALUES[np.abs(target[..., None] - scale).argmin(axis=-1)])
    lam, w0, _, ok = bulk.perron_batch(mats)
    assert ok.all()
    ri = 0.58 if n == 3 else default_random_index_table("discrete").lookup(n)  # Saaty's RI_3
    keep = (lam - n) / (n - 1) / ri < 0.4
    return mats[keep], w0[keep]


@pytest.mark.parametrize("low_cr", [False, True])
@pytest.mark.parametrize("n", range(3, 10))
def test_small_chord_blocks_match_squaring(n, low_cr):
    # blocks of the sizes a fig4 run hands the audit at n >= 8, and under,
    # from every matrix or from those under CR 0.4, all factors in one call
    mats, w0 = _low_cr_population(n) if low_cr else _population(n, "discrete")
    lo = 0
    for rows in (1, 5, 64, 127):
        block = slice(lo, lo + rows)
        lo += rows
        assert len(mats[block]) == rows
        got = bulk.violation_flags(mats[block], w0[block], FACTORS, 1e-9)
        for f, factor in enumerate(FACTORS):
            _assert_same(_one(got, f), squaring_scan(mats[block], w0[block], factor, 1e-9))


def test_audit_blocks_do_not_change_flags(monkeypatch):
    # blocks of 300, 300, 300 and 100 matrices
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
        want = squaring_scan(mats, w0, factor, 1e-9)
        _assert_same(_one(got, f), want)
        _assert_witness(want, mats, factor)


@pytest.mark.parametrize("scale", ["discrete", "continuous"])
@pytest.mark.parametrize("n", [5, 6, 9])
def test_prediction_only_orders_the_work(monkeypatch, n, scale):
    # a deliberately poor first guess, the last upper entry for every column:
    # flags and ok bits must not move
    last = n * (n - 1) // 2 - 1
    monkeypatch.setattr(bulk, "_predict_entries", lambda chord: np.full(chord.cols.size, last))
    mats, w0 = _population(n, scale)
    got = bulk.violation_flags(mats, w0, FACTORS, 1e-9)
    for f, factor in enumerate(FACTORS):
        _assert_same(_one(got, f), _reference(n, scale, factor))


def _undecided(monkeypatch):
    """Leave every solve undecided by its certificate, so that each one goes
    to the squaring fallback on its explicit copy: an infinite float slack
    makes every radius infinite."""
    monkeypatch.setattr(bulk, "_slack", lambda n, fac: np.inf)


def _fallback_rows(monkeypatch):
    """A list that receives the row count of each ``perron_batch`` call, which
    under the audit only the squaring fallback makes."""
    rows = []
    perron_batch = bulk.perron_batch

    def spy(pert):
        rows.append(len(pert))
        return perron_batch(pert)

    monkeypatch.setattr(bulk, "perron_batch", spy)
    return rows


@pytest.mark.parametrize("n, predicted", [(4, False), (6, False), (6, True)])
def test_a_failed_solve_does_not_hide_a_flag_at_another_entry(monkeypatch, n, predicted):
    # every solve at entry (1, 2) fails, in the row-major scan (n = 4, a
    # block too large for one pair call) and in the predicted-entry scan
    # (n = 6), there also as the predicted entry: a matrix flagged at another
    # entry is flagged, and only a matrix that no converged solve flags is a
    # failure. No solve is certified, so every one reaches the squaring
    # fallback, whose copies of entry (1, 2) are made to fail.
    mats, w0 = _population(n, "discrete", 1024)
    _, _, drops = squaring_scan(mats, w0, 1.01, 1e-9, full=True)
    violated = drops[1:].any(axis=(0, 2))
    assert violated.any() and not violated.all()

    copied = []  # per fallback copy, whether it raises entry (1, 2)
    perturbed, perron_batch = bulk._perturbed, bulk.perron_batch

    def recording(mats, rows, i, j, factor):
        copied.append(np.broadcast_to((np.asarray(i) == 0) & (np.asarray(j) == 1), rows.shape))
        return perturbed(mats, rows, i, j, factor)

    def failing(pert):
        lam, w1, residual, ok = perron_batch(pert)
        bad = copied.pop()
        w1[bad, 0] *= 0.5  # a drop of w_1 that only a trusted failed solve would flag
        ok[bad] = False
        return lam, w1, residual, ok

    monkeypatch.setattr(bulk, "_perturbed", recording)
    monkeypatch.setattr(bulk, "perron_batch", failing)
    _undecided(monkeypatch)
    if predicted:
        monkeypatch.setattr(bulk, "_predict_entries", lambda chord: np.zeros(chord.cols.size, int))
    _assert_same(_one(bulk.violation_flags(mats, w0, (1.01,), 1e-9)), (violated, violated))
    assert copied == []


# (n, scale, factors, matrices); 1,024 matrices at n = 4 are too many
# (column, entry) pairs for one call
UNDECIDED_CASES = [
    *(pytest.param(n, scale, FACTORS, 2048, id=f"{n}-{scale}")
      for n in (3, 4, 6, 9) for scale in ("discrete", "continuous")),
    pytest.param(4, "discrete", (1.1,), 1024, id="4-1.1"),
    pytest.param(9, "discrete", (1.01,), 1024, id="9-1.01"),
]


@pytest.mark.parametrize("n, scale, factors, count", UNDECIDED_CASES)
def test_undecided_solves_give_the_squaring_flags(monkeypatch, n, scale, factors, count):
    # with no solve certified, every solve the scan yields goes to the
    # squaring fallback on its explicit copy, so the flags and ok bits are
    # those of the squaring scan
    mats, w0 = _population(n, scale, count)
    _undecided(monkeypatch)
    calls = _recorded_solves(monkeypatch)
    squared = _fallback_rows(monkeypatch)
    got = bulk.violation_flags(mats, w0, factors, 1e-9)
    assert sum(squared) == sum(cols.size for cols, _, _ in calls) > 0
    monkeypatch.undo()
    for f, factor in enumerate(factors):
        want = _reference(n, scale, factor, count)
        _assert_same(_one(got, f), want)
        _assert_witness(want, mats, factor)


# 4x4 sweep ordinals with a solve at factor 1.1, at the given 0-based entry,
# that both certificate rounds leave undecided with no patched slack, whether
# audited in their 16,384-ordinal sweep chunk (which left 8 of its 293,353
# solves undecided) or alone
LEFTOVERS = {242: (2, 3), 548: (2, 3), 1412: (1, 2), 1430: (1, 2)}


def test_unforced_leftover_solves_go_to_squaring(monkeypatch):
    ordinals = np.array(list(LEFTOVERS))
    mats = matrices_from_upper(4, ordinal_to_upper(ordinals))
    _, w0, _, ok = bulk.perron_batch(mats)
    assert ok.all()
    copied = []
    perturbed = bulk._perturbed

    def recording(mats, rows, i, j, factor):
        copied.extend(zip(ordinals[rows].tolist(), *(np.broadcast_to(x, rows.shape).tolist()
                                                     for x in (i, j, factor))))
        return perturbed(mats, rows, i, j, factor)

    monkeypatch.setattr(bulk, "_perturbed", recording)
    squared = _fallback_rows(monkeypatch)
    got = bulk.violation_flags(mats, w0, FACTORS, 1e-9)
    assert sorted(copied) == sorted((o, i, j, 1.1) for o, (i, j) in LEFTOVERS.items())
    assert squared == [len(LEFTOVERS)]
    monkeypatch.undo()
    for f, factor in enumerate(FACTORS):
        _assert_same(_one(got, f), squaring_scan(mats, w0, factor, 1e-9))


def test_overflow_counts_as_failure_without_a_warning():
    # a factor of 1e300 overflows the chord steps and the squaring fallback,
    # and entries of 1e155 overflow the certificate's spread, so its kappa
    # (tanh -> 1) is infinite; any RuntimeWarning is an error in this suite.
    # Such solves are failures, and the other columns keep their flags.
    mats, w0 = _population(4, "discrete", 300)
    violated, ok = bulk.violation_flags(mats, w0, (1.01, 1e300), 1e-9)
    _assert_same((violated[0], ok[0]), squaring_scan(mats, w0, 1.01, 1e-9)[:2])
    assert not ok[1].any() and not violated[1].any()
    huge = build_matrix(4, (1e155, 1.0, 5.0, 3.0, 7.0, 9.0)).entries
    violated, ok = bulk.violation_flags(huge[None], np.full((1, 4), 0.25), FACTORS, 1e-9)
    assert not ok.any() and not violated.any()


def _mp_perron(mpmath, a):
    """The Perron vector of the float matrix ``a``, its entries read
    exactly and normalized to sum 1, at mpmath's working precision: Newton's
    method on (A w - lam w, 1^T w - 1) from a float solve. A positive
    eigenvector of a positive matrix is its Perron vector."""
    n = len(a)
    mat = mpmath.matrix(a.tolist())
    x = mpmath.matrix(bulk.perron_batch(a[None])[1][0].tolist())
    lam = mpmath.fsum((mat * x)[p] / x[p] for p in range(n)) / n
    for _ in range(3):
        jac = mpmath.matrix(n + 1, n + 1)
        for p in range(n):
            for q in range(n):
                jac[p, q] = mat[p, q]
            jac[p, p] -= lam
            jac[p, n], jac[n, p] = -x[p], 1
        rhs = mat * x - lam * x
        step = mpmath.lu_solve(jac, [rhs[p] for p in range(n)] + [mpmath.fsum(x) - 1])
        x -= mpmath.matrix([step[p] for p in range(n)])
        lam -= step[n]
    assert mpmath.mnorm(mat * x - lam * x, 1) < mpmath.mpf(10) ** -45
    assert min(x) > 0
    return [x[p] for p in range(n)]


def _mp_hilbert(mpmath, x, y):
    """Hilbert's projective distance between positive vectors x and y."""
    logs = [mpmath.log(mpmath.mpf(p) / mpmath.mpf(q)) for p, q in zip(x, y)]
    return max(logs) - min(logs)


def test_certificates_hold_against_exact_perron_vectors(monkeypatch):
    # 252 (matrix, factor, entry) triples: n = 3-9, both scales and nearly
    # consistent matrices, two of each, at every factor and two entries of
    # each matrix, the predicted one and another. At 50 digits, the exact
    # Perron vectors of A and of the raised matrix lie within each judged
    # iterate's radius, and every decision agrees with the exact least
    # move, at the audit's threshold and at thresholds 1e-7 either side of
    # that move
    mpmath = pytest.importorskip("mpmath")
    judged = []
    verdicts = bulk._verdicts

    def spy(w, w0, r, i, thresh):
        judged.append((w.copy(), w0.copy(), r.copy(), i))
        return verdicts(w, w0, r, i, thresh)

    monkeypatch.setattr(bulk, "_verdicts", spy)
    thresh = 1.0 - 1e-9
    rng = np.random.default_rng(23)
    decided = {True: 0, False: 0}
    triples = 0
    with mpmath.workdps(50):
        for n in range(3, 10):
            pops = [_population(n, scale, 2)[0] for scale in ("discrete", "continuous")]
            for a in np.concatenate(pops + [_unflagged_population(n, 2)[0]]):
                w0 = bulk.perron_batch(a[None])[1]
                w0_exact = _mp_perron(mpmath, a)
                # the entry predicted to lower some ratio the most, and another
                predicted = bulk._predict_entries(
                    bulk._ChordSolver(a[None], w0, np.array([1.01])))[0]
                other = rng.choice(np.delete(np.arange(n * (n - 1) // 2), predicted))
                entries = [predicted, other]
                for (i, j), factor in itertools.product(
                        np.transpose(np.triu_indices(n, 1))[entries].tolist(), FACTORS):
                    judged.clear()
                    chord = bulk._ChordSolver(a[None], w0, np.array([factor]))
                    flagged, clear = chord.certify(np.array([0]), i, j, thresh)
                    raised = bulk._perturbed(a[None], np.array([0]), i, j, factor)[0]
                    exact = _mp_perron(mpmath, raised)
                    low = min(mpmath.log(exact[i] / exact[k] * w0_exact[k] / w0_exact[i])
                              for k in range(n) if k != i)
                    triples += 1
                    if flagged[0] or clear[0]:
                        decided[bool(flagged[0])] += 1
                        assert flagged[0] == (low < mpmath.log(thresh))
                    for w, w0_col, r, at in judged:
                        distance = (_mp_hilbert(mpmath, w[:, 0], exact)
                                    + _mp_hilbert(mpmath, w0_col[:, 0], w0_exact))
                        assert distance <= r[0]
                        for t in (thresh, float(mpmath.exp(low) * (1 - 1e-7)),
                                  float(mpmath.exp(low) * (1 + 1e-7))):
                            got = verdicts(w, w0_col, r, at, t)
                            if got[0][0] or got[1][0]:
                                assert got[0][0] == (low < mpmath.log(t))
    assert triples == 252
    assert decided[True] > 20 and decided[False] > 20
    assert sum(decided.values()) >= 0.95 * triples


def _recorded_solves(monkeypatch):
    """A list that receives each chord call's ``(cols, i, j)``, in order:
    the scan order's calls, each certified before its undecided solves go to
    squaring."""
    calls = []
    certify = bulk._ChordSolver.certify

    def spy(self, cols, i, j, thresh):
        calls.append((cols, i, j))
        return certify(self, cols, i, j, thresh)

    monkeypatch.setattr(bulk._ChordSolver, "certify", spy)
    return calls


def test_predicted_stage_runs_where_the_pairs_do_not_fit(monkeypatch):
    # at n = 5 most random matrices flag; few of those under CR 0.4, the
    # ones a fig4 run audits, do. A block whose (column, entry) pairs do not
    # fit in one call opens with every column at its predicted entry,
    # whatever share of them flags; a block whose pairs fit is solved in one
    # pair call and predicts nothing. Either way the flags and witnesses are
    # those of the squaring scan.
    mats, w0 = _population(5, "discrete", 4096)
    lam = bulk.perron_batch(mats)[0]
    ri = default_random_index_table("discrete").lookup(5)
    low = np.flatnonzero((lam - 5) / 4 / ri < 0.4)
    fits = bulk.AUDIT_BLOCK // 10
    assert low.size > fits
    predicted = []
    predict = bulk._predict_entries

    def counting(chord):
        predicted.append(chord.cols.size)
        return predict(chord)

    monkeypatch.setattr(bulk, "_predict_entries", counting)
    calls = _recorded_solves(monkeypatch)
    shares = []
    for rows, opens in ((np.arange(1024), True), (low, True), (np.arange(fits), False)):
        calls.clear()
        predicted.clear()
        got = _one(bulk.violation_flags(mats[rows], w0[rows], (1.01,), 1e-9))
        cols, i, _ = calls[0]
        assert np.ndim(i) == 1
        if opens:
            # one entry per column, over every column
            assert predicted == [rows.size]
            np.testing.assert_array_equal(cols, np.arange(rows.size))
        else:
            assert predicted == [] and len(calls) == 1 and cols.size == 10 * rows.size
        want = squaring_scan(mats[rows], w0[rows], 1.01, 1e-9)
        _assert_same(got, want)
        _assert_witness(want, mats[rows], 1.01)
        shares.append(want[0].mean())
    assert shares[0] > 0.5 and shares[1] < 0.25


def _unflagged_population(n, count=512):
    """Matrices a_ij = exp(s_i - s_j + 0.1 z_ij), s and z standard normal,
    and their Perron vectors: so near consistency that no raise at FACTORS
    flags one."""
    rng = np.random.default_rng(n)
    iu, ju = np.triu_indices(n, 1)
    s = rng.standard_normal((count, n))
    mats = matrices_from_upper(
        n, np.exp(s[:, iu] - s[:, ju] + 0.1 * rng.standard_normal((count, iu.size))))
    _, w0, _, ok = bulk.perron_batch(mats)
    assert ok.all()
    return mats, w0


# AUDIT_BLOCK, for E upper entries, that forces each order on 512 matrices
# at three factors, 1536 columns: one call of every (column, entry) pair
# ("all pairs"), or every column at its predicted entry and then the other
# pairs in one call ("predicted") or one shared entry a call in row-major
# order ("row-major")
ORDERS = {"row-major": lambda e: 4096, "predicted": lambda e: 1536 * (e - 1),
          "all pairs": lambda e: 1536 * e}


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("n", [5, 6])
def test_each_order_solves_every_entry_of_an_unflagged_column_once(monkeypatch, n, order):
    # flags alone cannot show an entry that an order skips, if it would not
    # have flagged: count the (column, entry) solves instead
    entries = n * (n - 1) // 2
    monkeypatch.setattr(bulk, "AUDIT_BLOCK", ORDERS[order](entries))
    calls = _recorded_solves(monkeypatch)
    mats, w0 = _unflagged_population(n)
    violated, ok = bulk.violation_flags(mats, w0, FACTORS, 1e-9)
    assert not violated.any() and ok.all()

    per_solve = [np.ndim(i) == 1 for _, i, _ in calls]
    if order == "all pairs":
        assert per_solve == [True]
    else:
        assert per_solve == [True] + ([True] if order == "predicted" else [False] * entries)
        np.testing.assert_array_equal(calls[0][0], np.arange(len(FACTORS) * 512))
    solved = np.concatenate([(cols * n + i) * n + j for cols, i, j in calls])
    iu, ju = np.triu_indices(n, 1)
    every = (np.arange(len(FACTORS) * 512)[:, None] * n + iu) * n + ju
    np.testing.assert_array_equal(np.sort(solved), every.ravel())


@pytest.mark.parametrize("tail", ["pairs", "row-major"])
def test_predicted_stage_tails_solve_no_pair_twice_and_no_flagged_column(monkeypatch, tail):
    # 512 fig2 matrices at n = 5 and three factors, 1536 columns of 10
    # entries: the predicted call flags most of them, and the columns it
    # leaves go on as one pair call or in row-major order, where some flag
    # at a later entry. No (column, entry) pair is solved twice, the
    # predicted one included, no column is solved once it has flagged, and
    # the flags and ok bits are those of the squaring scan.
    n, cols_total = 5, 3 * 512
    mats, w0 = _population(n, "discrete", 512)
    monkeypatch.setattr(bulk, "AUDIT_BLOCK", 10 * cols_total - 1 if tail == "pairs" else 1000)
    calls = []  # per call, (cols, i, j) and the flags marked before it
    scan = bulk._scan_order

    def recording(chord, violated):
        for cols, i, j in scan(chord, violated):
            calls.append((cols, i, j, violated.copy()))
            yield cols, i, j

    monkeypatch.setattr(bulk, "_scan_order", recording)
    got = bulk.violation_flags(mats, w0, FACTORS, 1e-9)
    per_solve = [np.ndim(i) == 1 for _, i, _, _ in calls]
    assert per_solve == [True] + ([True] if tail == "pairs" else [False] * 10)
    np.testing.assert_array_equal(calls[0][0], np.arange(cols_total))
    after_first = calls[1][3]
    assert 0 < after_first.sum() < got[0].sum() < cols_total
    solved = np.concatenate([cols * n * n + np.broadcast_to(i * n + j, cols.shape)
                             for cols, i, j, _ in calls])
    assert np.unique(solved).size == solved.size
    for cols, _, _, flagged in calls:
        assert not flagged[cols].any()
    monkeypatch.undo()
    for f, factor in enumerate(FACTORS):
        _assert_same(_one(got, f), _reference(n, "discrete", factor, 512))


def test_row_major_order_stops_once_every_column_has_flagged(monkeypatch):
    # 1,100 copies of the counterexample, 6,600 (column, entry) pairs, take
    # the row-major order; each flags at entry (1, 3), so no later entry is
    # solved
    mat = read_matrix_file(REPO / "benchmarks" / "matrices" / "n4_counterexample.txt").entries
    mats = np.repeat(mat[None], 1100, axis=0)
    _, w0, _, _ = bulk.perron_batch(mats)
    calls = _recorded_solves(monkeypatch)
    violated, ok = bulk.violation_flags(mats, w0, (1.01,), 1e-9)
    assert violated.all() and ok.all()
    assert [(cols.size, i, j) for cols, i, j in calls] == [(1100, 0, 1), (1100, 0, 2)]


def test_one_inverse_per_block_whatever_the_factors(monkeypatch):
    mats, w0 = _population(4, "discrete", 1000)
    monkeypatch.setattr(bulk, "AUDIT_BLOCK", 300)
    inverted = []

    def counting(mats_t, w0_t, lam0):
        inverted.append(mats_t.shape[-1])
        return inverse(mats_t, w0_t, lam0)

    def lapack(a):
        raise AssertionError("the audit called np.linalg.inv")

    inverse = bulk._bordered_inverse
    monkeypatch.setattr(bulk, "_bordered_inverse", counting)
    monkeypatch.setattr(np.linalg, "inv", lapack)
    for factors in ((1.01,), FACTORS):
        inverted.clear()
        bulk.violation_flags(mats, w0, factors, 1e-9)
        assert inverted == [300, 300, 300, 100], factors


def _bordered_jacobian_inputs(n, kind, count):
    """A, w0 and lam0 in column layout, as ``_ChordSolver`` passes them to
    ``_bordered_inverse``, for ``count`` matrices drawn on a scale or, for
    ``kind`` "consistent", built as w_i/w_j from random weights."""
    if kind == "consistent":
        w = np.random.default_rng(n).uniform(0.1, 1.0, size=(count, n))
        iu, ju = np.triu_indices(n, 1)
        mats = matrices_from_upper(n, w[:, iu] / w[:, ju])
    else:
        mats = generate_batch(GeneratorConfig(n, kind, 200 + n), 0, count)
    _, w0, _, ok = bulk.perron_batch(mats)
    assert ok.all()
    mats_t = np.ascontiguousarray(mats.transpose(1, 2, 0))
    w0_t = np.ascontiguousarray(w0.T)
    lam0 = np.mean(bulk._matvec(mats_t, w0_t) / w0_t, axis=0)
    return mats, w0, mats_t, w0_t, lam0


@pytest.mark.parametrize("kind", ["discrete", "continuous", "consistent"])
@pytest.mark.parametrize("n", range(2, 10))
def test_bordered_inverse_matches_lapack(n, kind):
    # the elimination pivots with no row exchanges; against LAPACK's
    # partial pivoting its w-block agrees to 1e-12 of each matrix's largest
    # entry, and a zero or overflowing pivot would raise a RuntimeWarning,
    # which the test configuration turns into an error
    mats, w0, mats_t, w0_t, lam0 = _bordered_jacobian_inputs(n, kind, 4096)
    jac = np.zeros((len(mats), n + 1, n + 1))
    jac[:, :n, :n] = mats
    jac[:, range(n), range(n)] -= lam0[:, None]
    jac[:, :n, n] = -w0
    jac[:, n, :n] = 1.0
    want = np.linalg.inv(jac)[:, :n, :n].transpose(1, 2, 0)
    for rows in (1, 3, 440, 4096):
        got = bulk._bordered_inverse(mats_t[..., :rows], w0_t[:, :rows], lam0[:rows])
        assert got.shape == (n, n, rows) and got.flags.c_contiguous
        scale = np.max(np.abs(want[..., :rows]), axis=(0, 1))
        assert np.all(np.max(np.abs(got - want[..., :rows]), axis=(0, 1)) <= 1e-12 * scale), rows


@pytest.mark.parametrize("n", [4, 6, 9])
def test_inverse_accuracy_sets_only_the_step_count(monkeypatch, n):
    # an inverse off by 0.1% may leave more solves undecided but moves no
    # flag or ok bit: the radius bounds whatever iterate it gives, and the
    # undecided are solved by squaring, which takes no inverse
    mats, w0 = _population(n, "discrete")
    want = bulk.violation_flags(mats, w0, FACTORS, 1e-9)
    inverse = bulk._bordered_inverse
    monkeypatch.setattr(bulk, "_bordered_inverse", lambda *args: inverse(*args) * (1.0 + 1e-3))
    _assert_same(bulk.violation_flags(mats, w0, FACTORS, 1e-9), want)


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
    squared = _fallback_rows(monkeypatch)
    bulk.violation_flags(mats, w0, (1.01,), 1e-9)
    assert squared == []


def test_unreachable_tolerance_fails_every_row(monkeypatch):
    # a solve can reach a residual of exactly 0.0 in floating point, so only
    # a negative tolerance is out of reach for every row; at n = 5 the block
    # of 512 matrices, too many pairs for one call, takes the predicted-entry
    # stage, at n = 4 the 256 matrices one pair call. Under the audit the
    # tolerance only judges the squaring of undecided solves: with every
    # solve certified no row fails, and with none every row does.
    populations = [_population(5, "discrete", 512), _population(4, "discrete", 256)]
    want = [squaring_scan(mats, w0, 1.01, 1e-9) for mats, w0 in populations]
    monkeypatch.setattr(bulk, "RESIDUAL_RTOL", -1.0)
    for (mats, w0), (violated, _, _) in zip(populations, want):
        _assert_same(_one(bulk.violation_flags(mats, w0, (1.01,), 1e-9)),
                     (violated, np.ones(len(mats), dtype=bool)))
    _undecided(monkeypatch)
    for mats, w0 in populations:
        violated, ok = _one(bulk.violation_flags(mats, w0, (1.01,), 1e-9))
        assert not ok.any()
        assert not violated.any()
        _assert_same((violated, ok), squaring_scan(mats, w0, 1.01, 1e-9))


def test_empty_batch():
    violated, ok = bulk.violation_flags(np.ones((0, 4, 4)), np.ones((0, 4)), FACTORS, 1e-9)
    assert violated.shape == ok.shape == (3, 0)
    assert bulk.first_violations(np.ones((0, 4, 4)), 1.01, 1e-9).shape == (0, 3)


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


def _unblocked_power_weights(mats, squarings):
    """``bulk._power_weights`` as one squaring of the whole stack at a time."""
    p = mats.copy()
    for _ in range(squarings):
        p = p @ p
        p /= np.amax(p, axis=(1, 2))[:, None, None]
    w = p.sum(axis=2)
    return w / w.sum(axis=1, keepdims=True)


def _unblocked_perron_bounds(mats):
    """``bulk.perron_bounds`` as one squaring of the whole stack at a time."""
    n = mats.shape[1]
    with np.errstate(all="ignore"):
        p = mats
        for _ in range(bulk.SCREEN_SQUARINGS):
            p = p @ p
        w = np.einsum("bij->bi", p)
        ratio = np.einsum("bij,bj->bi", mats, w) / w
    slack = (n + 1) * np.finfo(float).eps
    lo = np.min(ratio, axis=1) * (1.0 - slack)
    hi = np.max(ratio, axis=1) * (1.0 + slack)
    bad = ~(hi < np.inf)
    lo[bad], hi[bad] = 0.0, np.inf
    return lo, hi


SLAB_EDGES = (0, 1, bulk.SLAB - 1, bulk.SLAB, bulk.SLAB + 1, 2 * bulk.SLAB + 3)


@pytest.mark.parametrize("scale", ["discrete", "continuous"])
@pytest.mark.parametrize("n", range(2, 10))
def test_slabs_square_bit_for_bit(monkeypatch, n, scale):
    # stacks that end before, at and after a slab edge give the bits of one
    # squaring of the whole stack, in the retries too (a tolerance of -1
    # sends every row through all of them)
    population = generate_batch(GeneratorConfig(n, scale, 300 + n), 0, max(SLAB_EDGES))
    slabbed = bulk._power_weights
    for rows in SLAB_EDGES:
        mats = population[:rows]
        for squarings in (bulk.BASE_SQUARINGS, 17):
            np.testing.assert_array_equal(slabbed(mats, squarings),
                                          _unblocked_power_weights(mats, squarings))
        for got, want in zip(bulk.perron_bounds(mats), _unblocked_perron_bounds(mats)):
            np.testing.assert_array_equal(got, want)
        for rtol in (bulk.RESIDUAL_RTOL, -1.0):
            with monkeypatch.context() as patch:
                patch.setattr(bulk, "RESIDUAL_RTOL", rtol)
                got = bulk.perron_batch(mats)
                patch.setattr(bulk, "_power_weights", _unblocked_power_weights)
                want = bulk.perron_batch(mats)
            for name, g, w in zip(("lam", "w", "residual", "ok"), got, want):
                np.testing.assert_array_equal(g, w, err_msg=f"{name}, {rows} rows, rtol {rtol}")


@pytest.mark.parametrize("n", [5, 9])
def test_predicted_entries_in_slabs_match_one_pass(n):
    # blocks that end before, at and after a slab edge: the pick of every
    # column is the argmin of the unslabbed moves
    mats, w0 = _population(n, "discrete", 2 * bulk.SLAB + 3)
    for rows in SLAB_EDGES[1:]:
        chord = bulk._ChordSolver(mats[:rows], w0[:rows], np.array([1.01]))
        moves = bulk._first_moves(chord, slice(None))
        np.testing.assert_array_equal(bulk._predict_entries(chord), np.argmin(moves, axis=0))


@pytest.mark.parametrize("n", [4, 9])
def test_an_overflowing_row_leaves_its_slab_neighbours_bounded(n):
    mats = generate_batch(GeneratorConfig(n, "discrete", 7), 0, 2 * bulk.SLAB + 3)
    want = bulk.perron_bounds(mats)
    huge = bulk.SLAB + bulk.SLAB // 2
    mats[huge, 0, 1], mats[huge, 1, 0] = 1e300, 1e-300
    lo, hi = bulk.perron_bounds(mats)
    assert (lo[huge], hi[huge]) == (0.0, np.inf)
    others = np.arange(len(mats)) != huge
    np.testing.assert_array_equal(lo[others], want[0][others])
    np.testing.assert_array_equal(hi[others], want[1][others])
    assert np.all(hi[others] < np.inf)


def _numpy_peak(call, *args):
    """Bytes that ``call(*args)`` holds at its peak, by ``tracemalloc``,
    which numpy reports its buffers to."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def test_squaring_in_slabs_bounds_the_peak_memory():
    # 16,384 matrices at n = 9, a fig4 chunk: squaring the whole stack held
    # 20.25 MiB in the screen and 5.9 MiB in the base solve
    mats = generate_batch(GeneratorConfig(9, "discrete", 1), 0, 16384)
    assert _numpy_peak(bulk.perron_bounds, mats) < 4 * 2**20
    assert _numpy_peak(bulk.perron_batch, mats) <= 5.9 * 2**20


def test_audit_peak_memory():
    # the same chunk at one factor, nearly every column of which takes the
    # predicted-entry stage (8.37 MiB): (column, entry) pairs built for
    # every column instead of those left after the first round, or one
    # slab's first-order moves held while the next slab's are computed,
    # would exceed it
    mats = generate_batch(GeneratorConfig(9, "discrete", 1), 0, 16384)
    _, w0, _, ok = bulk.perron_batch(mats)
    assert ok.all()
    assert _numpy_peak(bulk.violation_flags, mats, w0, (1.01,), 1e-9) <= 8.4 * 2**20
