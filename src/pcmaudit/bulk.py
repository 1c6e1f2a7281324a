"""Batched Perron solves and the monotonicity audit for many small matrices.

Base solves. :func:`perron_batch` raises each matrix to the power 2**k by
repeated squaring and reads the dominant eigenvector off the row sums.
Each squaring doubles the exponent, so a fixed, data-independent number of
steps reaches the noise floor for every judgment matrix on the bounded
scales used here (entries within [1/10, 10] give a Birkhoff contraction
coefficient of at most ~0.981 per application, hence < 1e-15 residual error
after 2**13 applications). Every solve is verified
against a residual bound; rows that miss it are retried with a larger
exponent and reported as failures only if they still miss. Measured on
65,536 matrices per case, every solve passed that bound after 8 squarings at
n = 4 and after 7 at n = 6 and 9, on both scales. The procedure is
branch-free per batch and deterministic for a fixed chunking, which keeps
simulation results independent of worker count.

Matrices read from files have no bounded scale, and
:func:`pcmaudit.weights.eigenvector_method` solves them here as batches of
one. They take the same retry loop and the same relative residual test, so a
matrix of any spread either passes it or is reported as unconverged. The test
scales with lam, so a large Perron root does not make a solve fail: entries
spread over [1e-6, 1e6] converge. Entries so large that the squaring
overflows (1e300, say) leave non-finite weights and fail the test.

Perturbed solves. :func:`violation_flags` re-solves each matrix once per
upper entry it perturbs and per audit factor, with the chord method:
Newton's method with the Jacobian frozen at the base solution (C. T. Kelley,
*Iterative Methods for Linear and Nonlinear Equations*, SIAM 1995). The
Jacobian is that of the bordered eigen-system (A'w - lam w, 1^T w - 1) at the
base pair (w0, lam0), [[A - lam0 I, -w0], [1^T, 0]] (C. D. Meyer and G. W.
Stewart, SIAM J. Numer. Anal. 25(3), 1988). It is nonsingular because the
Perron root is simple, and one batched inverse per matrix serves all
n(n-1)/2 perturbations at every factor. Each step re-estimates lam as the
mean ratio (A'w)_p / w_p and keeps 1^T w fixed, so only the w-block of the
inverse is kept. A perturbation changes only a_ij and a_ji, so A'w is A w
plus two scalar corrections and no perturbed matrix is built. An iterate is
accepted under the residual bound of a base solve, and only while it is
positive, as no other eigenvector of a positive matrix is. The steps
contract by a factor of the order of the perturbation, so their number grows
with the factor. Over the audit scans of 32,768 sweep matrices (n = 4) and of
16,384 matrices per scale at n = 6 and 9, rows were accepted after 2-3 steps
at factor 1.001, 3-5 at 1.01 and 4-9 at 1.1, with n = 4 needing the most.
Rows not accepted within ``CHORD_STEPS`` steps fall back to squaring on an
explicit perturbed copy.

All factors share one scan. Within a block of B matrices the scan runs over
F*B (matrix, factor) columns, column c being matrix c % B at factor
``factors[c // B]``: the inverse is computed once per matrix and tiled to
its F columns, and the entry corrections, and the squaring fallback, take
each column's own factor. The per-column arithmetic is that of a scan at one
factor, so the flags do not depend on which factors share a call. A column
flagged at one factor leaves the scan while the same matrix is still scanned
at the others. The batches are small (a stride-300 sweep chunk holds about
440 matrices), so the time goes into numpy calls rather than arithmetic;
hence a column accepted by a chord step is not cut out of the working set at
once. Its first accepted iterate is recorded and it keeps stepping, unread,
until at least half of the working set is accepted; only then is the set
compacted. That trades a little arithmetic for far fewer compactions. On a
2-vCPU machine (numpy 2.4.6, one BLAS thread), a 440-matrix sweep block at
three factors took 4.1 ms against 4.7 ms when compacting on every
acceptance; on 4096-matrix blocks at one factor (n = 6 continuous, n = 9
discrete) the lazy rule cost 1-3%.

Blocks of fewer than ``CHORD_MIN_ROWS`` matrices skip the chord steps and are
audited by squaring alone, all factors in one :func:`perron_batch` call per
entry. The crossover is a count of matrices and barely moves with the number
of factors, since both kernels batch the factors alike. Timing both kernels
alternately (best of 25) on blocks of 32-256 matrices, at one factor and at
three, put it near 32-40 matrices at n = 4 (sweep ordinals), 96 at n = 6 and
48-64 at n = 9, all on the discrete scale; ``CHORD_MIN_ROWS`` stays above
all of them.

Full scan. The entry scan ``_audit_block`` drops a column at its first flag,
all that :func:`violation_flags` needs. Its one other caller, the scalar
audit in :mod:`pcmaudit.monotonic`, reports every violating (i, j, k), so the
scan has a full mode with no early exit: it returns the perturbed weights,
``ok`` and drop bits over k of every (factor, matrix, upper entry). There the
block is one matrix, so each entry takes one :func:`perron_batch` call.
Every audit and entry point checks its factors and margin with
:func:`audit_factors`, the one rule for both.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ValidationError

# A**(2**13): 8192 applications of each matrix; see module docstring.
BASE_SQUARINGS = 13
MAX_SQUARINGS = 24
# Relative residual accepted as converged: max|Aw - lam*w| <= tol * lam.
RESIDUAL_RTOL = 1e-12
# Chord steps per perturbed solve before falling back to squaring.
CHORD_STEPS = 12
# Matrices per audit block (each brings one column per factor); bounds the
# chord kernel's working set.
AUDIT_BLOCK = 4096
# Blocks with fewer matrices are audited by squaring alone: below about 40
# (n = 4) to 96 (n = 6) matrices, whether audited at one factor or three, the
# chord steps' fixed cost per call exceeds that of the squaring solves they
# replace.
CHORD_MIN_ROWS = 128


# Accepted spellings of each weighting method, mapped to its canonical name.
METHOD_ALIASES = {
    "eigenvector": "eigenvector",
    "em": "eigenvector",
    "row_geometric_mean": "row_geometric_mean",
    "rgm": "row_geometric_mean",
    "geometric": "row_geometric_mean",
}


def canonical_method(method: str) -> str:
    """The canonical name of a weighting method, matched case-insensitively."""
    try:
        return METHOD_ALIASES[method.lower()]
    except KeyError:
        raise ValidationError(f"unknown weighting method {method!r}") from None


def _power_weights(mats: np.ndarray, squarings: int) -> np.ndarray:
    """Row sums of mats**(2**squarings), normalized to sum 1 per matrix."""
    p = mats.copy()
    for _ in range(squarings):
        p = p @ p
        # rescale to dodge overflow; scaling cancels in the normalization
        p /= np.amax(p, axis=(1, 2))[:, None, None]
    w = p.sum(axis=2)
    w /= w.sum(axis=1, keepdims=True)
    return w


def perron_batch(
    mats: np.ndarray,
    rtol: float = RESIDUAL_RTOL,
    base_squarings: int = BASE_SQUARINGS,
    max_squarings: int = MAX_SQUARINGS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Dominant eigenpairs of a (B, n, n) stack of positive reciprocal matrices.

    Returns ``(lam, w, residual, ok)`` with shapes (B,), (B, n), (B,), (B,).
    ``lam`` is the mean componentwise Rayleigh ratio, ``w`` sums to 1 per row,
    ``residual`` is ``max|Aw - lam*w|`` per row, and ``ok`` flags rows whose
    residual passed ``rtol * lam``. Rows with ``ok == False`` did not converge
    and must be excluded by the caller.
    """
    mats = np.ascontiguousarray(mats, dtype=float)
    w = _power_weights(mats, base_squarings)
    lam, residual = _rayleigh(mats, w)
    ok = residual <= rtol * lam

    squarings = base_squarings
    while not np.all(ok) and squarings < max_squarings:
        squarings = min(squarings + 4, max_squarings)
        retry = np.flatnonzero(~ok)
        w[retry] = _power_weights(mats[retry], squarings)
        lam[retry], residual[retry] = _rayleigh(mats[retry], w[retry])
        ok[retry] = residual[retry] <= rtol * lam[retry]
    return lam, w, residual, ok


def _rayleigh(mats: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per matrix, lam = mean (Aw)_p / w_p and the residual max|Aw - lam*w|."""
    aw = np.einsum("bij,bj->bi", mats, w)
    lam = np.mean(aw / w, axis=1)
    return lam, np.max(np.abs(aw - lam[:, None] * w), axis=1)


def rgm_batch(mats: np.ndarray) -> np.ndarray:
    """Row-geometric-mean weights for a (B, n, n) stack, each row summing to 1."""
    g = np.exp(np.mean(np.log(mats), axis=2))
    return g / g.sum(axis=1, keepdims=True)


def audit_factors(factors, margin: float) -> tuple[float, ...]:
    """The factors as floats, once they form a non-empty sequence of distinct,
    finite values > 1 and ``margin`` lies in [0, 1): a positive ratio cannot
    drop by 100% or more, so a larger margin could never flag."""
    f = np.asarray(factors, dtype=float)
    if f.ndim != 1 or f.size == 0:
        raise ValidationError(f"audit factors must be a non-empty sequence, got {factors!r}")
    bad = f[~((f > 1.0) & (f < np.inf))]
    if bad.size:
        raise ValidationError(f"audit factor must be finite and exceed 1, got {bad[0]}")
    if len(set(f.tolist())) != f.size:  # np.unique imports numpy.ma: +1.6 MB RSS
        raise ValidationError("audit factors must be distinct")
    if not 0.0 <= margin < 1.0:
        raise ValidationError(f"margin must be in [0, 1), got {margin}")
    return tuple(f.tolist())


def violation_flags(
    mats: np.ndarray,
    w0: np.ndarray,
    factors: tuple[float, ...],
    margin: float,
    method: str = "eigenvector",
    rtol: float = RESIDUAL_RTOL,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flag matrices whose weight ratios move against an increased judgment.

    For every factor f in ``factors`` and every upper-triangle entry (i, j)
    of each matrix, the entry is multiplied by f (mirror divided), weights
    are recomputed with ``method``, and the matrix is flagged at f as soon as
    some ratio w_i/w_k drops by more than ``margin`` relative to its
    unperturbed value. ``w0`` holds the unperturbed weights, for the
    eigenvector method the Perron vectors of ``mats``. Entries are scanned
    in row-major order and a matrix flagged at f is not scanned further at f,
    which cannot change the flag. Returns ``(violated, ok, first)``, indexed
    by factor first: ``violated`` and ``ok`` are booleans of shape (F, B),
    ``ok`` False where some required eigen solve failed to converge;
    ``first`` (F, B, 3) holds the 1-based (i, j, k) of each flag's first
    drop (smallest k at the flagging entry) and zeros elsewhere.
    """
    mats = np.asarray(mats, dtype=float)
    w0 = np.asarray(w0, dtype=float)
    factors = np.array(audit_factors(factors, margin))
    use_eigen = canonical_method(method) == "eigenvector"
    f, b = factors.size, mats.shape[0]
    violated = np.zeros((f, b), dtype=bool)
    ok = np.ones((f, b), dtype=bool)
    first = np.zeros((f, b, 3), dtype=np.int64)
    # blocks bound the chord kernel's working set
    for lo in range(0, b, AUDIT_BLOCK):
        block = slice(lo, lo + AUDIT_BLOCK)
        got = _audit_block(mats[block], w0[block], factors, 1.0 - margin, use_eigen, rtol)
        for out, cols in zip((violated, ok, first), got):
            out[:, block] = cols.reshape(f, -1, *cols.shape[1:])
    return violated, ok, first


def _audit_block(mats, w0, factors, thresh, use_eigen, rtol, full=False):
    """The row-major entry scan over one block; column c is matrix c % B at
    factor ``factors[c // B]``.

    By default a column leaves the scan at its first flag or failed solve,
    and the flat (F*B,) ``violated`` and ``ok`` and (F*B, 3) ``first`` of
    :func:`violation_flags` are returned. With ``full`` no column leaves, and
    per upper entry e (row-major) and column come the perturbed weights
    ``w1`` (E, F*B, n), the solves' ``ok`` (E, F*B) and the ``drops``
    (E, F*B, n) over k. A failed solve leaves its last iterate, and no drops.
    """
    b, n, _ = mats.shape
    entries = list(itertools.combinations(range(n), 2))
    col_mat = np.tile(np.arange(b), factors.size)
    col_fac = np.repeat(factors, b)
    violated = np.zeros(col_mat.size, dtype=bool)
    ok = np.ones(col_mat.size, dtype=bool)
    first = np.zeros((col_mat.size, 3), dtype=np.int64)
    if full:
        shape = (len(entries), col_mat.size)
        scan = np.empty(shape + (n,)), np.zeros(shape, bool), np.zeros(shape + (n,), bool)
    chord = _ChordSolver(mats, w0, factors) if use_eigen and b >= CHORD_MIN_ROWS else None
    w0 = w0[col_mat]
    for e, (i, j) in enumerate(entries):
        # only the early-exit scan ever clears a column's `ok` or sets `violated`
        active = np.flatnonzero(~violated & ok)
        if active.size == 0:
            break
        if not use_eigen:
            w1 = rgm_batch(_perturbed(mats, col_mat[active], i, j, col_fac[active]))
            ok1 = np.ones(active.size, dtype=bool)
        elif chord is not None:
            w1, ok1 = chord.solve(active, i, j, rtol)
        else:
            _, w1, _, ok1 = perron_batch(
                _perturbed(mats, col_mat[active], i, j, col_fac[active]), rtol=rtol)
        if full:
            scan[0][e], scan[1][e] = w1, ok1
        else:
            ok[active[~ok1]] = False
        active, w1 = active[ok1], w1[ok1]
        r0 = w0[active, i, None] / w0[active]  # (R, n): w_i/w_k before
        r1 = w1[:, i, None] / w1  # after
        worse = r1 < r0 * thresh
        worse[:, i] = False  # k = i is identically 1
        if full:
            scan[2][e, active] = worse
            continue
        hit = np.any(worse, axis=1)
        rows = active[hit]
        violated[rows] = True
        first[rows, :2] = i + 1, j + 1
        first[rows, 2] = np.argmax(worse[hit], axis=1) + 1
    return scan if full else (violated, ok, first)


def _perturbed(mats: np.ndarray, rows: np.ndarray, i: int, j: int,
               factor) -> np.ndarray:
    """Copies of ``mats[rows]`` with a_ij multiplied and a_ji divided by
    ``factor``, a scalar or one value per row."""
    pert = mats[rows]
    pert[:, i, j] *= factor
    pert[:, j, i] /= factor
    return pert


def _matvec(mats_t: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Per-column products of an (m, m, R) stack with an (m, R) stack."""
    return np.einsum("pqb,qb->pb", mats_t, vecs)


def _perturbed_residual(aw, w, i, j, d_ij, d_ji) -> tuple[np.ndarray, np.ndarray]:
    """``(A'w - lam w, lam)`` from ``aw`` = A w, which becomes A'w in place.

    A' adds ``d_ij`` to a_ij and ``d_ji`` to a_ji; lam is the mean ratio
    (A'w)_p / w_p, as in :func:`perron_batch`.
    """
    aw[i] += d_ij * w[j]
    aw[j] += d_ji * w[i]
    lam = np.add.reduce(aw / w, axis=0) / len(w)
    return aw - lam * w, lam


class _ChordSolver:
    """Perron vectors of single-entry perturbations of a block of matrices.

    Works on (matrix, factor) columns: for B matrices and F factors, column
    c is matrix c % B at factor ``factors[c // B]``. A w0 and the w-block of
    the inverse of the bordered Jacobian [[A - lam0 I, -w0], [1^T, 0]] are
    computed once per matrix and, with A, tiled to the columns in (n, n, F*B)
    layout. The held columns shrink with the audit's active set, so every
    step works on contiguous arrays.
    """

    def __init__(self, mats: np.ndarray, w0: np.ndarray, factors: np.ndarray) -> None:
        b, n, _ = mats.shape
        self.mats = mats
        self.cols = np.arange(factors.size * b)
        self.fac = np.repeat(factors, b)
        mats_t = np.ascontiguousarray(mats.transpose(1, 2, 0))
        w0_t = np.ascontiguousarray(w0.T)
        aw0 = _matvec(mats_t, w0_t)
        lam0 = np.mean(aw0 / w0_t, axis=0)
        jac = np.zeros((b, n + 1, n + 1))
        jac[:, :n, :n] = mats
        jac[:, range(n), range(n)] -= lam0[:, None]
        jac[:, :n, n] = -w0
        jac[:, n, :n] = 1.0
        # the steps keep 1^T w fixed, so the last column is never needed
        inv_t = np.ascontiguousarray(np.linalg.inv(jac)[:, :n, :n].transpose(1, 2, 0))
        del jac  # before the copies below, which bounds the peak working set
        # a copy per array costs a one-factor audit at n = 9 about 1.5%
        self.mats_t, self.w0, self.aw0, self.inv_t = (
            x if factors.size == 1 else np.tile(x, factors.size)
            for x in (mats_t, w0_t, aw0, inv_t))

    def _hold(self, cols: np.ndarray) -> None:
        """Drop held columns not in ``cols``, a sorted subset of them."""
        if cols.size == self.cols.size:
            return
        pos = np.searchsorted(self.cols, cols)
        self.cols = cols
        self.fac, self.mats_t, self.w0, self.aw0, self.inv_t = (
            np.take(x, pos, axis=-1)
            for x in (self.fac, self.mats_t, self.w0, self.aw0, self.inv_t))

    def solve(self, cols: np.ndarray, i: int, j: int,
              rtol: float) -> tuple[np.ndarray, np.ndarray]:
        """Perron vectors (C, n) of the given columns' matrices with a_ij
        scaled by the column's factor and a_ji by its reciprocal, and their
        ``ok`` flags.

        ``cols`` must be a sorted subset of the columns of the previous call.
        Each chord step is w -= M (A'w - lam w), with M the held inverse
        block and lam the mean ratio (A'w)_p / w_p. An iterate is accepted
        under :func:`perron_batch`'s residual test, and only while positive;
        a column's first accepted iterate is its result. Accepted columns
        keep stepping, unread, until at least half of the working set is
        accepted; only then is the working set compacted. Columns not
        accepted within ``CHORD_STEPS`` steps are solved by
        :func:`perron_batch` on an explicit perturbed copy.
        """
        self._hold(cols)
        a, inv, w, fac = self.mats_t, self.inv_t, self.w0, self.fac
        d_ij = a[i, j] * fac - a[i, j]
        d_ji = a[j, i] / fac - a[j, i]
        resid, _ = _perturbed_residual(self.aw0.copy(), w, i, j, d_ij, d_ji)
        out = np.empty((cols.size, len(w)))
        ok = np.zeros(cols.size, dtype=bool)
        # the working set's positions in `out`, and which of them still wait
        left = np.arange(cols.size)
        pending = np.ones(cols.size, dtype=bool)
        for _ in range(CHORD_STEPS):
            w = w - _matvec(inv, resid)
            resid, lam = _perturbed_residual(_matvec(a, w), w, i, j, d_ij, d_ji)
            done = ((np.maximum.reduce(np.abs(resid), axis=0) <= rtol * lam)
                    & (np.minimum.reduce(w, axis=0) > 0) & pending)
            if not done.any():
                continue
            out[left[done]] = w[:, done].T
            ok[left[done]] = True
            pending &= ~done
            waiting = np.count_nonzero(pending)
            if waiting == 0:
                break
            if 2 * waiting <= pending.size:
                left = left[pending]
                a, inv, w, resid, d_ij, d_ji = (
                    np.compress(pending, x, axis=-1) for x in (a, inv, w, resid, d_ij, d_ji))
                pending = np.ones(left.size, dtype=bool)
        left = np.flatnonzero(~ok)
        if left.size:
            pert = _perturbed(self.mats, cols[left] % len(self.mats), i, j, self.fac[left])
            _, out[left], _, ok[left] = perron_batch(pert, rtol=rtol)
        return out, ok
