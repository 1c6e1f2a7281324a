"""Batched Perron solves and the monotonicity audit for many small matrices.

Base solves. :func:`perron_batch` raises each matrix to the power 2**k by
repeated squaring and reads the dominant eigenvector off the row sums.
Squaring doubles the power iteration exponent per step, so a fixed,
data-independent number of steps reaches the noise floor for every judgment
matrix on the bounded scales used here (entries within [1/10, 10] give a
Birkhoff contraction coefficient of at most ~0.981 per application, hence
< 1e-15 residual error after 2**13 applications). Every solve is verified
against a residual bound; rows that miss it are retried with a larger
exponent and reported as failures only if they still miss. Measured on
65,536 matrices per case, every solve passed that bound after 8 squarings at
n = 4 and after 7 at n = 6 and 9, on both scales. The procedure is
branch-free per batch and deterministic for a fixed chunking, which keeps
simulation results independent of worker count.

Perturbed solves. :func:`violation_flags` re-solves each matrix once per
upper entry it perturbs, with the chord method: Newton's method with the
Jacobian frozen at the base solution (C. T. Kelley, *Iterative Methods for
Linear and Nonlinear Equations*, SIAM 1995). The Jacobian is that of the
bordered eigen-system (A'w - lam w, 1^T w - 1) at the base pair (w0, lam0),
[[A - lam0 I, -w0], [1^T, 0]] (C. D. Meyer and G. W. Stewart, SIAM J.
Numer. Anal. 25(3), 1988). It is nonsingular because the Perron root is
simple, and one batched inverse per matrix serves all n(n-1)/2
perturbations. Each step re-estimates lam as the mean ratio (A'w)_p / w_p
and keeps 1^T w fixed, so only the w-block of the inverse is kept. A
perturbation changes only a_ij and a_ji, so A'w is A w plus two scalar
corrections and no perturbed matrix is built. An iterate is accepted under
the residual bound of a base solve, and only while it is positive, as no
other eigenvector of a positive matrix is. The steps contract by a factor of
the order of the perturbation, so their number grows with the factor. Over
the audit scans of 32,768 sweep matrices (n = 4) and of 16,384 matrices per
scale at n = 6 and 9, rows were accepted after 2-3 steps at factor 1.001,
3-5 at 1.01 and 4-9 at 1.1, with n = 4 needing the most. Rows not accepted
within ``CHORD_STEPS`` steps fall back to squaring on an explicit perturbed
copy. Blocks of fewer than ``CHORD_MIN_ROWS`` matrices skip the chord steps
and are audited by squaring alone.
"""

from __future__ import annotations

import numpy as np

from .weights import canonical_method

# 2**13 = 8192 effective power iterations; see module docstring.
BASE_SQUARINGS = 13
MAX_SQUARINGS = 24
# Relative residual accepted as converged: max|Aw - lam*w| <= tol * lam.
RESIDUAL_RTOL = 1e-12
# Chord steps per perturbed solve before falling back to squaring.
CHORD_STEPS = 12
# Matrices per audit block; bounds the chord kernel's working set.
AUDIT_BLOCK = 4096
# Blocks with fewer matrices are audited by squaring alone: below about 80
# (n = 4) to 150 (n = 6) matrices, the chord steps' fixed cost per call
# exceeds that of the squaring solves they replace.
CHORD_MIN_ROWS = 128


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
    aw = np.einsum("bij,bj->bi", mats, w)
    lam = np.mean(aw / w, axis=1)
    residual = np.max(np.abs(aw - lam[:, None] * w), axis=1)
    ok = residual <= rtol * lam

    squarings = base_squarings
    while not np.all(ok) and squarings < max_squarings:
        squarings += 4
        retry = np.flatnonzero(~ok)
        w_r = _power_weights(mats[retry], squarings)
        aw_r = np.einsum("bij,bj->bi", mats[retry], w_r)
        lam_r = np.mean(aw_r / w_r, axis=1)
        res_r = np.max(np.abs(aw_r - lam_r[:, None] * w_r), axis=1)
        w[retry] = w_r
        lam[retry] = lam_r
        residual[retry] = res_r
        ok[retry] = res_r <= rtol * lam_r
    return lam, w, residual, ok


def rgm_batch(mats: np.ndarray) -> np.ndarray:
    """Row-geometric-mean weights for a (B, n, n) stack, each row summing to 1."""
    g = np.exp(np.mean(np.log(mats), axis=2))
    return g / g.sum(axis=1, keepdims=True)


def violation_flags(
    mats: np.ndarray,
    w0: np.ndarray,
    factor: float,
    margin: float,
    method: str = "eigenvector",
    rtol: float = RESIDUAL_RTOL,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flag matrices whose weight ratios move against an increased judgment.

    For every upper-triangle entry (i, j) of each matrix, the entry is
    multiplied by ``factor`` (mirror divided), weights are recomputed with
    ``method``, and the matrix is flagged as soon as some ratio w_i/w_k drops
    by more than ``margin`` relative to its unperturbed value. ``w0`` holds
    the unperturbed weights, for the eigenvector method the Perron vectors
    of ``mats``. Entries are scanned in row-major order and a flagged matrix
    is not scanned further, which cannot change the flag. Returns
    ``(violated, ok, first)``: ``violated`` and ``ok`` are booleans of shape
    (B,), ``ok`` False where some required eigen solve failed to converge;
    ``first`` (B, 3) holds the 1-based (i, j, k) of each flagged matrix's
    first drop (smallest k at the flagging entry) and zeros elsewhere.
    """
    mats = np.asarray(mats, dtype=float)
    w0 = np.asarray(w0, dtype=float)
    use_eigen = canonical_method(method) == "eigenvector"
    b = mats.shape[0]
    violated = np.zeros(b, dtype=bool)
    ok = np.ones(b, dtype=bool)
    first = np.zeros((b, 3), dtype=np.int64)
    # blocks bound the chord kernel's working set; the slices are views, so
    # each block fills its share of the outputs in place
    for lo in range(0, b, AUDIT_BLOCK):
        block = slice(lo, lo + AUDIT_BLOCK)
        _audit_block(mats[block], w0[block], factor, 1.0 - margin, use_eigen, rtol,
                     violated[block], ok[block], first[block])
    return violated, ok, first


def _audit_block(mats, w0, factor, thresh, use_eigen, rtol, violated, ok, first) -> None:
    """The row-major scan of :func:`violation_flags` over one block."""
    n = mats.shape[1]
    chord = _ChordSolver(mats, w0) if use_eigen and len(mats) >= CHORD_MIN_ROWS else None
    for i in range(n - 1):
        for j in range(i + 1, n):
            active = np.flatnonzero(~violated & ok)
            if active.size == 0:
                return
            if not use_eigen:
                w1 = rgm_batch(_perturbed(mats, active, i, j, factor))
            else:
                if chord is not None:
                    w1, ok1 = chord.solve(active, i, j, factor, rtol)
                else:
                    _, w1, _, ok1 = perron_batch(_perturbed(mats, active, i, j, factor),
                                                 rtol=rtol)
                ok[active[~ok1]] = False
                active = active[ok1]
                w1 = w1[ok1]
            r0 = w0[active, i, None] / w0[active]  # (B', n): w_i/w_k before
            r1 = w1[:, i, None] / w1  # after
            worse = r1 < r0 * thresh
            worse[:, i] = False  # k = i is identically 1
            hit = np.any(worse, axis=1)
            rows = active[hit]
            violated[rows] = True
            first[rows, :2] = i + 1, j + 1
            first[rows, 2] = np.argmax(worse[hit], axis=1) + 1


def _perturbed(mats: np.ndarray, rows: np.ndarray, i: int, j: int,
               factor: float) -> np.ndarray:
    """Copies of ``mats[rows]`` with a_ij multiplied and a_ji divided by ``factor``."""
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

    Holds, per matrix and in (n, n, B) layout, A, A w0 and the w-block of
    the inverse of the bordered Jacobian [[A - lam0 I, -w0], [1^T, 0]], each
    computed once. The held rows shrink with the audit's active set, so every
    step works on contiguous arrays.
    """

    def __init__(self, mats: np.ndarray, w0: np.ndarray) -> None:
        b, n, _ = mats.shape
        self.mats = mats
        self.rows = np.arange(b)
        self.mats_t = np.ascontiguousarray(mats.transpose(1, 2, 0))
        self.w0 = np.ascontiguousarray(w0.T)
        self.aw0 = _matvec(self.mats_t, self.w0)
        lam0 = np.mean(self.aw0 / self.w0, axis=0)
        jac = np.zeros((b, n + 1, n + 1))
        jac[:, :n, :n] = mats
        jac[:, range(n), range(n)] -= lam0[:, None]
        jac[:, :n, n] = -w0
        jac[:, n, :n] = 1.0
        # the steps keep 1^T w fixed, so the last column is never needed
        inv = np.linalg.inv(jac)[:, :n, :n]
        self.inv_t = np.ascontiguousarray(inv.transpose(1, 2, 0))

    def _hold(self, rows: np.ndarray) -> None:
        """Drop held rows not in ``rows``, a sorted subset of them."""
        if rows.size == self.rows.size:
            return
        pos = np.searchsorted(self.rows, rows)
        self.rows = rows
        self.mats_t, self.w0, self.aw0, self.inv_t = (
            np.take(x, pos, axis=-1) for x in (self.mats_t, self.w0, self.aw0, self.inv_t))

    def solve(self, rows: np.ndarray, i: int, j: int, factor: float,
              rtol: float) -> tuple[np.ndarray, np.ndarray]:
        """Perron vectors (R, n) of the given rows with a_ij scaled by
        ``factor`` and a_ji by its reciprocal, and their ``ok`` flags.

        ``rows`` must be a sorted subset of the rows of the previous call.
        Each chord step is w -= M (A'w - lam w), with M the held inverse
        block and lam the mean ratio (A'w)_p / w_p. An iterate is accepted
        under :func:`perron_batch`'s residual test, and only while positive;
        rows not accepted within ``CHORD_STEPS`` steps are solved by
        :func:`perron_batch` on an explicit perturbed copy.
        """
        self._hold(rows)
        a, inv, w = self.mats_t, self.inv_t, self.w0
        d_ij = a[i, j] * factor - a[i, j]
        d_ji = a[j, i] / factor - a[j, i]
        resid, _ = _perturbed_residual(self.aw0.copy(), w, i, j, d_ij, d_ji)
        out = np.empty((rows.size, len(w)))
        ok = np.zeros(rows.size, dtype=bool)
        left = np.arange(rows.size)
        for _ in range(CHORD_STEPS):
            w = w - _matvec(inv, resid)
            resid, lam = _perturbed_residual(_matvec(a, w), w, i, j, d_ij, d_ji)
            done = ((np.maximum.reduce(np.abs(resid), axis=0) <= rtol * lam)
                    & (np.minimum.reduce(w, axis=0) > 0))
            if not done.any():
                continue
            out[left[done]] = w[:, done].T
            ok[left[done]] = True
            keep = ~done
            left = left[keep]
            if left.size == 0:
                break
            a, inv, w, resid, d_ij, d_ji = (
                np.compress(keep, x, axis=-1) for x in (a, inv, w, resid, d_ij, d_ji))
        if left.size:
            pert = _perturbed(self.mats, rows[left], i, j, factor)
            _, out[left], _, ok[left] = perron_batch(pert, rtol=rtol)
        return out, ok
