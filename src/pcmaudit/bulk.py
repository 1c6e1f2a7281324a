"""Batched Perron eigenpair solves for large populations of small matrices.

The bulk solver raises each matrix to the power 2**k by repeated squaring and
reads the dominant eigenvector off the row sums. Squaring doubles the power
iteration exponent per step, so a fixed, data-independent number of steps
reaches the noise floor for every judgment matrix on the bounded scales used
here (entries within [1/10, 10] give a Birkhoff contraction coefficient of at
most ~0.981 per application, hence < 1e-15 residual error after 2**13
applications). Every solve is verified against a residual bound; rows that
miss it are retried with a larger exponent and reported as failures only if
they still miss. The procedure is branch-free per batch and deterministic for
a fixed chunking, which keeps simulation results independent of worker count.
"""

from __future__ import annotations

import numpy as np

from .weights import canonical_method

# 2**13 = 8192 effective power iterations; see module docstring.
BASE_SQUARINGS = 13
MAX_SQUARINGS = 24
# Relative residual accepted as converged: max|Aw - lam*w| <= tol * lam.
RESIDUAL_RTOL = 1e-12


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
    by more than ``margin`` relative to its unperturbed value. Entries are
    scanned in row-major order and a flagged matrix is not scanned further,
    which cannot change the flag. Returns ``(violated, ok, first)``:
    ``violated`` and ``ok`` are booleans of shape (B,), ``ok`` False where
    some required eigen solve failed to converge; ``first`` (B, 3) holds the
    1-based (i, j, k) of each flagged matrix's first drop (smallest k at the
    flagging entry) and zeros elsewhere.
    """
    mats = np.asarray(mats, dtype=float)
    b, n, _ = mats.shape
    use_eigen = canonical_method(method) == "eigenvector"
    violated = np.zeros(b, dtype=bool)
    ok = np.ones(b, dtype=bool)
    first = np.zeros((b, 3), dtype=np.int64)
    thresh = 1.0 - margin
    for i in range(n - 1):
        for j in range(i + 1, n):
            active = np.flatnonzero(~violated & ok)
            if active.size == 0:
                return violated, ok, first
            pert = mats[active].copy()
            pert[:, i, j] *= factor
            pert[:, j, i] /= factor
            if use_eigen:
                _, w1, _, ok1 = perron_batch(pert, rtol=rtol)
                ok[active[~ok1]] = False
                active = active[ok1]
                w1 = w1[ok1]
            else:
                w1 = rgm_batch(pert)
            r0 = w0[active, i, None] / w0[active]  # (B', n): w_i/w_k before
            r1 = w1[:, i, None] / w1  # after
            worse = r1 < r0 * thresh
            worse[:, i] = False  # k = i is identically 1
            hit = np.any(worse, axis=1)
            rows = active[hit]
            violated[rows] = True
            first[rows, :2] = i + 1, j + 1
            first[rows, 2] = np.argmax(worse[hit], axis=1) + 1
    return violated, ok, first
