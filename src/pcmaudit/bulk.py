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

Slabs. The squarings of a base solve, and those of the root bounds below,
run ``SLAB`` matrices at a time through two (SLAB, n, n) buffers, each
product written into the buffer that the last one did not fill (K. Goto and
R. A. van de Geijn, ACM TOMS 34(3), 2008, on blocking for the cache). At
n = 9 the two take 1.3 MB, where squaring a 16,384-matrix chunk at once
wrote a fresh 10.6 MB array per product. A stacked product treats each
matrix alone, so every weight, root and bound is bit for bit that of the
unblocked squaring, whatever the slab. On 16,384 n = 9 matrices the
``tracemalloc`` peak of :func:`perron_bounds` fell from 20.25 to 1.8 MiB
and that of :func:`perron_batch` from 5.9 to 4.6 MiB (numpy 2.4.6).

Matrices read from files have no bounded scale, and
:func:`pcmaudit.weights.eigenvector_method` solves them here as batches of
one. They take the same retry loop and the same relative residual test, so a
matrix of any spread either passes it or is reported as unconverged. The test
scales with lam, so a large Perron root does not make a solve fail: entries
spread over [1e-6, 1e6] converge. Entries so large that the squaring
overflows (1e300, say) leave non-finite weights and fail the test.

Root bounds. :func:`perron_bounds` brackets each Perron root without
solving for it. For a positive A and any positive x, the Collatz-Wielandt
bounds min_p (Ax)_p / x_p <= rho(A) <= max_p (Ax)_p / x_p hold (R. A. Horn
and C. R. Johnson, *Matrix Analysis*, ch. 8), and a few squarings bring x
close enough to the Perron vector that the interval is narrow: at
``SCREEN_SQUARINGS`` = 4 its median width, over 4096 matrices per scale, is
3e-5 of rho at n = 9 and 2e-4 to 4e-4 of it at n = 4 and 6. The bound
holds for the x that is stored, so only the rounding of the ratios needs a
slack: each (Ax)_p sums n positive products, which rounds it by at most
n u relative (u = 2**-53; N. J. Higham, *Accuracy and Stability of Numerical
Algorithms*, section 3.1), and the division by x_p adds u. Each end is
widened by (n + 1) eps relative, eps = 2 u: twice that bound, which also
covers the rounding of the widening itself. For the same reason x needs
neither the rescaling nor the normalization of the base solve, which cost
more than the squarings themselves at n = 4. Unscaled, the entries of
A**16 lie between n**15 a**16 and n**15 M**16 for entries in [a, M]: for
matrices with unit diagonal, as pairwise comparison matrices have, A**16 >= A
entrywise, so no x_p falls below 1, and entries up to 1e6 stay far below
the float range. A row that overflows gets the vacuous interval, and the
rows of its slab keep theirs. Each slab's ratios and their least and
largest values are taken while its power is in the buffer.

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
plus two scalar corrections and no perturbed matrix is built.

Certificates. A solve is not stepped until it converges. It takes a fixed
``CERTIFY_STEPS[0]`` steps from w0, with no test, and its iterate w is
judged by how far it can lie from the exact Perron vector w* of A', the
matrix that :func:`_perturbed` builds. Let d_H(x, y) = max_p ln(x_p/y_p) -
min_p ln(x_p/y_p), Hilbert's projective metric. A positive A' shrinks it by
tau = tanh(Delta/4), Delta the largest d_H between two images under A' (G.
Birkhoff, Trans. AMS 85, 1957; P. J. Bushell, Arch. Rational Mech. Anal. 52,
1973; E. Seneta, *Non-negative Matrices and Markov Chains*, ch. 3), so
d_H(w, w*) <= d_H(w, A'w) + tau d_H(w, w*), that is

    d_H(w, w*) <= kappa d_H(w, A'w),  kappa = 1 / (1 - tau) = (1 + e^(Delta/2)) / 2.

Delta is the largest ln(a_pr a_qs / (a_qr a_ps)), so it is at most 2 ln s
for s the spread of A, its largest entry over its least. A cross-ratio
other than 1 holds each entry at most once, and never a_ij above with a_ji
below, so the raise multiplies it by at most a'_ij / a_ij or a_ji / a'_ji,
each at most f / (1 - u) <= f**2: Delta' <= 2 ln(f s), and kappa' <= (1 +
f s) / 2 needs no exponential. (The exact Delta, n**3 per matrix, took
47 ms for 4096 matrices at n = 9, where their whole audit at 1.01 took 20
ms; 2 vCPUs, numpy 2.4.6.) The base w0 gets the same bound r0 against A,
once per matrix. ln(w_i/w_k) - ln(w*_i/w*_k) = ln(w_i/w*_i) -
ln(w_k/w*_k) is at most d_H(w, w*) in size, so each move q_k = (w_i/w_k) /
(w0_i/w0_k) lies within a factor e^(+-r) of the exact one, r = r0 + r1 with
r1 the bound on w. As e^r <= 1 / (1 - r) for r < 1, :func:`_verdicts` flags
a solve when some q_k < (1 - margin)(1 - r), clears it when q_k (1 - r) >
1 - margin at every k != i, and otherwise leaves it undecided; it decides
only a positive iterate. The undecided take ``CERTIFY_STEPS[1]`` more steps
and are judged again. Those still undecided are solved as :func:`_full_scan`
solves them: :func:`perron_batch` squares an explicit copy of the raised
matrix, built by :func:`_perturbed`, and the float drop test of
:func:`_drops` flags its converged vector; a copy whose squaring does not
converge is a failure. So a certified flag is the decision of exact
arithmetic on the float matrices, an undecided solve is flagged or failed
as the full scan flags or fails it, and a certified one is never a failure.
The residual test bounds a float solve's error in these terms only to about
1e-8, so a float flag could differ from the exact one where a move lies
that close to the margin; none did on the tests' populations or in the full
4x4 sweep. The steps contract by a factor of the order of the perturbation,
so the undecided share grows with the factor. Over 40 stride-299 sweep
chunks (105,210 solves per factor), none was undecided after 2 steps at
1.001, 0.02% at 1.01 and 2.5% at 1.1, and 5 solves at 1.1 after 4. Over
16,384 fig2 matrices at n = 6 and 9 and the under-cap ones of as many fig4
matrices at n = 5 and 6, at most 0.03% were undecided after 2 steps at 1.01
and 0.3-3.3% at 1.1, and one solve in all after 4. So the squaring is rare:
in 16,384-ordinal sweep chunks at ordinals 0, 9M and 18M, at three factors,
2-9 of the 200,000-290,000 solves of a chunk reached it, and 0-2 of a
16,384-matrix fig2 discrete chunk at n = 5, 6 or 9 (numpy 2.4.6).

Slack. r is computed in floats, so it is widened as the bounds of
:func:`perron_bounds` are (u = 2**-53, eps = 2u). d_H(w, A'w) <= D - 1 for D
the largest over the least ratio (A'w)_p / w_p. Each (A'w)_p sums n + 1
products, the n of A w and one correction. At row j the correction d_ji w_i
is negative, of size at most (f / (1 - u) - 1) (A'w)_j, so the sum is
rounded by at most (n + 1) u (2f - 1) of (A'w)_j (Higham, section 3.1). The
rounding of d_ji = a'_ji - a_ji adds u (f - 1); it is 0 for f <= 2, where a'
lies within a factor 2 of a and the difference is exact by Sterbenz's lemma
(Higham, section 2.5), and likewise for d_ij. So eps_A = 2 (n + 2) f eps
bounds the relative error of every computed (A'w)_p. With the division to
each ratio and the one to the computed D^, D <= D^ (1 + eta) with eta <
2.5 eps_A; while D^ < 2, D^ - 1 is exact and D - 1 <= D^ - 1 + 5 eps_A, the
slack of :func:`_slack`. At D^ >= 2, r > 1 and nothing is decided. kappa
takes three roundings from f s and is widened by 4 eps (:func:`_kappa`).
The eight sums and products that give r, and 1 - r, each round by at most
u of a value below 1 while r < 1; the move's three divisions and the two
products of the tests each add at most u relative. That is 14 u in all,
besides the far smaller roundings of the slack itself, and the 8 eps =
16 u added to r covers it. The model assumes that no product underflows;
on the judgment scales none comes near.

Inverse. :func:`_bordered_inverse` builds M by Gauss-Jordan elimination on
J = [[A - lam0 I, -w0], [1^T, 0]], vectorized over columns in the
(n, n, B) layout that the steps read. Its pivot order is fixed: rows
0..n-2, then the border row, then row n-1, whose own pivot would be the
zero of the singular block. No row exchange is needed. lam0 I - A is a
singular irreducible M-matrix, so its leading principal blocks are
nonsingular M-matrices, with positive pivots and nonnegative inverses (A.
Berman and R. J. Plemmons, *Nonnegative Matrices in the Mathematical
Sciences*, SIAM 1994, ch. 6; R. E. Funderlic and R. J. Plemmons, Linear
Algebra Appl. 41, 1981), and the first n-1 pivots of J are their
negatives. Eliminating the border row against those rows leaves the pivot
1 + 1^T (lam0 I - A_11)^-1 a, with A_11 the leading n-1 block of A and
a > 0 the first n-1 entries of its column n-1, so that pivot is at least
1. The last pivot is nonzero, as J is nonsingular. Over 4096 matrices per
case at n = 2..9, on both scales and for consistent matrices, the first
n-1 pivots were at most -0.94, the border pivots at least 1.10 and the last
ones 0.10-14.1 in magnitude, and M agreed with LAPACK's to 1e-14 of its
largest entry. Its accuracy decides no flag: the radius bounds whatever
iterate it gives, and a solve left undecided is squared, which takes no M,
so M sets how many solves are certified and the predicted entry (below),
not the result. numpy's batched inverse makes one LAPACK
call per matrix; against it, with the (B, n+1, n+1) Jacobian it needs and
the transposed copy of its result, 4096 matrices took 6 ms against 12-20 ms
at n = 9, 2.0 against 6.6 at n = 6 and 1.0 against 3.9 at n = 4 (2 vCPUs,
numpy 2.4.6). A block of 1-10 matrices takes about 0.1 ms more.

All factors share one scan. Within a block of B matrices the scan runs over
F*B (matrix, factor) columns, column c being matrix c % B at factor
``factors[c // B]``: the inverse is computed once per matrix and tiled to
its F columns, and the entry corrections, and the squaring fallback, take
each column's own factor. A column's chord iterates are not bit for bit the
same in every grouping, as numpy's stacked products may round a column
differently with the number of columns beside it, so which solves a
certificate leaves undecided can move with the grouping. The flags do not
depend on which factors or matrices share a call: every decision is
certified, the decision of exact arithmetic, or comes from the squaring of
the solve's own explicit copy. A column flagged at one factor leaves the
scan while the same matrix is still scanned at the others. The batches are
small (a stride-300 sweep chunk holds about 440 matrices), so the time goes
into numpy calls rather than arithmetic. A certificate's steps take no
test, and its rounds compact the undecided once each.

Scan order. :func:`_scan_order` only yields a block's solves, each a
chord call on some columns at one shared entry or at one entry per column;
every flag and every failure comes from the one step in
:func:`_audit_block`, which certifies each call's solves, squares the
undecided on explicit copies, marks the columns whose squaring failed and
flags those that a certificate or a converged squaring drops some ratio of. The order
decides which solves run, never how one is judged, so ``violated`` and
``ok`` do not depend on it (:func:`violation_flags` states the rule).
It follows one rule. A block at n >= ``PREDICT_MIN_N`` whose (column,
entry) pairs do not fit in one call of ``AUDIT_BLOCK`` first solves every
column at its predicted entry (below). The pairs left, all of the block's
where nothing was predicted, then go in one call if they fit in
``AUDIT_BLOCK``, with no early exit among them. If they do not fit, the
block yields one shared entry a call, in row-major order, over the columns
not yet flagged, less those whose predicted entry it is: a column leaves at
its first flag, and no (column, entry) pair is solved twice.

Block size. In small blocks numpy's per-call cost outweighs the
arithmetic, so a block whose (column, entry) pairs fit in ``AUDIT_BLOCK``
has them all yielded in one call, and predicts nothing. Against per-entry
squaring solves (best of 5 over 20 blocks of 1-127 matrices per case, 1 or
3 factors, 2 vCPUs) that took 0.11-0.83 of the time at n >= 4, 1.03 for
one matrix at n = 9 and 3 factors, and up to 1.28 (0.12 ms) at n = 3;
fig4's under-cap blocks, a quarter to a fifth.

Predicted entry. A block at n >= ``PREDICT_MIN_N`` too large for one pair
call does not open at entry (1, 2): it yields first, for each column, the
entry predicted to flag it. The
w-block M of the bordered inverse maps w0 to zero (the bordered system with
right-hand side (w0, 0) is solved by (0, -1)), and the base residual is
below the noise, so the first chord iterate for a raise of a_ij is
w0 - d_ij w0_j M[:, i] - d_ji w0_i M[:, j], whatever its lam. With
G[p, q] = M[p, q] / w0_p, alpha = d_ij w0_j and beta = d_ji w0_i, that step
moves ln(w_i/w_k) by alpha (G_ki - G_ii) + beta (G_kj - G_ij): O(n) per
(entry, k), and no solve. :func:`_predict_entries` picks, per column, the
entry whose move is the most negative over k, in slabs of ``SLAB``
columns, which bounds its temporaries. One chord call solves every column
at its own entry; the columns it does not flag stay held, and their other
entries follow. The prediction only orders the work. The scan returns
flags alone, so the order leaves no trace (see Witness below). At factor
1.01, over 16,384 matrices per case, the predicted entry flagged 99.8%
(n = 5) to 100.0% (n = 9) of the violating matrices, against 16-17% for
entry (1, 2), and the perturbed solves per matrix fell from 6.3-6.5 to 3.9
(n = 5), 2.6 (n = 6) and 1.06 (n = 9, discrete).

One rule, not a gate. The order once chose, per block at n >= 5, between
the row-major order, the predicted order with its pairs in calls of
``AUDIT_BLOCK`` and one call of all pairs, by a gate on the share of
columns predicted to flag (0.25). That gate's crossovers were measured
before the certificates, which made each solve cheaper, and it paid for
the prediction even where it then kept the row-major order. Timing
``violation_flags`` under the one rule against the gated scan (median of 4
alternating processes, best of 5 in each, 2 vCPUs, numpy 2.4.6; factor
1.01 unless three factors are given; "near" draws a_ij = exp(s_i - s_j +
0.5 z_ij), s and z standard normal; the flags and ok bits were the same in
every case):

    ==================================  =====  =========  ======  =========
    population                          rows   flagged    gated   rule
    ==================================  =====  =========  ======  =========
    fig2 n = 5 discrete                 16384  0.68       32 ms   0.87
    fig2 n = 6 discrete                 16384  0.89       33 ms   0.96
    fig2 n = 9 discrete                 16384  1.00       56 ms   0.95
    fig4 n = 5 under-cap                1831   0.03       5.7 ms  0.86
    fig4 n = 6 under-cap                643    0.16       4.0 ms  0.82
    fig4 n = 7 under-cap                166    0.33       1.6 ms  1.07
    near n = 9                          2048   0          30 ms   0.99
    near n = 16                         2048   0          201 ms  1.07
    fig2 n = 5 discrete, 3 factors      4096   0.67       21 ms   0.92
    fig2 n = 6 discrete, 3 factors      4096   0.89       19 ms   1.01
    sweep n = 4, 3 x 16,384, 3 factors  49152  0.21       131 ms  1.03
    sweep n = 4, stride 299, 3 factors  439    0.24-0.45  2.0 ms  0.99-1.01
    ==================================  =====  =========  ======  =========

The rule is the ratio to the gated time. The stride-299 rows are four
chunks at ordinals 0, 6.3M, 12.6M and 18.9M. At n = 4 the calls are those
of the gated scan, which never predicted there, so those ratios are noise;
predicting at n = 4, with six upper entries, took 1.09-1.27 of the time on
sweep chunks. fig4's n = 7 blocks now fit one pair call, which has no early
exit, where the gate sent them to the predicted order. In the near blocks
at n = 16, every row-major call leaves out the columns whose predicted
entry it is, so each of the 119 takes a copy of the held columns.

Full scan. :func:`_full_scan` solves every upper entry of every column by
squaring, or by the geometric mean, with no early exit. The scalar audit in
:mod:`pcmaudit.monotonic` reports every violating (i, j, k) from it, for
either method. Every audit and entry point checks its factors and margin
with :func:`audit_factors`.

Witness. Each output reports, per factor, the row-major first drop
(i, j, k) of its lowest-CR flagged matrix, read by :func:`first_violations`
alone, once per output: it solves the matrix and its raised-entry copies by
squaring, as the full scan does, so the witness is the first record of
:func:`pcmaudit.monotonic.check_monotonicity`, whichever scan flagged the
matrix. One matrix takes about 0.3 ms at n = 4 and 0.4 ms at n = 9 (2
vCPUs, numpy 2.4.6). Chord steps would add a batched inverse, and memory,
to a fan-out's parent, which inverts nothing else.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ValidationError

# A**(2**13): 8192 applications of each matrix; see module docstring.
BASE_SQUARINGS = 13
MAX_SQUARINGS = 24
# The float spacing at 1, 2**-52: the unit of the certificates' slack.
EPS = np.finfo(float).eps
# Squarings behind the Collatz-Wielandt bounds of perron_bounds.
SCREEN_SQUARINGS = 4
# Relative residual accepted as converged: max|Aw - lam*w| <= tol * lam.
RESIDUAL_RTOL = 1e-12
# Fixed chord steps before each certificate of a perturbed solve: the
# solves that the first leaves undecided take the second's more, and those
# still undecided are squared on explicit copies, as the full scan solves
# them; see the module docstring.
CERTIFY_STEPS = (2, 2)
# Matrices per audit block, each bringing one column per factor, and the
# most (column, entry) pairs a block solves in one call; bounds their
# working sets.
AUDIT_BLOCK = 4096
# Blocks of n x n matrices, n this or more, whose pairs do not fit in one
# call solve each column's predicted entry first; see the module docstring.
PREDICT_MIN_N = 5
# Matrices per slab of the squarings (base solve and root bounds), columns
# per slab of the entry prediction and of the bordered inverse; bounds
# their temporaries, which at n = 9 then fit a 2 MB cache.
SLAB = 1024


def _power_weights(mats: np.ndarray, squarings: int) -> np.ndarray:
    """Row sums of mats**(2**squarings), normalized to sum 1 per matrix,
    squared in slabs by :func:`_slab_powers`."""
    w = np.empty(mats.shape[:2])
    for rows, p in _slab_powers(mats, squarings, rescale=True):
        w[rows] = p.sum(axis=2)
    w /= w.sum(axis=1, keepdims=True)
    return w


def _slab_powers(mats: np.ndarray, squarings: int, rescale: bool):
    """Yield ``(rows, p)`` for each slab of ``SLAB`` matrices of a (B, n, n)
    stack, p being ``mats[rows]**(2**squarings)``, each matrix divided by
    its largest entry after every squaring if ``rescale``; the divisions
    cancel in any normalization and keep the powers from overflowing.

    Two (SLAB, n, n) buffers take the squarings in turn, so p is
    overwritten by the next slab. A stacked product treats every matrix
    alone, so each power is bit for bit what a squaring of the whole stack
    gives, whatever the slab.
    """
    b, n, _ = mats.shape
    bufs = np.empty((2, min(b, SLAB), n, n))
    for lo in range(0, b, SLAB):
        rows = slice(lo, lo + SLAB)
        p = mats[rows]
        q, spare = bufs[:, :len(p)]
        for _ in range(squarings):
            # out by position and max as a method: the keyword costs about
            # 1 us a call and np.amax 2 us, which a stack of one matrix feels
            np.matmul(p, p, q)
            if rescale:
                q /= q.max(axis=(1, 2))[:, None, None]
            p, q, spare = q, spare, q
        yield rows, p


def perron_batch(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Dominant eigenpairs of a (B, n, n) stack of positive reciprocal matrices.

    Returns ``(lam, w, residual, ok)`` with shapes (B,), (B, n), (B,), (B,).
    ``lam`` is the mean componentwise Rayleigh ratio, ``w`` sums to 1 per row,
    ``residual`` is ``max|Aw - lam*w|`` per row, and ``ok`` flags rows whose
    residual passed ``RESIDUAL_RTOL * lam``. Rows with ``ok == False`` did not
    converge and must be excluded by the caller.
    """
    mats = np.ascontiguousarray(mats, dtype=float)
    w = _power_weights(mats, BASE_SQUARINGS)
    lam, residual = _rayleigh(mats, w)
    ok = residual <= RESIDUAL_RTOL * lam

    squarings = BASE_SQUARINGS
    while not np.all(ok) and squarings < MAX_SQUARINGS:
        squarings = min(squarings + 4, MAX_SQUARINGS)
        retry = np.flatnonzero(~ok)
        w[retry] = _power_weights(mats[retry], squarings)
        lam[retry], residual[retry] = _rayleigh(mats[retry], w[retry])
        ok[retry] = residual[retry] <= RESIDUAL_RTOL * lam[retry]
    return lam, w, residual, ok


def perron_bounds(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Intervals ``(lo, hi)``, each of shape (B,), that hold the Perron root
    of each matrix of a positive (B, n, n) stack.

    They are the Collatz-Wielandt bounds min_p and max_p of (A w)_p / w_p,
    with w the row sums of ``mats**(2**SCREEN_SQUARINGS)``, widened by the
    float slack of the module docstring. A row whose w is not finite and
    positive gets ``(0, inf)``.
    """
    n = mats.shape[1]
    lo, hi = np.empty((2, len(mats)))
    with np.errstate(all="ignore"):  # rows that overflow get (0, inf) below
        for rows, p in _slab_powers(mats, SCREEN_SQUARINGS, rescale=False):
            w = np.einsum("bij->bi", p)
            ratio = np.einsum("bij,bj->bi", mats[rows], w) / w
            lo[rows] = _reduce_rows(np.minimum, ratio)
            hi[rows] = _reduce_rows(np.maximum, ratio)
    slack = (n + 1) * np.finfo(float).eps
    lo *= 1.0 - slack
    hi *= 1.0 + slack
    # a zero or non-finite w_p makes its ratio inf or NaN, and so hi
    bad = ~(hi < np.inf)
    lo[bad], hi[bad] = 0.0, np.inf
    return lo, hi


def _reduce_rows(op, x: np.ndarray) -> np.ndarray:
    """``op.reduce(x, axis=1)`` of a (B, n) array for ``op`` np.minimum or
    np.maximum, one column at a time: on rows of 9, numpy's own reduction
    took 4 to 6 times as long. Both ops are exact and keep a NaN, so the
    order changes no bit."""
    out = x[:, 0].copy()
    for k in range(1, x.shape[1]):
        op(out, x[:, k], out=out)
    return out


def _rayleigh(mats: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per matrix, lam = mean (Aw)_p / w_p and the residual max|Aw - lam*w|.

    The reductions are called directly: ``np.mean`` is ``add.reduce`` and a
    division by the count, so the bits are the same, and its wrappers took
    about 8 us of a one-matrix call."""
    aw = np.einsum("bij,bj->bi", mats, w)
    lam = np.add.reduce(aw / w, axis=1) / w.shape[1]
    return lam, np.abs(aw - lam[:, None] * w).max(axis=1)


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
) -> tuple[np.ndarray, np.ndarray]:
    """Flag matrices whose eigenvector ratios move against an increased
    judgment.

    For every factor f in ``factors`` and every upper-triangle entry (i, j)
    of each matrix, the entry is multiplied by f (mirror divided), the
    Perron vector is recomputed, and the matrix is flagged at f when some
    ratio w_i/w_k drops by more than ``margin`` relative to its unperturbed
    value. ``w0`` holds the Perron vectors of ``mats``. A matrix is flagged
    at f when the certificate of some perturbed solve flags it, or, for a
    solve that its certificate left undecided, the full scan's drop test on
    the converged squaring of its explicit copy does; it is a failure at f
    only when none does and some such squaring did not converge. A
    certified solve is never a failure. That rule does not depend on the
    order in which entries are solved. The solves run on the chord scan,
    in blocks of ``AUDIT_BLOCK`` matrices, in the order of the module
    docstring. Returns ``(violated, ok)``, booleans of
    shape (F, B) indexed by factor first, ``ok`` False for failures. A
    flagged matrix's witness is read by :func:`first_violations`.
    """
    mats = np.asarray(mats, dtype=float)
    w0 = np.asarray(w0, dtype=float)
    factors = np.array(audit_factors(factors, margin))
    f, b = factors.size, mats.shape[0]
    violated = np.zeros((f, b), dtype=bool)
    ok = np.ones((f, b), dtype=bool)
    for lo in range(0, b, AUDIT_BLOCK):
        block = slice(lo, lo + AUDIT_BLOCK)
        got = _audit_block(mats[block], w0[block], factors, 1.0 - margin)
        for out, cols in zip((violated, ok), got):
            out[:, block] = cols.reshape(f, -1)
    return violated, ok


def first_violations(mats: np.ndarray, factor: float, margin: float) -> np.ndarray:
    """The 1-based (i, j, k) of each matrix's row-major first drop at
    ``factor``, shape (B, 3): the first upper entry (i, j) whose raise makes
    some w_i/w_k drop by more than ``margin``, and the least such k; zeros
    where none does. One :func:`perron_batch` call solves the (B, n, n)
    stack and one every raised-entry copy, the scalar audit's solves; a
    solve that does not converge shows no drop.
    """
    mats = np.asarray(mats, dtype=float)
    factor, = audit_factors((factor,), margin)
    b, n, _ = mats.shape
    iu, ju = np.triu_indices(n, 1)
    rows = np.repeat(np.arange(b), iu.size)
    i = np.tile(iu, b)
    _, w0, _, ok0 = perron_batch(mats)
    _, w1, _, ok1 = perron_batch(_perturbed(mats, rows, i, np.tile(ju, b), factor))
    worse = _drops(w0[rows], w1, i, 1.0 - margin) & (ok0[rows] & ok1)[:, None]
    worse = worse.reshape(b, iu.size * n)  # per matrix, (entry, k) in row-major order
    e, k = np.divmod(np.argmax(worse, axis=1), n)
    return np.where(worse.any(axis=1)[:, None], np.stack([iu[e], ju[e], k], axis=1) + 1, 0)


def _audit_block(mats, w0, factors, thresh):
    """The chord scan of one block: the flat (F*B,) ``violated`` and ``ok``
    of :func:`violation_flags`, column c being matrix c % B at factor
    ``factors[c // B]``. :func:`_scan_order` only yields the solves; each
    one is certified here, the undecided squared by :func:`perron_batch` on
    their explicit :func:`_perturbed` copies and judged by :func:`_drops`,
    as the full scan judges them, and their failures and flags marked, so
    this loop is the one place where a solve becomes a flag or a failure.
    Overflow, in the solves of a huge factor say, leaves non-finite weights,
    which decide nothing and fail the residual test, so it is not reported.
    """
    b = len(w0)
    with np.errstate(all="ignore"):
        chord = _ChordSolver(mats, w0, factors)
        violated, failed = np.zeros((2, factors.size * b), dtype=bool)
        for cols, i, j in _scan_order(chord, violated):
            flagged, clear = chord.certify(cols, i, j, thresh)
            left = np.flatnonzero(~(flagged | clear))
            if left.size:
                redo = cols[left]
                if isinstance(i, np.ndarray):
                    i, j = i[left], j[left]
                _, w1, _, ok = perron_batch(_perturbed(mats, redo % b, i, j, factors[redo // b]))
                failed[redo[~ok]] = True
                flagged[left] = ok & np.any(_drops(w0[redo % b], w1, i, thresh), axis=1)
            violated[cols[flagged]] = True
    return violated, violated | ~failed


def _scan_order(chord, violated):
    """Yield the chord solves of one block as ``(cols, i, j)``, holding in
    ``chord`` the columns each one needs; the caller marks the flags in
    ``violated``, which is re-read after each call.

    A block at n >= ``PREDICT_MIN_N`` whose (column, entry) pairs do not fit
    in one call of ``AUDIT_BLOCK`` first yields every column at the entry
    :func:`_predict_entries` picks for it. The pairs left then go in one
    call if they fit in ``AUDIT_BLOCK``; if not, one shared entry a call, in
    row-major order, over the columns not yet flagged, less those whose
    predicted entry it is, until every column has flagged.
    """
    n = len(chord.w0)
    iu, ju = np.triu_indices(n, 1)
    cols = chord.cols
    first = None
    if n >= PREDICT_MIN_N and cols.size * iu.size > AUDIT_BLOCK:
        first = _predict_entries(chord)
        yield cols, iu[first], ju[first]
        cols = np.flatnonzero(~violated)
        chord.hold(cols)
    if cols.size * (iu.size - (first is not None)) <= AUDIT_BLOCK:
        pair_col = np.repeat(cols, iu.size)
        pair_e = np.tile(np.arange(iu.size), cols.size)
        if first is not None:
            keep = pair_e != first[pair_col]
            pair_col, pair_e = pair_col[keep], pair_e[keep]
        yield pair_col, iu[pair_e], ju[pair_e]
        return
    for e, (i, j) in enumerate(itertools.combinations(range(n), 2)):
        cols = np.flatnonzero(~violated)
        if cols.size == 0:
            return
        chord.hold(cols)
        yield cols if first is None else cols[first[cols] != e], i, j


def _full_scan(mats, w0, factors, thresh, use_eigen):
    """The scan with no early exit: one :func:`perron_batch` (or
    :func:`rgm_batch`) call per upper entry e, row-major, over all F*B
    columns, column c being matrix c % B at factor ``factors[c // B]``.
    Returns the perturbed weights ``w1`` (E, F*B, n), the solves' ``ok``
    (E, F*B), ``drops`` (E, F*B, n) over k and the solves' residuals
    (E, F*B), 0 for the geometric mean; a failed solve leaves its last
    iterate and its residual, and no drops."""
    b, n, _ = mats.shape
    col_mat = np.tile(np.arange(b), factors.size)
    w0 = w0[col_mat]
    entries = list(itertools.combinations(range(n), 2))
    shape = (len(entries), col_mat.size)
    w1, ok, drops = np.empty(shape + (n,)), np.ones(shape, bool), np.zeros(shape + (n,), bool)
    residual = np.zeros(shape)
    for e, (i, j) in enumerate(entries):
        pert = _perturbed(mats, col_mat, i, j, np.repeat(factors, b))
        if use_eigen:
            _, w1[e], residual[e], ok[e] = perron_batch(pert)
        else:
            w1[e] = rgm_batch(pert)
        good = np.flatnonzero(ok[e])
        drops[e, good] = _drops(w0[good], w1[e, good], i, thresh)
    return w1, ok, drops, residual


def _drops(w0: np.ndarray, w1: np.ndarray, i, thresh: float) -> np.ndarray:
    """Bits (R, n) over k of w1_i/w1_k < thresh * w0_i/w0_k, for rows of
    weights before (``w0``) and after (``w1``) raising an entry of row ``i``,
    shared or one per row; k = i, identically 1, never drops."""
    at = np.arange(len(w1)) if isinstance(i, np.ndarray) else slice(None)
    worse = w1[at, i, None] / w1 < w0[at, i, None] / w0 * thresh
    worse[at, i] = False
    return worse


def _predict_entries(chord) -> np.ndarray:
    """Per held column, the row-major index of the upper entry whose first
    chord iterate lowers some ln(w_i/w_k) the most (module docstring), in
    slabs of ``SLAB`` columns."""
    pick = np.empty(chord.cols.size, dtype=np.intp)
    for lo in range(0, pick.size, SLAB):
        cols = slice(lo, lo + SLAB)
        pick[cols] = np.argmin(_first_moves(chord, cols), axis=0)
    return pick


def _first_moves(chord, cols: slice) -> np.ndarray:
    """(E, C): per upper entry (row-major) and held column in ``cols``, the
    least move over k of ln(w_i/w_k) under the first chord iterate."""
    n = len(chord.w0)
    iu, ju = np.triu_indices(n, 1)
    a, w, fac = chord.mats_t[..., cols], chord.w0[:, cols], chord.fac[cols]
    g = chord.inv_t[..., cols] / w[:, None]  # G[p, q] = M[p, q] / w0_p
    alpha = a[iu, ju] * (fac - 1.0) * w[ju]
    beta = a[ju, iu] * (1.0 / fac - 1.0) * w[iu]
    # ln(w_i/w_k) moves by (alpha G_ki + beta G_kj) - (alpha G_ii + beta G_ij)
    at_i = alpha * g[iu, iu] + beta * g[iu, ju]
    low = at_i
    for k in range(n):
        low = np.minimum(low, alpha * g[k, iu] + beta * g[k, ju])
    return low - at_i


def _perturbed(mats: np.ndarray, rows: np.ndarray, i, j, factor) -> np.ndarray:
    """Copies of ``mats[rows]`` with a_ij multiplied and a_ji divided by
    ``factor``; ``i``, ``j`` and ``factor`` are each shared or one per row."""
    pert = mats[rows]
    at = np.arange(len(rows)) if isinstance(i, np.ndarray) else slice(None)
    pert[at, i, j] *= factor
    pert[at, j, i] /= factor
    return pert


def _matvec(mats_t: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Per-column products of an (m, m, R) stack with an (m, R) stack."""
    return np.einsum("pqb,qb->pb", mats_t, vecs)


def _flat_rows(i: np.ndarray, j: np.ndarray, size: int):
    """Where row ``i[c]`` and row ``j[c]`` of each column c lie in a
    flattened (m, size) array."""
    at = np.arange(size)
    return i * size + at, j * size + at


def _perturbed_residual(aw, w, ri, rj, d_ij, d_ji) -> tuple[np.ndarray, np.ndarray]:
    """``(A'w - lam w, ratio)`` from ``aw`` = A w, which becomes A'w in
    place, with ``ratio`` the (A'w)_p / w_p.

    A' adds ``d_ij`` to a_ij and ``d_ji`` to a_ji. ``ri`` and ``rj`` are
    rows i and j, shared by every column, or, for one entry per column,
    their :func:`_flat_rows` positions: ``aw`` and ``w`` are C-contiguous
    (m, R) arrays, and their flat views index faster than (row, column)
    pairs. lam is the mean ratio (A'w)_p / w_p, as in :func:`perron_batch`.
    """
    if isinstance(ri, np.ndarray):
        flat, w_flat = aw.reshape(-1), w.reshape(-1)
        flat[ri] += d_ij * w_flat[rj]
        flat[rj] += d_ji * w_flat[ri]
    else:
        aw[ri] += d_ij * w[rj]
        aw[rj] += d_ji * w[ri]
    ratio = aw / w
    lam = np.add.reduce(ratio, axis=0) / len(w)
    return aw - lam * w, ratio


def _bordered_inverse(mats_t: np.ndarray, w0_t: np.ndarray, lam0: np.ndarray) -> np.ndarray:
    """The w-block M (n, n, B) of the inverse of each column's bordered
    Jacobian J = [[A - lam0 I, -w0], [1^T, 0]], from the (n, n, B) stack A,
    the (n, B) stack w0 and the (B,) lam0.

    Gauss-Jordan elimination inverts J with its last two rows swapped,
    pivoting down the diagonal with no row exchanges (module docstring), in
    slabs of ``SLAB`` columns. Swapping two rows of J swaps the same two
    columns of its inverse, so M is the inverse's first n rows at columns
    0..n-2 and n.
    """
    n, _, b = mats_t.shape
    rows = np.append(np.arange(n - 1), n)  # where rows 0..n-1 of J go
    out = np.empty((n, n, b))
    for lo in range(0, b, SLAB):
        cols = slice(lo, lo + SLAB)
        x = np.empty((n + 1, n + 1) + lam0[cols].shape)
        x[rows, :n] = mats_t[..., cols]
        x[rows, range(n)] -= lam0[cols]
        x[rows, n] = -w0_t[:, cols]
        x[n - 1, :n], x[n - 1, n] = 1.0, 0.0
        # in-place Gauss-Jordan: x ends as the inverse
        tmp = np.empty_like(x)
        for k in range(n + 1):
            row = x[k] / x[k, k]
            row[k] = 1.0 / x[k, k]
            f = x[:, k].copy()
            x[:, k] = 0.0
            x -= np.multiply(f[:, None], row, out=tmp)
            x[k] = row
        out[:, :n - 1, cols] = x[:n, :n - 1]
        out[:, n - 1, cols] = x[:n, n]
    return out


class _ChordSolver:
    """Certified chord solves of single-entry perturbations of a block of
    matrices.

    Works on (matrix, factor) columns: for B matrices and F factors, column
    c is matrix c % B at factor ``factors[c // B]``. A w0 and the w-block of
    the inverse of the bordered Jacobian [[A - lam0 I, -w0], [1^T, 0]] are
    computed once per matrix, the inverse by :func:`_bordered_inverse`, and,
    with A, tiled to the columns in (n, n, F*B) layout; so is each matrix's
    base radius r0, which ``bound`` holds per column with the perturbed
    radius's kappa (module docstring). The scan order narrows the held
    columns with its active set (:meth:`hold`), so every step works on
    contiguous arrays. A solve that :meth:`certify` leaves undecided is
    decided by squaring on its explicit copy, with the full scan's drop test
    (:func:`_audit_block`).
    """

    def __init__(self, mats: np.ndarray, w0: np.ndarray, factors: np.ndarray) -> None:
        b, n, _ = mats.shape
        self.cols = np.arange(factors.size * b)
        self.fac = np.repeat(factors, b)
        mats_t = np.ascontiguousarray(mats.transpose(1, 2, 0))
        w0_t = np.ascontiguousarray(w0.T)
        aw0 = _matvec(mats_t, w0_t)
        lam0 = np.add.reduce(aw0 / w0_t, axis=0) / len(w0_t)  # np.mean's bits
        inv_t = _bordered_inverse(mats_t, w0_t, lam0)
        entries = mats_t.reshape(n * n, b)
        spread = np.maximum.reduce(entries, axis=0) / np.minimum.reduce(entries, axis=0)
        kappa = _kappa(spread)
        r0 = _radius(aw0 / w0_t, kappa, kappa * _slack(n, 1.0))
        r0[~(np.minimum.reduce(w0_t, axis=0) > 0)] = np.inf
        # a copy per array costs a one-factor audit at n = 9 about 1.5%
        self.mats_t, self.w0, self.aw0, self.inv_t, spread, r0 = (
            x if factors.size == 1 else np.tile(x, factors.size)
            for x in (mats_t, w0_t, aw0, inv_t, spread, r0))
        kappa = _kappa(self.fac * spread)
        self.bound = np.stack([kappa, r0 + kappa * _slack(n, self.fac) + 8 * EPS])

    def _take(self, cols: np.ndarray) -> tuple[np.ndarray, ...]:
        """The held fac, mats_t, w0, aw0, inv_t and bound at ``cols``, a
        sorted run of held columns in which a column may repeat."""
        held = self.fac, self.mats_t, self.w0, self.aw0, self.inv_t, self.bound
        if np.array_equal(cols, self.cols):
            return held
        pos = np.searchsorted(self.cols, cols)
        return tuple(np.take(x, pos, axis=-1) for x in held)

    def hold(self, cols: np.ndarray) -> None:
        """Drop held columns not in ``cols``, a sorted subset of them."""
        self.fac, self.mats_t, self.w0, self.aw0, self.inv_t, self.bound = self._take(cols)
        self.cols = cols

    def certify(self, cols: np.ndarray, i, j, thresh: float) -> tuple[np.ndarray, np.ndarray]:
        """Per solve, whether the raise certainly drops some w_i/w_k below
        ``thresh`` times its base value (``flagged``) or certainly drops
        none (``clear``); a solve may be neither.

        ``cols`` is a sorted run of held columns, and the held set stays.
        ``i`` and ``j`` are one entry for all, or one per solve, in which
        case a column may repeat, once per entry. ``CERTIFY_STEPS[0]`` chord
        steps w -= M (A'w - lam w) run from w0 with no test, M the held
        inverse block and lam the mean ratio (A'w)_p / w_p, and
        :func:`_verdicts` decides each solve from the Birkhoff radius of its
        iterate (module docstring); the undecided take ``CERTIFY_STEPS[1]``
        more steps and are decided again.
        """
        per_solve = np.ndim(i) > 0
        fac, a, w0, aw, inv, bound = self._take(cols)
        at = np.arange(cols.size) if per_solve else slice(None)
        d_ij = a[i, j, at] * fac - a[i, j, at]
        d_ji = a[j, i, at] / fac - a[j, i, at]
        rows = _flat_rows(i, j, cols.size) if per_solve else (i, j)
        resid, _ = _perturbed_residual(aw.copy(), w0, *rows, d_ij, d_ji)
        w = w0
        flagged, clear = np.zeros((2, cols.size), dtype=bool)
        left = np.arange(cols.size)  # the undecided solves' positions
        for steps in CERTIFY_STEPS:
            for _ in range(steps):
                w = w - _matvec(inv, resid)
                resid, ratio = _perturbed_residual(_matvec(a, w), w, *rows, d_ij, d_ji)
            got = _verdicts(w, w0, _radius(ratio, *bound), i, thresh)
            for out, x in zip((flagged, clear), got):
                out[left[x]] = True
            undecided = ~(got[0] | got[1])
            if not undecided.any():
                break
            left = left[undecided]
            a, inv, w0, w, resid, d_ij, d_ji, bound = (
                np.compress(undecided, x, axis=-1)
                for x in (a, inv, w0, w, resid, d_ij, d_ji, bound))
            if per_solve:
                i, j = i[undecided], j[undecided]
                rows = _flat_rows(i, j, left.size)
        return flagged, clear


def _kappa(spread: np.ndarray) -> np.ndarray:
    """1 / (1 - tanh(Delta/4)) = (1 + e^(Delta/2)) / 2 for e^(Delta/2) at
    most ``spread``, widened by 4 eps for its own rounding."""
    return (1.0 + spread) * (0.5 + 2 * EPS)


def _slack(n: int, fac) -> np.ndarray:
    """What the rounding of A'w, of its ratios (A'w)_p / w_p and of their
    spread can hide of d_H(w, A'w) at a factor ``fac``: 5 times the
    relative error 2 (n + 2) f eps of each (A'w)_p (module docstring)."""
    return 10.0 * (n + 2) * fac * EPS


def _radius(ratio: np.ndarray, kappa: np.ndarray, extra: np.ndarray) -> np.ndarray:
    """``kappa * (D - 1) + extra`` per column of an (n, C) stack of ratios
    (A w)_p / w_p, D the largest over the least: with ``extra`` at least
    kappa times :func:`_slack`, a bound on d_H(w, w*) (module docstring)."""
    d = np.maximum.reduce(ratio, axis=0) / np.minimum.reduce(ratio, axis=0)
    return kappa * (d - 1.0) + extra


def _verdicts(w, w0, r, i, thresh: float) -> tuple[np.ndarray, np.ndarray]:
    """``(flagged, clear)`` per column of (n, C) iterates ``w`` of raises of
    an entry of row ``i``, shared or one per column, against the base
    weights ``w0``, for radii ``r`` that bound the sum of both iterates'
    d_H distances from their exact Perron vectors, and the float slack of
    this test (module docstring). Each move q_k = (w_i/w_k) / (w0_i/w0_k)
    is then within a factor 1 - r of the exact one, for r < 1; q_i, 1,
    never drops. Only a positive iterate is decided."""
    g = 1.0 - r
    q = w0 / w
    at = np.arange(q.shape[1]) if isinstance(i, np.ndarray) else slice(None)
    q /= q[i, at]
    q[i, at] = np.inf
    lowest = np.minimum.reduce(q, axis=0)
    positive = np.minimum.reduce(w, axis=0) > 0
    return (lowest < thresh * g) & positive, (lowest * g > thresh) & positive
