"""Monte Carlo pipeline: random matrices, CR binning, and violation tallies.

One simulation iteration generates a random matrix, bins it by consistency
ratio, audits eigenvector monotonicity over all upper-triangle perturbations,
and increments the bin's violating count at most once however many triples
failed. A running minimum-CR violating example is kept; its witnessing
(i, j, k) is resolved once per output (:func:`resolve_examples`). Work is
chunked on fixed generator-substream boundaries and chunk results merge
associatively, so a run's output is a pure function of (seed, iterations)
regardless of worker count.

Under a CR cap whose overflow bucket is not audited, most matrices need no
base solve: a Collatz-Wielandt interval for each Perron root, after
``bulk.SCREEN_SQUARINGS`` squarings, and the largest error a converged base
solve may have (``_settled_over_cap``) certify that the matrix bins in
overflow with no boundary tie, and it is counted there. A matrix so
certified is never counted as a failure. The others take the full base
solve as before.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bulk
from .consistency import CI_NOISE_CLAMP, default_random_index_table
from .errors import ConfigurationError, ValidationError
from .fanout import ordered_map
from .generate import SUBSTREAM_CHUNK, GeneratorConfig, generate_batch, matrices_from_upper
from .monotonic import VIOLATION_MARGIN

# CR values this close to a bin boundary are assigned to the lower bin and
# counted as boundary-tie incidents.
BIN_TIE_TOL = 1e-12
# Rows a histogram may write: its CSV holds one row per bin from zero to the
# cap, or, with no cap, to the highest occupied bin, and ``rows`` builds them
# all in memory first (a peak of about 0.2 KB a row with its CSV line), so
# 10**6 rows take about 200 MB. Bin indices this small are exact in float64.
MAX_BINS = 10**6


@dataclass
class MinCrExample:
    """Lowest-CR matrix seen with a non-monotonic eigenvector, and its
    witness: raising a_ij lowers w_i/w_k. The witness is None in a chunk's
    result and resolved once per output (:func:`resolve_examples`)."""

    upper_entries: tuple[float, ...]
    cr: float
    i: int | None = None
    j: int | None = None
    k: int | None = None

    def sort_key(self):
        return (self.cr, self.upper_entries)

    def to_dict(self) -> dict:
        return {"upper_entries": list(self.upper_entries), "cr": self.cr,
                "i": self.i, "j": self.j, "k": self.k}

    @classmethod
    def from_dict(cls, doc: dict) -> "MinCrExample":
        return cls(tuple(doc["upper_entries"]), doc["cr"], doc["i"], doc["j"], doc["k"])


@dataclass
class CrHistogram:
    """Counts of total and violating matrices per consistency-ratio bin.

    Bin m (0-based) covers ``beta * m <= CR < beta * (m + 1)``. When ``cap``
    is set (a finite positive multiple of beta), everything at or above it
    lands in a single overflow bucket. ``bins`` maps m to ``[total, violating]``.
    ``beta`` must exceed ``2 * BIN_TIE_TOL``, so that the tie zones around
    neighbouring boundaries do not meet. The cap may lie at most ``MAX_BINS``
    bins above zero; with no cap, so may every recorded CR. Under a cap, CRs
    of any size land in overflow.
    """

    beta: float
    cap: float | None = None
    bins: dict[int, list[int]] = field(default_factory=dict)
    overflow: list[int] = field(default_factory=lambda: [0, 0])
    boundary_ties: int = 0
    failures: int = 0
    min_cr_example: MinCrExample | None = None

    def __post_init__(self) -> None:
        if not 2 * BIN_TIE_TOL < self.beta < np.inf:
            raise ValidationError(
                f"bin width must be finite and exceed {2 * BIN_TIE_TOL:g}, got {self.beta}")
        if self.cap is not None:
            bins = self.cap / self.beta
            if not (0 < self.cap < np.inf and bins <= MAX_BINS
                    and abs(bins - round(bins)) <= 1e-9):
                raise ValidationError(
                    "cap must be a finite positive multiple of the bin width, at most "
                    f"{MAX_BINS} bins above zero, got {self.cap}")

    @property
    def cap_bins(self) -> int | None:
        return None if self.cap is None else int(round(self.cap / self.beta))

    def _float_bins(self, cr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bin of each CR, as a float with no bound, and its tie flag."""
        scaled = cr / self.beta
        nearest = np.rint(scaled)
        tie = (np.abs(cr - nearest * self.beta) <= BIN_TIE_TOL) & (nearest >= 1)
        return np.where(tie, nearest - 1, np.floor(scaled)), tie

    def _bins_and_ties(self, cr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        m, tie = self._float_bins(cr)
        if self.cap is not None:
            m = np.minimum(m, self.cap_bins)  # every bin from the cap up is overflow
        elif not np.all(m < MAX_BINS):
            raise ValidationError(
                f"a CR of {np.max(cr)} lies more than {MAX_BINS} bins of width {self.beta} "
                "above zero; set a cap or a wider bin")
        return m.astype(np.int64), tie

    def record_array(self, cr: np.ndarray, checked: np.ndarray, violated: np.ndarray) -> None:
        """Tally a batch: every matrix counts once; violations only where checked."""
        m, tie = self._bins_and_ties(cr)
        keys, slot = np.unique(m, return_inverse=True)
        self.record_binned(keys, slot, tie, np.ones(cr.size, dtype=bool), checked & violated)

    def overflow_certain(self, cr_lo: np.ndarray, cr_hi: np.ndarray) -> np.ndarray:
        """Rows whose every CR in ``[cr_lo, cr_hi]`` bins in the overflow
        bucket with no boundary tie.

        Binning is non-decreasing in CR, and each bin ends in the tie zone
        of its upper boundary, as CRs within ``BIN_TIE_TOL`` of a boundary
        bin low. So when both ends of an interval fall in one bin and the
        high end is no tie, every CR in it bins there untied: the interval
        holds no multiple of beta to within the tolerance and, in a bin at
        or above the cap, lies above ``cap + BIN_TIE_TOL``. The bins compared
        are unclipped, since a boundary above the cap still makes ties.
        """
        with np.errstate(invalid="ignore"):  # an unbounded interval is never certain
            lo_bin, _ = self._float_bins(cr_lo)
            hi_bin, hi_tie = self._float_bins(cr_hi)
        return (lo_bin >= self.cap_bins) & (lo_bin == hi_bin) & ~hi_tie

    def record_binned(self, keys: np.ndarray, slot: np.ndarray, tie: np.ndarray,
                      counted: np.ndarray, hit: np.ndarray) -> None:
        """Tally a batch already binned: row r falls in bin ``keys[slot[r]]``
        and ``tie[r]`` marks a boundary tie. Rows in ``counted`` count once,
        and those also in ``hit`` count as violating."""
        self.boundary_ties += int(np.count_nonzero(tie & counted))
        totals = np.bincount(slot[counted], minlength=keys.size)
        violating = np.bincount(slot[counted & hit], minlength=keys.size)
        if self.cap_bins is not None:
            over = keys >= self.cap_bins
            self.overflow[0] += int(totals[over].sum())
            self.overflow[1] += int(violating[over].sum())
            keys, totals, violating = keys[~over], totals[~over], violating[~over]
        seen = totals > 0
        for idx, total, hits in zip(keys[seen].tolist(), totals[seen].tolist(),
                                    violating[seen].tolist()):
            bin_counts = self.bins.setdefault(idx, [0, 0])
            bin_counts[0] += total
            bin_counts[1] += hits

    def offer_min_example(self, candidate: MinCrExample | None) -> None:
        if candidate is None:
            return
        if self.min_cr_example is None or candidate.sort_key() < self.min_cr_example.sort_key():
            self.min_cr_example = candidate

    def merge(self, other: "CrHistogram") -> None:
        """Fold another histogram with identical geometry into this one."""
        if other.beta != self.beta or other.cap != self.cap:
            raise ValidationError("cannot merge histograms with different bins")
        for idx, (total, violating) in other.bins.items():
            slot = self.bins.setdefault(idx, [0, 0])
            slot[0] += total
            slot[1] += violating
        self.overflow[0] += other.overflow[0]
        self.overflow[1] += other.overflow[1]
        self.boundary_ties += other.boundary_ties
        self.failures += other.failures
        self.offer_min_example(other.min_cr_example)

    @property
    def total(self) -> int:
        return sum(t for t, _ in self.bins.values()) + self.overflow[0]

    @property
    def total_violating(self) -> int:
        return sum(v for _, v in self.bins.values()) + self.overflow[1]

    @property
    def samples(self) -> int:
        """Every matrix recorded: each is counted in a bin, in overflow or
        as a failure."""
        return self.total + self.failures

    def bin_counts(self, lo: float) -> tuple[int, int]:
        """(total, violating) of the bin whose lower edge is ``lo``."""
        return tuple(self.bins.get(int(round(lo / self.beta)), [0, 0]))

    def rows(self) -> list[tuple[float, float | None, int, int]]:
        """(bin_lo, bin_hi, total, violating) rows, contiguous from zero.

        The overflow bucket, when present, is the final row with ``bin_hi``
        None. Fine bins run through the cap, or through the last occupied bin.
        """
        if self.cap_bins is not None:
            top = self.cap_bins
        else:
            top = max(self.bins, default=-1) + 1
        out = []
        for m in range(top):
            total, violating = self.bins.get(m, (0, 0))
            out.append((m * self.beta, (m + 1) * self.beta, total, violating))
        if self.cap_bins is not None:
            out.append((self.cap, None, self.overflow[0], self.overflow[1]))
        return out

    def to_dict(self) -> dict:
        return {
            "beta": self.beta,
            "cap": self.cap,
            "bins": [{"m": m + 1, "total": t, "violating": v}
                     for m, (t, v) in sorted(self.bins.items())],
            "overflow": {"total": self.overflow[0], "violating": self.overflow[1]},
            "boundary_ties": self.boundary_ties,
            "failures": self.failures,
            "samples": self.samples,
            "min_cr_example": None if self.min_cr_example is None
            else self.min_cr_example.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CrHistogram":
        """The histogram of a :meth:`to_dict` document, whose ``samples``
        must equal its counts: a checkpoint whose counts disagree with it is
        corrupt, and resuming from it would carry the error forward."""
        hist = cls(beta=doc["beta"], cap=doc.get("cap"))
        hist.bins = {entry["m"] - 1: [entry["total"], entry["violating"]]
                     for entry in doc["bins"]}
        hist.overflow = [doc["overflow"]["total"], doc["overflow"]["violating"]]
        hist.boundary_ties = doc["boundary_ties"]
        hist.failures = doc["failures"]
        if doc["samples"] != hist.samples:
            raise ConfigurationError(
                f"histogram counts {hist.total} matrices and {hist.failures} failures, "
                f"but its samples field says {doc['samples']}")
        if doc.get("min_cr_example"):
            hist.min_cr_example = MinCrExample.from_dict(doc["min_cr_example"])
        return hist


def histogram_csv_lines(hist: CrHistogram) -> list[str]:
    """CSV rows for a histogram: header plus one line per bin, LF-terminated
    by the writer. Proportions carry 6 decimals; empty when the bin is empty."""
    lines = ["bin_lo,bin_hi,total,violating,proportion"]
    for lo, hi, total, violating in hist.rows():
        hi_txt = "inf" if hi is None else format(hi, "g")
        prop = format(violating / total, ".6f") if total else ""
        lines.append(f"{format(lo, 'g')},{hi_txt},{total},{violating},{prop}")
    return lines


def audit_population(
    mats: np.ndarray,
    ri: float,
    beta: float,
    factors: tuple[float, ...],
    cap: float | None,
    margin: float,
    audit_overflow: bool,
) -> dict[float, CrHistogram]:
    """Bin a (B, n, n) batch by CR and tally violations at each factor.

    One base Perron solve, one binning and one audit scan serve every
    factor. Matrices whose base solve, CI or audit fails count as failures.
    With ``audit_overflow`` False the audit skips matrices binned in the
    cap's overflow bucket; they still count toward totals. Each histogram
    keeps the lowest-CR violating matrix, its witness not yet resolved.

    With a cap and ``audit_overflow`` False, matrices that
    :func:`_settled_over_cap` certifies to bin in overflow with no tie are
    counted there without a base solve, which is most of a fig4 run at
    n = 9. The others take the base solve, so their results do not change.
    A certified matrix is never counted as a failure, even if its base solve
    would not have converged; no measured run had such a failure.
    """
    n = mats.shape[1]
    hists = {f: CrHistogram(beta=beta, cap=cap) for f in factors}
    geometry = hists[factors[0]]
    settled = 0
    if cap is not None and not audit_overflow:
        over = _settled_over_cap(mats, ri, geometry)
        settled = int(np.count_nonzero(over))
        if settled:  # a copy of mats would add ~10 MB of peak RSS at n = 9
            mats = mats[~over]
    lam, w0, _, ok = bulk.perron_batch(mats)
    ci = (lam - n) / (n - 1)
    ok &= ci >= -CI_NOISE_CLAMP
    cr = _cr(lam, n, ri)

    # bin once for every factor; the histograms share their geometry
    solved = np.flatnonzero(ok)
    m, tie = geometry._bins_and_ties(cr[solved])
    keys, slot = np.unique(m, return_inverse=True)
    audit = np.ones(solved.size, dtype=bool)
    if cap is not None and not audit_overflow:
        # gate on the assigned bin, not the raw value, so a CR tied onto the
        # cap boundary (which bins low) still gets audited
        audit = m < geometry.cap_bins
    audit_at = np.flatnonzero(audit)
    idx = solved[audit_at]
    # with every row audited, audit mats itself rather than a copy (10 MB a
    # chunk at n = 9)
    audited = mats if idx.size == len(mats) else mats[idx]
    w0, cr = w0[idx], cr[idx]
    flags, ok_audit = bulk.violation_flags(audited, w0, factors, margin)
    for hist, flags_f, ok_f in zip(hists.values(), flags, ok_audit):
        counted = np.ones(solved.size, dtype=bool)
        counted[audit_at[~ok_f]] = False
        hit = np.zeros(solved.size, dtype=bool)
        hit[audit_at[flags_f]] = True
        hist.failures += len(mats) - int(np.count_nonzero(counted))
        hist.overflow[0] += settled  # certified to bin there, with no tie
        hist.record_binned(keys, slot, tie, counted, hit)
        if flags_f.any():
            hist.offer_min_example(_min_example(audited, cr, flags_f))
    return hists


def _cr(lam: np.ndarray, n: int, ri: float) -> np.ndarray:
    """CR from Perron roots; each rounded step is non-decreasing in lam."""
    return np.maximum((lam - n) / (n - 1), 0.0) / ri


def _settled_over_cap(mats: np.ndarray, ri: float, hist: CrHistogram) -> np.ndarray:
    """Rows of a positive (B, n, n) stack whose base solve, if it converges,
    must bin in ``hist``'s overflow bucket with no boundary tie.

    :func:`bulk.perron_bounds` brackets each Perron root rho in [lo, hi].
    A converged :func:`bulk.perron_batch` solve returns lam, not rho: it
    accepts w >= 0 with sum 1 and lam once max_p |(Aw)_p - lam w_p| <= t lam,
    t = ``RESIDUAL_RTOL``. Then, with a the least entry of A:

    * (Aw)_p >= a, so lam w_p >= a - t lam;
    * summing lam w_p <= (Aw)_p + t lam over p gives lam (1 - n t) <= the
      largest column sum c of A;
    * hence w_p >= a (1 - n t) / c - t =: w_min > 0;
    * each ratio (Aw)_p / w_p is within t lam / w_min of lam, and rho lies
      between the least and the largest ratio (Collatz-Wielandt), so
      |lam - rho| <= t lam / w_min =: e' lam.

    For e' <= 1/4, lam >= rho / (1 + e') >= lo (1 - e') and
    lam <= rho / (1 - e') <= hi (1 + 4 e' / 3), so lam lies in
    [lo (1 - e), hi (1 + e)] with e = 2 e'. The spare e' / 3 or more covers
    the rounding of the residual test, of sum w and of this widening, each
    a few ulps of lam, against e' lam >= 1e-12 lam.
    The interval maps to CR through :func:`_cr`, as lam does in
    :func:`audit_population`, and ``hist.overflow_certain`` applies the bin
    rule to it.
    """
    n = mats.shape[1]
    t = bulk.RESIDUAL_RTOL
    lo, hi = bulk.perron_bounds(mats)
    col_sums = np.einsum("bpq->bq", mats)  # several times faster than np.sum(axis=1)
    col_max = bulk._reduce_rows(np.maximum, col_sums)
    w_min = np.min(mats, axis=(1, 2)) * (1 - n * t) / col_max - t
    e = 2 * t / np.maximum(w_min, 4 * t)
    settled = hist.overflow_certain(_cr(lo * (1 - e), n, ri), _cr(hi * (1 + e), n, ri))
    return settled & (w_min >= 4 * t)


def simulate_chunk(
    config: GeneratorConfig,
    start: int,
    count: int,
    beta: float,
    factor: float,
    cr_cap: float | None,
    margin: float,
    ri: float,
) -> CrHistogram:
    """Steps of the pipeline for ordinals [start, start + count)."""
    mats = generate_batch(config, start, count)
    return audit_population(mats, ri, beta, (factor,), cr_cap, margin,
                            audit_overflow=False)[factor]


def _min_example(mats: np.ndarray, cr: np.ndarray, flagged: np.ndarray) -> MinCrExample:
    """Pick the lowest-CR matrix among the ``flagged`` rows (ties broken by
    upper triangle), its witness left for :func:`resolve_examples`."""
    n = mats.shape[1]
    iu, ju = np.triu_indices(n, 1)
    rows = np.flatnonzero(flagged)
    tied = rows[cr[rows] == cr[rows].min()]
    upper = mats[tied][:, iu, ju]
    keys = tuple(upper[:, c] for c in range(upper.shape[1] - 1, -1, -1))
    pick = int(np.lexsort(keys)[0])
    return MinCrExample(tuple(float(v) for v in upper[pick]), float(cr[tied[pick]]))


def resolve_examples(hists: dict[float, CrHistogram], n: int, margin: float) -> None:
    """Set each unresolved min-CR example's witness, in histograms of
    n x n matrices keyed by factor: :func:`bulk.first_violations` of its
    matrix, rebuilt from the upper triangle as every batch is built."""
    for factor, hist in hists.items():
        ex = hist.min_cr_example
        if ex is not None and ex.i is None:
            mat = matrices_from_upper(n, np.array([ex.upper_entries]))
            ex.i, ex.j, ex.k = (int(v) for v in bulk.first_violations(mat, factor, margin)[0])


def run_simulation(
    config: GeneratorConfig,
    iterations: int,
    beta: float,
    factor: float,
    cr_cap: float | None = None,
    margin: float = VIOLATION_MARGIN,
    workers: int = 1,
) -> CrHistogram:
    """Full pipeline over ``iterations`` random matrices.

    ``cr_cap`` skips the monotonicity audit for matrices binned at or above
    it (they still count toward totals, in the overflow bucket; a CR within
    the boundary-tie tolerance of the cap bins low and is audited). Results
    are identical for any ``workers`` value; it must be at least 1 and is
    capped at the CPU count.
    """
    if iterations < 1:
        raise ValidationError(f"need at least one iteration, got {iterations}")
    factor, = bulk.audit_factors((factor,), margin)
    ri = default_random_index_table(config.scale).lookup(config.n)
    tasks = [(config, start, min(SUBSTREAM_CHUNK, iterations - start),
              beta, factor, cr_cap, margin, ri)
             for start in range(0, iterations, SUBSTREAM_CHUNK)]
    result = CrHistogram(beta=beta, cap=cr_cap)
    for part in ordered_map(simulate_chunk, tasks, workers):
        result.merge(part)
    resolve_examples({factor: result}, config.n, margin)
    return result
