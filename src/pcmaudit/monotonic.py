"""Monotonicity audits of weighting methods under single-entry perturbation.

Increasing a judgment ``a[i, j]`` says alternative i got more preferred over
alternative j, so no weight ratio w_i / w_k should drop as a result. The audit
multiplies each upper-triangle entry (i < j) by a factor > 1 in turn (mirror
divided, reciprocity kept), recomputes the weights, and records every
(i, j, k) whose ratio strictly decreased beyond a noise margin. A weaker
condition is tracked alongside: the normalized weight w_i itself must not
decrease.

Only upper entries are raised; no lower entry is raised and none is lowered.
So a flag can depend on how the alternatives are numbered: relabelling can
turn a violating upper entry into a lower one, which is not audited. The
solves and the drop test run on :mod:`pcmaudit.bulk`'s full scan, one
squaring solve per upper entry over all factors, with no early exit.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import bulk, weights
from .errors import ConvergenceError, ValidationError
from .matrix import PairwiseComparisonMatrix

# A ratio must drop by more than this (relative) to count as a violation.
# Far below the effect sizes this audit exists to find, far above eigen noise.
VIOLATION_MARGIN = 1e-9

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


@dataclass(frozen=True)
class ViolationRecord:
    """One strict ratio decrease: raising a[i, j] hurt w_i relative to w_k."""

    i: int
    j: int
    k: int
    ratio_before: float
    ratio_after: float
    factor: float


@dataclass(frozen=True)
class MonotonicityReport:
    """Audit outcome for one matrix, method, and perturbation factor.

    ``violations`` is empty exactly when the method behaved monotonically on
    this matrix at this factor and margin. ``weak_violations`` lists (i, j)
    pairs where even the normalized weight w_i itself dropped.
    """

    matrix_hash: str
    method: str
    factor: float
    margin: float
    eigen_tol: float
    violations: tuple[ViolationRecord, ...] = field(default_factory=tuple)
    weak_violations: tuple[tuple[int, int], ...] = field(default_factory=tuple)

    @property
    def monotonic(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        doc = asdict(self)  # fields in order, records as dicts
        doc["violations"] = list(doc["violations"])
        doc["weak_violations"] = [list(p) for p in self.weak_violations]
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def check_monotonicity(
    a: PairwiseComparisonMatrix,
    method: str = "eigenvector",
    factor: float = 1.01,
    margin: float = VIOLATION_MARGIN,
) -> MonotonicityReport:
    """Audit one matrix: perturb each upper entry upward and compare ratios.

    For every (i, j) with i < j, the perturbed matrix gets its weights
    recomputed and each ratio w_i / w_k (k != i) is compared against the
    unperturbed value; a drop of more than ``margin`` relative is recorded.
    Records come out sorted by (i, j, k). The report's ``eigen_tol`` is the
    relative residual bound every eigen solve met, ``bulk.RESIDUAL_RTOL``
    (0 for the geometric mean).
    """
    return _audit(a, [factor], method, margin)[0]


def min_violation_factor_scan(
    a: PairwiseComparisonMatrix,
    factors,
    method: str = "eigenvector",
    margin: float = VIOLATION_MARGIN,
) -> dict[float, MonotonicityReport]:
    """Run the audit at several factors; maps each factor to its report.

    Useful because a coarse factor can step right over a narrow non-monotonic
    dip that a fine factor exposes (and occasionally vice versa).
    """
    return {report.factor: report for report in _audit(a, factors, method, margin)}


def _audit(a, factors, method, margin) -> list[MonotonicityReport]:
    """One report per factor, from one base solve and one full entry scan."""
    factors = bulk.audit_factors(factors, margin)
    top = float(a.entries[np.triu_indices(a.n, 1)].max())
    if not top * max(factors) < np.inf:  # then every a_ji / factor stays positive too
        raise ValidationError(f"audit factor {max(factors)} overflows a perturbed entry")
    method = canonical_method(method)
    eigen = method == "eigenvector"
    w0 = (weights.eigenvector_method(a).weights if eigen else weights.row_geometric_mean(a)).values
    entries = list(itertools.combinations(range(1, a.n + 1), 2))
    # as in eigenvector_method: squarings that overflow leave values that fail
    # the residual test and raise below, so numpy need not warn about them
    with np.errstate(all="ignore"):
        w1, ok, drops, residual = bulk._full_scan(
            a.entries[None], w0[None], np.array(factors), 1.0 - margin, eigen)
    for f, e in np.argwhere(~ok.T)[:1]:  # the first failure, factor-major
        i, j = entries[e]
        raise ConvergenceError(f"eigen solve did not converge for perturbed entry ({i},{j})",
                               w1[e, f], float(residual[e, f]), 2**bulk.MAX_SQUARINGS)
    return [MonotonicityReport(
        matrix_hash=a.content_digest(),
        method=method,
        factor=factor,
        margin=margin,
        eigen_tol=bulk.RESIDUAL_RTOL if eigen else 0.0,
        violations=tuple(
            ViolationRecord(i, j, int(k) + 1, float(w0[i - 1] / w0[k]),
                            float(w1[e, f, i - 1] / w1[e, f, k]), factor)
            for e, (i, j) in enumerate(entries) for k in np.flatnonzero(drops[e, f])),
        weak_violations=tuple((i, j) for e, (i, j) in enumerate(entries)
                              if w1[e, f, i - 1] < w0[i - 1] * (1.0 - margin)),
    ) for f, factor in enumerate(factors)]
