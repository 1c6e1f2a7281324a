"""Monotonicity audits of weighting methods under single-entry perturbation.

Increasing a judgment ``a[i, j]`` says alternative i got more preferred over
alternative j, so no weight ratio w_i / w_k should drop as a result. The audit
multiplies each upper-triangle entry by a factor > 1 in turn (mirror divided,
reciprocity kept), recomputes the weights, and records every (i, j, k) whose
ratio strictly decreased beyond a noise margin. A weaker condition is tracked
alongside: the normalized weight w_i itself must not decrease.

Decreasing a judgment needs no separate pass: lowering ``a[i, j]`` is the same
event as raising ``a[j, i]``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import ConvergenceError, ValidationError
from .matrix import PairwiseComparisonMatrix, PerturbationSpec, perturb
from .weights import EIGEN_TOL, canonical_method, method_weights

# A ratio must drop by more than this (relative) to count as a violation.
# Far below the effect sizes this audit exists to find, far above eigen noise.
VIOLATION_MARGIN = 1e-9


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
        return {
            "matrix_hash": self.matrix_hash,
            "method": self.method,
            "factor": self.factor,
            "margin": self.margin,
            "eigen_tol": self.eigen_tol,
            "violations": [vars(v) for v in self.violations],
            "weak_violations": [list(p) for p in self.weak_violations],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def check_monotonicity(
    a: PairwiseComparisonMatrix,
    method: str = "eigenvector",
    factor: float = 1.01,
    margin: float = VIOLATION_MARGIN,
    **eigen_kwargs,
) -> MonotonicityReport:
    """Audit one matrix: perturb each upper entry upward and compare ratios.

    For every (i, j) with i < j, the perturbed matrix gets its weights
    recomputed and each ratio w_i / w_k (k != i) is compared against the
    unperturbed value; a drop of more than ``margin`` relative is recorded.
    Records come out sorted by (i, j, k). Eigen keyword arguments (``tol``,
    ``max_iter``) are forwarded to the eigenvector solve.
    """
    if factor <= 1.0:
        raise ValidationError(f"audit factor must exceed 1, got {factor}")
    if margin < 0:
        raise ValidationError(f"margin must be nonnegative, got {margin}")
    method = canonical_method(method)
    w0 = method_weights(a, method, **eigen_kwargs)
    violations: list[ViolationRecord] = []
    weak: list[tuple[int, int]] = []
    n = a.n
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            perturbed = perturb(a, PerturbationSpec(i=i, j=j, factor=factor))
            try:
                w1 = method_weights(perturbed, method, **eigen_kwargs)
            except ConvergenceError as exc:
                raise ConvergenceError(
                    f"eigen solve did not converge for perturbed entry ({i},{j})",
                    exc.last_weights, exc.residual, exc.iterations,
                ) from exc
            if w1.values[i - 1] < w0.values[i - 1] * (1.0 - margin):
                weak.append((i, j))
            for k in range(1, n + 1):
                if k == i:
                    continue
                before = w0.ratio(i, k)
                after = w1.ratio(i, k)
                if after < before * (1.0 - margin):
                    violations.append(ViolationRecord(i, j, k, before, after, factor))
    eigen_tol = eigen_kwargs.get("tol", EIGEN_TOL) if method == "eigenvector" else 0.0
    return MonotonicityReport(
        matrix_hash=a.content_digest(),
        method=method,
        factor=factor,
        margin=margin,
        eigen_tol=eigen_tol,
        violations=tuple(violations),
        weak_violations=tuple(weak),
    )


def min_violation_factor_scan(
    a: PairwiseComparisonMatrix,
    factors,
    method: str = "eigenvector",
    margin: float = VIOLATION_MARGIN,
    **eigen_kwargs,
) -> dict[float, MonotonicityReport]:
    """Run the audit at several factors; maps each factor to its report.

    Useful because a coarse factor can step right over a narrow non-monotonic
    dip that a fine factor exposes (and occasionally vice versa).
    """
    factors = [float(f) for f in factors]
    if not factors:
        raise ValidationError("need at least one factor")
    reports = {}
    for f in factors:
        reports[f] = check_monotonicity(a, method=method, factor=f, margin=margin,
                                        **eigen_kwargs)
    return reports

