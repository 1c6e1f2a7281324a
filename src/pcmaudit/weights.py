"""Priority vectors from judgment matrices.

Two weighting methods are provided: the principal right eigenvector (Perron
vector) and the row geometric mean. Both return weights normalized to sum 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError
from .matrix import PairwiseComparisonMatrix

# Power iteration stops once the weight vector's max relative change between
# iterations falls below this and the eigen residual is at least as small.
EIGEN_TOL = 1e-13
MAX_ITERATIONS = 100_000

WEIGHT_SUM_ATOL = 1e-12


@dataclass(frozen=True)
class WeightVector:
    """Strictly positive priorities summing to 1.

    ``values[p - 1]`` is the weight of alternative ``p`` (labels are 1-based).
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float).ravel()
        if v.size < 2:
            raise ValidationError(f"need at least 2 weights, got {v.size}")
        if not np.all(np.isfinite(v)) or np.any(v <= 0):
            raise ValidationError("weights must be strictly positive and finite")
        if abs(v.sum() - 1.0) > WEIGHT_SUM_ATOL:
            raise ValidationError(f"weights must sum to 1, got {v.sum()!r}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size

    def ratio(self, i: int, k: int) -> float:
        """Weight ratio w_i / w_k for 1-based alternative labels."""
        return float(self.values[i - 1] / self.values[k - 1])


@dataclass(frozen=True)
class EigenResult:
    """Converged principal eigenpair of a judgment matrix."""

    lambda_max: float
    weights: WeightVector
    iterations: int
    residual: float


def eigenvector_method(
    a: PairwiseComparisonMatrix,
    tol: float = EIGEN_TOL,
    max_iter: int = MAX_ITERATIONS,
) -> EigenResult:
    """Principal right eigenvector by power iteration, normalized to sum 1.

    A positive matrix has a unique positive dominant eigenvector, so the
    iteration converges from the uniform start. The eigenvalue estimate is the
    mean of the componentwise Rayleigh ratios at the converged iterate, and the
    reported residual is ``max |A w - lambda w|``. Raises
    :class:`ConvergenceError` instead of returning an unconverged vector.
    """
    if tol <= 0:
        raise ValidationError(f"tolerance must be positive, got {tol}")
    if max_iter < 1:
        raise ValidationError(f"max_iter must be at least 1, got {max_iter}")
    m = a.entries
    n = a.n
    w = np.full(n, 1.0 / n)
    iterations = 0
    converged = False
    while iterations < max_iter:
        y = m @ w
        y /= y.sum()
        iterations += 1
        delta = float(np.max(np.abs(y - w) / y))
        w = y
        if delta < tol:
            # the iterate has stabilized; accept only once the residual agrees
            aw = m @ w
            lam = float(np.mean(aw / w))
            residual = float(np.max(np.abs(aw - lam * w)))
            if residual <= tol:
                converged = True
                break
    if not converged:
        aw = m @ w
        lam = float(np.mean(aw / w))
        residual = float(np.max(np.abs(aw - lam * w)))
        raise ConvergenceError("power iteration did not converge", w, residual, iterations)
    return EigenResult(lam, WeightVector(w), iterations, residual)


def row_geometric_mean(a: PairwiseComparisonMatrix) -> WeightVector:
    """Weights proportional to the geometric mean of each row.

    Computed in the log domain to stay stable for extreme judgment scales.
    """
    g = np.exp(np.mean(np.log(a.entries), axis=1))
    return WeightVector(g / g.sum())


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


def method_weights(a: PairwiseComparisonMatrix, method: str, **eigen_kwargs) -> WeightVector:
    """Dispatch helper: ``method`` is any spelling in :data:`METHOD_ALIASES`."""
    if canonical_method(method) == "eigenvector":
        return eigenvector_method(a, **eigen_kwargs).weights
    return row_geometric_mean(a)
