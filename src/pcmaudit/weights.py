"""Priority vectors from judgment matrices.

Two weighting methods are provided: the principal right eigenvector (Perron
vector) and the row geometric mean. Both return weights normalized to sum 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bulk
from .bulk import canonical_method
from .errors import ConvergenceError, ValidationError
from .matrix import PairwiseComparisonMatrix

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
    """Converged principal eigenpair of a judgment matrix.

    ``residual`` is ``max |A w - lambda_max w|``; it is at most
    ``bulk.RESIDUAL_RTOL * lambda_max``. ``iterations`` counts the
    applications of the matrix that the squarings stand for: k squarings
    raise it to the power 2**k, so a solve reports 2**BASE_SQUARINGS. A solve
    that passed only on a retry ran more squarings than that.
    """

    lambda_max: float
    weights: WeightVector
    iterations: int
    residual: float


def eigenvector_method(a: PairwiseComparisonMatrix) -> EigenResult:
    """Principal right eigenvector, normalized to sum 1.

    A one-matrix call to :func:`bulk.perron_batch`, so it takes the same
    squarings, retries and relative residual test as every batch solve. The
    eigenvalue is the mean of the componentwise Rayleigh ratios. Raises
    :class:`ConvergenceError`, with the last iterate, its residual and
    2**MAX_SQUARINGS iterations, instead of returning an unconverged vector.
    """
    # entries far off any judgment scale can overflow the squarings or
    # underflow a weight; the values that follow fail the residual test and
    # raise below, so numpy need not warn about them
    with np.errstate(all="ignore"):
        lam, w, residual, ok = bulk.perron_batch(a.entries[None])
    if not ok[0]:
        raise ConvergenceError("eigen solve did not converge", w[0], float(residual[0]),
                               2**bulk.MAX_SQUARINGS)
    return EigenResult(float(lam[0]), WeightVector(w[0]), 2**bulk.BASE_SQUARINGS,
                       float(residual[0]))


def row_geometric_mean(a: PairwiseComparisonMatrix) -> WeightVector:
    """Weights proportional to the geometric mean of each row.

    Computed in the log domain to stay stable for extreme judgment scales.
    """
    g = np.exp(np.mean(np.log(a.entries), axis=1))
    return WeightVector(g / g.sum())


def method_weights(a: PairwiseComparisonMatrix, method: str) -> WeightVector:
    """Dispatch helper: ``method`` is any spelling in :data:`bulk.METHOD_ALIASES`."""
    if canonical_method(method) == "eigenvector":
        return eigenvector_method(a).weights
    return row_geometric_mean(a)
