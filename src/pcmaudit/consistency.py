"""Saaty inconsistency measurement: CI, random indices, and the consistency ratio.

The consistency index of an n x n judgment matrix is
``CI = (lambda_max - n) / (n - 1)``; it is zero exactly for consistent
matrices. The random index RI_n is the average CI of a large population of
random matrices on a given scale, and CR = CI / RI_n with 0.1 as the customary
acceptability threshold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import bulk
from .errors import ConfigurationError, ValidationError
from .fanout import ordered_map
from .generate import SUBSTREAM_CHUNK, GeneratorConfig, generate_batch
from .matrix import PairwiseComparisonMatrix
from .weights import eigenvector_method

ACCEPTABILITY_THRESHOLD = 0.1

# CI values in [-CI_NOISE_CLAMP, 0) are rounding noise around consistency.
CI_NOISE_CLAMP = 1e-9

# Random indices for the 17-value discrete scale and the [1/10, 10] continuous
# scale, 4 <= n <= 9, as used for all CR binning in this package.
_RI_DISCRETE = {4: 0.884, 5: 1.109, 6: 1.249, 7: 1.341, 8: 1.404, 9: 1.451}
_RI_CONTINUOUS = {4: 0.946, 5: 1.188, 6: 1.340, 7: 1.438, 8: 1.505, 9: 1.555}


@dataclass(frozen=True)
class RandomIndexTable:
    """Map from matrix size to random index for one generation scale."""

    scale: str
    values: dict[int, float]
    sample_size: int | None = None

    def __post_init__(self) -> None:
        if not self.values:
            raise ConfigurationError("random index table is empty")
        items = sorted(self.values.items())
        prev = 0.0
        for n, ri in items:
            if ri <= 0:
                raise ConfigurationError(f"RI_{n} must be positive, got {ri}")
            if ri < prev:
                raise ConfigurationError(f"RI must be nondecreasing in n, violated at n={n}")
            prev = ri
        object.__setattr__(self, "values", dict(items))

    def lookup(self, n: int) -> float:
        try:
            return self.values[n]
        except KeyError:
            haves = ", ".join(str(k) for k in self.values)
            raise ConfigurationError(
                f"no random index for n={n} on the {self.scale} scale (table covers n in {{{haves}}})"
            ) from None

    def to_json(self) -> str:
        doc = {
            "scale": self.scale,
            "values": {str(n): ri for n, ri in self.values.items()},
            "sample_size": self.sample_size,
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "RandomIndexTable":
        doc = json.loads(text)
        return cls(
            scale=doc["scale"],
            values={int(k): float(v) for k, v in doc["values"].items()},
            sample_size=doc.get("sample_size"),
        )


def default_random_index_table(scale: str) -> RandomIndexTable:
    """The built-in RI table for a scale (canonical constants, not estimates)."""
    if scale == "discrete":
        return RandomIndexTable("discrete", dict(_RI_DISCRETE))
    if scale == "continuous":
        return RandomIndexTable("continuous", dict(_RI_CONTINUOUS))
    raise ConfigurationError(f"unknown scale {scale!r}")


@dataclass(frozen=True)
class InconsistencyReport:
    """CI/CR summary for one matrix."""

    n: int
    lambda_max: float
    ci: float
    ri: float
    cr: float
    acceptable: bool


def _lambda_max(a: PairwiseComparisonMatrix) -> float:
    """lambda_max of a matrix, exact for n = 2."""
    return 2.0 if a.n == 2 else eigenvector_method(a).lambda_max


def _ci(n: int, lam: float) -> float:
    """CI of an n x n matrix with Perron root ``lam``; noise near zero clamped to zero."""
    ci = (lam - n) / (n - 1)
    if ci < -CI_NOISE_CLAMP:
        raise ValidationError(f"consistency index {ci} is negative beyond rounding noise")
    return max(ci, 0.0)


def consistency_index(a: PairwiseComparisonMatrix) -> float:
    """CI of a matrix; exact zeros for n = 2, noise near zero clamped to zero."""
    return _ci(a.n, _lambda_max(a))


def consistency_ratio(
    a: PairwiseComparisonMatrix,
    table: RandomIndexTable | None = None,
) -> InconsistencyReport:
    """Full CI/CR report against a random index table (discrete table by default)."""
    if table is None:
        table = default_random_index_table("discrete")
    ri = table.lookup(a.n)
    return _ratio_report(a.n, _lambda_max(a), ri)


def _ratio_report(n: int, lam: float, ri: float) -> InconsistencyReport:
    """The CI/CR report of an n x n matrix with Perron root ``lam``."""
    ci = _ci(n, lam)
    cr = ci / ri
    return InconsistencyReport(n, lam, ci, ri, cr, cr <= ACCEPTABILITY_THRESHOLD)


def estimate_random_index(
    n: int,
    scale: str,
    samples: int,
    seed: int,
    workers: int = 1,
) -> float:
    """Mean CI over ``samples`` random matrices, deterministic in the seed.

    Samples are processed in fixed generator chunks and the chunk sums are
    combined in chunk order, so the estimate is bit-identical for any worker
    count. ``workers`` must be at least 1 and is capped at the CPU count.
    """
    if n < 3:
        raise ValidationError(f"random index estimation needs n >= 3, got {n}")
    if samples < 1:
        raise ValidationError(f"need at least one sample, got {samples}")
    config = GeneratorConfig(n=n, scale=scale, seed=seed)
    tasks = [(config, start, min(SUBSTREAM_CHUNK, samples - start))
             for start in range(0, samples, SUBSTREAM_CHUNK)]
    total = 0.0
    count = 0
    for s, c in ordered_map(_ci_chunk_sum, tasks, workers):
        total += s
        count += c
    if count == 0:
        raise ConfigurationError("all samples failed to converge")
    return total / count


def _ci_chunk_sum(config: GeneratorConfig, start: int, count: int) -> tuple[float, int]:
    mats = generate_batch(config, start, count)
    lam, _, _, ok = bulk.perron_batch(mats)
    ci = (lam[ok] - config.n) / (config.n - 1)
    return float(np.sum(ci)), int(np.count_nonzero(ok))
