"""Random judgment matrix generation on the discrete and continuous scales.

Matrices are generated as a deterministic function of (seed, ordinal): ordinal
t always yields the same matrix no matter how the work is chunked across
workers or how many matrices a run requests. Draws use the Philox counter-based
generator keyed by ``(seed, chunk_index)``, one independent substream per fixed
block of ``SUBSTREAM_CHUNK`` ordinals.

Draw order within a chunk (part of the on-disk reproducibility contract):

* discrete scale: one ``integers(0, 17, size=(SUBSTREAM_CHUNK, m))`` call;
  index k selects the k-th smallest value of the 17-value judgment scale.
  Row t holds the upper-triangle entries of ordinal t in row-major order.
* continuous scale: one ``uniform(1, 10, size=(SUBSTREAM_CHUNK, m))`` call for
  magnitudes, then one ``integers(0, 2, ...)`` call of the same shape for the
  invert flags (1 means the entry is the reciprocal of the magnitude).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .matrix import PairwiseComparisonMatrix, build_matrix, matrices_from_upper

# The 17-value multiplicative judgment scale, ascending.
SAATY_VALUES = np.array(
    [1 / 9, 1 / 8, 1 / 7, 1 / 6, 1 / 5, 1 / 4, 1 / 3, 1 / 2,
     1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
)
SAATY_VALUES.setflags(write=False)

SCALES = ("discrete", "continuous")

# Ordinals per Philox substream. Fixed: changing it changes every stream.
SUBSTREAM_CHUNK = 16384


@dataclass(frozen=True)
class GeneratorConfig:
    """Size, scale, and seed of a random matrix stream."""

    n: int
    scale: str
    seed: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValidationError(f"need n >= 2, got {self.n}")
        if self.scale not in SCALES:
            raise ValidationError(f"scale must be one of {SCALES}, got {self.scale!r}")
        if not 0 <= self.seed < 2**64:
            raise ValidationError(f"seed must be a 64-bit unsigned integer, got {self.seed}")

    @property
    def pairs(self) -> int:
        return self.n * (self.n - 1) // 2


def _substream(seed: int, chunk_index: int) -> np.random.Generator:
    # the key must be uint64: numpy casts a plain list holding a seed >= 2**63
    # through float, which maps every such seed onto one stream
    key = np.array([seed, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _upper_chunk(config: GeneratorConfig, chunk_index: int) -> np.ndarray:
    """Upper-triangle entries for one full chunk, shape (SUBSTREAM_CHUNK, m)."""
    rng = _substream(config.seed, chunk_index)
    shape = (SUBSTREAM_CHUNK, config.pairs)
    if config.scale == "discrete":
        return SAATY_VALUES[rng.integers(0, 17, size=shape)]
    magnitude = rng.uniform(1.0, 10.0, size=shape)
    invert = rng.integers(0, 2, size=shape).astype(bool)
    return np.where(invert, 1.0 / magnitude, magnitude)


def upper_batch(config: GeneratorConfig, start: int, count: int) -> np.ndarray:
    """Upper-triangle entries for ordinals [start, start + count), shape (count, m)."""
    if start < 0 or count < 0:
        raise ValidationError("start and count must be nonnegative")
    pieces = []
    ordinal = start
    remaining = count
    while remaining > 0:
        chunk_index, offset = divmod(ordinal, SUBSTREAM_CHUNK)
        take = min(remaining, SUBSTREAM_CHUNK - offset)
        pieces.append(_upper_chunk(config, chunk_index)[offset:offset + take])
        ordinal += take
        remaining -= take
    if not pieces:
        return np.empty((0, config.pairs))
    return np.concatenate(pieces, axis=0) if len(pieces) > 1 else pieces[0]


def generate_batch(config: GeneratorConfig, start: int, count: int) -> np.ndarray:
    """Matrices for ordinals [start, start + count) as a (count, n, n) array."""
    return matrices_from_upper(config.n, upper_batch(config, start, count))


def generate(config: GeneratorConfig, ordinal: int = 0) -> PairwiseComparisonMatrix:
    """The single matrix at the given ordinal of the stream."""
    upper = upper_batch(config, ordinal, 1)[0]
    return build_matrix(config.n, upper)
