"""Exhaustive audit of every 4 x 4 judgment matrix on the discrete scale.

With four alternatives there are six upper-triangle entries and 17 scale
values, so the whole population is 17**6 = 24,137,569 matrices. Matrices are
indexed by ordinal: the base-17 digits of the ordinal select scale values
(ascending order) for the upper entries in row-major order, most significant
digit first, which makes the sweep lexicographic and resumable. A stride
greater than 1 audits the lexicographic subsample {0, stride, 2*stride, ...},
useful as a fast statistical smoke test of the full sweep.

Counts are exact, not sampled: rerunning a sweep reproduces them bit for bit
because the eigen solves use fixed-effort constants and chunk boundaries do
not depend on worker count.
"""

from __future__ import annotations

import json
from typing import Callable

import numpy as np

from .consistency import default_random_index_table
from .errors import ConfigurationError, ValidationError
from .fanout import ordered_map
from .generate import SAATY_VALUES, matrices_from_upper
from .matrix import _write_atomic
from .monotonic import VIOLATION_MARGIN
from .simulate import CrHistogram, audit_population

MATRIX_SIZE = 4
UPPER_ENTRIES = 6
TOTAL_MATRICES = 17**UPPER_ENTRIES  # 24,137,569

# Ordinals per work unit; fixed so results never depend on scheduling.
ENUM_CHUNK = 1 << 17

# All matrices with CR at or above this share one overflow bucket.
DEFAULT_CR_OVERFLOW = 3.5

CHECKPOINT_SCHEMA = "pcmaudit.checkpoint/v1"


def ordinal_to_upper(ordinals: np.ndarray) -> np.ndarray:
    """Upper-triangle scale values for each ordinal, shape (B, 6)."""
    ordinals = np.asarray(ordinals, dtype=np.int64)
    if np.any(ordinals < 0) or np.any(ordinals >= TOTAL_MATRICES):
        raise ValidationError("ordinal out of range")
    digits = np.empty((ordinals.size, UPPER_ENTRIES), dtype=np.int64)
    rest = ordinals.copy()
    for pos in range(UPPER_ENTRIES - 1, -1, -1):
        rest, digits[:, pos] = np.divmod(rest, 17)
    return SAATY_VALUES[digits]


def upper_to_ordinal(upper) -> int:
    """Inverse of :func:`ordinal_to_upper` for a single matrix."""
    ordinal = 0
    for value in np.asarray(upper, dtype=float).ravel():
        matches = np.flatnonzero(np.isclose(SAATY_VALUES, value, rtol=1e-12))
        if matches.size != 1:
            raise ValidationError(f"{value!r} is not a discrete scale value")
        ordinal = ordinal * 17 + int(matches[0])
    return ordinal


def sweep_chunk(
    start: int,
    stop: int,
    stride: int,
    beta: float,
    factors: tuple[float, ...],
    cap: float | None,
    margin: float,
) -> dict[float, CrHistogram]:
    """Audit ordinals in range(start, stop) that are multiples of stride."""
    ri = default_random_index_table("discrete").lookup(MATRIX_SIZE)
    first = ((start + stride - 1) // stride) * stride
    ordinals = np.arange(first, stop, stride, dtype=np.int64)
    mats = matrices_from_upper(MATRIX_SIZE, ordinal_to_upper(ordinals))
    return audit_population(mats, ri, beta, factors, cap, margin, audit_overflow=True)


def _checkpoint_doc(
    beta: float, factors: tuple[float, ...], stride: int, cap: float | None,
    margin: float, completed_through: int, hists: dict[float, CrHistogram],
) -> dict:
    return {
        "schema": CHECKPOINT_SCHEMA,
        "config": {
            "n": MATRIX_SIZE,
            "scale": "discrete",
            "beta": beta,
            "factors": list(factors),
            "stride": stride,
            "cap": cap,
            "margin": margin,
        },
        "completed_through": completed_through,
        "total": TOTAL_MATRICES,
        "histograms": {repr(f): hists[f].to_dict() for f in factors},
    }


def write_checkpoint(path, doc: dict) -> None:
    _write_atomic(path, json.dumps(doc))


def load_checkpoint(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != CHECKPOINT_SCHEMA:
        raise ConfigurationError(f"not a sweep checkpoint: {path}")
    return doc


def enumerate_n4_discrete(
    beta: float,
    factors,
    stride: int = 1,
    cap: float | None = DEFAULT_CR_OVERFLOW,
    margin: float = VIOLATION_MARGIN,
    workers: int = 1,
    checkpoint_path=None,
    checkpoint_every: int = 1_000_000,
    resume: bool = False,
    progress: Callable[[int, int], None] | None = None,
) -> dict[float, CrHistogram]:
    """Exact CR histogram and violation tallies per factor over the full sweep.

    ``stride > 1`` audits every stride-th matrix in lexicographic order.
    With ``checkpoint_path`` set, partial results are flushed at least every
    ``checkpoint_every`` ordinals; ``resume=True`` continues from such a file
    provided its configuration matches. ``progress`` is called after every
    chunk, in ordinal order. ``workers`` must be at least 1 and is capped at
    the CPU count.
    """
    factors = tuple(float(f) for f in factors)
    if not factors:
        raise ValidationError("need at least one factor")
    if any(f <= 1.0 for f in factors):
        raise ValidationError("audit factors must exceed 1")
    if len(set(factors)) != len(factors):
        raise ValidationError("audit factors must be distinct")
    if stride < 1:
        raise ValidationError(f"stride must be at least 1, got {stride}")

    hists = {f: CrHistogram(beta=beta, cap=cap) for f in factors}
    start = 0
    if resume:
        if checkpoint_path is None:
            raise ConfigurationError("resume requested without a checkpoint path")
        doc = load_checkpoint(checkpoint_path)
        expect = _checkpoint_doc(beta, factors, stride, cap, margin, 0, hists)["config"]
        if doc["config"] != expect:
            raise ConfigurationError("checkpoint configuration does not match this sweep")
        start = doc["completed_through"]
        hists = {f: CrHistogram.from_dict(doc["histograms"][repr(f)]) for f in factors}

    tasks = [(lo, min(lo + ENUM_CHUNK, TOTAL_MATRICES), stride, beta, factors, cap, margin)
             for lo in range(start, TOTAL_MATRICES, ENUM_CHUNK)]
    since_checkpoint = 0
    # strict: the fan-out runs to its end, which shuts its pool down here
    for (lo, hi, *_), parts in zip(tasks, ordered_map(sweep_chunk, tasks, workers),
                                   strict=True):
        for f in factors:
            hists[f].merge(parts[f])
        if progress is not None:
            progress(hi, TOTAL_MATRICES)
        since_checkpoint += hi - lo
        if checkpoint_path and since_checkpoint >= checkpoint_every:
            write_checkpoint(checkpoint_path, _checkpoint_doc(
                beta, factors, stride, cap, margin, hi, hists))
            since_checkpoint = 0
    if checkpoint_path:
        write_checkpoint(checkpoint_path, _checkpoint_doc(
            beta, factors, stride, cap, margin, TOTAL_MATRICES, hists))
    return hists
