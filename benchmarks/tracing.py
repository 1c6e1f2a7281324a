"""Per-layer spans recorded around pcmaudit's module functions.

The wrappers are installed from here by rebinding module attributes; no
tracing code lives in the package. Each span keeps its name, start, end, the
span that caused it and a few work counts taken from the call's arguments or
result. Spans stay in memory until :meth:`Tracer.layer_metrics` folds them
into the per-layer figures.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

import numpy as np


def _perron_counts(args, result) -> dict:
    ok = result[3]
    return {"rows": int(ok.size), "unconverged": int(ok.size - np.count_nonzero(ok))}


def _audit_counts(args, result) -> dict:
    return {"rows": int(np.shape(args[0])[0]), "flagged": int(np.count_nonzero(result[0]))}


def _generated(args, result) -> dict:
    return {"rows": int(result.shape[0])}


def _iterations(args, result) -> dict:
    return {"iterations": int(result.iterations)}


# (module, attribute path, span name, counter). A function imported into
# several modules is rebound at each listed site, all to one wrapper.
HOOKS = (
    ("pcmaudit", "run_simulation", "call", None),
    ("pcmaudit.simulate", "run_simulation", "call", None),
    ("pcmaudit", "enumerate_n4_discrete", "call", None),
    ("pcmaudit.sweep", "enumerate_n4_discrete", "call", None),
    ("pcmaudit.simulate", "simulate_chunk", "chunk", None),
    ("pcmaudit.sweep", "sweep_chunk", "chunk", None),
    ("pcmaudit.simulate", "generate_batch", "generate", _generated),
    ("pcmaudit.sweep", "ordinal_to_upper", "sweep.decode", None),
    ("pcmaudit.sweep", "matrices_from_upper", "sweep.decode", None),
    ("pcmaudit.bulk", "perron_batch", "bulk.perron", _perron_counts),
    ("pcmaudit.bulk", "violation_flags", "bulk.audit", _audit_counts),
    ("pcmaudit.simulate", "CrHistogram.record_array", "simulate.record", None),
    ("pcmaudit.simulate", "CrHistogram.merge", "simulate.merge", None),
    ("pcmaudit.simulate", "_min_example", "simulate.min_example", None),
    ("pcmaudit.sweep", "_min_example", "simulate.min_example", None),
    ("pcmaudit", "read_matrix_file", "matrix.parse", None),
    ("pcmaudit.matrix", "read_matrix_file", "matrix.parse", None),
    ("pcmaudit.weights", "eigenvector_method", "weights.eigen", _iterations),
    ("pcmaudit.consistency", "eigenvector_method", "weights.eigen", _iterations),
    ("pcmaudit", "check_monotonicity", "monotonic.audit", None),
    ("pcmaudit.monotonic", "check_monotonicity", "monotonic.audit", None),
    ("pcmaudit", "consistency_ratio", "consistency.cr", None),
    ("pcmaudit.consistency", "consistency_ratio", "consistency.cr", None),
)

# Hooks on private names: a missing one is reported, not raised.
OPTIONAL = {"_min_example"}

# Per-layer metrics and their units, in report order.
LAYER_METRICS = {
    "generate.busy_s": "s",
    "generate.matrices": "count",
    "sweep.decode_s": "s",
    "bulk.base_solve_s": "s",
    "bulk.base_solve_rows": "count",
    "bulk.base_unconverged": "count",
    "bulk.audit_s": "s",
    "bulk.audit_self_s": "s",
    "bulk.audit_rows": "count",
    "bulk.audit_flagged": "count",
    "bulk.perturbed_solve_s": "s",
    "bulk.perturbed_solve_rows": "count",
    "bulk.perturbed_per_audit": "ratio",
    "simulate.fold_s": "s",
    "simulate.merges": "count",
    "simulate.min_example_s": "s",
    "simulate.min_example_solves": "count",
    "fanout.efficiency": "ratio",
    "fanout.busy_s": "s",
    "fanout.wall_s": "s",
    "matrix.parse_s": "s",
    "weights.eigen_s": "s",
    "weights.eigen_calls": "count",
    "weights.eigen_iterations": "count",
    "monotonic.audit_s": "s",
    "monotonic.audit_self_s": "s",
    "consistency.cr_s": "s",
    "call.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Installs the hooks, records spans, and restores the package on exit."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=stack[-1] if stack else -1)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_s += span.duration
            if counter is not None:
                span.counts = counter(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for module_name, path, name, counter in HOOKS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = getattr(owner, attr, None)
            if fn is None:
                if attr in OPTIONAL:
                    self.absent.append(f"{module_name}.{path}")
                    continue
                raise AttributeError(f"{module_name}.{path} is gone; update HOOKS")
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn, name, counter)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, wrappers[id(fn)])
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _under(self, span: Span, names: tuple[str, ...]) -> bool:
        parent = span.parent
        while parent >= 0:
            if self.spans[parent].name in names:
                return True
            parent = self.spans[parent].parent
        return False

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.self_s
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Busy time, work counts and ratios per layer over every recorded span."""
        m = {key: 0.0 for key in LAYER_METRICS}
        for span in self.spans:
            c = span.counts
            if span.name == "generate":
                m["generate.busy_s"] += span.duration
                m["generate.matrices"] += c["rows"]
            elif span.name == "sweep.decode":
                m["sweep.decode_s"] += span.duration
            elif span.name == "bulk.perron":
                if self._under(span, ("simulate.min_example",)):
                    m["simulate.min_example_solves"] += 1
                elif self._under(span, ("bulk.audit",)):
                    m["bulk.perturbed_solve_s"] += span.duration
                    m["bulk.perturbed_solve_rows"] += c["rows"]
                else:
                    m["bulk.base_solve_s"] += span.duration
                    m["bulk.base_solve_rows"] += c["rows"]
                    m["bulk.base_unconverged"] += c["unconverged"]
            elif span.name == "bulk.audit":
                m["bulk.audit_s"] += span.duration
                m["bulk.audit_self_s"] += span.self_s
                m["bulk.audit_rows"] += c["rows"]
                m["bulk.audit_flagged"] += c["flagged"]
            elif span.name in ("simulate.record", "simulate.merge"):
                m["simulate.fold_s"] += span.duration
                m["simulate.merges"] += span.name == "simulate.merge"
            elif span.name == "simulate.min_example":
                m["simulate.min_example_s"] += span.duration
            elif span.name == "matrix.parse":
                m["matrix.parse_s"] += span.duration
            elif span.name == "weights.eigen":
                m["weights.eigen_s"] += span.duration
                m["weights.eigen_calls"] += 1
                m["weights.eigen_iterations"] += c["iterations"]
            elif span.name == "monotonic.audit":
                m["monotonic.audit_s"] += span.duration
                m["monotonic.audit_self_s"] += span.self_s
            elif span.name == "consistency.cr":
                m["consistency.cr_s"] += span.duration
            elif span.name == "call":
                m["call.self_s"] += span.self_s
        if m["bulk.audit_rows"]:
            m["bulk.perturbed_per_audit"] = m["bulk.perturbed_solve_rows"] / m["bulk.audit_rows"]
        return m

    def chunk_busy_s(self) -> float:
        return sum(s.duration for s in self.spans if s.name == "chunk")
