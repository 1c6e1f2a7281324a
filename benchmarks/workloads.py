"""The four benchmark workloads: inputs, calls into pcmaudit, and output checks.

Every workload is a closed loop with one caller that repeats whole rounds of
calls into pcmaudit's public API until the run's time is up:

* ``sweep_fig5``  - ``enumerate_n4_discrete`` with the fig5 preset over a
  lexicographic stride subsample, ``workers=2``; one call per round, the
  stride cycling through ``reference.SWEEP_STRIDES`` from a seed-chosen start.
* ``mc_fig2_n9``  - ``run_simulation`` over one generator substream (16384
  matrices, n = 9, discrete) with the fig2 preset; one call per round, each
  on its own stream seed derived from the run seed.
* ``mc_fig4_n9``  - the same streams with the fig4 preset (CR cap 0.4).
* ``audit_files`` - ``read_matrix_file`` -> ``check_monotonicity(factor=1.01)``
  -> ``consistency_ratio`` on every file of ``benchmarks/matrices``, one round
  per pass in a seed-shuffled order.

Outputs are checked after timing against :mod:`reference`, which shares no
code with pcmaudit.
"""

from __future__ import annotations

import json
import math
import random
import time
from pathlib import Path

import numpy as np

import pcmaudit
import reference as ref

BENCH_DIR = Path(__file__).resolve().parent
MC_CHUNK = ref.SUBSTREAM_CHUNK


def histogram_doc(hist) -> dict:
    """A CrHistogram in the shape :func:`reference.matches` compares."""
    bins = {m: list(v) for m, v in hist.bins.items()}
    if hist.cap is not None:
        bins[-1] = list(hist.overflow)
    return {"bins": bins, "boundary_ties": hist.boundary_ties}


def histogram_properties(hist, samples: int) -> list[str]:
    """Invariants every histogram must satisfy, independent of the reference."""
    problems = []
    if hist.samples != samples:
        problems.append(f"samples {hist.samples} != attempted {samples}")
    if hist.total + hist.failures != hist.samples:
        problems.append(f"total {hist.total} + failures {hist.failures} != samples {hist.samples}")
    for m, (total, violating) in hist.bins.items():
        if not 0 <= violating <= total:
            problems.append(f"bin {m}: violating {violating} > total {total}")
    if not 0 <= hist.overflow[1] <= hist.overflow[0]:
        problems.append(f"overflow: violating {hist.overflow[1]} > total {hist.overflow[0]}")
    return problems


def example_problems(example, factor: float, n: int, expected: dict, population) -> list[str]:
    """Check a reported min-CR example with the independent solver.

    It must belong to the audited population, violate at its own (i, j, k),
    carry its true CR, and have the lowest CR among the reference's violating
    matrices (ties within 1e-9).
    """
    min_cr = expected["min_violating_cr"]
    if example is None:
        return [] if min_cr is None else [f"no min-CR example; reference has CR {min_cr}"]
    upper = np.array(example.upper_entries)
    if not population(upper):
        return [f"min-CR example {example.upper_entries} is not in the audited population"]
    problems = []
    mat = ref.assemble(n, upper)
    drop = ref.triple_drop(mat[0], example.i, example.j, example.k, factor)
    if not drop > ref.VIOLATION_MARGIN and \
            ref.settle(mat[0], example.i - 1, example.j - 1, example.k - 1, factor) != "yes":
        problems.append(f"min-CR example does not violate at ({example.i},{example.j},"
                        f"{example.k}): drop {drop:.3e}")
    cr = float(ref.cr_from_lambda(ref.lambda_max(mat), n)[0][0])
    if abs(cr - example.cr) > 1e-9:
        problems.append(f"min-CR example CR {example.cr} != reference {cr}")
    if min_cr is not None and example.cr > min_cr + 1e-9:
        problems.append(f"min-CR example CR {example.cr} above reference minimum {min_cr}")
    return problems


class Workload:
    """One workload: its inputs, one round of calls, and the output checks.

    ``call`` returns ``(output, latency samples in s, matrices processed)``.
    """

    name = ""
    trace_rounds = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def round(self, k: int) -> list:
        raise NotImplementedError

    def call(self, op, workers: int | None = None):
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def check(self, done: list[tuple[object, object]]) -> list[str]:
        raise NotImplementedError


class Sweep(Workload):
    name = "sweep_fig5"
    workers = 2
    # Warm-up stride: every chunk of the sweep is visited, a few matrices each.
    warm_stride = 65537

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        doc = json.loads((BENCH_DIR / "reference" / "sweep_fig5.json").read_text())
        self.expected = doc["strides"]

    def round(self, k: int) -> list:
        strides = ref.SWEEP_STRIDES
        return [strides[(self.seed + k) % len(strides)]]

    def _sweep(self, stride: int, workers: int, progress=None):
        return pcmaudit.enumerate_n4_discrete(
            beta=ref.SWEEP_BETA, factors=ref.SWEEP_FACTORS, stride=stride,
            cap=ref.SWEEP_CAP, workers=workers, progress=progress)

    def call(self, stride, workers=None):
        ticks = [time.perf_counter()]
        hists = self._sweep(stride, workers or self.workers,
                            lambda done, total: ticks.append(time.perf_counter()))
        return hists, list(np.diff(ticks)), math.ceil(ref.SWEEP_TOTAL / stride)

    def warm_up(self) -> None:
        self._sweep(self.warm_stride, self.workers)

    def check(self, done) -> list[str]:
        problems = []
        seen = {}
        for stride, hists in done:
            if stride in seen:
                if {f: h.to_dict() for f, h in hists.items()} != seen[stride]:
                    problems.append(f"stride {stride}: repeated call gave other histograms")
                continue
            seen[stride] = {f: h.to_dict() for f, h in hists.items()}
            samples = math.ceil(ref.SWEEP_TOTAL / stride)
            totals = {f: [(m, t) for m, (t, _) in sorted(h.bins.items())] + [h.overflow[0]]
                      for f, h in hists.items()}
            if len({json.dumps(t) for t in totals.values()}) != 1:
                problems.append(f"stride {stride}: bin totals differ across factors")
            for factor in ref.SWEEP_FACTORS:
                hist = hists[factor]
                expected = self.expected[str(stride)][repr(factor)]
                where = f"stride {stride} factor {factor}: "
                problems += [where + p for p in histogram_properties(hist, samples)]
                reason = ref.matches(histogram_doc(hist), expected)
                if reason:
                    problems.append(where + reason)
                problems += [where + p for p in example_problems(
                    hist.min_cr_example, factor, 4, expected,
                    lambda upper: ref.sweep_ordinal(upper) % stride == 0)]
        if not seen:
            problems.append("no sweep call returned, so nothing was checked")
        return problems


class MonteCarlo(Workload):
    """``run_simulation`` over one 16384-matrix substream per call."""

    n = 9
    beta = 0.1
    factor = 1.01
    cap = None
    # Calls checked in full against the reference; every call is checked for
    # the histogram invariants.
    verify_calls = 1

    def round(self, k: int) -> list:
        return [(self.seed * 1_000_003 + k) % 2**62]

    def _simulate(self, stream_seed: int, iterations: int):
        config = pcmaudit.GeneratorConfig(n=self.n, scale="discrete", seed=stream_seed)
        return pcmaudit.run_simulation(config, iterations, beta=self.beta, factor=self.factor,
                                       cr_cap=self.cap, workers=1)

    def call(self, stream_seed, workers=None):
        t0 = time.perf_counter()
        hist = self._simulate(stream_seed, MC_CHUNK)
        return hist, [time.perf_counter() - t0], MC_CHUNK

    def warm_up(self) -> None:
        # timed calls use streams below 2**62; seeds from 2**63 on all collide
        self._simulate(2**62 + self.seed % 2**62, 1024)

    def check(self, done) -> list[str]:
        problems = []
        if len(done) < self.verify_calls:
            problems.append(f"{len(done)} calls returned; {self.verify_calls} must be "
                            "checked against the reference")
        for index, (stream_seed, hist) in enumerate(done):
            where = f"stream {stream_seed}: "
            problems += [where + p for p in histogram_properties(hist, MC_CHUNK)]
            if self.cap is not None and hist.overflow[1] != 0:
                problems.append(where + f"overflow has {hist.overflow[1]} violating")
            if index >= self.verify_calls:
                continue
            expected = ref.mc_reference(stream_seed, self.n, self.beta, self.factor, self.cap)
            reason = ref.matches(histogram_doc(hist), expected)
            if reason:
                problems.append(where + reason)
            population = {tuple(row) for row in ref.mc_upper(stream_seed, self.n).tolist()}
            problems += [where + p for p in example_problems(
                hist.min_cr_example, self.factor, self.n, expected,
                lambda upper: tuple(upper.tolist()) in population)]
        return problems


class Fig2(MonteCarlo):
    name = "mc_fig2_n9"
    trace_rounds = 3


class Fig4(MonteCarlo):
    name = "mc_fig4_n9"
    beta = 0.02
    cap = 0.4
    verify_calls = 4
    trace_rounds = 12


class AuditFiles(Workload):
    name = "audit_files"
    factor = ref.AUDIT_FACTOR
    trace_rounds = 8

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.expected = json.loads((BENCH_DIR / "reference" / "audit_files.json").read_text())
        self.files = sorted(self.expected["files"])
        self.paths = {name: BENCH_DIR / "matrices" / name for name in self.files}

    def round(self, k: int) -> list:
        order = list(self.files)
        random.Random(self.seed * 1_000_003 + k).shuffle(order)
        return order

    def call(self, name, workers=None):
        t0 = time.perf_counter()
        matrix = pcmaudit.read_matrix_file(self.paths[name])
        report = pcmaudit.check_monotonicity(matrix, factor=self.factor)
        cr = pcmaudit.consistency_ratio(matrix)
        return (report, cr), [time.perf_counter() - t0], 1

    def warm_up(self) -> None:
        for name in self.files:
            self.call(name)

    def check(self, done) -> list[str]:
        problems = []
        first = {}
        for name, (report, cr) in done:
            got = (sorted((v.i, v.j, v.k) for v in report.violations), cr.cr)
            if name in first:
                if got != first[name]:
                    problems.append(f"{name}: repeated call gave another result")
                continue
            first[name] = got
            expected = self.expected["files"][name]
            definite = {tuple(t) for t in expected["violations"]}
            either = {tuple(t) for t in expected["either"]}
            triples = set(got[0])
            if not definite <= triples <= definite | either:
                problems.append(f"{name}: violations {sorted(triples)} != reference "
                                f"{sorted(definite)} (either way: {sorted(either)})")
            if abs(cr.cr - expected["cr"]) > 1e-9:
                problems.append(f"{name}: CR {cr.cr} != reference {expected['cr']}")
        unchecked = sorted(set(self.files) - set(first))
        if unchecked:
            problems.append(f"no call returned for {unchecked}, so they were not checked")
        matrix = pcmaudit.read_matrix_file(self.paths[ref.COUNTEREXAMPLE_FILE])
        for factor in ref.SWEEP_FACTORS:
            report = pcmaudit.check_monotonicity(matrix, factor=factor)
            triples = sorted([v.i, v.j, v.k] for v in report.violations)
            if triples != self.expected["counterexample"][repr(factor)]:
                problems.append(f"counterexample at factor {factor}: {triples} != reference "
                                f"{self.expected['counterexample'][repr(factor)]}")
        return problems


WORKLOADS = {cls.name: cls for cls in (Sweep, Fig2, Fig4, AuditFiles)}
