"""One benchmark process: set up, warm up, run the timed loop, check outputs.

Started by ``run.py`` in a fresh interpreter with BLAS pinned to one thread.
Prints one JSON object as its last line of standard output. Modes:

* ``--setup-only``: imports, input preparation and the warm-up call, then
  report the moment timing would begin (``time.monotonic``, which every
  process on the machine shares) and exit.
* default: the above, then calls in whole rounds until ``--seconds`` have
  passed, then the checks against the independent reference.
* ``--trace``: a fixed number of rounds untraced, then the same rounds with
  the per-layer wrappers of ``tracing.py`` installed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(1, str(BENCH_DIR))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has waited for."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def run_rounds(wl, rounds=None, workers=None, seconds=None):
    """Call every op of each round, round after round.

    With ``seconds`` set, starts new rounds of ``wl.round(k)`` until that many
    seconds have passed; otherwise runs exactly ``rounds``. Returns the ops
    run, their outputs, latency samples, matrices processed, failures, the
    number of rounds and the wall time.
    """
    done, samples, errors = [], [], []
    matrices = attempted = 0
    start = time.perf_counter()
    k = 0
    while True:
        for op in wl.round(k) if rounds is None else rounds[k]:
            attempted += 1
            try:
                out, latencies, count = wl.call(op, workers)
            except Exception:  # a failed call is counted, the loop goes on
                errors.append(traceback.format_exc(limit=3))
                continue
            done.append((op, out))
            samples += latencies
            matrices += count
        k += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds) if rounds is None else (k == len(rounds)):
            break
    return {"attempted": attempted, "done": done, "samples": samples, "matrices": matrices,
            "errors": errors, "rounds": k, "wall": elapsed}


def checked(wl, done: list) -> list[str]:
    """The workload's check problems; a check that raises is one more problem."""
    try:
        return wl.check(done)
    except Exception:  # the run still reports, with correct = false
        return ["check raised: " + traceback.format_exc(limit=3)]


def measure(wl, seconds: float) -> dict:
    run = run_rounds(wl, seconds=seconds)
    rss = peak_rss_mb()
    lat = np.array(run["samples"]) * 1e3
    problems = checked(wl, run["done"])
    return {
        "attempted": run["attempted"],
        "failed": len(run["errors"]),
        "problems": problems,
        "errors": run["errors"][:5],
        "metrics": {
            "matrices_per_s": run["matrices"] / run["wall"],
            "latency_p50_ms": float(np.percentile(lat, 50)) if lat.size else None,
            "latency_p95_ms": float(np.percentile(lat, 95)) if lat.size else None,
            "peak_rss_mb": rss,
        },
        "units": {"matrices_per_s": "1/s", "latency_p50_ms": "ms", "latency_p95_ms": "ms",
                  "peak_rss_mb": "MB"},
        "detail": {"wall_s": run["wall"], "matrices": run["matrices"],
                   "latency_samples": int(lat.size), "rounds": run["rounds"]},
    }


def same_outputs(a: list, b: list) -> bool:
    def key(out):
        if isinstance(out, dict):
            return {f: h.to_dict() for f, h in out.items()}
        if isinstance(out, tuple):
            report, cr = out
            return (report.to_dict(), cr.cr)
        return out.to_dict()
    return [(op, key(o)) for op, o in a] == [(op, key(o)) for op, o in b]


def trace(wl) -> dict:
    """Untraced pass, then the same rounds traced; per-layer metrics out.

    A workload that fans out is traced at workers=1, so that every chunk's
    spans stay in this process; its overhead is taken against an untraced
    workers=1 pass, and its fan-out efficiency against the fanned-out pass.
    """
    rounds = [wl.round(k) for k in range(wl.trace_rounds)]
    fans_out = getattr(wl, "workers", 1) > 1
    plain = run_rounds(wl, rounds)
    serial = run_rounds(wl, rounds, workers=1) if fans_out else plain
    with tracing.Tracer() as tracer:
        traced = run_rounds(wl, rounds, workers=1)
    problems = checked(wl, plain["done"])
    if not same_outputs(plain["done"], traced["done"]) or \
            not same_outputs(plain["done"], serial["done"]):
        problems.append("traced or serial pass gave other outputs than the untraced pass")
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = traced["wall"] / serial["wall"]
    if fans_out:
        busy = tracer.chunk_busy_s()
        metrics["fanout.busy_s"] = busy
        metrics["fanout.wall_s"] = plain["wall"]
        metrics["fanout.efficiency"] = busy / (wl.workers * plain["wall"])
    passes = (plain, serial, traced) if fans_out else (plain, traced)
    errors = [e for p in passes for e in p["errors"]]
    return {
        "attempted": sum(p["attempted"] for p in passes),
        "failed": len(errors),
        "problems": problems,
        "errors": errors[:5],
        "metrics": metrics,
        "units": dict(tracing.LAYER_METRICS),
        "detail": {"absent_hooks": tracer.absent, "self_s": tracer.self_times(),
                   "untraced_wall_s": serial["wall"], "traced_wall_s": traced["wall"],
                   "rounds": len(rounds),
                   "spans": [[s.name, s.start, s.end, s.parent] for s in tracer.spans]},
    }


def environment() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: f"{deps[k].get('name')} {deps[k].get('version')}" for k in ("blas", "lapack")}
    except (KeyError, TypeError, ValueError):  # numpy builds differ in what they report
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed)
    wl.warm_up()
    timing_begins = time.monotonic()
    if args.setup_only:
        print(json.dumps({"timing_begins": timing_begins}))
        return 0
    result = trace(wl) if args.trace else measure(wl, args.seconds)
    result["timing_begins"] = timing_begins
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
