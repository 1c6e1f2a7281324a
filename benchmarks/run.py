"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload sweep_fig5 --seed 1 --seconds 10 --trace 0

Each run starts fresh interpreters with BLAS pinned to one thread. With
``--trace 0`` the measuring process sets up (imports, inputs, an untimed
warm-up call), runs whole rounds of calls for ``--seconds`` and checks the
outputs against the independent reference. ``SETUP_PROBES`` more processes,
half before it and half after, only set up. ``setup_s`` is the median of
these setup times, each counted from the launch of its process until its
timing would begin. With ``--trace 1`` one process reports the per-layer
metrics.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. A copy with the commit and an environment stamp goes to
``benchmarks/results/``. ``correct`` is false when a check fails or a call
raises. The exit code is 0 whenever that line is printed and 2 when no result
could be produced.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
WORKLOADS = ("sweep_fig5", "mc_fig2_n9", "mc_fig4_n9", "audit_files")
# Setup-only processes per run, half before and half after the measuring
# one, so that the median setup time spans the run.
SETUP_PROBES = 4
# Every process of a run must be done this many seconds after the run starts.
RUN_LIMIT_S = 170.0


class RunError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run worker.py to completion; returns its JSON result and launch time."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *args]
    launched = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunError(f"worker {' '.join(args)} ran past the time limit") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RunError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RunError("worker printed no result")
    return json.loads(lines[-1]), launched


def source_stamp() -> dict:
    """Commit when run in a git checkout, and a digest of the package source."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    try:
        lines = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10).stdout.split()
        if len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one pcmaudit benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pcmaudit" / "__init__.py").is_file():
        print(f"no pcmaudit source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds)]
    try:
        if args.trace:
            result, _ = run_worker(common + ["--trace"], deadline)
            metrics, unit = result["metrics"], result["units"]
        else:
            setups = []

            def probe():
                doc, launched = run_worker(common + ["--setup-only"], deadline)
                setups.append(doc["timing_begins"] - launched)

            for _ in range(SETUP_PROBES // 2):
                probe()
            result, launched = run_worker(common, deadline)
            setups.append(result["timing_begins"] - launched)
            for _ in range(SETUP_PROBES - SETUP_PROBES // 2):
                probe()
            metrics, unit = dict(result["metrics"]), dict(result["units"])
            metrics["setup_s"], unit["setup_s"] = statistics.median(setups), "s"
            result["detail"]["setup_samples_s"] = setups
    except (RunError, ValueError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2

    out = {
        "correct": not result["problems"] and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit[name]} for name in unit},
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S.%fZ")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "finished_utc": stamp, **source_stamp(),
              "environment": result["environment"], "result": out,
              "problems": result["problems"], "errors": result["errors"],
              "detail": result["detail"]}
    path = RESULTS_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}_{stamp}.json"
    path.write_text(json.dumps(record) + "\n")

    for problem in result["problems"][:20]:
        print(f"CHECK FAILED: {problem}")
    for name, entry in out["metrics"].items():
        value = "none" if entry["value"] is None else f"{entry['value']:.6g}"
        print(f"{name}: {value} {entry['unit']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
