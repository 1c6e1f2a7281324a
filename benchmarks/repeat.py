"""Repeat workloads with fresh seeds and report how steady each metric is.

    python3 benchmarks/repeat.py --workload mc_fig4_n9 --runs 10
    python3 benchmarks/repeat.py --workload all --runs 10

Runs ``run.py --trace 0`` once per seed (1 upward), one run at a time, and
prints for every end-to-end metric its median, quartiles and
interquartile spread as a share of the median, next to the metric's bound in
``BENCHMARK.json``. Also prints the share of failed operations, which must be
the same in every run. The summary goes to ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=240)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(workload: str, results: list[dict], bounds: dict) -> dict:
    out = {"workload": workload, "runs": len(results),
           "correct": all(r["correct"] for r in results),
           "failed_share": sorted({r["failed"] / r["attempted"] for r in results}),
           "metrics": {}}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        entry = {"unit": results[0]["metrics"][name]["unit"], "bound": bounds.get(name),
                 "values": values}
        if None not in values:  # a run with no latency sample reports none
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            entry.update(median=median, q1=q1, q3=q3,
                         spread=(q3 - q1) / median if median else None)
        out["metrics"][name] = entry
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="Repeat workloads and report their spread.")
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("need at least 2 runs for quartiles")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summaries = []
    for workload in names if args.workload == "all" else [args.workload]:
        results = []
        for seed in range(1, args.runs + 1):
            results.append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: correct={results[-1]['correct']} "
                  f"attempted={results[-1]['attempted']} failed={results[-1]['failed']}",
                  file=sys.stderr)
        summary = summarize(workload, results, bounds)
        summaries.append(summary)
        print(f"\n{workload}: {summary['runs']} runs, correct={summary['correct']}, "
              f"failed share {summary['failed_share']}")
        for name, m in summary["metrics"].items():
            bound = "" if m["bound"] is None else f"  bound {m['bound']}"
            if "median" not in m:
                print(f"  {name:28s} missing in some runs{bound}")
                continue
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.3f}"
            print(f"  {name:28s} median {m['median']:.6g} {m['unit']}  "
                  f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  spread {spread}{bound}")
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    (BENCH_DIR / "results").mkdir(exist_ok=True)
    path = BENCH_DIR / "results" / f"BENCH_repeat_{args.workload}_{stamp}.json"
    path.write_text(json.dumps(summaries, indent=1) + "\n")
    print(f"\nsummary written to {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
