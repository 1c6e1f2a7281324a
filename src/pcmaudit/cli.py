"""Command-line interface.

Subcommands: ``analyze`` (weights and consistency of one matrix file),
``audit`` (monotonicity check under entry perturbation), ``gen`` (write random
matrix files), ``simulate`` (Monte Carlo CR/violation histogram), ``enumerate``
(exhaustive 4 x 4 sweep on the discrete scale), and ``ri`` (random index
estimation).

Every run derives a deterministic run id from the tool version, the
subcommand, and the effective parameters; output files carry that id and a
manifest JSON describing the run is written next to them. CSV files are
byte-stable for a fixed (version, seed, flags) tuple no matter how many
workers are used.

Exit codes: 0 success, 2 validation or configuration error, 3 eigen solve
non-convergence, 4 I/O error.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field

from . import __version__
from .consistency import (
    ACCEPTABILITY_THRESHOLD,
    consistency_ratio,
    default_random_index_table,
    estimate_random_index,
)
from .errors import ConfigurationError, ConvergenceError, ValidationError
from .generate import GeneratorConfig, generate
from .matrix import _write_atomic, read_matrix_file
from .monotonic import VIOLATION_MARGIN, check_monotonicity, min_violation_factor_scan
from .simulate import CrHistogram, histogram_csv_lines, run_simulation
from .sweep import DEFAULT_CR_OVERFLOW, enumerate_n4_discrete
from .weights import eigenvector_method, row_geometric_mean

WORKERS_HELP = "worker processes (at least 1, capped at the CPU count)"
JSON_SCHEMA = "pcmaudit.run/v1"
MANIFEST_SCHEMA = "pcmaudit.manifest/v1"

SIMULATE_PRESETS = {
    # violation share vs CR, coarse bins over the full CR range
    "fig2": {"beta": 0.1, "factor": 1.01, "cr_cap": None},
    # fine bins over the nearly consistent region only
    "fig4": {"beta": 0.02, "factor": 1.01, "cr_cap": 0.4},
}
ENUMERATE_PRESETS = {
    "fig3": {"beta": 0.1, "factors": [1.01], "cap": 3.5},
    "fig5": {"beta": 0.01, "factors": [1.001, 1.01, 1.1], "cap": 3.5},
}


def _utcnow() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def run_id_for(command: str, config: dict) -> str:
    blob = f"{__version__}\n{command}\n{json.dumps(config, sort_keys=True)}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


@dataclass
class RunManifest:
    """Reproducibility record written next to every file-producing run."""

    command: str
    config: dict
    run_id: str = ""
    version: str = __version__
    started: str = field(default_factory=_utcnow)
    finished: str = ""
    failures: int = 0
    outputs: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.run_id:
            self.run_id = run_id_for(self.command, self.config)

    def finish(self) -> None:
        self.finished = _utcnow()

    def to_dict(self) -> dict:
        return {
            "schema": MANIFEST_SCHEMA,
            "run_id": self.run_id,
            "command": self.command,
            "version": self.version,
            "config": self.config,
            "started": self.started,
            "finished": self.finished,
            "failures": self.failures,
            "outputs": self.outputs,
        }

    def write(self, path) -> None:
        _write_json(path, self.to_dict())


def write_histogram_csv(path, hist: CrHistogram, run_id: str) -> None:
    lines = [f"# run_id={run_id}"] + histogram_csv_lines(hist)
    _write_atomic(path, "\n".join(lines) + "\n")


def _write_json(path, doc: dict) -> None:
    _write_atomic(path, json.dumps(doc, indent=2) + "\n")


def _format_weights(values) -> str:
    return " ".join(format(v, ".6f") for v in values)


def cmd_analyze(args) -> int:
    matrix = read_matrix_file(args.path)
    eigen = eigenvector_method(matrix)
    rgm = row_geometric_mean(matrix)
    table = default_random_index_table(args.scale)
    print(f"n: {matrix.n}")
    print(f"lambda_max: {eigen.lambda_max:.12f}")
    print(f"EM weights:  {_format_weights(eigen.weights.values)}")
    print(f"RGM weights: {_format_weights(rgm.values)}")
    report_doc = None
    try:
        report = consistency_ratio(matrix, table)
    except ConfigurationError as exc:
        print(f"CI: {(eigen.lambda_max - matrix.n) / (matrix.n - 1):.6f}")
        print(f"CR: n/a ({exc})")
    else:
        print(f"CI: {report.ci:.6f}")
        print(f"RI ({args.scale}, n={matrix.n}): {report.ri}")
        print(f"CR: {report.cr:.4f}")
        print(f"acceptable (CR <= {ACCEPTABILITY_THRESHOLD}): "
              f"{'yes' if report.acceptable else 'no'}")
        report_doc = vars(report)
    if args.json:
        config = {"path": str(args.path), "scale": args.scale}
        doc = {
            "schema": JSON_SCHEMA,
            "run_id": run_id_for("analyze", config),
            "command": "analyze",
            "config": config,
            "matrix_digest": matrix.content_digest(),
            "lambda_max": eigen.lambda_max,
            "em_weights": list(eigen.weights.values),
            "rgm_weights": list(rgm.values),
            "eigen_iterations": eigen.iterations,
            "eigen_residual": eigen.residual,
            "consistency": report_doc,
        }
        _write_json(args.json, doc)
    return 0


def cmd_audit(args) -> int:
    matrix = read_matrix_file(args.path)
    factors = args.factors if args.factors else [args.factor]
    reports = min_violation_factor_scan(matrix, factors, method=args.method,
                                        margin=args.margin)
    for factor in factors:
        report = reports[float(factor)]
        if report.violations:
            for v in report.violations:
                print(f"factor {factor:g}: VIOLATION: entry ({v.i},{v.j}), "
                      f"pair ({v.i},{v.k})  ratio {v.ratio_before:.12f} -> "
                      f"{v.ratio_after:.12f}")
        else:
            print(f"factor {factor:g}: no violations")
        for i, j in report.weak_violations:
            print(f"factor {factor:g}: WEAK VIOLATION: entry ({i},{j})")
    if args.json:
        config = {"path": str(args.path), "method": args.method,
                  "factors": [float(f) for f in factors], "margin": args.margin}
        doc = {
            "schema": JSON_SCHEMA,
            "run_id": run_id_for("audit", config),
            "command": "audit",
            "config": config,
            "reports": {repr(float(f)): reports[float(f)].to_dict() for f in factors},
        }
        _write_json(args.json, doc)
    return 0


def cmd_gen(args) -> int:
    config = GeneratorConfig(n=args.n, scale=args.scale, seed=args.seed)
    if args.out is None:
        for ordinal in range(args.count):
            sys.stdout.write(generate(config, ordinal).to_text())
        return 0
    os.makedirs(args.out, exist_ok=True)
    manifest = RunManifest("gen", {"n": args.n, "scale": args.scale,
                                   "seed": args.seed, "count": args.count})
    for ordinal in range(args.count):
        name = f"matrix_{ordinal:06d}.txt"
        text = f"# run_id={manifest.run_id}\n" + generate(config, ordinal).to_text()
        _write_atomic(os.path.join(args.out, name), text)
        manifest.outputs.append(name)
    manifest.finish()
    manifest.write(os.path.join(args.out, "manifest.json"))
    print(f"wrote {args.count} matrix files to {args.out} (run {manifest.run_id})")
    return 0


def _apply_preset(args, presets: dict, fields: tuple[str, ...]) -> None:
    if not args.preset:
        return
    for key, value in presets[args.preset].items():
        if key in fields and getattr(args, key) is None:
            setattr(args, key, value)


def cmd_simulate(args) -> int:
    _apply_preset(args, SIMULATE_PRESETS, ("beta", "factor", "cr_cap"))
    if args.beta is None or args.factor is None:
        raise ConfigurationError("simulate needs --beta and --factor (or a --preset)")
    config = GeneratorConfig(n=args.n, scale=args.scale, seed=args.seed)
    flags = {"n": args.n, "scale": args.scale, "seed": args.seed,
             "iterations": args.iters, "beta": args.beta, "factor": args.factor,
             "cr_cap": args.cr_cap, "margin": args.margin}
    manifest = RunManifest("simulate", flags)
    hist = run_simulation(config, args.iters, args.beta, args.factor,
                          cr_cap=args.cr_cap, margin=args.margin, workers=args.workers)
    manifest.failures = hist.failures
    manifest.finish()
    if args.out:
        csv_path = f"{args.out}.csv"
        write_histogram_csv(csv_path, hist, manifest.run_id)
        manifest.outputs.append(csv_path)
        doc = {"schema": JSON_SCHEMA, "run_id": manifest.run_id,
               "command": "simulate", "config": flags,
               "histogram": hist.to_dict()}
        _write_json(f"{args.out}.json", doc)
        manifest.outputs.append(f"{args.out}.json")
        manifest.write(f"{args.out}.manifest.json")
        print(f"wrote {csv_path} (run {manifest.run_id})")
    else:
        sys.stdout.write("\n".join(histogram_csv_lines(hist)) + "\n")
    checked = hist.total - (hist.overflow[0] if args.cr_cap is not None else 0)
    print(f"samples: {hist.samples}  failures: {hist.failures}  "
          f"violating: {hist.total_violating}/{checked}")
    if hist.min_cr_example:
        ex = hist.min_cr_example
        print(f"min violating CR: {ex.cr:.6f} at entry ({ex.i},{ex.j}), pair ({ex.i},{ex.k})")
    return 0


def cmd_enumerate(args) -> int:
    _apply_preset(args, ENUMERATE_PRESETS, ("beta", "factors", "cap"))
    if args.beta is None or not args.factors:
        raise ConfigurationError("enumerate needs --beta and --factors (or a --preset)")
    if args.cap is None:
        args.cap = DEFAULT_CR_OVERFLOW
    flags = {"beta": args.beta, "factors": [float(f) for f in args.factors],
             "stride": args.stride, "cap": args.cap, "margin": args.margin}
    manifest = RunManifest("enumerate", flags)

    def progress(done: int, total: int) -> None:
        if args.progress:
            print(f"\r{done}/{total} ordinals", end="", flush=True, file=sys.stderr)

    hists = enumerate_n4_discrete(
        args.beta, args.factors, stride=args.stride, cap=args.cap, margin=args.margin,
        workers=args.workers, checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every, resume=args.resume,
        progress=progress if args.progress else None)
    if args.progress:
        print(file=sys.stderr)
    manifest.failures = sum(h.failures for h in hists.values())
    manifest.finish()
    for factor, hist in hists.items():
        summary = (f"factor {factor:g}: {hist.total_violating} violating of "
                   f"{hist.total} matrices, {hist.boundary_ties} boundary ties")
        if hist.min_cr_example:
            summary += f", min violating CR {hist.min_cr_example.cr:.6f}"
        print(summary)
    if args.out:
        doc = {"schema": JSON_SCHEMA, "run_id": manifest.run_id,
               "command": "enumerate", "config": flags,
               "histograms": {repr(f): h.to_dict() for f, h in hists.items()}}
        for factor, hist in hists.items():
            csv_path = f"{args.out}_{factor:g}.csv"
            write_histogram_csv(csv_path, hist, manifest.run_id)
            manifest.outputs.append(csv_path)
        _write_json(f"{args.out}.json", doc)
        manifest.outputs.append(f"{args.out}.json")
        manifest.write(f"{args.out}.manifest.json")
        print(f"wrote {len(manifest.outputs)} files (run {manifest.run_id})")
    return 0


def cmd_ri(args) -> int:
    value = estimate_random_index(args.n, args.scale, args.samples, args.seed,
                                  workers=args.workers)
    print(f"RI_{args.n} ({args.scale}) = {value:.6f}  [samples={args.samples}, "
          f"seed={args.seed}]")
    if args.json:
        config = {"n": args.n, "scale": args.scale, "samples": args.samples,
                  "seed": args.seed}
        doc = {"schema": JSON_SCHEMA, "run_id": run_id_for("ri", config),
               "command": "ri", "config": config, "random_index": value}
        _write_json(args.json, doc)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcmaudit",
        description="Priority weights, consistency, and monotonicity audits for "
                    "pairwise comparison matrices.")
    parser.add_argument("--version", action="version", version=f"pcmaudit {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="weights and consistency of a matrix file")
    p.add_argument("path")
    p.add_argument("--scale", choices=("discrete", "continuous"), default="discrete",
                   help="random index table to score CR against")
    p.add_argument("--json", help="also write a JSON report to this path")
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("audit", help="monotonicity audit of a matrix file")
    p.add_argument("path")
    p.add_argument("--method", choices=("em", "rgm"), default="em")
    p.add_argument("--factor", type=float, default=1.01)
    p.add_argument("--factors", type=_factor_list,
                   help="comma-separated factors, e.g. 1.001,1.01,1.1")
    p.add_argument("--margin", type=float, default=VIOLATION_MARGIN)
    p.add_argument("--json", help="also write a JSON report to this path")
    p.set_defaults(func=cmd_audit)

    p = subs.add_parser("gen", help="write random matrix files")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--scale", choices=("discrete", "continuous"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--out", help="output directory (default: stdout)")
    p.set_defaults(func=cmd_gen)

    p = subs.add_parser("simulate", help="Monte Carlo CR/violation histogram")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--scale", choices=("discrete", "continuous"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--beta", type=float, help="CR bin width")
    p.add_argument("--factor", type=float, help="perturbation factor (> 1)")
    p.add_argument("--cr-cap", type=float, dest="cr_cap",
                   help="skip the audit for matrices with CR at or above this")
    p.add_argument("--margin", type=float, default=VIOLATION_MARGIN)
    p.add_argument("--preset", choices=tuple(SIMULATE_PRESETS))
    p.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
    p.add_argument("--out", help="output prefix (writes .csv/.json/.manifest.json)")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("enumerate",
                        help="exhaustive 4x4 sweep on the discrete scale")
    p.add_argument("--beta", type=float, help="CR bin width")
    p.add_argument("--factors", type=_factor_list,
                   help="comma-separated perturbation factors")
    p.add_argument("--stride", type=int, default=1,
                   help="audit every stride-th matrix (1 = full sweep)")
    p.add_argument("--cap", type=float,
                   help=f"CR overflow bucket threshold (default {DEFAULT_CR_OVERFLOW})")
    p.add_argument("--margin", type=float, default=VIOLATION_MARGIN)
    p.add_argument("--preset", choices=tuple(ENUMERATE_PRESETS))
    p.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
    p.add_argument("--checkpoint", help="checkpoint file for resumable sweeps")
    p.add_argument("--checkpoint-every", type=int, default=1_000_000)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--progress", action="store_true")
    p.add_argument("--out", help="output prefix (writes per-factor .csv and .json)")
    p.set_defaults(func=cmd_enumerate)

    p = subs.add_parser("ri", help="estimate a random index by simulation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--scale", choices=("discrete", "continuous"), required=True)
    p.add_argument("--samples", type=int, default=4_000_000,
                   help="matrices to average over (default: 4000000)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
    p.add_argument("--json", help="also write a JSON report to this path")
    p.set_defaults(func=cmd_ri)
    return parser


def _factor_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad factor list {text!r}") from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
