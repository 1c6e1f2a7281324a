"""Parity gate: the CSV bytes of four batch runs and the audit reports of
the benchmark matrix files are pinned.

The CSV digests were recorded before the batch paths moved onto one audit
scan, one chunk pipeline and one fan-out helper. A later kernel or pipeline
change must reproduce them byte for byte, with one worker and with two.
"""

import hashlib
import json
from pathlib import Path

import pytest

from pcmaudit import min_violation_factor_scan, read_matrix_file
from pcmaudit.cli import main

RUNS = {
    "enumerate_fig5_stride1000": (
        ["enumerate", "--preset", "fig5", "--stride", "1000"],
        {"_1.001.csv": "5e3c87f4789fe93685c3ae92225444638c95e8f7c68d8581c1cabf1a85ecbcf8",
         "_1.01.csv": "6843951360605143288f32bea05a67291ccaf266c30fda41f65d88b62b12e8dc",
         "_1.1.csv": "308ec7265db610a05da4651b21a3099ea167e1926a6db632fe15c4d4ba467b4f"},
    ),
    "simulate_fig2_n9": (
        ["simulate", "--preset", "fig2", "--n", "9", "--scale", "discrete",
         "--seed", "3", "--iters", "20000"],
        {".csv": "17d60d00bce2303c659cae5a517d0937b24039728010f13927b173edc7398a85"},
    ),
    "simulate_fig4_n6": (
        ["simulate", "--preset", "fig4", "--n", "6", "--scale", "discrete",
         "--seed", "3", "--iters", "20000"],
        {".csv": "125933699c36dce9af4fced23225838c90962a9971bc1e5e471cfaa8c55f5605"},
    ),
    # recorded before over-cap rows were settled by a Collatz-Wielandt screen
    "simulate_fig4_n9": (
        ["simulate", "--preset", "fig4", "--n", "9", "--scale", "discrete",
         "--seed", "3", "--iters", "20000"],
        {".csv": "8c51173ae268085415a1c097d420b3f77ac91c55f624390ddacf3661e4a62ed7"},
    ),
}


@pytest.mark.parametrize("name", RUNS)
def test_csv_bytes_match_pinned_digests(name, tmp_path, capsys):
    argv, digests = RUNS[name]
    for workers in ("1", "2"):
        prefix = tmp_path / f"w{workers}"
        assert main(argv + ["--workers", workers, "--out", str(prefix)]) == 0
        got = {suffix: hashlib.sha256((tmp_path / f"w{workers}{suffix}").read_bytes()).hexdigest()
               for suffix in digests}
        assert got == digests, f"--workers {workers}"


# The audit reports of every benchmark matrix file at three factors, as
# `pcmaudit audit --factors 1.001,1.01,1.1 --json` writes them under
# "reports", one JSON line per file in name order. The digests were recorded
# while the scalar audit still ran its own per-entry loop; the ratio floats
# must match them bit for bit.
MATRICES = Path(__file__).resolve().parents[1] / "benchmarks" / "matrices"
AUDIT_FACTORS = (1.001, 1.01, 1.1)
AUDIT_DIGESTS = {
    "em": "7e546e09258205a85decc852c2128dbc1c8bda7ef7a9cb9ec1346b38cee45722",
    "rgm": "2119c0c09b153c5f2c817f6db544632fe3553e36775e3da80a008574ee7574ac",
}


@pytest.mark.parametrize("method", AUDIT_DIGESTS)
def test_audit_reports_match_pinned_digests(method):
    lines = []
    for path in sorted(MATRICES.glob("*.txt")):
        reports = min_violation_factor_scan(read_matrix_file(path), AUDIT_FACTORS, method=method)
        doc = {repr(f): reports[f].to_dict() for f in AUDIT_FACTORS}
        lines.append(f"{path.name} {json.dumps(doc)}\n")
    assert len(lines) == 25
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == AUDIT_DIGESTS[method]
