"""Parity gate: the CSV and run-JSON bytes of six batch runs, the JSON
histograms of two of them, the JSON reports of analyze, audit and ri, and
the audit reports of the benchmark matrix files are pinned.

The CSV digests were recorded before the batch paths moved onto one audit
scan, one chunk pipeline and one fan-out helper. A later kernel or pipeline
change must reproduce them byte for byte, with one worker and with two.
The JSON histogram digests cover what the CSVs do not, the lowest-CR
violating example and its witnessing (i, j, k); they were recorded while
the audit still scanned the upper entries in row-major order. The whole
run-JSON and report digests were recorded while each command still built
its JSON envelope by hand; they pin its key order and formatting too.
"""

import hashlib
import json
from pathlib import Path

import pytest

from pcmaudit import min_violation_factor_scan, read_matrix_file
from pcmaudit.cli import main

REPO = Path(__file__).resolve().parents[1]
MATRICES = REPO / "benchmarks" / "matrices"

RUNS = {
    "enumerate_fig5_stride1000": (
        ["enumerate", "--preset", "fig5", "--stride", "1000"],
        {"_1.001.csv": "5e3c87f4789fe93685c3ae92225444638c95e8f7c68d8581c1cabf1a85ecbcf8",
         "_1.01.csv": "6843951360605143288f32bea05a67291ccaf266c30fda41f65d88b62b12e8dc",
         "_1.1.csv": "308ec7265db610a05da4651b21a3099ea167e1926a6db632fe15c4d4ba467b4f",
         ".json": "85f599954f6f3ce00999190ee5cc23e90b0f8773f03897f11b09537145837586"},
    ),
    "simulate_fig2_n9": (
        ["simulate", "--preset", "fig2", "--n", "9", "--scale", "discrete",
         "--seed", "3", "--iters", "20000"],
        {".csv": "17d60d00bce2303c659cae5a517d0937b24039728010f13927b173edc7398a85",
         ".json": "271658abb31fe6a866a6455c71d121043e105dc660f8b4b29df9ec3243a34fc5"},
    ),
    "simulate_fig2_n6_continuous": (
        ["simulate", "--preset", "fig2", "--n", "6", "--scale", "continuous",
         "--seed", "3", "--iters", "20000"],
        {".csv": "ca53a79f5b42f729039c2ab0fc2a9d2904d6381ac46be745a60770d0e7610fff",
         ".json": "de9ebd9a41d55135ba84cc97e8631d4329d2e064e947003a5bf143c1bfe69480"},
    ),
    "simulate_fig4_n6": (
        ["simulate", "--preset", "fig4", "--n", "6", "--scale", "discrete",
         "--seed", "3", "--iters", "20000"],
        {".csv": "125933699c36dce9af4fced23225838c90962a9971bc1e5e471cfaa8c55f5605",
         ".json": "d303a81f978b03b0de4fd7fc0eb7ba5a617115fa95e04f0a78e7f59bb19ba9b5"},
    ),
    # recorded while the under-cap blocks still took the row-major order,
    # before every block too large for one call opened with its predicted
    # entries
    "simulate_fig4_n5": (
        ["simulate", "--preset", "fig4", "--n", "5", "--scale", "discrete",
         "--seed", "3", "--iters", "20000"],
        {".csv": "79a9433208c984ef3308d902829cfc50d999941c89ffaa7c92b2264a2d414875",
         ".json": "c52a844bc3a8f4e081d0674374b7b0a4877b48c4c50a34d10aa2cf9ed6470b0e"},
    ),
    # recorded before over-cap rows were settled by a Collatz-Wielandt screen
    "simulate_fig4_n9": (
        ["simulate", "--preset", "fig4", "--n", "9", "--scale", "discrete",
         "--seed", "3", "--iters", "20000"],
        {".csv": "8c51173ae268085415a1c097d420b3f77ac91c55f624390ddacf3661e4a62ed7",
         ".json": "f06fd33180ba5088fe133f511b9948daeb8ef12fa2afa7ed52e786594af94809"},
    ),
}


# sha256 of json.dumps(doc["histogram"], sort_keys=True) of the run's .json
HISTOGRAM_DIGESTS = {
    "simulate_fig2_n9": "fd4c63947a892b2c375b67b5fa2e7c3af392e9b1f2d11b579fae3a397ba600f8",
    "simulate_fig2_n6_continuous":
        "042fc142bcebe9ee41f59ba0e01d6b2f92b82f8ddc305150c7b5e664fe5713b0",
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
        if name in HISTOGRAM_DIGESTS:
            hist = json.loads((tmp_path / f"w{workers}.json").read_text())["histogram"]
            digest = hashlib.sha256(json.dumps(hist, sort_keys=True).encode()).hexdigest()
            assert digest == HISTOGRAM_DIGESTS[name], f"histogram, --workers {workers}"


# The whole --json report of each single-matrix command. The matrix paths are
# relative to the repository root, which the test runs from, since a report's
# config holds the path as given.
REPORTS = {
    "analyze": (
        ["analyze", "benchmarks/matrices/n4_counterexample.txt"],
        "19c81073b00db6194199b741d087d81a0e27cd9669c7f0390a8854726432f8e4"),
    "analyze_continuous_n9": (
        ["analyze", "benchmarks/matrices/n9_continuous.txt", "--scale", "continuous"],
        "7b9acf85df7ea7590ea548ff812082bee665f1a3a04789b26c71c6450f22a23a"),
    "audit_em": (
        ["audit", "benchmarks/matrices/n4_counterexample.txt", "--factors", "1.001,1.01,1.1"],
        "f661a260a4148b7187727ca29bbc70bd7f21abf45f71d029515021c7822768b0"),
    "audit_rgm": (
        ["audit", "benchmarks/matrices/n4_counterexample.txt", "--method", "rgm",
         "--factors", "1.001,1.01,1.1"],
        "40b3ea44135e24145cf9739e2a57f5991b3620734067ac9a74541984f450c6a7"),
    "ri": (
        ["ri", "--n", "4", "--scale", "discrete", "--samples", "20000", "--seed", "2"],
        "421531df9fb14ae9a2f6980de35cd65922ab61ff53d6121de6ed3a66c37f2378"),
}


@pytest.mark.parametrize("name", REPORTS)
def test_json_reports_match_pinned_digests(name, tmp_path, monkeypatch, capsys):
    argv, digest = REPORTS[name]
    monkeypatch.chdir(REPO)
    assert main(argv + ["--json", str(tmp_path / "report.json")]) == 0
    assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == digest


# The audit reports of every benchmark matrix file at three factors, as
# `pcmaudit audit --factors 1.001,1.01,1.1 --json` writes them under
# "reports", one JSON line per file in name order. The digests were recorded
# while the scalar audit still ran its own per-entry loop; the ratio floats
# must match them bit for bit.
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
