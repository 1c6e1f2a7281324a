"""End-to-end tests of the command-line interface."""

import importlib
import json
import os
import re

import numpy as np
import pytest

from pcmaudit import GeneratorConfig, generate
from pcmaudit.cli import main
from pcmaudit.generate import SUBSTREAM_CHUNK
from pcmaudit.matrix import read_matrix_file
from pcmaudit.sweep import ENUM_CHUNK

KINKED_TEXT = "4\n1 8 1 5\n1/8 1 3 7\n1 1/3 1 9\n1/5 1/7 1/9 1\n"
CONSISTENT_TEXT = "3\n1 2 4\n1/2 1 2\n1/4 1/2 1\n"
BROKEN_TEXT = "2\n1 2\n0.6 1\n"
# the counterexample with a12 = 1e30, which no eigen solve converges on
STALLED_TEXT = "4\n1 1e30 1 5\n1e-30 1 3 7\n1 1/3 1 9\n1/5 1/7 1/9 1\n"
# spread 1e12, Perron root about 5849.25
WIDE_SPREAD_TEXT = "4\n1 1e6 1 5\n1e-6 1 3 1e6\n1 1/3 1 9\n1/5 1e-6 1/9 1\n"


@pytest.fixture
def kinked_file(tmp_path):
    path = tmp_path / "kinked.txt"
    path.write_text(KINKED_TEXT)
    return str(path)


def test_analyze_kinked(kinked_file, capsys):
    assert main(["analyze", kinked_file]) == 0
    out = capsys.readouterr().out
    assert "CR: 0.4869" in out
    assert "acceptable (CR <= 0.1): no" in out
    assert "lambda_max: 5.291184772667" in out


def test_analyze_consistent_without_ri(tmp_path, capsys):
    # the built-in table has no RI for n=3; CI still prints, CR degrades to n/a
    path = tmp_path / "c.txt"
    path.write_text(CONSISTENT_TEXT)
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "CI: 0.000000" in out
    assert "CR: n/a" in out


def test_analyze_consistent_4x4(tmp_path, capsys):
    path = tmp_path / "c4.txt"
    path.write_text("4\n1 2 4 8\n1/2 1 2 4\n1/4 1/2 1 2\n1/8 1/4 1/2 1\n")
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "CR: 0.0000" in out
    assert "acceptable (CR <= 0.1): yes" in out


def test_analyze_reports_reciprocity_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text(BROKEN_TEXT)
    assert main(["analyze", str(path)]) == 2
    assert "(2,1)" in capsys.readouterr().err


def test_analyze_missing_file_is_io_error(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.txt")]) == 4


def test_analyze_nonconvergence_exit_code(tmp_path, capsys):
    path = tmp_path / "stalled.txt"
    path.write_text(STALLED_TEXT)
    assert main(["analyze", str(path)]) == 3
    assert "did not converge" in capsys.readouterr().err


def test_analyze_wide_spread_converges(tmp_path, capsys):
    path = tmp_path / "wide.txt"
    path.write_text(WIDE_SPREAD_TEXT)
    assert main(["analyze", str(path)]) == 0
    assert "lambda_max: 5849.2505991" in capsys.readouterr().out


def test_analyze_solves_once(kinked_file, monkeypatch, capsys):
    from pcmaudit import bulk

    real = bulk.perron_batch
    calls = []

    def counting(mats, **kwargs):
        calls.append(len(mats))
        return real(mats, **kwargs)

    monkeypatch.setattr(bulk, "perron_batch", counting)
    assert main(["analyze", kinked_file]) == 0
    assert calls == [1]


def test_analyze_json_report(kinked_file, tmp_path):
    out = tmp_path / "report.json"
    assert main(["analyze", kinked_file, "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "pcmaudit.run/v1"
    assert doc["consistency"]["cr"] == pytest.approx(0.4869, abs=0.0005)
    assert len(doc["em_weights"]) == 4


def test_audit_kinked_single_factor(kinked_file, capsys):
    assert main(["audit", kinked_file, "--factor", "1.01"]) == 0
    out = capsys.readouterr().out
    assert "VIOLATION: entry (1,3), pair (1,4)" in out
    assert "WEAK" not in out


def test_audit_kinked_factor_scan(kinked_file, capsys):
    assert main(["audit", kinked_file, "--factors", "1.001,1.01,1.1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert any("factor 1.001: VIOLATION" in line for line in out)
    assert any("factor 1.01: VIOLATION" in line for line in out)
    assert "factor 1.1: no violations" in out


def test_audit_prints_a_weak_violation(tmp_path, capsys):
    # raising a_45 by 1% lowers w_4 itself (test_monotonic's weak violation)
    path = tmp_path / "weak.txt"
    path.write_text(generate(GeneratorConfig(8, "discrete", 11), 1059).to_text())
    assert main(["audit", str(path), "--factor", "1.01"]) == 0
    assert "factor 1.01: WEAK VIOLATION: entry (4,5)" in capsys.readouterr().out.splitlines()


def test_audit_rgm_reports_no_violations(kinked_file, capsys):
    assert main(["audit", kinked_file, "--method", "rgm"]) == 0
    assert "no violations" in capsys.readouterr().out


def test_audit_json(kinked_file, tmp_path):
    out = tmp_path / "audit.json"
    assert main(["audit", kinked_file, "--factor", "1.01", "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    report = doc["reports"]["1.01"]
    assert report["violations"][0]["j"] == 3
    assert report["weak_violations"] == []


def test_gen_writes_parseable_deterministic_files(tmp_path, capsys):
    out = tmp_path / "mats"
    argv = ["gen", "--n", "5", "--scale", "discrete", "--seed", "3",
            "--count", "3", "--out", str(out)]
    assert main(argv) == 0
    first = read_matrix_file(out / "matrix_000001.txt")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["matrix_000000.txt", "matrix_000001.txt",
                                   "matrix_000002.txt"]
    out2 = tmp_path / "mats2"
    argv[-1] = str(out2)
    assert main(argv) == 0
    again = read_matrix_file(out2 / "matrix_000001.txt")
    assert (first.entries == again.entries).all()


@pytest.fixture
def chunk_draws(monkeypatch):
    """The substream index of every ``generate._upper_chunk`` call, in order."""
    # the module: the package attribute `pcmaudit.generate` is the function
    module = importlib.import_module("pcmaudit.generate")
    real = module._upper_chunk
    calls = []
    monkeypatch.setattr(module, "_upper_chunk",
                        lambda config, chunk: calls.append(chunk) or real(config, chunk))
    return calls


def test_gen_stdout_matches_files_and_draws_each_substream_once(tmp_path, chunk_draws, capsys):
    argv = ["gen", "--n", "4", "--scale", "continuous", "--seed", "1", "--count", "5"]
    assert main(argv) == 0
    assert chunk_draws == [0]
    printed = capsys.readouterr().out
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert chunk_draws == [0, 0]
    files = [(tmp_path / f"matrix_{t:06d}.txt").read_text() for t in range(5)]
    assert all(text.startswith("# run_id=") for text in files)
    assert printed == "".join(text.split("\n", 1)[1] for text in files)


def test_gen_stdout_across_a_substream_boundary(chunk_draws, capsys):
    count = SUBSTREAM_CHUNK + 2
    assert main(["gen", "--n", "3", "--scale", "discrete", "--seed", "4",
                 "--count", str(count)]) == 0
    assert chunk_draws == [0, 1]
    config = GeneratorConfig(n=3, scale="discrete", seed=4)
    tail = "".join(generate(config, t).to_text() for t in range(count - 3, count))
    assert capsys.readouterr().out.endswith(tail)


def test_simulate_writes_stable_csv(tmp_path, capsys):
    base = ["simulate", "--n", "4", "--scale", "discrete", "--seed", "5",
            "--iters", "30000", "--beta", "0.1", "--factor", "1.01"]
    assert main(base + ["--out", str(tmp_path / "a")]) == 0
    assert main(base + ["--workers", "2", "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a.csv").read_bytes()
    b = (tmp_path / "b.csv").read_bytes()
    assert a == b
    assert b"\r" not in a
    lines = a.decode().splitlines()
    assert lines[0].startswith("# run_id=")
    assert lines[1] == "bin_lo,bin_hi,total,violating,proportion"
    manifest = json.loads((tmp_path / "a.manifest.json").read_text())
    assert manifest["run_id"] == lines[0].split("=", 1)[1]
    doc = json.loads((tmp_path / "a.json").read_text())
    assert doc["run_id"] == manifest["run_id"]
    assert sum(b["total"] for b in doc["histogram"]["bins"]) == 30000


def test_simulate_at_an_overflowing_factor_counts_failures(capsys):
    # every perturbed solve at factor 1e300 overflows: each matrix counts as
    # a failure, with no RuntimeWarning, which this suite makes an error
    assert main(["simulate", "--n", "4", "--scale", "discrete", "--seed", "1",
                 "--iters", "300", "--preset", "fig2", "--factor", "1e300"]) == 0
    assert "samples: 300  failures: 300  violating: 0/0" in capsys.readouterr().out


def test_simulate_stdout_is_the_csv_body(tmp_path, capsys):
    argv = ["simulate", "--n", "5", "--scale", "discrete", "--seed", "2",
            "--iters", "3000", "--preset", "fig4"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    wrote, summary = capsys.readouterr().out.split("\n", 1)
    assert wrote.startswith(f"wrote {tmp_path / 'a'}.csv (run ")
    body = (tmp_path / "a.csv").read_text().split("\n", 1)[1]
    assert body.startswith("bin_lo,bin_hi,total,violating,proportion\n")
    assert printed == body + summary


def test_manifest_stamps_the_environment(tmp_path):
    # the stamp goes to the manifest only; test_parity.py pins the CSV bytes
    assert main(["simulate", "--n", "4", "--scale", "discrete", "--seed", "5",
                 "--iters", "100", "--preset", "fig2", "--out", str(tmp_path / "a")]) == 0
    env = json.loads((tmp_path / "a.manifest.json").read_text())["environment"]
    assert env["numpy"] == np.__version__
    assert env["cpu_count"] == os.cpu_count()
    assert env["blas"] is None or set(env["blas"]) == {"name", "version"}
    assert "environment" not in json.loads((tmp_path / "a.json").read_text())


def test_failed_output_write_keeps_old_file(tmp_path, disk_full):
    (tmp_path / "run.csv").write_text("old\n")
    assert main(["simulate", "--n", "4", "--scale", "discrete", "--seed", "5",
                 "--iters", "100", "--preset", "fig2",
                 "--out", str(tmp_path / "run")]) == 4
    assert (tmp_path / "run.csv").read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.csv"]


def test_simulate_preset_fig4(tmp_path):
    assert main(["simulate", "--n", "4", "--scale", "discrete", "--seed", "5",
                 "--iters", "5000", "--preset", "fig4",
                 "--out", str(tmp_path / "p")]) == 0
    doc = json.loads((tmp_path / "p.json").read_text())
    assert doc["config"]["beta"] == 0.02
    assert doc["config"]["cr_cap"] == 0.4
    assert doc["histogram"]["cap"] == 0.4


def test_simulate_requires_beta_or_preset(capsys):
    assert main(["simulate", "--n", "4", "--scale", "discrete", "--seed", "1",
                 "--iters", "10"]) == 2


def test_enumerate_smoke_with_stride(tmp_path, capsys):
    assert main(["enumerate", "--preset", "fig3", "--stride", "500000",
                 "--out", str(tmp_path / "enum")]) == 0
    out = capsys.readouterr().out
    assert "factor 1.01:" in out
    csv_lines = (tmp_path / "enum_1.01.csv").read_text().splitlines()
    # 35 fine bins plus the overflow row plus comment and header
    assert len(csv_lines) == 2 + 36
    assert csv_lines[-1].startswith("3.5,inf,")
    total = sum(int(line.split(",")[2]) for line in csv_lines[2:])
    assert total == (24_137_569 + 499_999) // 500_000


def test_enumerate_progress_shows_rate_and_eta(capsys):
    assert main(["enumerate", "--preset", "fig3", "--stride", "400000", "--progress"]) == 0
    reports = [line.strip() for line in capsys.readouterr().err.split("\r") if line.strip()]
    total = 24_137_569
    assert len(reports) == (total + ENUM_CHUNK - 1) // ENUM_CHUNK  # one per chunk
    assert reports[0] == f"{ENUM_CHUNK}/{total} ordinals"  # no rate before a second report
    for line in reports[1:]:
        assert re.fullmatch(rf"\d+/{total} ordinals, \d+ matrices/s, ETA \d+:\d\d:\d\d", line)
    assert reports[-1].startswith(f"{total}/{total} ordinals, ")
    assert reports[-1].endswith(", ETA 0:00:00")


def test_resume_from_a_checkpoint_whose_samples_disagree_exits_2(tmp_path, capsys):
    ckpt = tmp_path / "sweep.ckpt"
    argv = ["enumerate", "--preset", "fig3", "--stride", "2000000", "--checkpoint", str(ckpt)]
    assert main(argv) == 0
    doc = json.loads(ckpt.read_text())
    doc["histograms"]["1.01"]["samples"] += 1
    ckpt.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(argv + ["--resume"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "samples" in captured.err
    assert captured.out == ""


def test_enumerate_rejects_unknown_preset():
    with pytest.raises(SystemExit) as info:
        main(["enumerate", "--preset", "fig9"])
    assert info.value.code == 2


def test_ri_prints_estimate(capsys, tmp_path):
    out = tmp_path / "ri.json"
    assert main(["ri", "--n", "4", "--scale", "discrete", "--samples", "20000",
                 "--seed", "2", "--json", str(out)]) == 0
    assert "RI_4 (discrete) = 0.88" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["random_index"] == pytest.approx(0.884, abs=0.02)


@pytest.mark.parametrize("argv", [
    ["audit", "KINKED", "--factors", "1.01,x"],
    ["enumerate", "--beta", "0.1", "--factors", "abc"],
])
def test_bad_factor_token_exits_2(argv, kinked_file, capsys):
    argv = [kinked_file if a == "KINKED" else a for a in argv]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert f"bad factor list {argv[-1]!r}" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "pcmaudit" in capsys.readouterr().out


SIMULATE = ["simulate", "--n", "4", "--scale", "discrete", "--seed", "1", "--iters", "10"]
ENUMERATE = ["enumerate", "--stride", "1000000"]
# argv placeholders, each replaced by the path of a file holding this text
FILES = {
    "KINKED": KINKED_TEXT,
    "NOT_A_CHECKPOINT": '{"schema": "pcmaudit.run/v1"}\n',
    "SIZE_NOT_INT": "# size next\n2.5\n1 2\n1/2 1\n",
    "SIZE_ONE": "1\n1\n",
    "SHORT_ROW": "3\n1 2 4\n1/2 1\n1/4 1/2 1\n",
}


@pytest.mark.parametrize("argv", [
    SIMULATE + ["--beta", "0.1", "--factor", "nan"],
    SIMULATE + ["--beta", "0.1", "--factor", "inf"],
    SIMULATE + ["--beta", "0.1", "--factor", "1.01", "--margin", "-1"],
    SIMULATE + ["--beta", "0.1", "--factor", "1.01", "--margin", "nan"],
    SIMULATE + ["--beta", "inf", "--factor", "1.01"],
    SIMULATE + ["--beta", "nan", "--factor", "1.01"],
    SIMULATE + ["--beta", "0.1", "--factor", "1.01", "--cr-cap", "nan"],
    SIMULATE + ["--beta", "1e-300", "--factor", "1.01"],
    SIMULATE + ["--beta", "1e-310", "--factor", "1.01", "--cr-cap", "1"],
    SIMULATE + ["--beta", "1e-9", "--factor", "1.01", "--cr-cap", "0.1"],
    SIMULATE + ["--beta", "1e-11", "--factor", "1.01"],
    ENUMERATE + ["--beta", "0.1", "--factors", "nan"],
    ENUMERATE + ["--beta", "0.1", "--factors", "1.01", "--margin", "nan"],
    ENUMERATE + ["--beta", "0.1", "--factors", "1.01,1.01"],
    ENUMERATE + ["--beta", "nan", "--factors", "1.01"],
    ENUMERATE + ["--beta", "1e-300", "--factors", "1.01"],
    ENUMERATE + ["--beta", "0.1", "--factors", "1.01", "--cap", "nan"],
    ENUMERATE + ["--beta", "0.1", "--factors", "1.01", "--cap", "inf"],
    ["audit", "KINKED", "--margin", "nan"],
    ["audit", "KINKED", "--margin", "2"],
    ["audit", "KINKED", "--factors", "1.01,1.01"],
    ["audit", "KINKED", "--factors", ","],
    ENUMERATE + ["--beta", "0.1", "--factors", "1.01", "--checkpoint-every", "-5"],
    ["gen", "--n", "4", "--scale", "discrete", "--seed", "1", "--count", "0"],
    ["gen", "--n", "4", "--scale", "discrete", "--seed", "1", "--count", "-3"],
    ENUMERATE + ["--factors", "1.01"],
    ENUMERATE + ["--beta", "0.1", "--factors", "1.01", "--checkpoint", "NOT_A_CHECKPOINT",
                 "--resume"],
    ["analyze", "SIZE_NOT_INT"],
    ["analyze", "SIZE_ONE"],
    ["audit", "SHORT_ROW"],
    ["ri", "--n", "2", "--scale", "discrete", "--seed", "1", "--samples", "100"],
    ["ri", "--n", "4", "--scale", "discrete", "--seed", "1", "--samples", "0"],
])
def test_bad_parameters_exit_2(argv, tmp_path, capsys):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in FILES else a for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""
