"""Acceptance suite: one test per release criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Everything here executes in minutes on a desktop; the exhaustive-sweep
criterion additionally has a full variant (hours of CPU) that runs only when
``PCMAUDIT_FULL_SWEEP=1`` is set, while its mandatory 1% lexicographic smoke
variant always runs.
"""

import hashlib
import os

import numpy as np
import pytest

from pcmaudit import (
    GeneratorConfig,
    build_matrix,
    check_monotonicity,
    consistency_ratio,
    enumerate_n4_discrete,
    estimate_random_index,
    min_violation_factor_scan,
    run_simulation,
)
from pcmaudit import bulk
from pcmaudit.cli import main
from pcmaudit.generate import generate_batch
from pcmaudit.simulate import histogram_csv_lines
from pcmaudit.sweep import TOTAL_MATRICES

from conftest import (
    KINKED_RATIO_BASE,
    KINKED_RATIO_FACTOR_101,
    KINKED_UPPER,
)

SEED = 20260810


def _ok(num: int, detail: str) -> None:
    print(f"[criterion {num}] PASS  {detail}")


def test_criterion_1_counterexample_reproduction(kinked_matrix, kinked_matrix_at):
    from pcmaudit import eigenvector_method

    base = eigenvector_method(kinked_matrix).weights.ratio(1, 4)
    stepped = eigenvector_method(kinked_matrix_at(1.01)).weights.ratio(1, 4)
    assert abs(base / KINKED_RATIO_BASE - 1) < 1e-9
    assert abs(stepped / KINKED_RATIO_FACTOR_101 - 1) < 1e-9

    report = check_monotonicity(kinked_matrix, method="eigenvector", factor=1.01)
    assert [(v.i, v.j, v.k) for v in report.violations] == [(1, 3, 4)]
    assert report.weak_violations == ()
    _ok(1, f"w1/w4 {base:.13f} -> {stepped:.13f}, violation (1,3,4), weak condition holds")


def test_criterion_2_counterexample_cr(kinked_matrix):
    report = consistency_ratio(kinked_matrix)
    assert report.ri == 0.884
    assert report.cr == pytest.approx(0.4869, abs=0.0005)
    assert not report.acceptable
    _ok(2, f"CR = {report.cr:.6f} against RI_4 = 0.884")


@pytest.mark.parametrize("n,scale,expected", [
    (4, "discrete", 0.884),
    (9, "discrete", 1.451),
    (4, "continuous", 0.946),
    (9, "continuous", 1.555),
])
def test_criterion_3_random_index_validation(n, scale, expected):
    value = estimate_random_index(n, scale, 1_000_000, seed=SEED, workers=2)
    assert value == pytest.approx(expected, abs=0.01)
    _ok(3, f"RI_{n} ({scale}) = {value:.4f}, expected {expected} +- 0.01")


def test_criterion_4_n3_method_equivalence():
    worst = 0.0
    for scale in ("discrete", "continuous"):
        config = GeneratorConfig(n=3, scale=scale, seed=SEED)
        mats = generate_batch(config, 0, 10_000)
        _, em, _, ok = bulk.perron_batch(mats)
        assert np.all(ok)
        rgm = bulk.rgm_batch(mats)
        worst = max(worst, float(np.max(np.abs(em - rgm))))
    assert worst < 1e-9
    _ok(4, f"EM vs RGM componentwise over 2x10^4 3x3 matrices: max |diff| = {worst:.2e}")


def test_criterion_5_rgm_monotonicity_property():
    checked = 0
    for n in range(4, 10):
        for scale in ("discrete", "continuous"):
            config = GeneratorConfig(n=n, scale=scale, seed=SEED + n)
            mats = generate_batch(config, 0, 850)
            w0 = bulk.rgm_batch(mats)
            for factor in (1.001, 1.01, 1.1):
                # every entry's geometric-mean solve, and its drops over k
                drops = bulk._full_scan(mats, w0, np.array([factor]), 1.0 - 1e-9, False)[2]
                assert not np.any(drops), (n, scale, factor)
            checked += mats.shape[0]
    assert checked >= 10_000
    _ok(5, f"zero RGM violations across {checked} matrices x 3 factors, n in 4..9")


def test_criterion_6_fig2_desk_scale():
    hist = run_simulation(GeneratorConfig(5, "discrete", SEED), 1_000_000,
                          beta=0.1, factor=1.01, workers=2)
    t55, v55 = hist.bin_counts(0.5)
    t34, v34 = hist.bin_counts(0.3)
    p55, p34 = v55 / t55, v34 / t34
    assert p55 == pytest.approx(0.500, abs=0.02)
    assert p34 == pytest.approx(0.068, abs=0.01)

    # nearly consistent matrices never violate: every audited bin fully below
    # CR 0.15 stays clean for all sizes
    clean = []
    for n in range(4, 10):
        h = run_simulation(GeneratorConfig(n, "discrete", SEED + n), 100_000,
                           beta=0.05, factor=1.01, cr_cap=0.4, workers=2)
        low_violations = sum(h.bins.get(m, (0, 0))[1] for m in range(3))
        assert low_violations == 0, f"n={n}"
        clean.append(sum(h.bins.get(m, (0, 0))[0] for m in range(3)))
    _ok(6, f"bin [0.5,0.6) = {p55:.4f}, bin [0.3,0.4) = {p34:.4f}; "
           f"zero violations below CR 0.15 (audited totals per n: {clean})")


@pytest.mark.parametrize("n,expected,tol", [
    (4, 0.315, 0.01),
    (6, 0.887, 0.01),
    (9, 0.998, 0.005),
])
def test_criterion_7_table2_desk_scale(n, expected, tol):
    hist = run_simulation(GeneratorConfig(n, "discrete", SEED + 100 + n), 100_000,
                          beta=0.1, factor=1.01, workers=2)
    share = hist.total_violating / hist.total
    assert share == pytest.approx(expected, abs=tol)
    _ok(7, f"n={n}: violating share {share:.4f}, expected {expected} +- {tol}")


# Exact counts from the full sweep, as reproduced by this package:
# totals over all bins, the [0, 0.1) bin, and the [0.48, 0.49) violating
# counts per factor. The smoke test checks the same quantities as shares on
# the 1% lexicographic subsample.
FULL_TOTAL = 24_137_569
FULL_BIN0_TOTAL = 761_201
FULL_SHARE_BIN0 = FULL_BIN0_TOTAL / FULL_TOTAL
FULL_VIOLATING_SHARE_101 = 0.3151  # overall, factor 1.01
FULL_BIN_048 = {1.001: 240, 1.01: 192, 1.1: 0}
# SHA-256 of each factor's histogram_csv_lines body, LF-terminated: the CSV
# of `pcmaudit enumerate --preset fig5` without its run_id line
FULL_CSV_SHA256 = {
    1.001: "6b62c4a1e692c72209cad4cf17168209df63bb3a46d2fd53e34293a5b8a2ae42",
    1.01: "8a611d94943c66aa76b83fc1b685d277ac698bd1b915e2c6613efffa02e35a4d",
    1.1: "73e1c71e9092923df8cdd9c515326495777ce11bc1f0f5b749ec2f6b3d52707f",
}
# violating matrices over the full set, per factor
FULL_VIOLATING = {1.001: 7_624_409, 1.01: 7_617_243, 1.1: 7_539_287}
MIN_VIOLATING_CR = 0.4869


def test_criterion_8_exhaustive_smoke():
    hists = enumerate_n4_discrete(0.01, [1.001, 1.01, 1.1], stride=100,
                                  cap=3.5, workers=2)
    h = hists[1.01]
    expected_samples = (TOTAL_MATRICES + 99) // 100
    assert h.samples == expected_samples
    assert h.failures == 0

    share_bin0 = sum(h.bins.get(m, (0, 0))[0] for m in range(10)) / h.total
    assert share_bin0 == pytest.approx(FULL_SHARE_BIN0, abs=0.02)

    violating_share = h.total_violating / h.total
    assert violating_share == pytest.approx(FULL_VIOLATING_SHARE_101, abs=0.02)

    # proportion violating in [0.5, 0.6), exact value 0.100126 over the full set
    t56 = sum(h.bins.get(m, (0, 0))[0] for m in range(50, 60))
    v56 = sum(h.bins.get(m, (0, 0))[1] for m in range(50, 60))
    assert v56 / t56 == pytest.approx(0.100126, abs=0.02)

    for factor, hist in hists.items():
        below = sum(v for m, (_, v) in hist.bins.items() if m < 40)
        assert below == 0, f"violation below CR 0.4 at factor {factor}"
        assert hist.boundary_ties == h.boundary_ties

    example = h.min_cr_example
    assert example is not None
    assert MIN_VIOLATING_CR - 0.0005 <= example.cr < 0.6
    _ok(8, f"1% smoke: {h.samples} matrices, violating share {violating_share:.4f}, "
           f"[0,0.1) share {share_bin0:.4f}, zero below CR 0.4, "
           f"min violating CR {example.cr:.4f}")


@pytest.mark.skipif(os.environ.get("PCMAUDIT_FULL_SWEEP") != "1",
                    reason="full 24.1M-matrix sweep (about 3-6 core-minutes); "
                           "set PCMAUDIT_FULL_SWEEP=1 to run")
def test_criterion_8_exhaustive_full(tmp_path):
    hists = enumerate_n4_discrete(0.01, [1.001, 1.01, 1.1], cap=3.5,
                                  workers=os.cpu_count() or 2,
                                  checkpoint_path=tmp_path / "sweep.ckpt",
                                  checkpoint_every=2_000_000)
    h = hists[1.01]
    assert h.samples == FULL_TOTAL
    assert h.failures == 0
    assert h.total == FULL_TOTAL

    bin0_total = sum(h.bins.get(m, (0, 0))[0] for m in range(10))
    assert bin0_total == FULL_BIN0_TOTAL

    for factor, hist in hists.items():
        below = sum(v for m, (_, v) in hist.bins.items() if m < 40)
        assert below == 0, f"violation below CR 0.4 at factor {factor}"
        assert hist.failures == 0
        # every one of the 24.1M audits per factor passes the certified scan
        assert hist.total_violating == FULL_VIOLATING[factor], factor

    # violating counts in [0.48, 0.49), and every bin's bytes
    for factor, expected in FULL_BIN_048.items():
        assert hists[factor].bins.get(48, (0, 0))[1] == expected, factor
        body = "\n".join(histogram_csv_lines(hists[factor])) + "\n"
        assert hashlib.sha256(body.encode()).hexdigest() == FULL_CSV_SHA256[factor], factor

    example = h.min_cr_example
    assert example.cr == pytest.approx(MIN_VIOLATING_CR, abs=0.0005)
    # the minimum is a relabeling of the known counterexample; which one is
    # decided by roundoff, as the relabelings' float CRs differ in the last
    # digit, so the lexicographic tie-break need not pick the smallest
    assert _is_relabeling(example.upper_entries, KINKED_UPPER)
    _ok(8, f"full sweep: total {h.total}, [0,0.1) = {bin0_total}, "
           f"[0.48,0.49) violating = "
           f"{[hists[f].bins.get(48, (0, 0))[1] for f in (1.001, 1.01, 1.1)]}, "
           f"min violating CR {example.cr:.6f}")


def _is_relabeling(upper_a, upper_b) -> bool:
    """True when the two upper triangles describe the same matrix up to a
    simultaneous row/column permutation."""
    from itertools import permutations

    a = build_matrix(4, upper_a).entries
    b = build_matrix(4, upper_b).entries
    return any(np.array_equal(a, b[np.ix_(sigma, sigma)])
               for sigma in permutations(range(4)))


def test_criterion_9_byte_identical_outputs(tmp_path):
    base = ["simulate", "--n", "4", "--scale", "discrete", "--seed", "77",
            "--iters", "50000", "--beta", "0.1", "--factor", "1.01"]
    assert main(base + ["--workers", "1", "--out", str(tmp_path / "w1")]) == 0
    assert main(base + ["--workers", "2", "--out", str(tmp_path / "w2")]) == 0
    csv1 = (tmp_path / "w1.csv").read_bytes()
    assert csv1 == (tmp_path / "w2.csv").read_bytes()

    ri1 = estimate_random_index(5, "continuous", 60_000, seed=77, workers=1)
    ri2 = estimate_random_index(5, "continuous", 60_000, seed=77, workers=2)
    assert ri1 == ri2
    _ok(9, f"simulate CSV bytes identical across worker counts; "
           f"RI bit-identical ({ri1!r})")
