"""Tests for the monotonicity audit."""

import json

import numpy as np
import pytest

from pcmaudit import (
    ConvergenceError,
    ValidationError,
    build_matrix,
    check_monotonicity,
    consistent_from_weights,
    min_violation_factor_scan,
)
from pcmaudit.generate import GeneratorConfig, generate

from conftest import KINKED_RATIO_BASE, KINKED_RATIO_FACTOR_101, STALLED_UPPER, random_upper


def test_kinked_matrix_violation_at_one_percent(kinked_matrix):
    report = check_monotonicity(kinked_matrix, method="eigenvector", factor=1.01)
    triples = [(v.i, v.j, v.k) for v in report.violations]
    assert triples == [(1, 3, 4)]
    v = report.violations[0]
    assert v.ratio_before == pytest.approx(KINKED_RATIO_BASE, rel=1e-9)
    assert v.ratio_after == pytest.approx(KINKED_RATIO_FACTOR_101, rel=1e-9)
    assert v.ratio_after < v.ratio_before * (1 - report.margin)
    assert report.weak_violations == ()
    assert not report.monotonic


def test_kinked_matrix_factor_scan(kinked_matrix):
    reports = min_violation_factor_scan(kinked_matrix, [1.001, 1.01, 1.1])
    assert not reports[1.001].monotonic
    assert not reports[1.01].monotonic
    assert reports[1.1].monotonic  # the dip is narrower than a 10% step


def test_consistent_matrices_are_monotonic(rng):
    for factor in (1.001, 1.01, 1.1):
        m = consistent_from_weights(rng.uniform(0.1, 4.0, size=5))
        assert check_monotonicity(m, factor=factor).monotonic


def test_rgm_never_violates(rng):
    for _ in range(25):
        n = int(rng.integers(4, 10))
        m = build_matrix(n, random_upper(rng, n))
        for factor in (1.001, 1.1):
            report = check_monotonicity(m, method="row_geometric_mean", factor=factor)
            assert report.monotonic
            assert report.weak_violations == ()


def test_3x3_eigenvector_is_monotonic(rng):
    for _ in range(50):
        m = build_matrix(3, random_upper(rng, 3))
        assert check_monotonicity(m, factor=1.01).monotonic


def test_3x3_eigenvector_monotonic_in_bulk():
    # larger sweep through the bulk path: no 3x3 matrix shows a violation
    from pcmaudit import bulk
    from pcmaudit.generate import generate_batch

    for scale in ("discrete", "continuous"):
        config = GeneratorConfig(n=3, scale=scale, seed=11)
        mats = generate_batch(config, 0, 10_000)
        _, w0, _, ok = bulk.perron_batch(mats)
        violated, ok2, _ = bulk.violation_flags(mats, w0, 1.01, 1e-9)
        assert np.all(ok) and np.all(ok2)
        assert not np.any(violated)


def test_report_is_permutation_equivariant(kinked_matrix):
    # swap alternatives 3 and 4: the violating triple must relabel accordingly
    sigma = np.array([0, 1, 3, 2])
    entries = kinked_matrix.entries[np.ix_(sigma, sigma)]
    permuted = build_matrix(4, entries[np.triu_indices(4, 1)])
    report = check_monotonicity(permuted, factor=1.01)
    assert [(v.i, v.j, v.k) for v in report.violations] == [(1, 4, 3)]


def test_report_serializes_to_json(kinked_matrix):
    from pcmaudit.bulk import RESIDUAL_RTOL

    report = check_monotonicity(kinked_matrix, factor=1.01)
    doc = json.loads(report.to_json())
    assert doc["matrix_hash"] == kinked_matrix.content_digest()
    assert doc["factor"] == 1.01
    assert doc["violations"][0]["i"] == 1
    assert doc["violations"][0]["k"] == 4
    assert doc["weak_violations"] == []
    assert doc["eigen_tol"] == RESIDUAL_RTOL


def test_rejects_bad_audit_parameters(kinked_matrix):
    with pytest.raises(ValidationError):
        check_monotonicity(kinked_matrix, factor=0.99)
    with pytest.raises(ValidationError):
        check_monotonicity(kinked_matrix, margin=-1e-9)
    with pytest.raises(ValidationError):
        check_monotonicity(kinked_matrix, method="least_squares")
    with pytest.raises(ValidationError):
        min_violation_factor_scan(kinked_matrix, [])


def test_nonconvergence_names_the_perturbed_entry(kinked_matrix, monkeypatch):
    import pcmaudit.monotonic as monomod

    real = monomod.method_weights
    calls = {"count": 0}

    def flaky(a, method, **kwargs):
        calls["count"] += 1
        if calls["count"] == 2:  # first perturbed solve, entry (1, 2)
            raise ConvergenceError("stalled", np.full(4, 0.25), 1.0, kwargs.get("max_iter", 0))
        return real(a, method, **kwargs)

    monkeypatch.setattr(monomod, "method_weights", flaky)
    with pytest.raises(ConvergenceError, match=r"\(1,2\)"):
        check_monotonicity(kinked_matrix, factor=1.01)


def test_base_matrix_nonconvergence_propagates():
    with pytest.raises(ConvergenceError, match="did not converge") as info:
        check_monotonicity(build_matrix(4, STALLED_UPPER), factor=1.01)
    assert "perturbed entry" not in str(info.value)


def test_scan_with_single_factor_matches_single_check(kinked_matrix):
    scan = min_violation_factor_scan(kinked_matrix, [1.01])
    single = check_monotonicity(kinked_matrix, factor=1.01)
    assert scan[1.01] == single


def test_random_matrix_flags_match_bulk_path(rng):
    # dual route: the scalar audit and the vectorized simulation path must
    # agree matrix by matrix
    from pcmaudit import bulk
    from pcmaudit.generate import generate_batch

    config = GeneratorConfig(n=5, scale="discrete", seed=77)
    mats = generate_batch(config, 0, 300)
    _, w0, _, _ = bulk.perron_batch(mats)
    violated, _, first = bulk.violation_flags(mats, w0, 1.01, 1e-9)
    for t in range(300):
        report = check_monotonicity(generate(config, t), factor=1.01)
        assert report.monotonic == (not violated[t]), f"disagreement at ordinal {t}"
        # the bulk witness is the scalar audit's (i, j, k)-smallest record
        v = report.violations[0] if report.violations else None
        assert tuple(first[t]) == ((v.i, v.j, v.k) if v else (0, 0, 0))
