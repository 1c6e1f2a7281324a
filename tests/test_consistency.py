"""Tests for CI, CR, the random index table, and RI estimation."""

from fractions import Fraction

import numpy as np
import pytest

from pcmaudit import (
    ConfigurationError,
    RandomIndexTable,
    build_matrix,
    consistency_index,
    consistency_ratio,
    consistent_from_weights,
    default_random_index_table,
    estimate_random_index,
)

from conftest import random_upper

# Canonical random indices for 4 <= n <= 9, as shipped.
RI_DISCRETE = {4: 0.884, 5: 1.109, 6: 1.249, 7: 1.341, 8: 1.404, 9: 1.451}
RI_CONTINUOUS = {4: 0.946, 5: 1.188, 6: 1.340, 7: 1.438, 8: 1.505, 9: 1.555}


def test_default_tables_ship_canonical_values():
    assert default_random_index_table("discrete").values == RI_DISCRETE
    assert default_random_index_table("continuous").values == RI_CONTINUOUS


def test_consistent_matrix_has_zero_ci(rng):
    m = consistent_from_weights(rng.uniform(0.2, 3.0, size=5))
    assert consistency_index(m) == 0.0
    report = consistency_ratio(m)
    assert report.cr == 0.0
    assert report.acceptable


def test_2x2_ci_is_exactly_zero():
    assert consistency_index(build_matrix(2, [7.0])) == 0.0


def test_kinked_matrix_cr(kinked_matrix):
    report = consistency_ratio(kinked_matrix)
    assert report.ri == 0.884
    assert report.cr == pytest.approx(0.4869, abs=0.0005)
    assert not report.acceptable
    assert report.ci == pytest.approx(report.cr * 0.884, rel=1e-12)


def test_cr_with_known_ci_and_ri():
    # a 6x6 matrix with CI == RI_6 has CR exactly 1; fake the CI via the table
    table = RandomIndexTable("discrete", {6: 1.249})
    m = build_matrix(6, np.full(15, 9.0))
    report = consistency_ratio(m, table)
    assert report.cr == pytest.approx(report.ci / 1.249, rel=1e-15)


def test_3x3_lambda_cross_checked_against_characteristic_polynomial():
    # oracle: the characteristic polynomial of a 3x3 reciprocal matrix has
    # exact rational coefficients; solve it with a root finder instead of any
    # eigen iteration
    mp = pytest.importorskip("mpmath")
    a, b, c = Fraction(2), Fraction(8), Fraction(2)
    rows = [
        [Fraction(1), a, b],
        [1 / a, Fraction(1), c],
        [1 / b, 1 / c, Fraction(1)],
    ]
    trace = sum(rows[i][i] for i in range(3))
    minors = sum(
        rows[i][i] * rows[j][j] - rows[i][j] * rows[j][i]
        for i in range(3) for j in range(i + 1, 3)
    )
    det = (
        rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
        - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
        + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
    )
    mp.mp.dps = 40
    roots = mp.polyroots([1, -trace, minors, -det])
    lam_oracle = max(float(r.real) for r in roots if abs(r.imag) < 1e-30)

    m = build_matrix(3, [2.0, 8.0, 2.0])
    ci = consistency_index(m)
    assert ci == pytest.approx((lam_oracle - 3) / 2, rel=1e-12)


def test_cr_invariant_under_permutation(rng):
    m = build_matrix(6, random_upper(rng, 6))
    sigma = rng.permutation(6)
    permuted = build_matrix(6, m.entries[np.ix_(sigma, sigma)][np.triu_indices(6, 1)])
    assert consistency_ratio(permuted).cr == pytest.approx(consistency_ratio(m).cr,
                                                           rel=1e-10)


def test_missing_ri_is_a_configuration_error():
    m = build_matrix(3, [2.0, 8.0, 2.0])
    with pytest.raises(ConfigurationError, match="n=3"):
        consistency_ratio(m)


def test_table_validation_and_json_round_trip():
    with pytest.raises(ConfigurationError):
        RandomIndexTable("discrete", {4: 0.9, 5: 0.8})
    with pytest.raises(ConfigurationError):
        RandomIndexTable("discrete", {4: -1.0})
    with pytest.raises(ConfigurationError, match="empty"):
        RandomIndexTable("discrete", {})
    with pytest.raises(ConfigurationError, match="unknown scale 'bogus'"):
        default_random_index_table("bogus")
    table = RandomIndexTable("continuous", {4: 0.946, 5: 1.188}, sample_size=4_000_000)
    doc = table.to_json()
    assert '"4": 0.946' in doc
    again = RandomIndexTable.from_json(doc)
    assert again == table


def test_estimate_is_deterministic_and_worker_invariant():
    kwargs = dict(n=4, scale="discrete", samples=40_000, seed=99)
    first = estimate_random_index(**kwargs)
    second = estimate_random_index(**kwargs)
    assert first == second
    parallel = estimate_random_index(**kwargs, workers=2)
    assert parallel == first


def test_estimate_matches_scalar_mean_ci():
    # dual route: the bulk estimator must agree with per-matrix CI solves
    from pcmaudit import GeneratorConfig, generate

    samples = 300
    config = GeneratorConfig(n=5, scale="continuous", seed=4242)
    scalar_mean = np.mean([
        consistency_index(generate(config, t)) for t in range(samples)
    ])
    bulk_mean = estimate_random_index(5, "continuous", samples, 4242)
    assert bulk_mean == pytest.approx(scalar_mean, rel=1e-10)


def test_estimate_near_canonical_value():
    value = estimate_random_index(4, "discrete", 150_000, seed=3)
    assert value == pytest.approx(0.884, abs=0.01)
