"""Tests for the eigenvector and row-geometric-mean weighting methods."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmaudit import (
    ConvergenceError,
    ValidationError,
    WeightVector,
    build_matrix,
    bulk,
    consistent_from_weights,
    eigenvector_method,
    from_array,
    is_consistent,
    row_geometric_mean,
)

from conftest import (
    KINKED_RATIO_BASE,
    KINKED_RATIO_FACTOR_101,
    KINKED_UPPER,
    STALLED_UPPER,
    random_upper,
)

# Spread 1e12 and a Perron root near 5849: an absolute residual test of 1e-13
# cannot be met in floating point here, the relative one can.
WIDE_SPREAD = [
    [1, 1e6, 1, 5],
    [1e-6, 1, 3, 1e6],
    [1, 1 / 3, 1, 9],
    [1 / 5, 1e-6, 1 / 9, 1],
]


def test_2x2_closed_form():
    # every 2x2 reciprocal matrix is consistent: lambda = 2, w = (a, 1)/(a + 1)
    result = eigenvector_method(build_matrix(2, [2.0]))
    assert result.lambda_max == pytest.approx(2.0, abs=1e-12)
    assert result.weights.values == pytest.approx([2 / 3, 1 / 3], abs=1e-12)


def test_kinked_ratio_reference_values(kinked_matrix, kinked_matrix_at):
    base = eigenvector_method(kinked_matrix)
    assert base.weights.ratio(1, 4) == pytest.approx(KINKED_RATIO_BASE, rel=1e-9)
    stepped = eigenvector_method(kinked_matrix_at(1.01))
    assert stepped.weights.ratio(1, 4) == pytest.approx(KINKED_RATIO_FACTOR_101, rel=1e-9)


def test_eigen_result_contract(kinked_matrix):
    result = eigenvector_method(kinked_matrix)
    assert result.lambda_max >= kinked_matrix.n
    assert result.residual <= bulk.RESIDUAL_RTOL * result.lambda_max
    assert result.iterations == 2**bulk.BASE_SQUARINGS
    assert np.all(result.weights.values > 0)
    assert result.weights.values.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.filterwarnings("error")
def test_nonconvergence_raises_with_iterate():
    with pytest.raises(ConvergenceError) as info:
        eigenvector_method(build_matrix(4, STALLED_UPPER))
    err = info.value
    assert err.iterations == 2**bulk.MAX_SQUARINGS
    assert np.isfinite(err.residual) and err.residual > 0
    assert err.last_weights.shape == (4,)


def test_wide_spread_matches_extended_precision_perron_vector():
    # independent oracle: the dominant eigenpair computed at 50 digits
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    m = from_array(np.array(WIDE_SPREAD))
    values, vectors = mp.eig(mp.matrix(m.entries.tolist()))
    top = max(range(4), key=lambda t: mp.re(values[t]))
    v = [mp.re(vectors[p, top]) for p in range(4)]
    expected = [float(x / mp.fsum(v)) for x in v]
    result = eigenvector_method(m)
    assert result.lambda_max == pytest.approx(float(mp.re(values[top])), rel=1e-12)
    assert result.weights.values == pytest.approx(expected, rel=1e-12)


def test_log_uniform_wide_spreads_converge():
    rng = np.random.default_rng(90210)
    for n in (4, 6, 9):
        for _ in range(20):
            m = build_matrix(n, random_upper(rng, n, low=1e-6, high=1e6))
            result = eigenvector_method(m)
            assert result.residual <= bulk.RESIDUAL_RTOL * result.lambda_max


@pytest.mark.filterwarnings("error")
def test_overflowing_entries_raise_without_warning():
    # squaring a 1e300 entry overflows; that is a failed solve, not a warning
    with pytest.raises(ConvergenceError):
        eigenvector_method(build_matrix(4, (1e300,) + KINKED_UPPER[1:]))
    rng = np.random.default_rng(4711)
    for exponent in (150, 200, 300):
        for n in (3, 4, 9):
            for _ in range(10):
                upper = random_upper(rng, n, low=10.0**-exponent, high=10.0**exponent)
                upper[rng.integers(upper.size)] = 10.0**exponent
                try:
                    result = eigenvector_method(build_matrix(n, upper))
                except ConvergenceError:
                    continue
                assert result.residual <= bulk.RESIDUAL_RTOL * result.lambda_max


def test_rgm_recovers_weights_of_consistent_matrix(rng):
    w = rng.uniform(0.05, 5.0, size=6)
    w /= w.sum()
    got = row_geometric_mean(consistent_from_weights(w))
    assert got.values == pytest.approx(w, abs=1e-12)


def test_em_recovers_weights_of_consistent_matrix(rng):
    w = rng.uniform(0.05, 5.0, size=6)
    w /= w.sum()
    result = eigenvector_method(consistent_from_weights(w))
    assert result.lambda_max == pytest.approx(6.0, abs=1e-9)
    assert result.weights.values == pytest.approx(w, rel=1e-10)


def test_rgm_matches_extended_precision_row_products(kinked_matrix):
    # independent oracle: geometric means evaluated at 50 digits
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    rows = [
        [1, 8, 1, 5],
        [mp.mpf(1) / 8, 1, 3, 7],
        [1, mp.mpf(1) / 3, 1, 9],
        [mp.mpf(1) / 5, mp.mpf(1) / 7, mp.mpf(1) / 9, 1],
    ]
    gm = [mp.power(mp.fprod(row), mp.mpf(1) / 4) for row in rows]
    total = mp.fsum(gm)
    expected = [float(g / total) for g in gm]
    got = row_geometric_mean(kinked_matrix)
    assert got.values == pytest.approx(expected, rel=1e-14)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(min_value=1 / 9, max_value=9.0), min_size=3, max_size=3))
def test_em_equals_rgm_for_3x3(upper):
    m = build_matrix(3, upper)
    em = eigenvector_method(m).weights.values
    rgm = row_geometric_mean(m).values
    assert np.max(np.abs(em - rgm)) < 1e-9


def test_lambda_floor_and_consistency_link(rng):
    for n in (3, 5, 7):
        m = build_matrix(n, random_upper(rng, n))
        lam = eigenvector_method(m).lambda_max
        assert lam >= n - 1e-12
        assert (lam - n <= 1e-9) == is_consistent(m, 1e-9)
    m = consistent_from_weights(rng.uniform(0.1, 2.0, size=5))
    assert eigenvector_method(m).lambda_max - 5 <= 1e-9
    assert is_consistent(m, 1e-9)


def test_permutation_equivariance(rng):
    m = build_matrix(5, random_upper(rng, 5))
    sigma = rng.permutation(5)
    permuted = build_matrix(5, m.entries[np.ix_(sigma, sigma)][np.triu_indices(5, 1)])
    em, em_p = eigenvector_method(m), eigenvector_method(permuted)
    assert em_p.weights.values == pytest.approx(em.weights.values[sigma], rel=1e-11)
    assert em_p.lambda_max == pytest.approx(em.lambda_max, rel=1e-12)
    rgm, rgm_p = row_geometric_mean(m), row_geometric_mean(permuted)
    assert rgm_p.values == pytest.approx(rgm.values[sigma], rel=1e-13)


def test_rgm_ratios_increase_with_raised_entry(rng):
    # raising a[i, j] must strictly raise every ratio w_i / w_k, k != i
    from pcmaudit import PerturbationSpec, perturb

    for _ in range(100):
        n = int(rng.integers(4, 8))
        m = build_matrix(n, random_upper(rng, n))
        i = int(rng.integers(1, n))
        j = int(rng.integers(i + 1, n + 1))
        factor = float(rng.uniform(1.0001, 2.0))
        w0 = row_geometric_mean(m)
        w1 = row_geometric_mean(perturb(m, PerturbationSpec(i, j, factor)))
        for k in range(1, n + 1):
            if k != i:
                assert w1.ratio(i, k) > w0.ratio(i, k)


def test_weight_vector_validation():
    with pytest.raises(ValidationError):
        WeightVector(np.array([0.5, 0.6]))
    with pytest.raises(ValidationError):
        WeightVector(np.array([1.2, -0.2]))
    wv = WeightVector(np.array([0.25, 0.75]))
    assert wv.ratio(2, 1) == 3.0
