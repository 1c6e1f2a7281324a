"""Tests for random matrix generation and its substream determinism."""

import warnings

import numpy as np
import pytest

from pcmaudit import GeneratorConfig, ValidationError, generate, generate_batch
from pcmaudit.generate import SAATY_VALUES, SUBSTREAM_CHUNK, upper_batch


def test_scale_values_are_ascending_and_reciprocal():
    assert len(SAATY_VALUES) == 17
    assert np.all(np.diff(SAATY_VALUES) > 0)
    assert np.allclose(SAATY_VALUES[::-1] * SAATY_VALUES, 1.0, rtol=1e-16)


def test_config_validation():
    with pytest.raises(ValidationError):
        GeneratorConfig(n=1, scale="discrete", seed=0)
    with pytest.raises(ValidationError):
        GeneratorConfig(n=4, scale="saaty", seed=0)
    with pytest.raises(ValidationError):
        GeneratorConfig(n=4, scale="discrete", seed=-1)


def test_upper_batch_bounds():
    config = GeneratorConfig(n=4, scale="discrete", seed=0)
    for start, count in ((-1, 2), (0, -1)):
        with pytest.raises(ValidationError, match="nonnegative"):
            upper_batch(config, start, count)
    assert upper_batch(config, 5, 0).shape == (0, 6)


def test_discrete_entries_come_from_the_scale():
    config = GeneratorConfig(n=5, scale="discrete", seed=42)
    upper = upper_batch(config, 0, 2000)
    assert np.all(np.isin(upper, SAATY_VALUES))


def test_continuous_entries_cover_both_sides():
    config = GeneratorConfig(n=5, scale="continuous", seed=42)
    upper = upper_batch(config, 0, 2000).ravel()
    assert np.all((upper >= 0.1) & (upper <= 10.0))
    assert np.any(upper < 1.0) and np.any(upper > 1.0)


def test_generated_matrices_are_valid(rng):
    for scale in ("discrete", "continuous"):
        config = GeneratorConfig(n=6, scale=scale, seed=7)
        mats = generate_batch(config, 0, 50)
        assert np.all(mats[:, np.arange(6), np.arange(6)] == 1.0)
        assert np.max(np.abs(mats * np.transpose(mats, (0, 2, 1)) - 1.0)) <= 1e-12
        m = generate(config, int(rng.integers(0, 50)))
        assert m.n == 6


def test_same_config_is_bit_identical():
    config = GeneratorConfig(n=4, scale="continuous", seed=123)
    a = generate_batch(config, 0, 500)
    b = generate_batch(config, 0, 500)
    assert np.array_equal(a, b)


def test_ordinal_addressing_is_stable_across_batching():
    config = GeneratorConfig(n=4, scale="discrete", seed=9)
    whole = generate_batch(config, 0, 200)
    assert np.array_equal(generate_batch(config, 37, 1)[0], whole[37])
    assert np.array_equal(generate_batch(config, 150, 50), whole[150:200])
    assert np.array_equal(generate(config, 76).entries, whole[76])


def test_batches_span_chunk_boundaries():
    config = GeneratorConfig(n=4, scale="discrete", seed=5)
    span = generate_batch(config, SUBSTREAM_CHUNK - 3, 6)
    head = generate_batch(config, SUBSTREAM_CHUNK - 3, 3)
    tail = generate_batch(config, SUBSTREAM_CHUNK, 3)
    assert np.array_equal(span, np.concatenate([head, tail]))


def test_different_seeds_differ():
    a = generate_batch(GeneratorConfig(4, "discrete", 1), 0, 20)
    b = generate_batch(GeneratorConfig(4, "discrete", 2), 0, 20)
    assert not np.array_equal(a, b)


def test_low_seed_streams_are_pinned():
    # scale indices drawn for three seeds below 2**63 (chunk 2, offset 5)
    expected = {
        0: [[14, 6, 6, 11, 5, 6], [14, 4, 5, 5, 6, 13], [3, 15, 3, 15, 3, 8]],
        12345: [[10, 9, 10, 12, 4, 9], [9, 13, 4, 8, 15, 2], [15, 13, 16, 15, 9, 3]],
        2**63 - 1: [[2, 2, 11, 2, 2, 13], [15, 11, 8, 8, 15, 12], [12, 10, 11, 5, 16, 0]],
    }
    for seed, indices in expected.items():
        upper = upper_batch(GeneratorConfig(4, "discrete", seed), 2 * SUBSTREAM_CHUNK + 5, 3)
        assert np.searchsorted(SAATY_VALUES, upper).tolist() == indices
    upper = upper_batch(GeneratorConfig(4, "continuous", 2**62 + 7), 0, 1)
    assert upper[0].tolist() == [0.46558999925511596, 8.967356182657754, 8.354756089772387,
                                 8.034616742945417, 0.23346611830692623, 0.1147584661293866]


def test_high_seeds_get_their_own_streams():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = generate_batch(GeneratorConfig(4, "discrete", 2**63 + 1), 0, 20)
        b = generate_batch(GeneratorConfig(4, "discrete", 2**63 + 1000), 0, 20)
        c = generate_batch(GeneratorConfig(4, "discrete", 2**64 - 1), 0, 20)
    assert not np.array_equal(a, b)
    assert not np.array_equal(b, c)


def test_discrete_draws_are_roughly_uniform():
    config = GeneratorConfig(n=4, scale="discrete", seed=314)
    upper = upper_batch(config, 0, 40_000).ravel()
    _, counts = np.unique(upper, return_counts=True)
    assert counts.size == 17
    expected = upper.size / 17
    assert np.all(np.abs(counts - expected) < 0.05 * expected)


def test_continuous_magnitude_is_uniform_on_1_10():
    config = GeneratorConfig(n=4, scale="continuous", seed=314)
    upper = upper_batch(config, 0, 40_000).ravel()
    magnitude = np.where(upper < 1.0, 1.0 / upper, upper)
    # mean of U(1, 10) is 5.5; inversion flags are fair
    assert np.mean(magnitude) == pytest.approx(5.5, abs=0.05)
    assert np.mean(upper < 1.0) == pytest.approx(0.5, abs=0.01)
