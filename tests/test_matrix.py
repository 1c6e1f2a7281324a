"""Tests for matrix construction, validation, perturbation, and the text format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmaudit import (
    MatrixParseError,
    PerturbationSpec,
    ValidationError,
    build_matrix,
    consistent_from_weights,
    from_array,
    is_consistent,
    parse_matrix,
    perturb,
)
from pcmaudit.matrix import read_matrix_file, write_matrix_file

from conftest import KINKED_UPPER, random_upper


def test_build_2x2():
    m = build_matrix(2, [2.0])
    assert np.array_equal(m.entries, np.array([[1.0, 2.0], [0.5, 1.0]]))


def test_build_kinked_4x4():
    m = build_matrix(4, KINKED_UPPER)
    expected = np.array([
        [1, 8, 1, 5],
        [1 / 8, 1, 3, 7],
        [1, 1 / 3, 1, 9],
        [1 / 5, 1 / 7, 1 / 9, 1],
    ])
    assert np.allclose(m.entries, expected, rtol=0, atol=0)


def test_build_all_ones_is_consistent():
    m = build_matrix(3, [1.0, 1.0, 1.0])
    assert is_consistent(m)


def test_build_rejects_nonpositive_entry():
    with pytest.raises(ValidationError, match=r"\(1,3\)"):
        build_matrix(4, [2.0, -1.0, 5.0, 3.0, 7.0, 9.0])
    with pytest.raises(ValidationError, match=r"\(2,3\)"):
        build_matrix(3, [2.0, 3.0, 0.0])


def test_build_rejects_wrong_arity():
    with pytest.raises(ValidationError, match="6 entries"):
        build_matrix(4, [1.0, 2.0, 3.0])


def test_from_array_rejects_broken_reciprocity():
    a = np.array([[1.0, 2.0], [0.5001, 1.0]])
    with pytest.raises(ValidationError, match=r"\(2,1\)"):
        from_array(a)


def test_from_array_accepts_rounded_reciprocals():
    # 9 digits of 1/3: within the parse tolerance, rebuilt exactly afterwards
    a = np.array([[1.0, 3.0], [0.333333333, 1.0]])
    m = from_array(a)
    assert m.entries[1, 0] * m.entries[0, 1] == 1.0


def test_matrix_is_immutable(kinked_matrix):
    with pytest.raises(ValueError):
        kinked_matrix.entries[0, 1] = 2.0


def test_consistency_of_ratio_matrix(rng):
    w = rng.uniform(0.1, 5.0, size=5)
    assert is_consistent(consistent_from_weights(w))


def test_kinked_matrix_is_inconsistent(kinked_matrix):
    assert not is_consistent(kinked_matrix)


def test_perturb_values(kinked_matrix):
    p = perturb(kinked_matrix, PerturbationSpec(i=1, j=3, factor=1.01))
    assert p.entries[0, 2] == pytest.approx(1.01, rel=0, abs=0)
    assert p.entries[2, 0] == pytest.approx(1 / 1.01, rel=1e-15)
    # everything else untouched, input matrix unchanged
    mask = np.ones((4, 4), dtype=bool)
    mask[0, 2] = mask[2, 0] = False
    assert np.array_equal(p.entries[mask], kinked_matrix.entries[mask])
    assert kinked_matrix.entries[0, 2] == 1.0


def test_perturb_round_trip(kinked_matrix):
    f = 1.37
    there = perturb(kinked_matrix, PerturbationSpec(1, 2, f))
    back = perturb(there, PerturbationSpec(1, 2, 1 / f))
    assert np.allclose(back.entries, kinked_matrix.entries, rtol=1e-15)


def test_perturb_breaks_consistency(rng):
    # direct triple check: a[i,k] was w_i/w_k, the perturbed product
    # a[i,j] * a[j,k] becomes f * w_i/w_k, so the triple (i, j, k) must fail
    w = rng.uniform(0.2, 4.0, size=4)
    m = consistent_from_weights(w)
    p = perturb(m, PerturbationSpec(1, 3, 1.01))
    assert p.entries[0, 3] != pytest.approx(p.entries[0, 2] * p.entries[2, 3], rel=1e-6)
    assert not is_consistent(p)


def test_perturb_rejects_bad_indices(kinked_matrix):
    with pytest.raises(IndexError):
        PerturbationSpec(3, 1, 1.01)
    with pytest.raises(IndexError):
        PerturbationSpec(2, 2, 1.01)
    with pytest.raises(IndexError):
        perturb(kinked_matrix, PerturbationSpec(1, 5, 1.01))
    with pytest.raises(ValidationError):
        PerturbationSpec(1, 2, 1.0)
    with pytest.raises(ValidationError):
        PerturbationSpec(1, 2, -2.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=1 / 9, max_value=9.0), min_size=6, max_size=6))
def test_reciprocity_and_diagonal_invariants(upper):
    m = build_matrix(4, upper)
    assert np.all(np.diag(m.entries) == 1.0)
    assert np.max(np.abs(m.entries * m.entries.T - 1.0)) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=10, max_size=10))
def test_upper_triangle_round_trip(upper):
    m = build_matrix(5, upper)
    assert np.array_equal(m.upper_triangle(), np.asarray(upper))
    again = build_matrix(5, m.upper_triangle())
    assert np.array_equal(again.entries, m.entries)


def test_content_digest_distinguishes_matrices(kinked_matrix):
    other = build_matrix(4, (8.0, 1.0000000001, 5.0, 3.0, 7.0, 9.0))
    assert kinked_matrix.content_digest() != other.content_digest()
    assert kinked_matrix.content_digest() == build_matrix(4, KINKED_UPPER).content_digest()


def test_parse_matrix_fractions():
    text = "3\n1 2 8\n1/2 1 2\n1/8 1/2 1\n"
    m = parse_matrix(text)
    assert m.entries[1, 0] == 0.5
    assert m.entries[2, 0] * m.entries[0, 2] == 1.0


def test_parse_matrix_skips_comments():
    text = "# run_id=abc123\n2\n1 4\n# midway note\n1/4 1\n"
    m = parse_matrix(text)
    assert m.entries[0, 1] == 4.0


def test_parse_matrix_errors_carry_position():
    with pytest.raises(MatrixParseError, match="line 3"):
        parse_matrix("2\n1 2\n0.5 oops\n")
    with pytest.raises(MatrixParseError, match="2 rows"):
        parse_matrix("2\n1 2\n")
    with pytest.raises(MatrixParseError):
        parse_matrix("")
    with pytest.raises(ValidationError, match=r"\(2,1\)"):
        parse_matrix("2\n1 2\n0.6 1\n")


def test_text_round_trip(tmp_path, kinked_matrix, rng):
    path = tmp_path / "m.txt"
    for m in (kinked_matrix, build_matrix(5, random_upper(rng, 5))):
        write_matrix_file(path, m)
        again = read_matrix_file(path)
        assert np.array_equal(again.entries, m.entries)


def test_failed_write_leaves_no_partial_file(tmp_path, kinked_matrix, disk_full):
    path = tmp_path / "m.txt"
    with pytest.raises(OSError):
        write_matrix_file(path, kinked_matrix)
    assert list(tmp_path.iterdir()) == []
