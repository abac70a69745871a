import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvops import indexing


def test_rank_count_values():
    assert indexing.rank_count(2, 3) == 4
    assert indexing.rank_count(3, 2) == 6
    assert indexing.rank_count(1, 7) == 1
    assert indexing.rank_count(2, 0) == 1


def test_rank_count_rejects_bad_input():
    with pytest.raises(ValueError):
        indexing.rank_count(0, 1)
    with pytest.raises(ValueError):
        indexing.rank_count(2, -1)


def test_enumerate_two_variables():
    assert indexing.enumerate_indices(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert indexing.enumerate_indices(2, 4)[0] == (4, 0)
    assert indexing.enumerate_indices(1, 4) == [(4,)]


def test_enumerate_three_variables_restricts_to_plane_order():
    # dropping the unused coordinate must reproduce the two-variable order
    full = indexing.enumerate_indices(3, 1)
    assert full == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    sub = [(a, b) for (a, b, c) in indexing.enumerate_indices(3, 3) if c == 0]
    assert sub == indexing.enumerate_indices(2, 3)


@given(st.integers(1, 4), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_enumeration_is_a_bijection(d, n):
    idx = indexing.enumerate_indices(d, n)
    assert len(idx) == indexing.rank_count(d, n)
    assert len(set(idx)) == len(idx)
    assert all(sum(a) == n and len(a) == d for a in idx)


@given(st.integers(1, 4), st.integers(0, 7))
@settings(max_examples=60, deadline=None)
def test_position_roundtrip(d, n):
    basis = indexing.GradedBasis(d)
    for pos, alpha in enumerate(basis.indices(n)):
        assert basis.position(alpha) == pos


def test_shift_matrix_two_variable_displays():
    basis = indexing.basis_for(2)
    np.testing.assert_array_equal(basis.shift_matrix(1, 1), [[1, 0, 0], [0, 1, 0]])
    np.testing.assert_array_equal(basis.shift_matrix(1, 2), [[0, 1, 0], [0, 0, 1]])


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_shift_matrix_row_orthogonality_and_joint_rank(d):
    basis = indexing.GradedBasis(d)
    for n in range(0, 9):
        for i in range(1, d + 1):
            L = basis.shift_matrix(n, i)
            assert L.shape == (basis.size(n), basis.size(n + 1))
            np.testing.assert_allclose(L @ L.T, np.eye(basis.size(n)), atol=0)
            assert set(np.unique(L)) <= {0.0, 1.0}
            assert np.all(L.sum(axis=1) == 1)
        joint = basis.joint_shift(n)
        assert np.linalg.matrix_rank(joint, tol=1e-9) == basis.size(n + 1)


def test_shift_matrix_defining_identity():
    # row for alpha must select the column of alpha + e_i
    basis = indexing.basis_for(3)
    n, i = 3, 2
    L = basis.shift_matrix(n, i)
    for r, alpha in enumerate(basis.indices(n)):
        target = list(alpha)
        target[i - 1] += 1
        col = basis.position(tuple(target))
        assert L[r, col] == 1.0
        assert L[r].sum() == 1.0


def test_joint_matrix_stacks_and_checks():
    a = np.ones((1, 3))
    b = np.zeros((2, 3))
    out = indexing.joint_matrix([a, b])
    assert out.shape == (3, 3)
    np.testing.assert_array_equal(out[:1], a)
    single = indexing.joint_matrix([a])
    np.testing.assert_array_equal(single, a)
    np.testing.assert_array_equal(
        indexing.joint_matrix([[[2.0]], [[3.0]]]), [[2.0], [3.0]]
    )
    with pytest.raises(ValueError):
        indexing.joint_matrix([np.ones((1, 3)), np.ones((1, 2))])


def test_sum_table_positions():
    basis = indexing.basis_for(2)
    table = basis.sum_table(1, 1)
    idx2 = basis.indices(2)
    assert idx2[table[0, 0]] == (2, 0)
    assert idx2[table[0, 1]] == (1, 1)
    assert idx2[table[1, 1]] == (0, 2)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_sum_table_equals_per_entry_positions(d):
    # fresh basis grown in two jumps, so rebuilt and reused parts both count
    basis = indexing.GradedBasis(d)
    for top in (3, 6):
        basis.graded_table(top)
        for j in range(top + 1):
            for k in range(top + 1):
                want = [[basis.position(tuple(x + y for x, y in zip(alpha, beta)))
                         for beta in basis.indices(k)] for alpha in basis.indices(j)]
                assert np.array_equal(basis.sum_table(j, k), want)


def test_graded_table_offsets_concatenate_degree_blocks():
    basis = indexing.GradedBasis(3)
    table = basis.graded_table(4)
    graded = [alpha for n in range(9) for alpha in basis.indices(n)]
    assert basis.offset(5) == table.shape[0] == sum(basis.size(n) for n in range(5))
    rows = graded[: table.shape[0]]
    for a, alpha in enumerate(rows):
        for b, beta in enumerate(rows):
            assert graded[table[a, b]] == tuple(x + y for x, y in zip(alpha, beta))
