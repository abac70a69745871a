import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvops import matrixkit as mk


def test_numeric_rank_basics():
    assert mk.numeric_rank(np.eye(3), 1e-10) == 3
    assert mk.numeric_rank(np.zeros((2, 4))) == 0
    # nearly repeated row collapses one singular value
    assert mk.numeric_rank(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]), 1e-10) == 1


def test_numeric_rank_external_scale():
    tiny = 1e-14 * np.eye(2)
    assert mk.numeric_rank(tiny) == 2          # full against itself
    assert mk.numeric_rank(tiny, scale=1.0) == 0


def test_numeric_rank_reference_singular_values():
    # independent route: the symmetric embedding [[0, m], [m^t, 0]] has
    # eigenvalues +-sigma_i, so no squaring of the condition number
    m = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
    emb = np.block([[np.zeros((2, 2)), m], [m.T, np.zeros((2, 2))]])
    sig = np.linalg.eigvalsh(emb)[2:]  # nonnegative half of the +-sigma pairs
    expected = int(np.sum(sig > 1e-10 * sig.max()))
    assert mk.numeric_rank(m, 1e-10) == expected == 1


def test_solve_checks_rank_and_shapes():
    b = np.array([[1.0], [2.0]])
    np.testing.assert_allclose(mk.solve(np.eye(2), b), b)
    with pytest.raises(mk.SingularMatrixError):
        mk.solve(np.ones((2, 2)), b)
    with pytest.raises(mk.ShapeMismatchError):
        mk.solve(np.eye(2), np.ones((3, 1)))
    with pytest.raises(mk.ShapeMismatchError):
        mk.solve(np.ones((2, 3)), b)


def test_lstsq_overdetermined():
    a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    x_true = np.array([[2.0], [-1.0]])
    x = mk.lstsq(a, a @ x_true)
    np.testing.assert_allclose(x, x_true, atol=1e-12)


def test_lstsq_on_stacked_shifts_reproduces_forward_step():
    # one explicit forward step: solve joint(L_1) P_2 = stack(x_i P_1 - ...)
    # and compare against the directly orthogonalized degree-2 blocks
    from mvops import moments
    from mvops.construct import gram_schmidt_monic, pair_blocks, shift_rows
    from mvops.indexing import basis_for

    u = moments.disk_functional(0.0)
    P, H = gram_schmidt_monic(u, 2)
    basis = basis_for(2)
    rhs = {k: [] for k in range(3)}
    for i in (1, 2):
        shifted = shift_rows(P.row_blocks(1), i, basis)
        b_blk = mk.solve(H.h(1), pair_blocks(u, shifted, P.row_blocks(1)).T).T
        c_blk = mk.solve(H.h(0), pair_blocks(u, shifted, P.row_blocks(0)).T).T
        for k in range(3):
            block = shifted.get(k, np.zeros((2, basis.size(k)))).copy()
            if k <= 1:
                block -= b_blk @ P.block(1, k)
            if k == 0:
                block -= c_blk @ P.block(0, 0)
            rhs[k].append(block)
    joint = basis.joint_shift(1)
    for k in range(3):
        solved = mk.lstsq(joint, np.vstack(rhs[k]))
        np.testing.assert_allclose(solved, P.block(2, k), atol=1e-10)


def _well_conditioned(rng, n):
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q1 @ np.diag(np.linspace(1.0, 3.0, n)) @ q2


@given(st.integers(0, 3), st.integers(1, 5), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_rank_invariant_under_nonsingular_factors(seed, rows, cols):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((rows, cols))
    m[rows // 2 :] = m[: rows - rows // 2]  # force some collapse
    left = _well_conditioned(rng, rows)
    right = _well_conditioned(rng, cols)
    base = mk.numeric_rank(m, 1e-9)
    assert mk.numeric_rank(left @ m @ right, 1e-9) == base


def test_matrix_text_round_trip_bit_exact():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 3)) * np.exp(rng.standard_normal((4, 3)) * 8)
    text = mk.format_matrix(m)
    back = mk.parse_matrix(text)
    assert back.shape == m.shape
    assert np.array_equal(back, m)  # bit exact via repr round trip
    assert text.splitlines()[0] == "4 3"


def test_parse_matrix_errors():
    with pytest.raises(ValueError):
        mk.parse_matrix("")
    with pytest.raises(ValueError):
        mk.parse_matrix("2 2\n1 2\n3")
    with pytest.raises(ValueError):
        mk.parse_matrix("1\n1 2")
    with pytest.raises(ValueError):
        mk.parse_matrix("2 2\n1 2\n3 4\n5 6")


def test_finite_entries_required():
    with pytest.raises(ValueError):
        mk.numeric_rank(np.array([[np.nan, 0.0]]))
