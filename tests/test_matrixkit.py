import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvops import matrixkit as mk


def test_worst_propagates_nan_and_is_zero_when_empty():
    assert mk.worst([]) == 0.0
    assert mk.worst(x for x in (1e-3, 2.0, 0.5)) == 2.0
    assert np.isnan(mk.worst([0.0, float("nan"), 1.0]))


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
    for payload in ("1", "\n\n1", "0 1"):   # an r x 0 matrix holds no entry
        with pytest.raises(ValueError, match="expected 0 columns"):
            mk.parse_matrix("2 0\n" + payload)


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, -3.3e-320,
           1.797e308, -1.797e308, 1.7976931348623157e308, 0.1, 1 / 3]
ENTRIES = st.one_of(st.sampled_from(SPECIAL),
                    st.floats(allow_nan=False, allow_infinity=False))


@given(data=st.data(), rows=st.integers(0, 4), cols=st.integers(0, 4))
@settings(max_examples=150, deadline=None)
def test_matrix_text_is_repr_per_entry_and_round_trips(data, rows, cols):
    m = np.array(data.draw(st.lists(ENTRIES, min_size=rows * cols, max_size=rows * cols)),
                 dtype=float).reshape(rows, cols)
    text = mk.format_matrix(m)
    want = "\n".join([f"{rows} {cols}"]
                     + [" ".join(repr(float(x)) for x in row) for row in m])
    assert text == want
    back = mk.parse_matrix(text)
    assert back.shape == m.shape and back.tobytes() == m.tobytes()


TOKEN_CHARS = "0123456789.eE+-_xXabfilnNtyIA\u0663\uff11\u00bd"


@given(tok=st.one_of(st.text(TOKEN_CHARS, min_size=1, max_size=8),
                     st.sampled_from(["1_0", "nan", "-NaN", "1e400", "-1e-400", "inf",
                                      "+Infinity", "0x10", "1__0", "_1", "1e", ".", "\u0663",
                                      "nan(1)", "1.5e+3", "-.5", "5e-324"])))
@settings(max_examples=300, deadline=None)
def test_parse_matrix_accepts_exactly_what_float_accepts(tok):
    try:
        want = np.array([[float(tok), 2.0]])
    except ValueError:
        with pytest.raises(ValueError):
            mk.parse_matrix(f"1 2\n{tok} 2")
    else:
        assert mk.parse_matrix(f"1 2\n{tok} 2").tobytes() == want.tobytes()


def test_matrix_shape_reads_only_the_header():
    assert mk.matrix_shape("\n  3 4\nnot read") == (3, 4)
    for bad in ("", "  \n ", "3\n1 2 3", "3 4 5\n", None):
        with pytest.raises(ValueError):
            mk.matrix_shape(bad)


def test_finite_entries_required():
    with pytest.raises(ValueError):
        mk.numeric_rank(np.array([[np.nan, 0.0]]))
