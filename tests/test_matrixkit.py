import json
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvops import construct, linrel, moments, serialize, ttr
from mvops import matrixkit as mk
from mvops.indexing import basis_for

from blockref import row_blocks, shift_rows


def test_worst_propagates_nan_and_is_zero_when_empty():
    assert mk.worst([]) == 0.0
    assert mk.worst(x for x in (1e-3, 2.0, 0.5)) == 2.0
    assert np.isnan(mk.worst([0.0, float("nan"), 1.0]))


@given(m=st.lists(st.floats(allow_nan=True, allow_infinity=True, width=64), max_size=40)
       .map(np.array))
@example(m=np.array([-0.0, -0.0]))
@example(m=np.array([-3.0, 2.0]))
@example(m=np.array([float("nan"), -np.inf]))
@settings(max_examples=300, deadline=None)
def test_max_abs_is_the_largest_magnitude_bit_for_bit(m):
    # the entries as they are, and repeated up to the size from which
    # max_abs reads max and min instead of the magnitudes
    large = np.resize(m, mk._REDUCE_MIN_ENTRIES).reshape(-1, 4) if m.size else m
    for a in (m, large):
        got = mk.max_abs(a)
        want = float(np.abs(a).max()) if a.size else 0.0
        assert type(got) is float
        assert mk.same_bits(np.float64(got), np.float64(want))


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
    from mvops.construct import gram_schmidt_monic, pair_blocks
    from mvops.indexing import basis_for

    u = moments.disk_functional(0.0)
    P, H = gram_schmidt_monic(u, 2)
    basis = basis_for(2)
    rhs = {k: [] for k in range(3)}
    for i in (1, 2):
        shifted = shift_rows(row_blocks(P, 1), i, basis)
        b_blk = mk.solve(H.h(1), pair_blocks(u, shifted, row_blocks(P, 1)).T).T
        c_blk = mk.solve(H.h(0), pair_blocks(u, shifted, row_blocks(P, 0)).T).T
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


MAGNITUDES = st.floats(1e-8, 1e8)


@st.composite
def _line_sparse(draw):
    """A matrix with at most one nonzero per column (transposed: per row),
    random signs and magnitudes, some lines zero."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    m = np.zeros((rows, cols))
    for j in range(cols):
        if rows and draw(st.booleans()):
            m[draw(st.integers(0, rows - 1)), j] = (draw(st.sampled_from([-1.0, 1.0]))
                                                   * draw(MAGNITUDES))
    return m.T if draw(st.booleans()) else m


@given(m=_line_sparse())
@settings(max_examples=200, deadline=None)
def test_singular_values_of_line_sparse_matrices_take_no_svd(m):
    want = np.linalg.svd(m, compute_uv=False)
    with mock.patch.object(np.linalg, "svd", side_effect=AssertionError("SVD taken")):
        got = mk.singular_values(m)
    assert got.shape == want.shape == (min(m.shape),)
    assert np.all(np.diff(got) <= 0.0)
    top = want[0] if want.size else 0.0
    assert np.all(np.abs(got - want) <= 1e-14 * top)
    # a line with one nonzero gives its magnitude exactly
    if np.all(np.count_nonzero(m, axis=0) <= 1) and np.all(np.count_nonzero(m, axis=1) <= 1):
        assert np.array_equal(got, np.sort(np.abs(m[m != 0.0]))[::-1].tolist()
                              + [0.0] * (min(m.shape) - np.count_nonzero(m)))


@given(data=st.data(), rows=st.integers(1, 7), cols=st.integers(1, 7),
       density=st.floats(0.3, 1.0))
@settings(max_examples=150, deadline=None)
def test_singular_values_of_other_matrices_are_lapacks_bit_for_bit(data, rows, cols,
                                                                   density):
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((rows, cols)) * (rng.random((rows, cols)) < density)
    if (np.all(np.count_nonzero(m, axis=0) <= 1)
            or np.all(np.count_nonzero(m, axis=1) <= 1)):
        return   # line sparse: the test above
    assert mk.singular_values(m).tobytes() == np.linalg.svd(m, compute_uv=False).tobytes()


def _operand(rows: int, cols: int, seed: int) -> np.ndarray:
    """Signed entries, a third of them zeros, so products make -0.0."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, cols)) * (rng.random((rows, cols)) < 0.67)


PRODUCT_CASES = {
    "diagonal": np.diag([2.0, -0.5, 3.0, 1e-300]),
    "one per row": np.array([[0.0, -2.0, 0.0, 0.0], [0.0, 3.0, 0.0, 0.0],
                             [0.0, 0.0, 0.0, 0.5], [7.0, 0.0, 0.0, 0.0],
                             [0.0, 0.0, -1.0, 0.0]]),
    "shift": basis_for(2).shift_matrix(3, 2),
    "empty rows": np.diag([0.0, -4.0, 0.0, 1.5]),
    "all zeros": np.zeros((3, 4)),
    "dense": _operand(4, 4, 7) + np.eye(4),
}


@pytest.mark.parametrize("name", PRODUCT_CASES)
def test_product_equals_the_dense_product_bit_for_bit(name):
    s = PRODUCT_CASES[name]
    x = _operand(s.shape[1], 6, 1)
    if name == "dense":
        got = mk.product(s, x)
    else:
        # the row gather splits nothing
        with mock.patch.object(np, "split", side_effect=AssertionError("dense product")):
            got = mk.product(s, x)
    assert mk.same_bits(got, (s @ x) + 0.0)
    # a split product is the products of its blocks held apart, side by side
    apart = [np.ascontiguousarray(p) for p in np.split(x, [2, 5], axis=1)]
    assert mk.same_bits(mk.product(s, x, [2, 5]), np.hstack([s @ p for p in apart]) + 0.0)


@given(m=_line_sparse(), seed=st.integers(0, 2**32 - 1), width=st.integers(0, 5))
@settings(max_examples=200, deadline=None)
def test_product_of_line_sparse_matrices_equals_the_dense_product(m, seed, width):
    x = _operand(m.shape[1], width, seed)
    assert mk.same_bits(mk.product(m, x), (m @ x) + 0.0)


@pytest.mark.parametrize("name", ["diagonal", "one per row", "empty rows", "dense"])
@pytest.mark.parametrize("where", ["s", "x"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_product_is_non_finite_where_the_dense_product_is(name, where, bad):
    s, x = PRODUCT_CASES[name].copy(), _operand(4, 6, 2)
    if where == "s":
        s[1, 1] = bad        # a nonzero of every case but "empty rows"' zero row
    else:
        x[2, 3] = bad
    with np.errstate(invalid="ignore"):    # inf * 0
        got, want = mk.product(s, x), s @ x
    assert np.array_equal(np.isfinite(got), np.isfinite(want))
    assert np.array_equal(got, want + 0.0, equal_nan=True)


@st.composite
def _block_family(draw):
    """Blocks of one width, each line sparse (one nonzero per row at most)
    or dense, with signed zeros, and maybe a NaN or an infinity in one
    block or in the right operand; the operand and its column splits."""
    width, cols = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        rows = draw(st.integers(0, 5))
        if draw(st.booleans()) or not width:
            b = np.zeros((rows, width))
            if width:
                keep = rng.random(rows) < 0.8
                b[np.flatnonzero(keep), rng.integers(0, width, rows)[keep]] = \
                    rng.standard_normal(np.count_nonzero(keep))
        else:
            b = rng.standard_normal((rows, width)) * (rng.random((rows, width)) < 0.6)
        b[rng.random(b.shape) < 0.2] = -0.0
        blocks.append(b)
    x = _operand(width, cols, int(rng.integers(2**32)))
    x[rng.random(x.shape) < 0.2] = -0.0
    bad = draw(st.sampled_from([None, np.nan, np.inf, -np.inf]))
    target = draw(st.sampled_from(["x", "s"]))
    holder = x if target == "x" else blocks[draw(st.integers(0, len(blocks) - 1))]
    if bad is not None and holder.size:
        holder[tuple(rng.integers(0, n) for n in holder.shape)] = bad
    split = sorted(draw(st.lists(st.integers(0, cols), max_size=3)))
    return blocks, x, split


@given(family=_block_family())
@settings(max_examples=300, deadline=None)
def test_product_of_a_block_family_is_the_stack_of_its_block_products(family):
    # one sparsity test for the whole family, bit for bit the per-block calls
    blocks, x, split = family
    with np.errstate(invalid="ignore", over="ignore"):    # inf * 0
        got = mk.product(blocks, x, split)
        want = np.vstack([mk.product(b, x, split) for b in blocks])
    assert mk.same_bits(got, want)


def test_a_line_sparse_block_family_takes_one_gather():
    blocks = [np.diag([2.0, -0.5, 3.0]), PRODUCT_CASES["one per row"][:3, :3],
              np.zeros((2, 3))]
    x = _operand(3, 5, 4)
    with mock.patch.object(np, "split", side_effect=AssertionError("dense product")), \
            mock.patch.object(np, "isfinite", wraps=np.isfinite) as finite:
        got = mk.product(blocks, x, [2])
    assert finite.call_count == 1
    assert mk.same_bits(got, np.vstack([b @ x for b in blocks]) + 0.0)


def test_product_checks_shapes():
    with pytest.raises(mk.ShapeMismatchError):
        mk.product(np.eye(3), np.ones((2, 4)))
    with pytest.raises(mk.ShapeMismatchError):
        mk.product(np.ones(3), np.ones((3, 4)))
    assert mk.product(np.zeros((2, 0)), np.zeros((0, 3))).shape == (2, 3)
    assert mk.product(np.zeros((0, 3)), np.ones((3, 2))).shape == (0, 2)
    with pytest.raises(mk.ShapeMismatchError):
        mk.product([np.eye(3), np.ones((2, 4))], np.ones((3, 4)))


@pytest.mark.parametrize("m", [np.array([[-2.5]]), np.zeros((0, 4)), np.zeros((4, 0)),
                               np.zeros((3, 5)), np.diag([3.0, -1e-9, 0.0]),
                               np.array([[0.0, 2.0, 0.0, 0.0], [1.0, 0.0, 0.0, -1.0]]),
                               np.array([[1e300], [1e300], [-1e300]])])
def test_singular_values_edge_shapes(m):
    np.testing.assert_allclose(mk.singular_values(m), np.linalg.svd(m, compute_uv=False),
                               rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape", [(1, 1), (3, 2), (2, 3)])
def test_singular_values_refuse_non_finite_entries(bad, shape):
    m = np.zeros(shape)
    m[-1, -1] = bad
    with pytest.raises(ValueError, match="finite"):
        mk.singular_values(m)
    m = np.ones(shape)
    m[0, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        mk.singular_values(m)


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


def _assert_same_text(got: str, want: str) -> None:
    """got == want, else fail at the first difference (pytest's own diff of
    two long texts takes minutes)."""
    if got != want:
        k = len(os.path.commonprefix([got, want]))
        pytest.fail(f"texts differ at {k}: {got[k - 20:k + 20]!r} != {want[k - 20:k + 20]!r}")


@st.composite
def _small_matrices(draw):
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    entries = draw(st.lists(ENTRIES, min_size=rows * cols, max_size=rows * cols))
    return np.array(entries, dtype=float).reshape(rows, cols)


@st.composite
def _large_line_sparse(draw):
    """Up to 200 x 200, on both sides of the size at which the codec turns
    vectorized: each row holds at most one entry from SPECIAL, the rest 0.0."""
    rows, cols = draw(st.integers(0, 200)), draw(st.integers(0, 200))
    m = np.zeros((rows, cols))
    if cols:
        picks = st.none() | st.tuples(st.integers(0, cols - 1), st.sampled_from(SPECIAL))
        for r, pick in enumerate(draw(st.lists(picks, min_size=rows, max_size=rows))):
            if pick is not None:
                m[r, pick[0]] = pick[1]
    return m


def _dense(rows: int, cols: int) -> np.ndarray:
    """Entries over 40 decades with 30% zeros of each sign: nonzeros next to
    each other in a row and across a row's end."""
    rng = np.random.default_rng(rows * cols)
    m = rng.standard_normal((rows, cols)) * np.exp(rng.standard_normal((rows, cols)) * 20)
    m[rng.random(m.shape) < 0.3] = 0.0
    m[rng.random(m.shape) < 0.3] = -0.0
    return m


@given(m=st.one_of(_small_matrices(), _large_line_sparse()))
@example(m=_dense(40, 40))
@example(m=_dense(7, 9))
@example(m=_dense(1, 1000))
@example(m=_dense(1000, 1))
@example(m=np.zeros((150, 0)))
@example(m=np.zeros((200, 200)))
@example(m=np.diag(np.tile([-0.0, 5e-324, 0.0, 1 / 3], 50)))
@settings(max_examples=150, deadline=None)
def test_matrix_text_is_repr_per_entry_and_round_trips(m):
    rows, cols = m.shape
    text = mk.format_matrix(m)
    _assert_same_text(text, "\n".join([f"{rows} {cols}"]
                                       + [" ".join(repr(float(x)) for x in row) for row in m]))
    back = mk.parse_matrix(text)
    assert back.shape == m.shape and back.tobytes() == m.tobytes()


def _parse_per_token(text: str) -> np.ndarray:
    """The reference reader: str.split per line and float() per token."""
    rows, cols = mk.matrix_shape(text)
    data = [[float(tok) for tok in ln.split()] for ln in text.strip().splitlines()[1:]]
    data = [row for row in data if row]
    if (cols and len(data) != rows) or any(len(row) != cols for row in data):
        raise ValueError("counts do not match the header")
    return np.array(data, dtype=float).reshape(rows, cols)


def _parses_as_per_token(text: str) -> None:
    try:
        want = _parse_per_token(text)
    except ValueError:
        with pytest.raises(ValueError):
            mk.parse_matrix(text)
    else:
        got = mk.parse_matrix(text)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


TOKEN_CHARS = "0123456789.eE+-_xXabfilnNtyIA\u0663\uff11\u00bd"
# tokens that look like the zero token '0.0' but are not it
ZERO_LOOKALIKES = ["0.00", "00.0", "+0.0", "-0.0", "0.0_1", "0.0e0", "10.0", "0.05"]
SEPARATORS = [" ", "\n", "  ", "\n\n", " \n ", "\t", "\r\n", "\x0b", "\x1c", "\xa0"]
BIG_ROWS, BIG_COLS = 40, 30


def _big_text(tok: str, pos: int, sep: str, sep_at, replaced: str, tail: str) -> str:
    """A BIG_ROWS x BIG_COLS payload, mostly '0.0', holding `tok` at entry
    `pos`; `sep` replaces the separator after entry `sep_at`, or, when
    sep_at is None, every separator that is `replaced`."""
    n = BIG_ROWS * BIG_COLS
    toks = ["0.0"] * n
    toks[5::17] = ["-1.25e-3"] * len(toks[5::17])
    toks[pos] = tok
    seps = [" " if (k + 1) % BIG_COLS else "\n" for k in range(n - 1)]
    if sep_at is not None:
        seps[sep_at] = sep
    else:
        seps = [sep if s == replaced else s for s in seps]
    return f"{BIG_ROWS} {BIG_COLS}\n" + "".join(map(str.__add__, toks, [*seps, tail]))


@given(tok=st.one_of(st.text(TOKEN_CHARS, min_size=1, max_size=8),
                     st.sampled_from(["1_0", "nan", "-NaN", "1e400", "-1e-400", "inf",
                                      "+Infinity", "0x10", "1__0", "_1", "1e", ".", "\u0663",
                                      "nan(1)", "1.5e+3", "-.5", "5e-324", "0.0", "0", "1",
                                      "12", "00", ".0", "0.", *ZERO_LOOKALIKES])),
       pos=st.integers(0, BIG_ROWS * BIG_COLS - 1), sep=st.sampled_from(SEPARATORS),
       sep_at=st.none() | st.integers(0, BIG_ROWS * BIG_COLS - 2), replaced=st.sampled_from([" ", "\n"]),
       tail=st.sampled_from(["", " ", "\n", "\n\n"]))
@settings(max_examples=300, deadline=None)
def test_parse_matrix_accepts_exactly_what_float_accepts(tok, pos, sep, sep_at, replaced, tail):
    try:
        want = np.array([[float(tok), 2.0]])
    except ValueError:
        with pytest.raises(ValueError):
            mk.parse_matrix(f"1 2\n{tok} 2")
    else:
        assert mk.parse_matrix(f"1 2\n{tok} 2").tobytes() == want.tobytes()
    # the same token in a payload the vectorized reader takes, at a drawn
    # entry and as the last one, with the separators drawn
    assert BIG_ROWS * BIG_COLS >= mk._VECTOR_MIN_ENTRIES
    for at in (pos, BIG_ROWS * BIG_COLS - 1):
        _parses_as_per_token(_big_text(tok, at, sep, sep_at, replaced, tail))


def _nan(bits: int) -> float:
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


# a small pool, so that a block repeats its values as tensor blocks do, with
# entries that compare equal but differ in bits (-0.0, NaN payloads)
POOL = [1.0, -1.0, 0.5, 1 / 3, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-3, 1.7976931348623157e308,
        np.inf, -np.inf, _nan(0x7FF8000000000000), _nan(0x7FF8000000000001),
        _nan(0xFFF8000000000000), _nan(0x7FF0000000000002)]


def _spellings(token: str) -> list[str]:
    """Tokens that differ from `token` as strings but name the same float."""
    out = [token, token.upper()]
    if token[0] != "-":
        out.append("+" + token)
    if "." in token and "e" not in token:
        out.append(token + "0")
    if token.endswith(".0"):
        out.append(token[:-2] + "e0")
    return out


@st.composite
def _pooled_blocks(draw):
    """A block of 500 entries or more, at most half of them drawn from a few
    values of POOL, the rest 0.0, and a seed for the test's own draws."""
    rows = draw(st.integers(1, 60))
    cols = draw(st.integers(-(-mk._VECTOR_MIN_ENTRIES // rows), 2 * mk._VECTOR_MIN_ENTRIES // rows))
    pool = np.array(draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=5)))
    share = draw(st.sampled_from([0.0, 0.01, 0.1, 0.3, 0.5]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    m = np.zeros(rows * cols)
    where = rng.choice(m.size, int(share * m.size), replace=False)
    m[where] = pool[rng.integers(pool.size, size=where.size)]
    return m.reshape(rows, cols), seed


@given(drawn=_pooled_blocks())
@example(drawn=(np.tile([[1.0, -0.0, 0.0, 0.0]], (25, 5)), 0))
@settings(max_examples=120, deadline=None)
def test_codec_converts_each_distinct_value_as_repr_and_float_would(drawn):
    m, seed = drawn
    rng = np.random.default_rng(seed)
    rows, cols = m.shape
    tokens = [[repr(x) for x in row] for row in m.tolist()]
    payload = "\n".join(" ".join(row) for row in tokens)
    text = f"{rows} {cols}\n{payload}"
    finite = bool(np.isfinite(m).all())
    # the writer: repr of every entry, from the distinct bit patterns;
    # the text round-trips bit for bit
    _assert_same_text(mk._format_spliced(m), payload)
    if finite:
        _assert_same_text(mk.format_matrix(m), text)
        assert mk.parse_matrix(text).tobytes() == m.tobytes()
    else:
        with pytest.raises(ValueError, match="must be finite"):
            mk.format_matrix(m)
    # the reader: each token as float() reads it
    assert mk.parse_matrix(text).tobytes() == _parse_per_token(text).tobytes()
    # one float under several spellings in one block
    spelled = [[tok if tok == "0.0" else rng.choice(_spellings(tok)) for tok in row]
               for row in tokens]
    text = f"{rows} {cols}\n" + "\n".join(" ".join(row) for row in spelled)
    assert mk.parse_matrix(text).tobytes() == _parse_per_token(text).tobytes()
    # bad tokens: the first is named
    flat = [tok for row in spelled for tok in row]
    first, second = sorted(rng.choice(len(flat), 2, replace=False))
    flat[first], flat[second] = "1..0", "0x10"
    bad = f"{rows} {cols}\n" + "\n".join(" ".join(flat[r * cols:(r + 1) * cols])
                                            for r in range(rows))
    with pytest.raises(ValueError, match=r"'1\.\.0'"):
        mk.parse_matrix(bad)


@pytest.mark.parametrize("zeros, vectorized", [(0.0, False), (0.3, False), (0.6, True),
                                              (0.95, True)])
def test_large_blocks_take_the_per_byte_route_when_mostly_zero(zeros, vectorized):
    # a dense block is joined and split per token; a block at least half of
    # zeros is written and read per byte; the text is the same either way
    rng = np.random.default_rng(5)
    m = rng.standard_normal((45, 36)) * (rng.random((45, 36)) >= zeros)
    with mock.patch.object(mk, "_format_spliced", wraps=mk._format_spliced) as spliced:
        text = mk.format_matrix(m)
    with mock.patch.object(mk, "_parse_bytes", wraps=mk._parse_bytes) as per_byte:
        back = mk.parse_matrix(text)
    assert spliced.call_count == per_byte.call_count == int(vectorized)
    _assert_same_text(text, "\n".join(["45 36"] + [" ".join(map(repr, row))
                                                   for row in m.tolist()]))
    _assert_same_text("45 36\n" + mk._format_spliced(m), text)
    assert back.tobytes() == m.tobytes() == mk._parse_bytes(text, 45, 36).tobytes()


def test_matrix_shape_reads_only_the_header():
    assert mk.matrix_shape("\n  3 4\nnot read") == (3, 4)
    for bad in ("", "  \n ", "3\n1 2 3", "3 4 5\n", None, "0 -1", "-1 0", "2 -1"):
        with pytest.raises(ValueError):
            mk.matrix_shape(bad)
    for bad in ("0 -1\n", "-1 0", "2 -1\n1\n2"):
        with pytest.raises(ValueError, match="bad header"):
            mk.parse_matrix(bad)


def test_finite_entries_required():
    with pytest.raises(ValueError):
        mk.numeric_rank(np.array([[np.nan, 0.0]]))


# the envelope shapes of the benchmark's cli-files workload: tensor Jacobi
# (d, N, a, b) with the relation's raised axis j
CLI_SHAPES = ((2, 12, (0.5, 0.0), (0.0, 0.5), 1),
              (3, 8, (0.5, 0.0, -0.5), (0.0, 0.5, 0.0), 2),
              (4, 8, (0.5, 0.0, -0.5, 0.0), (0.0, 0.5, 0.0, 0.5), 3))


def _matrix_texts(node):
    """Every matrix text in a decoded envelope, markers skipped."""
    if isinstance(node, str):
        if node not in ("shift", "identity"):
            yield node
    elif isinstance(node, list):
        for item in node:
            yield from _matrix_texts(item)


@pytest.mark.parametrize("shape", CLI_SHAPES, ids=lambda s: f"d={s[0]}")
def test_envelope_blocks_are_repr_per_entry_and_read_per_token(shape):
    d, N, a, b, j = shape
    raised = tuple(x + (i == j - 1) for i, x in enumerate(a))
    v, u = moments.cube_jacobi_functional(a, b), moments.cube_jacobi_functional(raised, b)
    Q, HQ = construct.gram_schmidt_monic(v, N)
    P, HP = construct.gram_schmidt_monic(u, N)
    envelopes = [serialize.system_to_json(Q), serialize.system_to_json(P),
                 serialize.ttr_to_json(ttr.compute_ttr(Q, v, HQ)),
                 serialize.ttr_to_json(ttr.compute_ttr(P, u, HP)),
                 serialize.relation_to_json(linrel.compute_relation(Q, P, u, HP))]
    sizes = []
    for envelope in envelopes:
        payload = json.loads(envelope)
        for text in _matrix_texts([payload.get(k) for k in ("blocks", "A", "B", "C", "M")]):
            m = _parse_per_token(text)
            assert mk.parse_matrix(text).tobytes() == m.tobytes()
            _assert_same_text(mk.format_matrix(m), "\n".join(
                [f"{m.shape[0]} {m.shape[1]}"] + [" ".join(map(repr, row)) for row in m.tolist()]))
            sizes.append(m.size)
    # the blocks lie on both sides of the vectorized codec's size at d >= 3
    assert min(sizes) < mk._VECTOR_MIN_ENTRIES
    assert d == 2 or max(sizes) >= mk._VECTOR_MIN_ENTRIES
