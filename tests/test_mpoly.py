import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mvops import mpoly

from blockref import poly_add

coefficient = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
coordinate = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)
# signed zeros drawn often, so that bit-identity covers them
sparse_coefficient = st.one_of(st.sampled_from([0.0, -0.0]), coefficient)


def evaluate(arr, x):
    """Value of a coefficient array at the point x, term by term."""
    return sum(c * np.prod(np.power(x, idx)) for idx, c in np.ndenumerate(arr))


def shifted_mul(a, b):
    """Reference product: one shifted copy of b per nonzero entry of a,
    accumulated in row-major order."""
    out = np.zeros(tuple(x + y - 1 for x, y in zip(a.shape, b.shape)))
    for idx in np.argwhere(a):
        key = tuple(idx)
        out[tuple(slice(i, i + s) for i, s in zip(key, b.shape))] += a[key] * b
    return out


def chained_form(a, b, coeffs):
    """Reference evaluation of sum c_i a^i b^(m-i): a chain of `poly_add` calls,
    each form a^i b^(m-i) the reference product of two sequential powers."""
    m = len(coeffs) - 1
    out = mpoly.const(a.ndim, 0.0)
    for i, c in enumerate(coeffs):
        if c != 0.0:
            powers = []
            for base, k in ((a, i), (b, m - i)):
                power = mpoly.const(a.ndim)
                for _ in range(k):
                    power = shifted_mul(power, base)
                powers.append(power)
            out = poly_add(out, c * shifted_mul(*powers))
    return out


@st.composite
def poly_arrays(draw, d, entries=coefficient):
    shape = tuple(draw(st.integers(1, 4)) for _ in range(d))
    values = draw(st.lists(entries, min_size=int(np.prod(shape)),
                           max_size=int(np.prod(shape))))
    return np.array(values).reshape(shape)


@st.composite
def mul_cases(draw):
    d = draw(st.integers(1, 3))
    return (draw(poly_arrays(d)), draw(poly_arrays(d)),
            np.array(draw(st.lists(coordinate, min_size=d, max_size=d))))


@st.composite
def form_table_cases(draw):
    d = draw(st.integers(1, 3))
    lists = draw(st.lists(st.lists(coefficient, min_size=1, max_size=5), min_size=1, max_size=3))
    return (lists, draw(poly_arrays(d)), draw(poly_arrays(d)),
            np.array(draw(st.lists(coordinate, min_size=d, max_size=d))))


@given(mul_cases())
@settings(max_examples=80, deadline=None)
def test_mul_evaluates_to_the_product(case):
    a, b, x = case
    got = evaluate(mpoly.mul(a, b), x)
    scale = evaluate(np.abs(a), np.abs(x)) * evaluate(np.abs(b), np.abs(x))
    assert abs(got - evaluate(a, x) * evaluate(b, x)) <= 1e-12 * (1.0 + scale)


@given(st.integers(1, 3).flatmap(lambda d: st.tuples(poly_arrays(d, sparse_coefficient),
                                                    poly_arrays(d, sparse_coefficient))))
@settings(max_examples=150, deadline=None)
def test_mul_is_bit_identical_to_shifted_accumulation(pair):
    a, b = pair
    got, want = mpoly.mul(a, b), shifted_mul(a, b)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@given(form_table_cases())
@settings(max_examples=80, deadline=None)
def test_form_table_evaluates_to_the_homogeneous_sum(case):
    # several coefficient lists, of equal or different lengths, share one table
    lists, a, b, x = case
    table = mpoly.form_table(a, b)
    ax, bx = evaluate(a, x), evaluate(b, x)
    aa, ba = evaluate(np.abs(a), np.abs(x)), evaluate(np.abs(b), np.abs(x))
    for coeffs in lists:
        m = len(coeffs) - 1
        want = sum(c * ax**i * bx ** (m - i) for i, c in enumerate(coeffs))
        scale = sum(abs(c) * aa**i * ba ** (m - i) for i, c in enumerate(coeffs))
        assert abs(evaluate(table(coeffs), x) - want) <= 1e-12 * (1.0 + scale)


@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.lists(st.lists(sparse_coefficient, min_size=1, max_size=6), min_size=1, max_size=4),
    poly_arrays(d, sparse_coefficient), poly_arrays(d, sparse_coefficient))))
@settings(max_examples=80, deadline=None)
def test_form_table_is_bit_identical_to_the_add_chain(case):
    lists, a, b = case
    table = mpoly.form_table(a, b)
    for coeffs in lists:
        got, want = table(coeffs), chained_form(a, b, coeffs)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.integers(1, 6).flatmap(lambda n: st.lists(
        st.lists(sparse_coefficient, min_size=n, max_size=n), min_size=1, max_size=4)),
    poly_arrays(d, sparse_coefficient), poly_arrays(d, sparse_coefficient))))
@settings(max_examples=80, deadline=None)
def test_form_table_evaluates_a_stack_as_each_list_alone(case):
    # each polynomial of a stack is its list's alone, zero-padded with +0.0
    lists, a, b = case
    table = mpoly.form_table(a, b)
    stack = table(np.array(lists))
    assert stack.shape[0] == len(lists)
    for coeffs, got in zip(lists, stack):
        want = table(coeffs)
        cut = tuple(slice(0, s) for s in want.shape)
        assert got[cut].tobytes() == want.tobytes()
        rest = got.copy()
        rest[cut] = 1.0
        assert not np.any((rest == 0.0) & np.signbit(rest))
        assert np.count_nonzero(rest != 0.0) == want.size


def test_form_table_adds_long_lists_of_constant_forms_in_order():
    # constant forms leave one coefficient, a single column of terms, which
    # numpy's reductions would sum pairwise from eight terms on
    rng = np.random.default_rng(7)
    for d in (1, 2, 3):
        for _ in range(50):
            a, b = (mpoly.const(d, rng.uniform(-2.0, 2.0)) for _ in range(2))
            coeffs = rng.uniform(-2.0, 2.0, size=rng.integers(8, 15))
            coeffs[rng.random(coeffs.size) < 0.2] = 0.0
            got, want = mpoly.form_table(a, b)(coeffs), chained_form(a, b, coeffs)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_form_table_computes_each_product_once(monkeypatch):
    calls = []
    real_mul = mpoly.mul
    monkeypatch.setattr(mpoly, "mul", lambda a, b: calls.append(1) or real_mul(a, b))
    m = 6
    table = mpoly.form_table(mpoly.linear(2, [1.0, 0.0]), mpoly.linear(2, [0.5, 1.0], 1.0))
    table(np.arange(1.0, m + 2))
    assert len(calls) <= 3 * m + 1
    # a second list of the same length reuses every form
    before = len(calls)
    table(np.arange(2.0, m + 3))
    assert len(calls) == before
    # every length up to m: each power once, each form a^i b^(k-i) once
    for k in range(m + 1):
        table(np.ones(k + 1))
    assert len(calls) <= 2 * m + (m + 1) * (m + 2) // 2
