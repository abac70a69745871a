import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mvops import mpoly

coefficient = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
coordinate = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)


def evaluate(arr, x):
    """Value of a coefficient array at the point x, term by term."""
    return sum(c * np.prod(np.power(x, idx)) for idx, c in np.ndenumerate(arr))


@st.composite
def poly_arrays(draw, d):
    shape = tuple(draw(st.integers(1, 4)) for _ in range(d))
    values = draw(st.lists(coefficient, min_size=int(np.prod(shape)),
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
