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
def hom_eval_cases(draw):
    d = draw(st.integers(1, 3))
    coeffs = draw(st.lists(coefficient, min_size=1, max_size=5))
    return (coeffs, draw(poly_arrays(d)), draw(poly_arrays(d)),
            np.array(draw(st.lists(coordinate, min_size=d, max_size=d))))


@given(mul_cases())
@settings(max_examples=80, deadline=None)
def test_mul_evaluates_to_the_product(case):
    a, b, x = case
    got = evaluate(mpoly.mul(a, b), x)
    scale = evaluate(np.abs(a), np.abs(x)) * evaluate(np.abs(b), np.abs(x))
    assert abs(got - evaluate(a, x) * evaluate(b, x)) <= 1e-12 * (1.0 + scale)


@given(hom_eval_cases())
@settings(max_examples=80, deadline=None)
def test_hom_eval_evaluates_to_the_homogeneous_sum(case):
    coeffs, a, b, x = case
    m = len(coeffs) - 1
    ax, bx = evaluate(a, x), evaluate(b, x)
    want = sum(c * ax**i * bx ** (m - i) for i, c in enumerate(coeffs))
    aa, ba = evaluate(np.abs(a), np.abs(x)), evaluate(np.abs(b), np.abs(x))
    scale = sum(abs(c) * aa**i * ba ** (m - i) for i, c in enumerate(coeffs))
    assert abs(evaluate(mpoly.hom_eval(coeffs, a, b), x) - want) <= 1e-12 * (1.0 + scale)


def test_hom_eval_computes_each_power_once(monkeypatch):
    calls = []
    real_mul = mpoly.mul
    monkeypatch.setattr(mpoly, "mul", lambda a, b: calls.append(1) or real_mul(a, b))
    m = 6
    mpoly.hom_eval(np.arange(1.0, m + 2), mpoly.linear(2, [1.0, 0.0]),
                   mpoly.linear(2, [0.5, 1.0], 1.0))
    assert len(calls) <= 3 * m + 1
