import functools
import math
import re
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special as sp

import mvops
from mvops import construct, moments
from mvops.construct import gram_schmidt_monic
from mvops.indexing import basis_for
from mvops.moments import LinearPoly
from mvops.ttr import compute_ttr

from blockref import (check_recurrence_by_powers, disk_moment_quadrature,
                      laguerre_moment_quadrature, monic_coeffs_by_arrays, row_blocks,
                      shift_rows, simplex_moment_quadrature)


def test_left_multiply_identity_and_shift():
    u = moments.laguerre_functional_1d(0.5)
    same = moments.left_multiply({(0,): 1.0}, u)
    assert same.moment((4,)) == pytest.approx(u.moment((4,)), rel=1e-14)
    xi = 1.7
    shifted = moments.left_multiply(LinearPoly((1.0,), -xi), u)
    for m in range(8):
        want = u.moment((m + 1,)) - xi * u.moment((m,))
        assert shifted.moment((m,)) == pytest.approx(want, rel=1e-13)


def test_left_multiply_disk_matches_adjacent_weight():
    v = moments.MomentFunctional(2, functools.partial(moments.disk_moment_closed, 0.5))
    u = moments.left_multiply(LinearPoly((-1.0, 0.0), 1.0), v)
    # reference: quadrature moments of the (1-x)-multiplied weight
    for alpha in [(0, 0), (1, 0), (2, 2), (3, 1)]:
        direct = disk_moment_quadrature(0.5, alpha)
        shift = disk_moment_quadrature(0.5, (alpha[0] + 1, alpha[1]))
        assert u.moment(alpha) == pytest.approx(direct - shift, rel=1e-12, abs=1e-13)


def test_tensor_unit_mass_and_gamma_products():
    c2 = moments.chebyshev_functional_1d(2)
    t = moments.tensor(c2, c2)
    assert t.moment((0, 0)) == pytest.approx(1.0, abs=1e-15)
    k1, k2 = 0.3, 1.2
    ml = moments.multiple_laguerre_functional((k1, k2))
    for j, k in [(0, 0), (2, 1), (4, 3)]:
        want = sp.gamma(j + k1 + 1) * sp.gamma(k + k2 + 1)
        assert ml.moment((j, k)) == pytest.approx(want, rel=1e-13)


def test_left_multiply_commutes_with_tensor_composition():
    # multiplying the first factor then composing equals composing then
    # multiplying by the corresponding bivariate polynomial
    vx = moments.laguerre_functional_1d(0.5)
    wy = moments.jacobi_functional_1d(0.0, 0.0)
    lam1 = LinearPoly((1.0,), -2.0)
    route_a = moments.tensor(moments.left_multiply(lam1, vx), wy)
    route_b = moments.left_multiply(LinearPoly((1.0, 0.0), -2.0),
                                    moments.tensor(vx, wy))
    for j, k in [(0, 0), (2, 1), (3, 4)]:
        assert route_a.moment((j, k)) == pytest.approx(route_b.moment((j, k)),
                                                       rel=1e-13)


def test_tensor_symmetry_under_factor_swap():
    a = moments.laguerre_functional_1d(0.4)
    b = moments.chebyshev_functional_1d(3)
    ab = moments.tensor(a, b)
    ba = moments.tensor(b, a)
    for j, k in [(1, 2), (3, 0), (2, 5)]:
        assert ab.moment((j, k)) == pytest.approx(ba.moment((k, j)), rel=1e-14)


def test_krall_laguerre_moments_and_product_identity():
    alpha, a1 = 0.6, 2.0
    u = moments.laguerre_functional_1d(alpha)
    v = moments.krall_laguerre_functional(alpha, a1)
    assert v.moment((0,)) == pytest.approx(sp.gamma(alpha + 1) / (alpha + 1 - a1),
                                           rel=1e-14)
    for m in range(1, 11):
        assert v.moment((m,)) == pytest.approx(sp.gamma(m + alpha), rel=1e-13)
    # defining identity: x * v = u on moments up to degree 12
    for m in range(13):
        assert v.moment((m + 1,)) == pytest.approx(u.moment((m,)), rel=1e-12)


def test_krall_laguerre_parameter_validation():
    with pytest.raises(ValueError):
        moments.krall_laguerre_functional(0.0, 0.0)
    with pytest.raises(ValueError):
        moments.krall_laguerre_functional(1.0, 2.0)  # alpha + 1 - a1 = 0
    with pytest.raises(ValueError):
        moments.krall_laguerre_functional(-1.5, 1.0)


def test_krall_jacobi_product_identity_and_mass():
    for alpha, beta, a1 in [(0.0, 0.0, 1.0), (1.0, 0.5, -0.4), (0.25, 0.0, 2.0)]:
        u = moments.jacobi_functional_1d(alpha, beta)
        v = moments.krall_jacobi_functional(alpha, beta, a1)
        for m in range(13):
            lhs = v.moment((m,)) - v.moment((m + 1,))
            assert lhs == pytest.approx(u.moment((m,)), rel=1e-12, abs=1e-12)


def test_krall_jacobi_divided_difference_quadrature_oracle():
    alpha, beta, a1 = 0.5, 0.25, 1.5
    v = moments.krall_jacobi_functional(alpha, beta, a1)
    mass = moments.jacobi_mass(alpha, beta) * (alpha + beta + 2) / (
        2 * (alpha + 1) + a1 * (alpha + beta + 2)
    )
    # (t^m - 1)/(1 - t) integrated against the base weight by quadrature
    x, w = sp.roots_jacobi(40, alpha, beta)
    for m in range(6):
        divided = -(sum(x**k for k in range(m)) if m else 0.0)
        want = float(np.sum(w * divided)) + mass if m else mass
        assert v.moment((m,)) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_krall_jacobi_symmetric_base_first_moment():
    u = moments.jacobi_functional_1d(0.0, 0.0)
    assert u.moment((1,)) == pytest.approx(0.0, abs=1e-14)


def test_simplex_unnormalized_mass_is_area():
    s = moments.MomentFunctional(
        2, functools.partial(moments.simplex_moment_closed, (0.5, 0.5, 0.5)))
    assert s.moment((0, 0)) == pytest.approx(0.5, rel=1e-14)


def test_disk_moment_values():
    raw = moments.MomentFunctional(2, functools.partial(moments.disk_moment_closed, 0.0))
    assert raw.moment((1, 0)) == pytest.approx(0.0, abs=1e-15)
    assert raw.moment((2, 0)) == pytest.approx(math.pi / 4, rel=1e-13)
    unit = moments.disk_functional(0.0)
    assert unit.moment((0, 0)) == pytest.approx(1.0, abs=1e-15)
    assert unit.moment((2, 0)) == pytest.approx(0.25, rel=1e-13)


@pytest.mark.parametrize("mu", [0.0, 1.5, -0.3])
def test_disk_closed_form_vs_quadrature(mu):
    for j in range(0, 9):
        for k in range(0, 9 - j):
            closed = moments.disk_moment_closed(mu, (j, k))
            quad = disk_moment_quadrature(mu, (j, k))
            assert closed == pytest.approx(quad, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("kappa", [(0.5, 0.5, 0.5), (1.0, 0.25, 0.75),
                                   (0.5, 0.5, 0.5, 0.5)])
def test_simplex_closed_form_vs_quadrature(kappa):
    d = len(kappa) - 1
    from mvops.indexing import enumerate_indices

    for n in range(0, 9):
        for alpha in enumerate_indices(d, n):
            closed = moments.simplex_moment_closed(kappa, alpha)
            quad = simplex_moment_quadrature(kappa, alpha)
            assert closed == pytest.approx(quad, rel=1e-10)


@given(data=st.data(), d=st.integers(1, 4), n=st.integers(0, 24))
@settings(max_examples=60, deadline=None)
def test_simplex_degree_vectors_are_the_scalar_closed_form_over_the_mass(data, d, n):
    kappa = tuple(data.draw(st.floats(-0.5, 20.0, exclude_min=True)) for _ in range(d + 1))
    mass = moments.simplex_moment_closed(kappa, (0,) * d)
    want = np.array([moments.simplex_moment_closed(kappa, alpha) / mass
                     for alpha in basis_for(d).indices(n)])
    assert np.array_equal(_bits(moments.simplex_functional(kappa).moment_vector(n)), _bits(want))


@pytest.mark.parametrize("make, word", [
    (lambda: moments.simplex_functional((400.0, 400.0, 400.0)), "simplex mass"),
    (lambda: moments.simplex_functional((1e308, 0.5, 0.5)), "simplex mass"),
    (lambda: moments.jacobi_functional_1d(1e300, 0.5), "jacobi mass"),
    (lambda: moments.jacobi_recurrence(3, 1e200, 0.5), "c_n"),
    (lambda: moments.jacobi_recurrence(3, 0.5, 1e100), "c_n"),
])
def test_a_mass_or_recurrence_coefficient_out_of_float_range_is_a_parameter_error(make, word):
    with pytest.raises(moments.ParameterError, match=word):
        make()


def test_laguerre_closed_form_vs_quadrature():
    kappa = (0.0, 1.3)
    from mvops.indexing import enumerate_indices

    ml = moments.multiple_laguerre_functional(kappa)
    for n in range(0, 9):
        for alpha in enumerate_indices(2, n):
            quad = laguerre_moment_quadrature(kappa, alpha)
            assert ml.moment(alpha) == pytest.approx(quad, rel=1e-10)


def _cheb1_closed(m: int) -> float:
    # normalized first-kind weight: even moments binom(2p, p) / 4^p
    if m % 2:
        return 0.0
    p = m // 2
    return sp.binom(2 * p, p) / 4.0**p


def _chebyshev_closed(kind: int, m: int) -> float:
    if kind == 1:
        return _cheb1_closed(m)
    if kind == 2:
        p, rem = divmod(m, 2)
        return 0.0 if rem else sp.binom(2 * p, p) / (4.0**p * (p + 1))
    if kind == 3:
        return _cheb1_closed(m) - _cheb1_closed(m + 1)
    return _cheb1_closed(m) + _cheb1_closed(m + 1)


def test_chebyshev_closed_form_moments():
    # the moment recurrence from unit mass equals the closed forms bit for bit
    for kind in (1, 2, 3, 4):
        u = moments.chebyshev_functional_1d(kind)
        got = [u.moment((m,)) for m in range(37)]
        assert np.array_equal(_bits(got), _bits([_chebyshev_closed(kind, m) for m in range(37)]))


def test_koornwinder_symmetrized_moments():
    v = moments.koornwinder_symmetrized_functional(2)
    assert v.moment((0, 0)) == pytest.approx(1.0, rel=1e-14)
    # independent check by direct high-order tensor quadrature
    x, w = sp.roots_jacobi(24, 0.5, 0.5)
    w = w / np.sum(w)
    for j, k in [(1, 0), (2, 1), (3, 2)]:
        want = float(w @ (np.add.outer(x, x) ** j * np.outer(x, x) ** k) @ w)
        assert v.moment((j, k)) == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_chebyshev_recurrences_match_stated_values():
    r1 = moments.chebyshev_recurrence(6, 1)
    a1 = r1.orthonormal_offdiag()
    assert a1[0] == pytest.approx(1 / math.sqrt(2))
    assert np.allclose(a1[1:], 0.5)
    assert np.allclose(r1.b, 0.0)
    r3 = moments.chebyshev_recurrence(6, 3)
    assert r3.b[0] == pytest.approx(-0.5)
    assert np.allclose(r3.b[1:], 0.0)
    assert np.allclose(r3.orthonormal_offdiag(), 0.5)
    r4 = moments.chebyshev_recurrence(6, 4)
    assert r4.b[0] == pytest.approx(0.5)
    # the Jacobi recurrence at the kind's exponents gives the constants exactly
    for kind in (1, 2, 3, 4):
        for N in range(200):
            rec = moments.chebyshev_recurrence(N, kind)
            b, c = np.zeros(N + 1), np.full(N + 1, 0.25)
            b[0] = {3: -0.5, 4: 0.5}.get(kind, 0.0)
            c[0] = 0.0
            if kind == 1 and N >= 1:
                c[1] = 0.5
            assert np.array_equal(_bits(rec.b), _bits(b)) and np.array_equal(_bits(rec.c), _bits(c))
            assert rec.mass == 1.0


def _jacobi_mass_reference(a: float, b: float):
    """2^(a+b+1) B(a+1, b+1) at 720 digits, enough to hold 1e300 + 1 exactly."""
    with mpmath.workdps(720):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        return mpmath.power(2, a + b + 1) * mpmath.beta(a + 1, b + 1)


@pytest.mark.parametrize("a, b", [
    (0.5, 0.5), (-0.9, 5.0), (84.0, 84.0), (85.0, 85.0), (200.0, 0.5), (300.0, 0.0),
    (1e4, 1e4), (1e8, 1e8), (1e12, 1e12), (1e12, 1e12 - 7), (1e300, 1e300),
])
def test_jacobi_mass_matches_a_high_precision_reference(a, b):
    # the Stirling form neither cancels at large equal exponents (2^(a+b+1) B
    # is sqrt(pi / a) there) nor overflows on the way to a finite mass
    want = _jacobi_mass_reference(a, b)
    got = moments.jacobi_mass(a, b)
    assert abs(got - want) <= 1e-13 * want, (got, want)


@pytest.mark.parametrize("a, b", [(1e300, 0.5), (1e6, 2e6)])
def test_jacobi_mass_is_inf_where_the_mass_leaves_the_floats(a, b):
    assert _jacobi_mass_reference(a, b) > mpmath.mpf(np.finfo(float).max)
    assert moments.jacobi_mass(a, b) == math.inf


@pytest.mark.parametrize("x", [0.3, 7.5, 170.5, 171.0, 1e4, 1e300])
def test_gamma_helpers_against_mpmath(x):
    with mpmath.workdps(60):
        log_want = mpmath.loggamma(x)
        want = mpmath.exp(log_want)
    assert abs(moments.log_gamma(x) - log_want) <= 4e-16 * max(1.0, abs(log_want))
    if want < mpmath.mpf(np.finfo(float).max):
        assert abs(moments.gamma(x) - want) <= 4e-15 * want
    else:
        assert moments.gamma(x) == math.inf


def test_gamma_helpers_overflow_to_inf():
    assert moments.gamma(172.0) == moments.log_gamma(1e307) == math.inf


@pytest.mark.parametrize("x, y, c", [
    (0.5, 0.5, 1.0), (0.5, 0.5, 2.0), (1.0, 1e6, 1.0), (3.5, 1e12, 1.0), (13.0, 1e15, 1.0),
    (200.0, 0.5, 2.0), (85.0, 86.0, 2.0), (1e4, 1e4 + 3, 2.0), (700.0, 300.0, 2.0),
    (2.0, 1100.0, 2.0),
])
def test_scaled_beta_against_mpmath(x, y, c):
    with mpmath.workdps(60):
        want = mpmath.power(c, mpmath.mpf(x) + y - 1) * mpmath.beta(x, y)
    got = moments.scaled_beta(x, y, c)
    if want > mpmath.mpf(np.finfo(float).max):
        assert got == math.inf
    else:
        assert abs(got - want) <= 1e-13 * want, (got, want)


@pytest.mark.parametrize("family,params", [
    ("jacobi", {"a": 0.0, "b": 0.0}),
    ("jacobi", {"a": 1.5, "b": 0.5}),
    ("laguerre", {"alpha": 0.0}),
    ("laguerre", {"alpha": 2.0}),
])
def test_classical_recurrences_against_moment_gram_schmidt(family, params):
    # independent oracle: orthogonalize monomials directly on the moments
    if family == "jacobi":
        rec = moments.jacobi_recurrence(6, params["a"], params["b"])
        u = moments.jacobi_functional_1d(params["a"], params["b"])
    else:
        rec = moments.laguerre_recurrence(6, params["alpha"])
        u = moments.laguerre_functional_1d(params["alpha"])
    from mvops.construct import gram_schmidt_monic, pair_blocks
    from mvops.indexing import basis_for

    P, H = gram_schmidt_monic(u, 6)
    basis = basis_for(1)
    for n in range(6):
        shifted = shift_rows(row_blocks(P, n), 1, basis)
        b_val = pair_blocks(u, shifted, row_blocks(P, n))[0, 0] / H.h(n)[0, 0]
        assert b_val == pytest.approx(rec.b[n], rel=1e-10, abs=1e-10)
        if n >= 1:
            c_val = (pair_blocks(u, shifted, row_blocks(P, n - 1))[0, 0]
                     / H.h(n - 1)[0, 0])
            assert c_val == pytest.approx(rec.c[n], rel=1e-10, abs=1e-10)
    np.testing.assert_allclose(
        rec.norms()[: 7], [H.h(n)[0, 0] for n in range(7)], rtol=1e-10
    )


def _jacobi_exact(a: float, b: float, m: int) -> mpmath.mpf:
    """Moment m of (1-x)^a (1+x)^b for real a, b > -1, to 80 digits:
    x^m = ((1+x) - 1)^m against the Beta integrals
    int (1-x)^a (1+x)^c = 2^(a+c+1) B(a+1, c+1)."""
    with mpmath.workdps(80):
        return mpmath.fsum(math.comb(m, i) * (-1) ** (m - i) * _jacobi_mass_exact(a, b, i)
                           for i in range(m + 1))


@functools.lru_cache(maxsize=None)
def _jacobi_mass_exact(a: float, b: float, i: int) -> mpmath.mpf:
    """int (1-x)^a (1+x)^(b+i) = 2^(a+b+i+1) B(a+1, b+i+1), to 80 digits."""
    with mpmath.workdps(80):
        a, c = mpmath.mpf(a), mpmath.mpf(b) + i
        return mpmath.power(2, a + c + 1) * mpmath.beta(a + 1, c + 1)


def _jacobi_abs_exact(a: float, b: float, m: int) -> mpmath.mpf:
    """int |x|^m (1-x)^a (1+x)^b over [-1, 1] for real a, b > -1, to 80
    digits, as int_0^1 x^m [(1-x)^a (1+x)^b + (1+x)^a (1-x)^b], where
    int_0^1 x^m (1-x)^p (1+x)^q = B(m+1, p+1) 2F1(-q, m+1; m+p+2; -1)."""
    with mpmath.workdps(80):
        return mpmath.fsum(mpmath.beta(m + 1, mpmath.mpf(p) + 1)
                           * mpmath.hyp2f1(-mpmath.mpf(q), m + 1, m + mpmath.mpf(p) + 2, -1)
                           for p, q in ((a, b), (b, a)))


@pytest.mark.parametrize("a", range(4))
@pytest.mark.parametrize("b", range(4))
def test_jacobi_moments_within_ulps_of_exact_fractions(a, b):
    u = moments.jacobi_functional_1d(float(a), float(b))
    for m in range(41):
        err = abs(mpmath.mpf(u.moment((m,))) - _jacobi_exact(a, b, m))
        assert err <= 4 * np.finfo(float).eps * _jacobi_abs_exact(a, b, m), m


@given(a=st.floats(-1.0, 3.0, exclude_min=True), b=st.floats(-1.0, 3.0, exclude_min=True),
       symmetric=st.booleans())
@example(a=-0.9525108313097198, b=-0.99999, symmetric=False)
@example(a=-0.9999999999999303, b=-0.9999999999999988, symmetric=False)
@settings(max_examples=60, deadline=None)
def test_jacobi_moment_recurrence_and_gauss_rule(a, b, symmetric):
    # (a+b+k+2) m_(k+1) = (b-a) m_k + k m_(k-1) holds to rounding, odd moments
    # of a symmetric weight are exactly 0.0, and every moment is within 1e-12
    # of int |x|^m w of its exact value (about 2.6e-15 at worst), also as
    # both exponents near -1, where a 60-node Gauss-Jacobi rule misses by 5e-5
    # and forming a + b + 2 in floats cancels; (a+1) + (b+1) + k does not
    b = a if symmetric else b
    u = moments.jacobi_functional_1d(a, b)
    m = [u.moment((k,)) for k in range(41)]
    for k in range(40):
        terms = ((b - a) * m[k], k * m[k - 1] if k else 0.0)
        lhs = ((a + 1) + (b + 1) + k) * m[k + 1]
        assert abs(lhs - sum(terms)) <= 4e-16 * (
            abs(lhs) + sum(map(abs, terms))) + np.finfo(float).tiny
    if a == b:
        assert all(value == 0.0 for value in m[1::2])
    for k, value in enumerate(m):
        assert abs(value - _jacobi_exact(a, b, k)) <= 1e-12 * _jacobi_abs_exact(a, b, k), k


@pytest.mark.parametrize("make", [lambda: moments.jacobi_functional_1d(0.3, -0.7),
                                  lambda: moments.jacobi_functional_1d(-0.99, 2.5),
                                  lambda: moments.chebyshev_functional_1d(3)])
def test_cold_high_moment_is_finite(make):
    # the store fills bottom up, so a cold read does not recurse per degree
    value = make().moment((400,))
    assert math.isfinite(value) and value != 0.0


def test_no_moment_oracle_runs_a_gauss_rule(monkeypatch):
    rules = [name for name in dir(sp) if name.startswith("roots_")]

    def refuse(*args, **kwargs):
        raise AssertionError("a moment oracle ran a Gauss rule")

    for name in rules:
        monkeypatch.setattr(sp, name, refuse)
    assert "roots_jacobi" in rules
    for spec in ["disk:mu=1.5", "simplex:k=0.5,0.5,0.5", "cheb-product:kind=3",
                 "koornwinder-cheb:kind=4", "cube-jacobi:a=0.5,-0.5,b=0,1",
                 "laguerre:alpha=1", "laguerre:kappa=0,1", "jacobi:a=1.5,b=-0.25",
                 "krall-laguerre:alpha=1,a1=1,d=2", "krall-jacobi:alpha=1,beta=0,a1=1,d=2"]:
        u = moments.parse_functional(spec)
        for n in range(26):
            assert np.all(np.isfinite(u.moment_vector(n))), spec


@pytest.mark.parametrize("a", [-0.49999999999999994, -0.4999999999999999])
def test_jacobi_moments_finite_just_above_minus_one_half(a):
    # scipy's Gauss-Jacobi rule divides 0 by 0 at these exponents; the moment
    # recurrence has no such case, and the weight equals the a = b = -1/2 one to rounding
    u = moments.jacobi_functional_1d(a, a)
    ref = moments.jacobi_functional_1d(-0.5, -0.5)
    for m in range(12):
        assert u.moment((m,)) == pytest.approx(ref.moment((m,)), rel=1e-14, abs=1e-15)
    cube = moments.cube_jacobi_functional((0.0, a), (0.0, a))
    assert np.all(np.isfinite(cube.moment_vector(8)))


def test_moment_memoization_deterministic():
    # a scalar read fills every degree through its own: one oracle call per
    # index, in graded order, and no call again for a degree kept
    calls = []

    def oracle(alpha):
        calls.append(alpha)
        return float(sum(alpha))

    u = moments.MomentFunctional(2, oracle)
    assert u.moment((1, 1)) == 2.0
    assert u.moment((2, 0)) == 2.0
    assert list(u.moment_vector(2)) == [2.0, 2.0, 2.0]
    assert list(u.moments(1)) == [0.0, 1.0, 1.0]
    assert calls == [a for n in range(3) for a in basis_for(2).indices(n)]


def test_default_degree_vector_raises_at_its_first_non_finite_moment():
    # a scalar read raises with its degree, even at a finite entry
    u = moments.MomentFunctional(2, lambda a: math.inf if a[1] else 1.0, label="half")
    assert u.moment((0, 0)) == 1.0
    for read in (lambda: u.moment_vector(1), lambda: u.moment((1, 0))):
        with pytest.raises(ValueError, match=r"non-finite moment at \(0, 1\) for 'half'"):
            read()


def test_parse_functional_strings():
    disk = moments.parse_functional("disk:mu=1.5")
    assert disk.d == 2 and disk.moment((0, 0)) == pytest.approx(1.0)
    simplex = moments.parse_functional("simplex:k=0.5,0.5,0.5")
    assert simplex.d == 2
    # commas may separate key=value pairs as well as vector entries
    kl = moments.parse_functional("krall-laguerre:alpha=0,a1=2")
    assert kl.d == 1
    assert kl.moment((1,)) == pytest.approx(sp.gamma(1.0), rel=1e-14)
    kl2 = moments.parse_functional("krall-laguerre:alpha=0;a1=2")
    assert kl2.moment((3,)) == pytest.approx(kl.moment((3,)))
    cube = moments.parse_functional("cube-jacobi:a=0.5,0.25,b=0,1")
    assert cube.d == 2
    assert cube.moment((0, 0)) == pytest.approx(
        moments.jacobi_mass(0.5, 0.0) * moments.jacobi_mass(0.25, 1.0), rel=1e-12
    )
    with pytest.raises(ValueError):
        moments.parse_functional("warp:x=1")
    with pytest.raises(ValueError):
        moments.parse_functional("disk")


@pytest.mark.parametrize("spec", [
    "cheb-product:kind=2.7",
    "cheb-product:kind=2,d=2.5",
    "cheb-product:kind=nan",
    "koornwinder-cheb:kind=1.9",
    "krall-laguerre:alpha=1,a1=1,d=3",
    "krall-laguerre:alpha=1,a1=1,d=1.5",
    "krall-jacobi:alpha=1,beta=0,a1=1,d=7",
    "krall-jacobi:alpha=1,beta=0,a1=1,d=0",
])
def test_parse_functional_rejects_misread_integer_arguments(spec):
    with pytest.raises(moments.ParameterError):
        moments.parse_functional(spec)


@pytest.mark.parametrize("spec, key", [("disk:mu=0.5,mu=2", "mu"),
                                       ("cube-jacobi:a=0,0;b=0,0;a=1,1", "a"),
                                       ("krall-laguerre:alpha=1,a1=1;alpha=1", "alpha")])
def test_parse_functional_refuses_a_repeated_argument(spec, key):
    # every argument given is read, so a second value may not replace the first
    with pytest.raises(moments.ParameterError, match=f"^argument {key!r} is given more than once"):
        moments.parse_functional(spec)


@pytest.mark.parametrize("spec, kind", [("koornwinder-cheb:kind=5", 5),
                                        ("cheb-product:kind=0", 0)])
def test_parse_functional_rejects_chebyshev_kinds_outside_1_to_4(spec, kind):
    with pytest.raises(moments.ParameterError, match=f"kind must be 1..4, got {kind}$"):
        moments.parse_functional(spec)


@pytest.mark.parametrize("spec, unread", [
    ("jacobi:a=1,b=1,c=2", "c"),
    ("krall-laguerre:alpha=1,a1=1,kapa2=1", "kapa2"),
    ("krall-laguerre:alpha=1,a1=1,kappa2=1", "kappa2"),   # d=1 has no second weight
    ("krall-jacobi:alpha=1,beta=0,a1=1,ay=0,by=1", "ay, by"),
    ("simplex:k=0.5,0.5,0.5,kappa=0.5,0.5,0.5", "kappa"),
    ("laguerre:alpha=1,kappa=0,1", "alpha"),
    ("disk:mu=1,kind=2", "kind"),
])
def test_parse_functional_rejects_arguments_the_family_does_not_read(spec, unread):
    with pytest.raises(moments.ParameterError, match=f"does not read {unread}$"):
        moments.parse_functional(spec)


def test_parse_functional_reads_integer_arguments_written_as_floats():
    assert moments.parse_functional("cheb-product:kind=2.0,d=3").d == 3
    assert moments.parse_functional("koornwinder-cheb:kind=1").d == 2
    assert moments.parse_functional("krall-jacobi:alpha=1,beta=0,a1=1,d=2.0").d == 2
    assert moments.parse_functional("krall-laguerre:alpha=1,a1=1,d=1").d == 1


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("make", [
    lambda: moments.cube_jacobi_functional((0.5, -0.5, 0.0), (0.0, 0.5, 1.0)),
    lambda: moments.multiple_laguerre_functional((0.0, 1.0, 0.5)),
    lambda: moments.product_chebyshev_functional(3, d=3),
    lambda: moments.parse_functional("krall-laguerre:alpha=1;a1=1;d=2"),
    lambda: moments.parse_functional("krall-jacobi:alpha=1;beta=0;a1=1;d=2"),
])
def test_tensor_moment_vectors_bit_identical_to_scalar_oracle(make):
    # the reference oracle multiplies the factors' moments in factor order
    u = make()
    basis = basis_for(u.d)
    for n in range(12):
        want = []
        for alpha in basis.indices(n):
            product = 1.0
            for f, a in zip(u.factors, alpha):
                product *= f.moment((a,))
            want.append(product)
        assert np.array_equal(_bits(u.moment_vector(n)), _bits(want))


def test_tensor_vector_overflow_raises_naming_the_functional():
    u = moments.multiple_laguerre_functional((0.0, 0.0))
    u.moment_vector(170)
    with pytest.raises(ValueError, match=r"non-finite moment at \(171,\).*laguerre"):
        u.moment_vector(171)
    # finite factors whose product overflows name the tensor itself, at the
    # lowest degree that holds an overflow, whatever degree is asked for
    big = moments.MomentFunctional(1, lambda a: 1e200, label="big")
    t = moments.tensor(big, big, label="big-squared")
    for n in (1, 0):
        with pytest.raises(ValueError, match=r"non-finite moment at \(0, 0\).*big-squared"):
            t.moment_vector(n)
    # an overflow above degree 0 leaves the degrees below it readable
    tall = moments.MomentFunctional(1, lambda a: 1e200 if a[0] else 1.0, label="tall")
    t = moments.tensor(tall, tall, label="tall-squared")
    with pytest.raises(ValueError, match=r"non-finite moment at \(1, 1\).*tall-squared"):
        t.moment_vector(3)
    assert list(t.moments(1)) == [1.0, 1e200, 1e200]


def _bits_or_error(values):
    """Bit patterns of a moment vector, or the message of the error it raised."""
    try:
        return _bits(values()).tolist()
    except ValueError as err:
        return str(err)


@given(d=st.integers(1, 3), top=st.sampled_from([0, 300, 307]),
       inf_rate=st.sampled_from([0.0, 0.02, 0.2]),
       seed=st.integers(0, 2**16), data=st.data())
@settings(max_examples=120, deadline=None)
def test_left_multiplied_vectors_bit_identical_to_scalar_oracle(d, top, inf_rate, seed, data):
    # the reference oracle sums, per entry and from zero, c_beta times the
    # base moment at alpha + beta in coefficient order.  Base moments are
    # some zero, of size up to 1e307, so that sums of products overflow, and
    # some infinite.  Asking for degree n of p*base is asking for 0..n: it
    # raises where a base prefix it reads does (through degree n + |beta|,
    # first in coefficient order), even at a moment outside the shifted set,
    # and otherwise at its first non-finite sum in graded order
    def oracle(alpha):
        rng = np.random.default_rng([seed, *alpha])
        r = rng.random()
        if r < inf_rate:
            return math.inf
        if r < inf_rate + 0.2:
            return 0.0
        return float(rng.uniform(-1.0, 1.0) * 10.0**top)

    coeff = st.builds(lambda m, e: m * 10.0**e, st.floats(-1.0, 1.0), st.integers(0, 12))
    coeffs = data.draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * d),
                                       coeff | st.sampled_from([0.0, -0.0, 1.0]), max_size=5))
    base = moments.MomentFunctional(d, oracle, label="base")
    u = moments.left_multiply(coeffs, base, label="p*base")
    basis = basis_for(d)

    def graded(top):
        return [a for m in range(top + 1) for a in basis.indices(m)]

    def reference(n):
        for beta in coeffs:
            bad = [a for a in graded(n + sum(beta)) if not math.isfinite(oracle(a))]
            if bad:
                return f"non-finite moment at {bad[0]} for 'base'"
        sums = []
        for alpha in graded(n):
            total = 0.0
            for beta, c in coeffs.items():
                total += c * oracle(tuple(x + y for x, y in zip(alpha, beta)))
            if not math.isfinite(total):
                return f"non-finite moment at {alpha} for 'p*base'"
            sums.append(total)
        return _bits(sums[-basis.size(n):]).tolist()

    for n in range(4):
        assert _bits_or_error(lambda: u.moment_vector(n)) == reference(n)


def test_graded_matrix_asks_no_moment_above_the_degree_it_needs():
    degrees = []

    def oracle(alpha):
        degrees.append(sum(alpha))
        return 1.0 / (1.0 + alpha[0]) / (1.0 + alpha[1])   # product of 1-d Hilbert moments

    u = moments.MomentFunctional(2, oracle)
    P, H = gram_schmidt_monic(u, 3)
    assert max(degrees) == 6
    degrees.clear()
    compute_ttr(P, u, H)
    assert max(degrees) == 7
    # blocks match the per-entry gather
    basis = basis_for(2)
    for j in range(4):
        for k in range(4):
            if j + k <= 7:
                want = [[u.moment(tuple(x + y for x, y in zip(a, b)))
                         for b in basis.indices(k)] for a in basis.indices(j)]
                assert np.array_equal(u.moment_matrix(j, k), want)


@given(d=st.integers(1, 3), seed=st.integers(0, 2**16), data=st.data())
@settings(max_examples=80, deadline=None)
def test_graded_matrix_after_any_block_requests(d, seed, data):
    # whatever was asked before, and in whatever order, each block equals
    # the per-entry moments bit for bit, and asking for it reads no moment
    # above its degree j1 + k1
    degrees = []

    def oracle(alpha):
        degrees.append(sum(alpha))
        return np.random.default_rng([seed, *alpha]).uniform(-1.0, 1.0)

    span = st.tuples(st.integers(0, 4), st.integers(0, 4)).map(sorted)
    calls = data.draw(st.lists(st.tuples(span, span), min_size=1, max_size=6))
    order = data.draw(st.permutations(range(len(calls))))
    basis = basis_for(d)
    for sequence in (calls, [calls[i] for i in order]):
        u = moments.MomentFunctional(d, oracle)
        for (j0, j1), (k0, k1) in sequence:
            degrees.clear()
            block = u.graded_block(j0, j1, k0, k1)
            assert max(degrees, default=0) <= j1 + k1
            rows = [a for j in range(j0, j1 + 1) for a in basis.indices(j)]
            cols = [b for k in range(k0, k1 + 1) for b in basis.indices(k)]
            want = np.array([[u.moment(tuple(x + y for x, y in zip(a, b))) for b in cols]
                             for a in rows])
            assert block.tobytes() == want.tobytes()


_EXPONENT = st.floats(-0.9, 3.0)
_FACTOR = st.one_of(st.tuples(st.just("jacobi"), _EXPONENT, _EXPONENT),
                    st.tuples(st.just("laguerre"), _EXPONENT),
                    st.tuples(st.just("chebyshev"), st.integers(1, 4)))


def _factor(spec):
    name, *args = spec
    return getattr(moments, f"{name}_functional_1d")(*args)


def _random_oracle(d, seed):
    """A fresh functional whose oracle draws moments from (seed, alpha) and
    records each multi-index it is asked for in the functional's `calls`."""
    calls = []

    def oracle(alpha):
        calls.append(alpha)
        return np.random.default_rng([seed, *alpha]).uniform(-1.0, 1.0)

    u = moments.MomentFunctional(d, oracle, label="random")
    u.calls = calls
    return u


def _tensor_entry(u, alpha):
    product = 1.0
    for f, a in zip(u.factors, alpha):
        product *= f.moment((a,))
    return product


def _left_entry(u, alpha):
    total = 0.0
    for beta, c in u.coeffs.items():
        total += c * u.base.moment(tuple(x + y for x, y in zip(alpha, beta)))
    return total


@st.composite
def _store_cases(draw):
    """(make, entry): a maker of fresh functionals of one kind and, for
    tensor and left-multiplied ones, the per-entry reference moment."""
    kind = draw(st.sampled_from(["tensor", "left", "simplex", "oracle"]))
    if kind == "tensor":
        specs = draw(st.lists(_FACTOR, min_size=1, max_size=4))
        return lambda: moments.tensor(*map(_factor, specs)), _tensor_entry
    if kind == "simplex":
        kappa = draw(st.lists(st.floats(-0.4, 2.0), min_size=3, max_size=4))
        return lambda: moments.simplex_functional(kappa), None
    if kind == "oracle":
        return draw(st.sampled_from([
            lambda: _random_oracle(2, 7), lambda: _random_oracle(3, 11),
            lambda: moments.disk_functional(0.5), lambda: moments.jacobi_functional_1d(1.5, -0.5),
            lambda: moments.laguerre_functional_1d(0.5),
            lambda: moments.krall_laguerre_functional(1.0, 1.0),
            lambda: moments.krall_jacobi_functional(1.0, 0.0, 1.0),
            lambda: moments.koornwinder_symmetrized_functional(2)])), None
    d = draw(st.integers(1, 3))
    specs = draw(st.lists(_FACTOR, min_size=d, max_size=d))
    seed = draw(st.integers(0, 2**16))
    base = draw(st.sampled_from([lambda: moments.tensor(*map(_factor, specs)),
                                 lambda: _random_oracle(d, seed)]))
    beta = st.tuples(*[st.integers(0, 2)] * d).filter(lambda b: sum(b) <= 2)
    coeffs = draw(st.dictionaries(beta, st.floats(-2.0, 2.0), max_size=4))
    return lambda: moments.left_multiply(coeffs, base(), label="p*base"), _left_entry


@given(case=_store_cases(), top=st.integers(0, 9), data=st.data())
@settings(max_examples=120, deadline=None)
def test_the_store_reads_the_same_bits_in_any_order(case, top, data):
    # a fresh functional asked for degrees 0..top one at a time is the
    # reference; another, read in random order by vector, prefix and
    # graded block, gives the same bits, and an oracle is asked once per
    # multi-index, in graded order
    make, entry = case
    ascending = make()
    want = np.concatenate([ascending.moment_vector(n) for n in range(top + 1)])
    basis = ascending.basis
    graded = [a for n in range(top + 1) for a in basis.indices(n)]
    if entry is not None:
        assert _bits(want).tolist() == _bits([entry(ascending, a) for a in graded]).tolist()

    def at(alpha):
        return basis.offset(sum(alpha)) + basis.position(alpha)

    u = make()
    degree = st.integers(0, top)
    for _ in range(data.draw(st.integers(1, 6))):
        read = data.draw(st.sampled_from(["vector", "prefix", "block"]))
        if read == "vector":
            n = data.draw(degree)
            got, expect = u.moment_vector(n), want[basis.degree_slice(n, n)]
        elif read == "prefix":
            n = data.draw(degree)
            got, expect = u.moments(n), want[:basis.offset(n + 1)]
        else:
            j1 = data.draw(degree)
            k1 = data.draw(st.integers(0, top - j1))
            j0, k0 = data.draw(st.integers(0, j1)), data.draw(st.integers(0, k1))
            got = u.graded_block(j0, j1, k0, k1)
            rows = [a for j in range(j0, j1 + 1) for a in basis.indices(j)]
            cols = [b for k in range(k0, k1 + 1) for b in basis.indices(k)]
            expect = want[[[at(tuple(x + y for x, y in zip(a, b))) for b in cols]
                           for a in rows]]
        assert got.tobytes() == expect.tobytes()
        assert not got.flags.writeable or read == "block"
    if hasattr(u, "calls"):
        assert u.calls == graded[:len(u.calls)]


def test_nonfinite_moment_stops_construction_at_the_degree_that_needs_it():
    def oracle(alpha):
        return math.inf if sum(alpha) >= 7 else 1.0 / (1.0 + alpha[0]) / (1.0 + alpha[1])

    u = moments.MomentFunctional(2, oracle, label="capped")
    gram_schmidt_monic(u, 3)     # needs moments through degree 6 only
    with pytest.raises(ValueError, match="capped"):
        gram_schmidt_monic(moments.MomentFunctional(2, oracle, label="capped"), 4)


def test_recurrence_is_kept_read_only_and_equals_the_chebyshev_algorithm():
    u = moments.jacobi_functional_1d(0.5, -0.5)
    rec = u.recurrence(6)
    assert u.recurrence(6) is rec
    assert not rec.b.flags.writeable and not rec.c.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        rec.c[1] = 0.0
    # b and c are the closed form's, the mass is the functional's moment 0
    closed = moments.jacobi_recurrence(6, 0.5, -0.5)
    assert rec.b.tobytes() == closed.b.tobytes() and rec.c.tobytes() == closed.c.tobytes()
    assert rec.mass == u.moment((0,)) and rec.label == f"recurrence({u.label})"
    assert np.isfinite(rec.b[6])
    # and agree with the Chebyshev algorithm on the moments 0..2N+1
    mom = np.array([u.moment((m,)) for m in range(14)])
    want = moments.recurrence_from_moments(mom, label=u.label)
    np.testing.assert_allclose(rec.b, want.b, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(rec.c[1:], want.c[1:], rtol=1e-12)
    # one kept recurrence per N
    assert u.recurrence(5) is not rec


def test_chebyshev_weights_keep_unit_mass():
    for kind in (1, 2, 3, 4):
        rec = moments.chebyshev_functional_1d(kind).recurrence(8)
        want = moments.chebyshev_recurrence(8, kind)
        assert rec.mass == 1.0
        np.testing.assert_allclose(rec.b, want.b, atol=1e-15)
        np.testing.assert_allclose(rec.c[1:], want.c[1:], rtol=1e-14)


_CLOSED_FORMS = st.one_of(
    st.tuples(st.just("jacobi"), st.floats(-0.5, 1.5), st.floats(-0.5, 1.5)),
    st.tuples(st.just("laguerre"), st.floats(0.0, 2.0)))


def _closed_functional(spec):
    return (moments.jacobi_functional_1d(*spec[1:]) if spec[0] == "jacobi"
            else moments.laguerre_functional_1d(spec[1]))


@given(spec=_CLOSED_FORMS, N=st.integers(0, 6))
@settings(max_examples=40, deadline=None)
def test_closed_form_recurrences_match_the_chebyshev_algorithm(spec, N):
    # the Chebyshev algorithm loses about a decade per degree on Laguerre
    # weights: 4e-13 at N = 3, 4e-12 at N = 4, 1.2e-10 at N = 6
    u = _closed_functional(spec)
    rec = u.recurrence(N)
    mom = np.array([u.moment((m,)) for m in range(2 * N + 2)])
    want = moments.recurrence_from_moments(mom)
    tol = 1e-12 * 10.0 ** max(0, N - 3)
    assert np.all(np.abs(rec.b - want.b) <= tol * np.maximum(1.0, np.abs(want.b)))
    assert np.all(np.abs(rec.c[1:] - want.c[1:]) <= tol * np.abs(want.c[1:]))


@given(spec=_CLOSED_FORMS, data=st.data())
@settings(max_examples=30, deadline=None)
def test_a_tampered_closed_form_is_refused_by_the_moments(spec, data):
    # moment 2n reads c_n with weight about h_n / m_2n, which falls by about
    # a factor 4 per degree on Jacobi weights: a 1% change at n = 6 still
    # moves it by 2e-6 relative
    N = data.draw(st.integers(1, 6))
    n = data.draw(st.integers(1, N))
    name = f"{spec[0]}_recurrence"
    real = getattr(moments, name)

    def tampered(*args):
        rec = real(*args)
        c = rec.c.copy()
        c[n] *= 1.01
        return moments.Recurrence1D(rec.b, c, rec.mass, rec.label)

    u = _closed_functional(spec)
    with mock.patch.object(moments, name, tampered):
        with pytest.raises(ValueError, match="closed-form recurrence .* gives moment"):
            u.recurrence(N)
    assert u.recurrence(N).c.tobytes() == real(N, *spec[1:]).c.tobytes()


def test_a_disagreeing_moment_is_named_by_its_float():
    # b_1 first reaches moment 3; the message prints Python floats
    u = moments.jacobi_functional_1d(0.5, 1.5)
    true = [u.moment((m,)) for m in range(10)]
    rec = moments.jacobi_recurrence(4, 0.5, 1.5)
    b = rec.b.copy()
    b[1] += 0.01
    with pytest.raises(ValueError) as err:
        moments.check_recurrence(moments.Recurrence1D(b, rec.c, rec.mass), true, "jacobi")
    got = re.search(r"gives moment 3 as (\S+), not (\S+)$", str(err.value))
    assert got and got[2] == repr(true[3]) and repr(float(got[1])) == got[1]
    assert float(got[1]) != true[3] and "np.float64" not in str(err.value)


def test_a_closed_form_is_certified_by_its_positive_norms():
    # positive weights whose norms fall far below their moments: a positive
    # mass and positive c_n certify them, where the Chebyshev algorithm's
    # rank rule on the raw moments refuses (1 - x)^-0.9 (1 + x)^5 at degree 11
    u = moments.jacobi_functional_1d(-0.9, 5.0)
    mom = np.array([u.moment((m,)) for m in range(26)])
    with pytest.raises(moments.QuasiDefiniteFailure) as cheb:
        moments.recurrence_from_moments(mom)
    assert cheb.value.degree == 11
    assert u.recurrence(20).N == 20
    rec = moments.jacobi_functional_1d(300.0, 0.0).recurrence(12)
    assert rec.N == 12 and (rec.norms() > 0.0).all()



def test_a_subnormal_exponent_keeps_its_closed_form():
    # b_0 = 5e-324 / 2 rounds to 0.0, one ulp of the subnormals from m_1
    rec = moments.jacobi_functional_1d(0.0, 5e-324).recurrence(3)
    assert rec.b[0] == 0.0 and rec.N == 3


@pytest.mark.parametrize("make", [lambda: moments.cube_jacobi_functional((0, 0), (0, 0)),
                                  lambda: moments.disk_functional(0.5)])
def test_recurrence_needs_a_univariate_functional(make):
    with pytest.raises(ValueError, match="univariate functional, got d=2"):
        make().recurrence(3)


def test_a_failed_recurrence_is_not_kept():
    # three nodes: quasi-definite through degree 2, degenerate at degree 3
    nodes, weights = np.array([-0.7, 0.1, 0.9]), np.array([0.5, 0.25, 0.25])
    u = moments.MomentFunctional(1, lambda a: float(weights @ nodes**a[0]), label="three")
    for _ in range(2):
        with pytest.raises(moments.QuasiDefiniteFailure, match="three") as err:
            u.recurrence(4)
        assert err.value.degree == 3
    assert u.recurrence(2).N == 2


def test_quasi_definite_failure_and_the_chebyshev_algorithm_keep_their_old_homes():
    assert construct.QuasiDefiniteFailure is moments.QuasiDefiniteFailure
    assert mvops.QuasiDefiniteFailure is moments.QuasiDefiniteFailure


@given(spec=st.one_of(
    st.tuples(st.just("jacobi"), st.floats(-1.0, 50.0, exclude_min=True),
              st.floats(-1.0, 50.0, exclude_min=True)),
    st.tuples(st.just("laguerre"), st.floats(-0.95, 60.0))), N=st.integers(0, 14))
@example(spec=("jacobi", -0.9999999999999303, -0.9999999999999988), N=6)
@example(spec=("jacobi", -0.9999999999999, -0.9999999999999), N=4)
@settings(max_examples=60, deadline=None)
def test_a_kept_recurrence_is_the_closed_form_bit_for_bit(spec, N):
    u = _closed_functional(spec)
    rec = u.recurrence(N)
    closed = getattr(moments, f"{spec[0]}_recurrence")(N, *spec[1:])
    assert rec.b.tobytes() == closed.b.tobytes() and rec.c.tobytes() == closed.c.tobytes()
    assert np.float64(rec.mass).tobytes() == np.float64(closed.mass).tobytes()
    # the monic table and the norms are the per-degree array loops' bit for bit
    for row, want in zip(rec.monic_coeffs(), monic_coeffs_by_arrays(rec)):
        assert row.tobytes() == want.tobytes()
    h = [rec.mass]
    for n in range(1, N + 1):
        h.append(h[-1] * rec.c[n])
    assert rec.norms().tobytes() == np.array(h).tobytes()


def _check_outcome(check, rec, mom):
    """None when the check passes, else what it names: ("moment", k) or
    ("degree", n)."""
    try:
        check(rec, mom)
    except moments.QuasiDefiniteFailure as err:
        return "degree", err.degree
    except ValueError as err:
        return "moment", int(str(err).split("gives moment ")[1].split()[0])
    return None


@pytest.mark.parametrize("a, b, N", [(300.0, 0.0, 12), (-0.9, 5.0, 20), (0.0, 5e-324, 3)])
def test_the_moment_check_keeps_its_verdicts(a, b, N):
    # the doubling route and one matrix-vector product per power agree: both
    # pass the closed forms, and both name the same first moment when one
    # b_k or c_k moves by 1e-6
    u = moments.jacobi_functional_1d(a, b)
    mom = np.array([u.moment((m,)) for m in range(2 * N + 2)])
    closed = moments.jacobi_recurrence(N, a, b)
    rec = moments.Recurrence1D(closed.b, closed.c, mass=float(mom[0]))
    assert _check_outcome(moments.check_recurrence, rec, mom) is None
    assert _check_outcome(check_recurrence_by_powers, rec, mom) is None
    named = 0
    for k in range(N + 1):
        for which in ("b", "c")[:2 if k else 1]:
            b_k, c_k = rec.b.copy(), rec.c.copy()
            if which == "b":
                b_k[k] += 1e-6
            else:
                c_k[k] *= 1 + 1e-6
            moved = moments.Recurrence1D(b_k, c_k, mass=rec.mass)
            want = _check_outcome(check_recurrence_by_powers, moved, mom)
            assert _check_outcome(moments.check_recurrence, moved, mom) == want, (which, k)
            named += want is not None
    assert named > 0


@given(spec=_CLOSED_FORMS, N=st.integers(1, 10), data=st.data())
@settings(max_examples=60, deadline=None)
def test_the_moment_check_names_what_the_per_power_route_names(spec, N, data):
    u = _closed_functional(spec)
    mom = np.array([u.moment((m,)) for m in range(2 * N + 2)])
    closed = getattr(moments, f"{spec[0]}_recurrence")(N, *spec[1:])
    b, c = closed.b.copy(), closed.c.copy()
    k = data.draw(st.integers(0, N))
    step = data.draw(st.sampled_from([1e-10, 1e-8, 1e-6, 1e-3]))
    if k and data.draw(st.booleans()):
        c[k] *= 1 + step
    else:
        b[k] += step * max(1.0, abs(b[k]))
    rec = moments.Recurrence1D(b, c, mass=float(mom[0]))
    assert (_check_outcome(moments.check_recurrence, rec, mom)
            == _check_outcome(check_recurrence_by_powers, rec, mom))
