import math

import numpy as np
import pytest
from scipy import special as sp

from mvops import moments
from mvops.construct import gram_schmidt_monic
from mvops.indexing import basis_for
from mvops.moments import LinearPoly
from mvops.ttr import compute_ttr


def test_apply_constant_on_normalized_product_weight():
    u = moments.product_chebyshev_functional(2)
    assert moments.apply(u, {(0, 0): 1.0}) == pytest.approx(1.0, abs=1e-14)


def test_apply_laguerre_monomial():
    u = moments.laguerre_functional_1d(0.7)
    assert moments.apply(u, {(1,): 1.0}) == pytest.approx(sp.gamma(2.7), rel=1e-13)


def test_apply_matrix_of_polynomials():
    u = moments.laguerre_functional_1d(0.0)
    p = {(1,): 1.0}
    q = {(0,): 2.0}
    out = moments.apply(u, [[p, q], [q, p]])
    np.testing.assert_allclose(out, [[1.0, 2.0], [2.0, 1.0]], rtol=1e-13)


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
    v = moments.disk_functional(0.5, normalized=False)
    u = moments.left_multiply(LinearPoly((-1.0, 0.0), 1.0), v)
    # reference: quadrature moments of the (1-x)-multiplied weight
    for alpha in [(0, 0), (1, 0), (2, 2), (3, 1)]:
        direct = moments.disk_moment_quadrature(0.5, alpha)
        shift = moments.disk_moment_quadrature(0.5, (alpha[0] + 1, alpha[1]))
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
    s = moments.simplex_functional((0.5, 0.5, 0.5), normalized=False)
    assert s.moment((0, 0)) == pytest.approx(0.5, rel=1e-14)


def test_disk_moment_values():
    raw = moments.disk_functional(0.0, normalized=False)
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
            quad = moments.disk_moment_quadrature(mu, (j, k))
            assert closed == pytest.approx(quad, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("kappa", [(0.5, 0.5, 0.5), (1.0, 0.25, 0.75),
                                   (0.5, 0.5, 0.5, 0.5)])
def test_simplex_closed_form_vs_quadrature(kappa):
    d = len(kappa) - 1
    from mvops.indexing import enumerate_indices

    for n in range(0, 9):
        for alpha in enumerate_indices(d, n):
            closed = moments.simplex_moment_closed(kappa, alpha)
            quad = moments.simplex_moment_quadrature(kappa, alpha)
            assert closed == pytest.approx(quad, rel=1e-10)


def test_laguerre_closed_form_vs_quadrature():
    kappa = (0.0, 1.3)
    from mvops.indexing import enumerate_indices

    ml = moments.multiple_laguerre_functional(kappa)
    for n in range(0, 9):
        for alpha in enumerate_indices(2, n):
            quad = moments.laguerre_moment_quadrature(kappa, alpha)
            assert ml.moment(alpha) == pytest.approx(quad, rel=1e-10)


def test_chebyshev_closed_form_moments():
    # first kind: even moments are central binomials over 4^p
    c1 = moments.chebyshev_functional_1d(1)
    assert c1.moment((2,)) == pytest.approx(0.5)
    assert c1.moment((4,)) == pytest.approx(0.375)
    c3 = moments.chebyshev_functional_1d(3)
    assert c3.moment((1,)) == pytest.approx(-0.5)
    c4 = moments.chebyshev_functional_1d(4)
    assert c4.moment((1,)) == pytest.approx(0.5)


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
    r1 = moments.recurrence1d("chebyshev", 6, kind=1)
    a1 = r1.orthonormal_offdiag()
    assert a1[0] == pytest.approx(1 / math.sqrt(2))
    assert np.allclose(a1[1:], 0.5)
    assert np.allclose(r1.b, 0.0)
    r3 = moments.recurrence1d("chebyshev3", 6)
    assert r3.b[0] == pytest.approx(-0.5)
    assert np.allclose(r3.b[1:], 0.0)
    assert np.allclose(r3.orthonormal_offdiag(), 0.5)
    r4 = moments.recurrence1d("chebyshev", 6, kind=4)
    assert r4.b[0] == pytest.approx(0.5)


@pytest.mark.parametrize("family,params", [
    ("jacobi", {"a": 0.0, "b": 0.0}),
    ("jacobi", {"a": 1.5, "b": 0.5}),
    ("laguerre", {"alpha": 0.0}),
    ("laguerre", {"alpha": 2.0}),
])
def test_classical_recurrences_against_moment_gram_schmidt(family, params):
    # independent oracle: orthogonalize monomials directly on the moments
    rec = moments.recurrence1d(family, 6, **params)
    if family == "jacobi":
        u = moments.jacobi_functional_1d(params["a"], params["b"])
    else:
        u = moments.laguerre_functional_1d(params["alpha"])
    from mvops.construct import gram_schmidt_monic, pair_blocks, shift_rows
    from mvops.indexing import basis_for

    P, H = gram_schmidt_monic(u, 6)
    basis = basis_for(1)
    for n in range(6):
        shifted = shift_rows(P.row_blocks(n), 1, basis)
        b_val = pair_blocks(u, shifted, P.row_blocks(n), basis)[0, 0] / H.h(n)[0, 0]
        assert b_val == pytest.approx(rec.b[n], rel=1e-10, abs=1e-10)
        if n >= 1:
            c_val = (pair_blocks(u, shifted, P.row_blocks(n - 1), basis)[0, 0]
                     / H.h(n - 1)[0, 0])
            assert c_val == pytest.approx(rec.c[n], rel=1e-10, abs=1e-10)
    np.testing.assert_allclose(
        rec.norms()[: 7], [H.h(n)[0, 0] for n in range(7)], rtol=1e-10
    )


def test_moment_memoization_deterministic():
    calls = []

    def oracle(alpha):
        calls.append(alpha)
        return 1.0

    u = moments.MomentFunctional(2, oracle)
    u.moment((1, 1))
    u.moment((1, 1))
    assert calls == [(1, 1)]


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
    u = make()
    basis = basis_for(u.d)
    for n in range(12):
        scalar = [u.moment(alpha) for alpha in basis.indices(n)]
        assert np.array_equal(_bits(u.moment_vector(n, basis)), _bits(scalar))


def test_tensor_vector_overflow_raises_naming_the_functional():
    u = moments.multiple_laguerre_functional((0.0, 0.0))
    u.moment_vector(170)
    with pytest.raises(ValueError, match=r"non-finite moment at \(171,\).*laguerre"):
        u.moment_vector(171)
    # finite factors whose product overflows name the tensor itself
    big = moments.MomentFunctional(1, lambda a: 1e200, label="big")
    t = moments.tensor(big, big, label="big-squared")
    with pytest.raises(ValueError, match=r"non-finite moment at \(1, 0\).*big-squared"):
        t.moment_vector(1)


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
    # blocks view one graded matrix and match the per-entry gather
    basis = basis_for(2)
    for j in range(4):
        for k in range(4):
            if j + k <= 7:
                want = [[u.moment(tuple(x + y for x, y in zip(a, b)))
                         for b in basis.indices(k)] for a in basis.indices(j)]
                assert np.array_equal(u.moment_matrix(j, k), want)


def test_nonfinite_moment_stops_construction_at_the_degree_that_needs_it():
    def oracle(alpha):
        return math.inf if sum(alpha) >= 7 else 1.0 / (1.0 + alpha[0]) / (1.0 + alpha[1])

    u = moments.MomentFunctional(2, oracle, label="capped")
    gram_schmidt_monic(u, 3)     # needs moments through degree 6 only
    with pytest.raises(ValueError, match="capped"):
        gram_schmidt_monic(moments.MomentFunctional(2, oracle, label="capped"), 4)
