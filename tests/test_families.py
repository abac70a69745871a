import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from scipy import special as sp

from mvops import families, matrixkit as mk, moments, mpoly
from mvops.construct import gram_blocks, system_from_rows, tensor_system
from mvops.indexing import basis_for, enumerate_indices

from blockref import simplex_orthonormal_system


def test_standard_jacobi_adjacency_spot_values():
    assert families.jacobi_standard_keep(0, 0.3, 0.7) == pytest.approx(1.0)
    assert families.jacobi_standard_keep(1, 0.0, 0.0) == pytest.approx(2.0 / 3.0)
    assert families.jacobi_standard_drop(1, 0.0, 0.0) == pytest.approx(1.0 / 3.0)
    # f_m + g_m telescopes to (2m + a + 2b + 1) / (2m + a + b + 1)
    for m, a, b in [(1, 0.0, 0.0), (3, 0.5, 1.25)]:
        got = families.jacobi_standard_keep(m, a, b) + families.jacobi_standard_drop(m, a, b)
        assert got == pytest.approx((2 * m + a + 2 * b + 1) / (2 * m + a + b + 1))


def test_standard_jacobi_relation_lowest_degree():
    # P_1^(0,0) = x reconstructs from the raised family exactly
    p_raised = families.standard_jacobi_coeffs(1.0, 0.0, 1)
    f1 = families.jacobi_standard_keep(1, 0.0, 0.0)
    g1 = families.jacobi_standard_drop(1, 0.0, 0.0)
    got = f1 * np.pad(p_raised[1], (0, 0)) - g1 * np.pad(p_raised[0], (0, 1))
    np.testing.assert_allclose(got, [0.0, 1.0], atol=1e-14)


def test_orthonormal_jacobi_adjacency_matches_quadrature():
    # independent oracle: Fourier coefficients of the b-raised expansion
    a, b = 0.7, 0.3
    p0 = families.orthonormal_jacobi_coeffs(a, b, 4)
    p1 = families.orthonormal_jacobi_coeffs(a, b + 1, 4)
    x, w = sp.roots_jacobi(24, a, b + 1)

    def pair(ca, cb):
        return float(np.sum(w * np.polyval(ca[::-1], x) * np.polyval(cb[::-1], x)))

    for m in (1, 2, 3):
        assert pair(p0[m], p1[m]) == pytest.approx(
            families.jacobi_orthonormal_lower(m, a, b), rel=1e-12)
        assert pair(p0[m], p1[m - 1]) == pytest.approx(
            families.jacobi_orthonormal_drop(m, a, b), rel=1e-12)


def test_orthonormal_adjacency_reproduces_gram_schmidt_system():
    # reconstruct the lower-parameter family from the raised one through the
    # adjacency coefficients; the result must match the orthonormal system
    # computed independently by Gram-Schmidt on the moments
    a, b = 0.5, 0.25
    from mvops.construct import gram_schmidt_monic, orthonormalize

    u = moments.jacobi_functional_1d(a, b)
    P, H = gram_schmidt_monic(u, 5)
    byGS = orthonormalize(P, H)
    p0 = families.orthonormal_jacobi_coeffs(a, b, 5)
    for m in range(6):
        got = np.concatenate([byGS.block(m, k)[0] for k in range(m + 1)])
        sign = 1.0 if got[-1] * p0[m][-1] > 0 else -1.0
        np.testing.assert_allclose(sign * got, p0[m], atol=1e-10)
    p1 = families.orthonormal_jacobi_coeffs(a, b + 1, 5)
    for m in range(1, 6):
        combo = families.jacobi_orthonormal_lower(m, a, b) * p1[m]
        combo[: m] += families.jacobi_orthonormal_drop(m, a, b) * p1[m - 1]
        np.testing.assert_allclose(combo, p0[m], atol=1e-8)


def test_standard_laguerre_adjacency_identity():
    for alpha in (0.0, 1.3):
        base = families.standard_laguerre_coeffs(alpha, 5)
        raised = families.standard_laguerre_coeffs(alpha + 1, 5)
        for m in range(1, 6):
            diff = raised[m].copy()
            diff[: m] -= raised[m - 1]
            np.testing.assert_allclose(diff, base[m], atol=1e-12)


def test_standard_laguerre_coeffs_are_the_exact_binomials_rounded():
    # integer alpha: every coefficient is an exact rational, rounded once
    from fractions import Fraction
    for alpha in (0, 1, 3):
        for m, row in enumerate(families.standard_laguerre_coeffs(float(alpha), 20)):
            want = [(-1) ** i * Fraction(math.comb(m + alpha, m - i), math.factorial(i))
                    for i in range(m + 1)]
            assert row.tolist() == [float(w) for w in want]


def test_standard_laguerre_binomials_stay_finite_up_to_the_float_range():
    # binom(44490, 100) is 6.4e306, within a factor 100 of the float range:
    # the product form must not overflow on the way
    top = families.standard_laguerre_coeffs(44390.0, 100)[100]
    assert top[0] == pytest.approx(float(math.comb(44490, 100)), rel=1e-12)


def test_krall_coefficient_branches_cross_validate():
    # alpha -> 0 limit of the general branch approaches the special branch
    a1 = 2.0
    for n in (2, 3, 5):
        general = families.krall_laguerre_coefficient(1e-9, a1, n)
        special = families.krall_laguerre_coefficient(0.0, a1, n)
        assert general == pytest.approx(special, rel=1e-5)
    for n in (2, 4):
        general = families.krall_jacobi_coefficient(1e-9, 0.5, a1, n)
        special = families.krall_jacobi_coefficient(0.0, 0.5, a1, n)
        assert general == pytest.approx(special, rel=1e-4)



def _krall_jacobi_reference(alpha, beta, a1, n):
    """a_n of the mass-modified Jacobi family in its Gamma form, at 50 digits."""
    if n == 1:
        return a1
    g = mpmath.gamma
    with mpmath.workdps(50):
        a, b, a1 = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(a1)
        ratio = -(2 * (b + 1) + a1 * (a + b + 1) * (a + b + 2)) / (2 * (a + 1) + a1 * (a + b + 2))

        def al(m):
            return g(a + 1) * g(a + b + 2) * g(m) * g(m + b) + ratio * g(b + 1) * g(m + a) * g(
                m + a + b)

        s = 2 * n + a + b
        return -2 / (s * (s - 1)) * al(n + 1) / al(n)


@pytest.mark.parametrize("alpha, beta, a1", [(300.0, 0.0, 1.0), (1.0, 0.0, 1.0), (2.5, 1.5, 0.5)])
def test_krall_jacobi_coefficient_against_mpmath(alpha, beta, a1):
    # Gamma(alpha + 1) overflows above alpha ~ 170; the coefficient does not
    for n in range(1, 13):
        want = _krall_jacobi_reference(alpha, beta, a1, n)
        got = families.krall_jacobi_coefficient(alpha, beta, a1, n)
        assert abs(got - want) <= 1e-14 * abs(want), (n, got, want)


def _krall_laguerre_reference(alpha, a1, n):
    """a_n of the mass-modified Laguerre family in its Gamma form, at 50 digits."""
    if n == 1:
        return a1
    g = mpmath.gamma
    with mpmath.workdps(50):
        a, a1 = mpmath.mpf(alpha), mpmath.mpf(a1)

        def al(m):
            return g(m) * g(a + 1) * (a + 1 - a1) + (a1 - 1) * g(m + a)

        return al(n + 1) / al(n)


@pytest.mark.parametrize("alpha", [169.0, 300.0])
@pytest.mark.parametrize("a1", [1.0, 2.0])
def test_krall_laguerre_coefficient_against_mpmath(alpha, a1):
    # Gamma(alpha + 1) and Gamma(m + alpha) overflow from alpha ~ 169; the
    # coefficient does not
    for n in range(1, 13):
        want = _krall_laguerre_reference(alpha, a1, n)
        got = families.krall_laguerre_coefficient(alpha, a1, n)
        assert abs(got - want) <= 1e-14 * abs(want), (n, got, want)


def test_simplex_norm_matches_numeric_norm():
    kappa = [0.5, 0.75, 0.6]
    u = moments.simplex_functional(kappa)
    sys_ = simplex_orthonormal_system(kappa, 3)
    # rows are orthogonal; their common squared norm is the raw-mass product
    from mvops.construct import inner_block

    for n in range(4):
        g = inner_block(u, sys_, n, sys_, n)
        off = g - np.diag(np.diag(g))
        assert mk.max_abs(off) <= 1e-10


def _simplex_product_formula(kappa, first, nu, x):
    """Value of the simplex basis row nu at x, factor by factor:
    prod_j (1 - s_j)^m_j p_(m_j)(2 x_j / (1 - s_j) - 1), where s_j sums the
    coordinates placed before x_j, over the raw-mass norm."""
    d = len(x)
    order = [first] + [o for o in range(1, d + 1) if o != first]
    kperm = [kappa[o - 1] for o in order] + [kappa[d]]
    nperm = [nu[o - 1] for o in order]
    value, s = 1.0, 0.0
    for j in range(1, d + 1):
        m = nperm[j - 1]
        a = sum(kperm[j:]) + 2 * sum(nperm[j:]) + (d - j - 1) / 2.0
        c = families.orthonormal_jacobi_coeffs(a, kperm[j - 1] - 0.5, m)[m]
        xj = x[order[j - 1] - 1]
        value *= (1.0 - s) ** m * npoly.polyval(2.0 * xj / (1.0 - s) - 1.0, c)
        s += xj
    return value / math.sqrt(families.simplex_norm_sq(kperm, nperm))


@functools.lru_cache(maxsize=None)
def _simplex_case(first):
    return simplex_orthonormal_system((0.5, 1.25, 0.75), 6, first)


@pytest.mark.parametrize("first", [1, 2])
@given(u=st.floats(0.0, 1.0), t=st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_simplex_rows_evaluate_to_the_product_formula(first, u, t):
    # every row of every degree reads the form table of its direction
    system = _simplex_case(first)
    x = (0.9 * u, 0.9 * t * (1.0 - 0.9 * u))
    basis = basis_for(2)
    for n in range(system.N + 1):
        got = sum(system.block(n, m) @ np.array([x[0]**i * x[1]**j for i, j in basis.indices(m)])
                  for m in range(n + 1))
        want = np.array([_simplex_product_formula((0.5, 1.25, 0.75), first, nu, x)
                         for nu in basis.indices(n)])
        scale = max(1.0, max(mk.max_abs(system.block(n, m)) for m in range(n + 1)))
        assert mk.max_abs(got - want) <= 1e-12 * scale


@pytest.mark.parametrize("d,N", [(2, 12), (3, 8)])
def test_simplex_system_multiplies_each_form_once(monkeypatch, d, N):
    # per direction: the powers of its two linear forms, each form of degree
    # <= N once, and one product per row and direction
    calls = []
    real_mul = mpoly.mul
    monkeypatch.setattr(mpoly, "mul", lambda a, b: calls.append(1) or real_mul(a, b))
    simplex_orthonormal_system((0.5,) * (d + 1), N)
    assert len(calls) <= d * (2 * N + (N + 1) * (N + 2) // 2 + math.comb(N + d, d))


@pytest.mark.parametrize("d,N", [(2, 12), (3, 8)])
def test_simplex_system_builds_one_jacobi_list_per_parameter_pair(monkeypatch, d, N):
    calls = []
    real = families.orthonormal_jacobi_coeffs

    def counted(a, b, n):
        calls.append((a, b))
        return real(a, b, n)

    monkeypatch.setattr(families, "orthonormal_jacobi_coeffs", counted)
    simplex_orthonormal_system((0.5,) * (d + 1), N)
    assert calls and len(calls) == len(set(calls))


def _per_row_simplex_system(kappa, N, first=1):
    """Reference builder: every row one chain of factor evaluations from the
    constant 1, each factor evaluated afresh and each direction's form
    tables built per system."""
    kappa = [float(k) for k in kappa]
    d = len(kappa) - 1
    order = [first] + [x for x in range(1, d + 1) if x != first]
    kperm = [kappa[o - 1] for o in order] + [kappa[d]]
    tables = []
    for j in range(d):
        prev = [o - 1 for o in order[:j]]
        arg = [2.0 if l == order[j] - 1 else float(l in prev) for l in range(d)]
        hom = [-1.0 if l in prev else 0.0 for l in range(d)]
        tables.append(mpoly.form_table(mpoly.linear(d, arg, -1.0), mpoly.linear(d, hom, 1.0)))
    jacobi: dict = {}
    rows = {}
    for n in range(N + 1):
        for nu in enumerate_indices(d, n):
            nperm = [nu[o - 1] for o in order]
            poly = mpoly.const(d)
            for j in range(1, d + 1):
                aj = sum(kperm[j:]) + 2 * sum(nperm[j:]) + (d - j - 1) / 2.0
                bj = kperm[j - 1] - 0.5
                if (aj, bj) not in jacobi:
                    jacobi[aj, bj] = families.orthonormal_jacobi_coeffs(aj, bj, N)
                poly = mpoly.mul(poly, tables[j - 1](jacobi[aj, bj][nperm[j - 1]]))
            rows[nu] = poly / math.sqrt(families.simplex_norm_sq(kperm, nperm))
    return system_from_rows(rows, d, N, f"simplex(kappa={tuple(kappa)},dir={first})")


@pytest.mark.parametrize("d, N", [(2, 0), (2, 1), (2, 10), (3, 1), (3, 10), (4, 2), (4, 8)])
def test_simplex_system_is_bit_identical_to_the_per_row_builder(d, N):
    kappa = tuple(0.25 + 0.5 * i for i in range(d + 1))
    for first in range(1, d + 1):
        got = simplex_orthonormal_system(kappa, N, first)
        want = _per_row_simplex_system(kappa, N, first)
        assert got.label == want.label and got.monic == want.monic
        for n in range(N + 1):
            assert all(mk.same_bits(g, w) for g, w in zip(got.blocks[n], want.blocks[n]))


@pytest.mark.parametrize("d, j", [(2, 1), (2, 2), (3, 2), (4, 4)])
def test_simplex_family_builds_its_direction_form_tables_once(monkeypatch, d, j):
    calls = []
    real = mpoly.form_table
    monkeypatch.setattr(mpoly, "form_table", lambda a, b: calls.append(1) or real(a, b))
    bundle = families.simplex_family((0.5,) * (d + 1), j, 3)
    assert len(calls) == d and bundle.all_pass


@pytest.mark.parametrize("name,params,N", [
    ("disk", dict(mu=0.0), 5),
    ("disk", dict(mu=1.5), 4),
    ("krall-laguerre", dict(alpha=1.0, a1=1.0, kappa2=0.0), 5),
    ("krall-laguerre", dict(alpha=0.0, a1=2.0, kappa2=1.0), 4),
    ("krall-jacobi", dict(alpha=1.0, beta=0.0, a1=1.0, ay=0.0), 5),
    ("krall-jacobi", dict(alpha=0.0, beta=0.5, a1=2.0, ay=0.0), 4),
    ("simplex", dict(kappa=(0.5, 0.5, 0.5), j=1), 4),
    ("simplex", dict(kappa=(0.5, 0.5, 0.5), j=2), 4),
    ("simplex", dict(kappa=(1.0, 0.25, 0.75), j=2), 3),
    ("cube", dict(a=(0.0, 0.0), b=(0.0, 0.0), j=1, raise_b=False), 5),
    ("cube", dict(a=(0.5, 0.25), b=(0.0, 1.0), j=2, raise_b=True), 4),
    ("laguerre", dict(kappa=(0.0, 1.0), j=1), 5),
    ("laguerre", dict(kappa=(0.0, 1.0), j=2), 4),
])
def test_catalog_bundles_pass(name, params, N):
    bundle = families.build_family(name, N, **params)
    failures = [(r.name, r.degree, r.direction, r.value) for r in bundle.records
                if not r.ok]
    assert not failures, failures
    assert bundle.extras.get("classification") in ("zero", "full")


KRALL_PAIRS = [
    ("krall-laguerre", dict(alpha=1.0, a1=1.0, kappa2=0.0),
     lambda n: families.krall_laguerre_coefficient(1.0, 1.0, n)),
    ("krall-jacobi", dict(alpha=1.0, beta=0.0, a1=1.0, ay=0.0),
     lambda n: families.krall_jacobi_coefficient(1.0, 0.0, 1.0, n)),
]


@pytest.mark.parametrize("name,params,coeff", KRALL_PAIRS)
def test_krall_builds_each_system_and_the_relation_once(monkeypatch, name, params, coeff):
    calls = []
    for fn in ("compute_relation", "gram_schmidt_monic"):
        real = getattr(families, fn)
        monkeypatch.setattr(families, fn, lambda *args, fn=fn, real=real:
                            calls.append(fn) or real(*args))
    families.build_family(name, 6, **params)
    assert sorted(calls) == ["compute_relation"] + ["gram_schmidt_monic"] * 2


@pytest.mark.parametrize("name,params,coeff", KRALL_PAIRS)
def test_krall_coefficients_1d_read_the_relation(name, params, coeff):
    N = 6
    bundle = families.build_family(name, N, **params)
    rel = bundle.extras["relation"]
    want = mk.worst(abs(float(rel.m(n)[0, 0]) - coeff(n)) / max(1.0, abs(coeff(n)))
                    for n in range(1, N + 1))
    [check] = [c for c in bundle.records if c.name == "coefficients-1d"]
    assert check.value == want and check.ok


@pytest.mark.parametrize("name, params, unread", [
    ("disk", dict(mu=0.0, rho=7.0), "rho"),
    ("cube", dict(kappa=(1.0, 2.0, 3.0)), "kappa"),
    ("krall-laguerre", dict(alpha=1.0, a1=1.0, kapa2=1.0, ay=0.0), "ay, kapa2"),
    ("simplex", dict(kappa=(0.5, 0.5, 0.5), raise_b=True), "raise_b"),
])
def test_build_family_refuses_parameters_the_family_does_not_read(name, params, unread):
    with pytest.raises(families.ParameterError, match=f"does not read {unread}$"):
        families.build_family(name, 3, **params)


def test_disk_relation_row_degeneracy():
    bundle = families.disk_family(0.0, 4)
    rel = bundle.extras["relation"]
    for n in range(1, 5):
        np.testing.assert_allclose(rel.m(n)[n, :], 0.0, atol=1e-10)


def test_laguerre_shift_block_display():
    basis = basis_for(2)
    Q = tensor_system([families.standard_laguerre_coeffs(k, 2) for k in (0.0, 1.0)], 2, "Q")
    P = tensor_system([families.standard_laguerre_coeffs(k, 2) for k in (1.0, 1.0)], 2, "P")
    bundle = families.FamilyBundle("laguerre", {}, d=2, N=2)
    rel = families._closed_form(bundle, Q, P, 1, lambda nu: -1.0, 1e-8)
    np.testing.assert_array_equal(rel.m(2), -basis.shift_matrix(1, 1).T)
    np.testing.assert_array_equal(rel.m(2), [[-1.0, 0.0], [0.0, -1.0], [0.0, 0.0]])
    [check] = bundle.records
    assert check.name == "relation-closed-form" and check.ok


def test_simplex_closed_form_residual_is_scale_relative_at_degree_12():
    # the orthonormal simplex coefficients reach 1e8 at degree 12; an absolute
    # defect read 6.9e-7 there, the defect relative to that scale is rounding
    bundle = families.build_family("simplex", 12, kappa=(0.5, 0.5, 0.5), j=1)
    [check] = [c for c in bundle.records if c.name == "relation-closed-form"]
    assert check.value <= 1e-13


@pytest.mark.parametrize("name, params, entry", [
    ("disk", dict(mu=0.0), lambda n, k: -(n - k) / (2.0 * n + 2.0)),
    ("disk", dict(mu=1.5), lambda n, k: -(n - k) / (2.0 * n + 2.0 * 1.5 + 2.0)),
    ("krall-laguerre", dict(alpha=1.0, a1=1.0, kappa2=0.0),
     lambda n, k: families.krall_laguerre_coefficient(1.0, 1.0, n - k)),
    ("krall-jacobi", dict(alpha=1.0, beta=0.0, a1=1.0, ay=0.0),
     lambda n, k: families.krall_jacobi_coefficient(1.0, 0.0, 1.0, n - k)),
])
def test_closed_form_blocks_equal_the_diagonal_loops(monkeypatch, name, params, entry):
    # M_n = diag(drop) L^t puts drop(nu) at (nu, nu - e_1): row k, column k
    built = []

    def capture(*args, real=families._closed_form, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(families, "_closed_form", capture)
    families.build_family(name, 8, **params)
    [rel] = built
    for n in range(1, 9):
        want = np.zeros((n + 1, n))
        for k in range(n):
            want[k, k] = entry(n, k)
        assert rel.m(n).tobytes() == want.tobytes()


def test_chebyshev_scalar_condition_values():
    rec = {k: moments.chebyshev_recurrence(8, k) for k in (1, 2, 3, 4)}
    # first kind fails at n = 2 for every nonzero rho
    gap = families.chebyshev_scalar_condition(rec[1], 2, 0.5)
    assert gap == pytest.approx(0.5 - 1 / math.sqrt(2))
    for kind in (2, 3, 4):
        for n in range(2, 8):
            assert families.chebyshev_scalar_condition(rec[kind], n, 0.7) == \
                pytest.approx(0.0, abs=1e-15)
    # second kind: constructed diagonal value is 1/2 for every degree
    for n in range(2, 8):
        assert families.chebyshev_lambda(rec[2], n, 1.3) == pytest.approx(0.5)


def test_chebyshev_relation_matrix_pattern():
    m = families.chebyshev_relation_matrix(3, 0.5)
    expected = np.array([
        [0.5, 0.0, 0.0],
        [0.0, 0.5, 0.0],
        [0.0, 0.0, 0.5 * math.sqrt(2.0)],
        [0.0, 0.0, -0.25],
    ])
    np.testing.assert_allclose(m, expected)


@pytest.mark.parametrize("kind,rho,expected", [
    (1, 0.5, False),
    (1, -2.0, False),
    (2, 0.5, True),
    (2, -2.0, True),
    (3, 1.0, False),
    (3, 0.5, True),
    (4, -1.0, False),
    (4, 2.0, True),
])
def test_chebyshev_verdicts(kind, rho, expected):
    bundle = families.chebyshev_koornwinder_family(kind, rho, 5)
    assert bundle.orthogonal_verdict == expected
    assert bundle.matches_expectation


@pytest.mark.parametrize("kind", [2, 3, 4])
def test_chebyshev_second_direction_band_closed_form(kind):
    rho, N, a = 0.7, 5, 0.5
    b0 = {2: 0.0, 3: -0.5, 4: 0.5}[kind]
    T, _ = families.symmetrized_chebyshev_ttr(kind, N + 1)
    M = [None] + [families.chebyshev_relation_matrix(n, rho)
                  for n in range(1, N + 2)]
    from mvops.linrel import LinearRelation, combined_from_reference

    cand, _ = combined_from_reference(T, LinearRelation(2, M))
    for n in (3, 4, 5):
        exp = np.zeros((n + 1, n))
        exp[0, 0] = b0 * a
        for r in range(n - 2):
            exp[r, r + 1] = a * a
            exp[r + 1, r] = a * a
        exp[n - 2, n - 2] = rho * a * a
        exp[n - 2, n - 1] = math.sqrt(2.0) * a * a
        exp[n - 1, n - 2] = (1 - rho**2) * a * a
        exp[n - 1, n - 1] = -math.sqrt(2.0) * rho * a * a
        exp[n, n - 2] = math.sqrt(2.0) * rho**3 * a * a
        exp[n, n - 1] = (1 + 2 * rho**2) * a * a
        assert mk.max_abs(cand.c(n, 2) - exp) <= 1e-12


def test_chebyshev_rho_zero_trivially_orthogonal():
    bundle = families.chebyshev_koornwinder_family(1, 0.0, 4)
    assert bundle.orthogonal_verdict
    assert bundle.extras["classification"] == "zero"


def test_chebyshev_degree_one_rank_failure_localized():
    bundle = families.chebyshev_koornwinder_family(3, 1.0, 5)
    report = bundle.extras["report"]
    bad = [(c.name, c.degree, c.direction) for c in report.rank_report.checks if not c.ok]
    assert ("C~", 1, 1) in bad
    assert all(n == 1 for _, n, _ in bad)


def _symmetric_terms(N: int) -> dict:
    """(x^r y^s + x^s y^r) / (1 + [r = s]) for s <= r <= N as arrays in the
    elementary symmetric variables u = x + y, v = x y: v^s p_(r-s), with the
    power sums p_t = x^t + y^t from p_t = u p_(t-1) - v p_(t-2)."""
    u, v, neg_v = (mpoly.linear(2, c) for c in ([1.0, 0.0], [0.0, 1.0], [0.0, -1.0]))
    ps, vs = [mpoly.const(2, 2.0), u], [mpoly.const(2)]
    for _ in range(N):
        ps.append(mpoly.add(mpoly.mul(u, ps[-1]), mpoly.mul(neg_v, ps[-2])))
        vs.append(mpoly.mul(vs[-1], v))
    return {(r, s): mpoly.mul(vs[s], ps[r - s]) if r > s else vs[s]
            for r in range(N + 1) for s in range(r + 1)}


def _symmetrized_chebyshev_system(kind: int, N: int):
    """Orthonormal rows built by symmetrizing products of 1-d polynomials.

    Row k of degree n is (p_n(x) p_k(y) + p_k(x) p_n(y)) / sqrt(2) for
    k < n and p_n(x) p_n(y) for k = n, rewritten in the variables
    (x + y, x y); orthonormal for the symmetrized product functional.
    """
    rec = moments.chebyshev_recurrence(N + 1, kind)
    p = rec.orthonormal_coeffs()
    terms = _symmetric_terms(N)
    rows = {}
    for n in range(N + 1):
        for k in range(n + 1):
            full = np.zeros((n + 1, n + 1))
            full[:, : k + 1] = np.outer(p[n], p[k])
            if k < n:
                full = (full + full.T) / math.sqrt(2.0)
            poly = mpoly.const(2, 0.0)
            for r in range(n + 1):
                for s in range(r + 1):
                    if full[r, s] != 0.0:
                        poly = mpoly.add(poly, full[r, s] * terms[r, s])
            rows[(n - k, k)] = poly
    return system_from_rows(rows, 2, N, f"symmetrized-chebyshev{kind}")


def test_symmetrized_system_coefficients_match_grid_route():
    # low-degree cross-check between the two construction routes
    kind, N = 2, 4
    v = moments.koornwinder_symmetrized_functional(kind)
    sys_ = _symmetrized_chebyshev_system(kind, N)
    H = gram_blocks(v, sys_)   # orthonormal: identity Gram blocks, no cross pairings
    assert mk.worst(mk.max_abs(H.h(n) - np.eye(n + 1)) for n in range(N + 1)) <= 1e-10
    assert H.offdiag_residual <= 1e-10
    T, ortho = families.symmetrized_chebyshev_ttr(kind, N)
    assert ortho <= 1e-12
    from mvops.construct import GramBlocks
    from mvops.ttr import compute_ttr

    H = GramBlocks([np.eye(n + 1) for n in range(N + 1)])
    T2 = compute_ttr(sys_, v, H)
    for n in range(N - 1):
        for i in (1, 2):
            assert mk.max_abs(T.a(n, i) - T2.a(n, i)) <= 1e-9
            assert mk.max_abs(T.b(n, i) - T2.b(n, i)) <= 1e-9


def _per_entry_ttr(kind, N):
    """The recurrence blocks by one weighted grid sum per block entry."""
    pts = 4 * N + 16
    x, w = families._chebyshev_angle_grid(kind, pts)
    p = families._orthonormal_values(moments.chebyshev_recurrence(N + 1, kind), x, N + 1)
    W, coords = np.outer(w, w), (np.add.outer(x, x), np.outer(x, x))
    rows = []
    for n in range(N + 1):
        fs = [np.outer(p[n], p[k]) for k in range(n + 1)]
        rows.append([(f + f.T) / math.sqrt(2.0) if k < n else f for k, f in enumerate(fs)])

    def block(left, right):
        return np.array([[np.sum(fa * fb * W) for fb in right] for fa in left])

    gaps = [mk.max_abs(block(rows[n], rows[m]) - (np.eye(n + 1) if m == n else 0.0))
            for n in range(N + 1) for m in range(n + 1)]
    A, B, C = {}, {}, {}
    for n in range(N + 1):
        for i, coord in enumerate(coords, start=1):
            shifted = [coord * f for f in rows[n]]
            B[n, i] = block(shifted, rows[n])
            if n >= 1:
                C[n, i] = block(shifted, rows[n - 1])
            if n < N:
                A[n, i] = block(shifted, rows[n + 1])
    return A, B, C, max(gaps)


@pytest.mark.parametrize("kind", [1, 2, 3, 4])
def test_symmetrized_ttr_matches_per_entry_pairing(kind):
    N = 5
    T, ortho = families.symmetrized_chebyshev_ttr(kind, N)
    A, B, C, ortho_ref = _per_entry_ttr(kind, N)
    assert abs(ortho - ortho_ref) <= 1e-14
    for (n, i), want in A.items():
        assert mk.max_abs(T.a(n, i) - want) <= 1e-14
    for (n, i), want in B.items():
        assert mk.max_abs(T.b(n, i) - want) <= 1e-14
    for (n, i), want in C.items():
        assert mk.max_abs(T.c(n, i) - want) <= 1e-14


def test_build_family_unknown_name():
    with pytest.raises(KeyError):
        families.build_family("warp", 3)
