import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from scipy import special as sp

from mvops import families, matrixkit as mk, moments, mpoly
from mvops.construct import gram_blocks, gram_offdiag_residual
from mvops.indexing import basis_for


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


def test_simplex_norm_matches_numeric_norm():
    kappa = [0.5, 0.75, 0.6]
    u = moments.simplex_functional(kappa)
    sys_ = families.simplex_orthonormal_system(kappa, 3)
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
    return families.simplex_orthonormal_system((0.5, 1.25, 0.75), 6, first)


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
    families.simplex_orthonormal_system((0.5,) * (d + 1), N)
    assert len(calls) <= d * (2 * N + (N + 1) * (N + 2) // 2 + math.comb(N + d, d))


@pytest.mark.parametrize("d,N", [(2, 12), (3, 8)])
def test_simplex_system_builds_one_jacobi_list_per_parameter_pair(monkeypatch, d, N):
    calls = []
    real = families.orthonormal_jacobi_coeffs

    def counted(a, b, n):
        calls.append((a, b))
        return real(a, b, n)

    monkeypatch.setattr(families, "orthonormal_jacobi_coeffs", counted)
    families.simplex_orthonormal_system((0.5,) * (d + 1), N)
    assert calls and len(calls) == len(set(calls))


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


def test_disk_relation_row_degeneracy():
    bundle = families.disk_family(0.0, 4)
    rel = bundle.extras["relation"]
    for n in range(1, 5):
        np.testing.assert_allclose(rel.m(n)[n, :], 0.0, atol=1e-10)


def test_laguerre_shift_block_display():
    basis = basis_for(2)
    vals = {nu: -1.0 for nu in basis.indices(2) if nu[0] >= 1}
    got = families.lower_shift_with_values(2, 2, 1, vals)
    np.testing.assert_array_equal(got, -basis.shift_matrix(1, 1).T)
    np.testing.assert_array_equal(got, [[-1.0, 0.0], [0.0, -1.0], [0.0, 0.0]])


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


def test_symmetrized_system_coefficients_match_grid_route():
    # low-degree cross-check between the two construction routes
    from mvops.construct import inner_block

    kind, N = 2, 4
    v = moments.koornwinder_symmetrized_functional(kind)
    sys_ = families.symmetrized_chebyshev_system(kind, N)
    H = gram_blocks(v, sys_)   # orthonormal: identity Gram blocks, no cross pairings
    assert mk.worst(mk.max_abs(H.h(n) - np.eye(n + 1)) for n in range(N + 1)) <= 1e-10
    assert gram_offdiag_residual(v, sys_, H) <= 1e-10
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
