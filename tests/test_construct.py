import copy
import functools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from mvops import construct, matrixkit as mk, moments, mpoly
from mvops.construct import (GramBlocks, NotPositiveDefiniteError, QuasiDefiniteFailure,
                             RhoMap, gram_blocks, gram_schmidt_monic, inner_block,
                             koornwinder_system, orthonormalize, system_from_rows)
from mvops.indexing import basis_for
from mvops.ttr import compute_ttr

from blockref import row_blocks, shift_rows, simplex_orthonormal_system

def test_centered_weight_degree_one_is_pure():
    u = moments.product_chebyshev_functional(2)
    P, H = gram_schmidt_monic(u, 3)
    np.testing.assert_allclose(P.block(1, 0), 0.0, atol=1e-15)
    np.testing.assert_array_equal(P.block(1, 1), np.eye(2))


def test_gram_block_zero_is_the_mass():
    u = moments.multiple_laguerre_functional((0.3, 0.8))
    P, H = gram_schmidt_monic(u, 2)
    assert H.h(0)[0, 0] == pytest.approx(u.moment((0, 0)), rel=1e-14)


def test_monic_leading_blocks_exact_identity():
    u = moments.disk_functional(1.0)
    P, _ = gram_schmidt_monic(u, 4)
    for n in range(5):
        assert np.array_equal(P.leading(n), np.eye(n + 1))


@pytest.mark.parametrize("functional", [
    moments.product_chebyshev_functional(2),
    moments.disk_functional(0.0),
    moments.disk_functional(1.5),
    moments.simplex_functional((0.5, 0.5, 0.5)),
    moments.multiple_laguerre_functional((0.0, 1.0)),
])
def test_full_gram_orthogonality(functional):
    P, _ = gram_schmidt_monic(functional, 5)
    assert gram_blocks(functional, P).offdiag_residual <= 1e-8


def test_gram_blocks_symmetric():
    u = moments.simplex_functional((1.0, 0.25, 0.75))
    _, H = gram_schmidt_monic(u, 4)
    for n in range(5):
        assert mk.max_abs(H.h(n) - H.h(n).T) <= 1e-12


def test_inner_block_cross_degrees_vanish():
    u = moments.disk_functional(0.0)
    P, _ = gram_schmidt_monic(u, 4)
    assert mk.max_abs(inner_block(u, P, 3, P, 1)) <= 1e-12


def test_inner_block_monomials_disk():
    u = moments.disk_functional(0.0)
    X = construct.PolySystem(2, [[np.eye(1)], [np.zeros((2, 1)), np.eye(2)]])
    got = inner_block(u, X, 1, X, 1)
    np.testing.assert_allclose(got, np.diag([0.25, 0.25]), atol=1e-14)


def test_krall_jacobi_tensor_quasi_definite_when_denominators_nonzero():
    # alpha = beta = 0, a1 = 1: the denominator sequence 1 - 2 h_{n-1}
    # never vanishes, so every Gram block through degree 6 is invertible
    v = moments.tensor(
        moments.krall_jacobi_functional(0.0, 0.0, 1.0),
        moments.jacobi_functional_1d(0.0, 0.0),
    )
    hvals = [1.0 - 2.0 * sum(1.0 / i + 1.0 / i for i in range(1, n)) / 2.0
             for n in range(2, 8)]
    assert all(abs(h) > 1e-12 for h in hvals)
    P, H = gram_schmidt_monic(v, 6)
    for n in range(7):
        assert mk.numeric_rank(H.h(n), 1e-9) == n + 1


def test_quasi_definite_failure_at_predicted_degree():
    # root of the alpha-tilde sequence at n0 makes the relation coefficient
    # a_{n0-1} vanish, hence the Gram block at degree n0 - 1 degenerates
    h = lambda m: sum(1.0 / i for i in range(1, m))
    for n0 in (3, 4, 6):
        a1 = 1.0 - 1.0 / h(n0)
        v = moments.krall_laguerre_functional(0.0, a1)
        with pytest.raises(QuasiDefiniteFailure) as err:
            gram_schmidt_monic(v, 6)
        assert err.value.degree == n0 - 1
        assert err.value.singular_values.size == 1  # univariate blocks


def test_quasi_definite_failure_simple_oracle():
    u = moments.MomentFunctional(1, lambda a: 1.0 if a[0] == 0 else 0.0)
    with pytest.raises(QuasiDefiniteFailure) as err:
        gram_schmidt_monic(u, 3)
    assert err.value.degree == 1


def test_orthonormalize_unit_gram_and_classical_chebyshev():
    u = moments.chebyshev_functional_1d(2)
    P, H = gram_schmidt_monic(u, 6)
    Pn = orthonormalize(P, H)
    for n in range(7):
        g = inner_block(u, Pn, n, Pn, n)
        assert mk.max_abs(g - np.eye(1)) <= 1e-8
    # orthonormal second-kind recurrence has off-diagonal 1/2
    from mvops.construct import pair_blocks
    from mvops.indexing import basis_for

    basis = basis_for(1)
    for n in range(5):
        shifted = shift_rows(row_blocks(Pn, n), 1, basis)
        a_val = pair_blocks(u, shifted, row_blocks(Pn, n + 1))[0, 0]
        assert a_val == pytest.approx(0.5, abs=1e-10)


def test_orthonormalize_idempotent_up_to_tolerance():
    u = moments.disk_functional(0.5)
    P, H = gram_schmidt_monic(u, 4)
    Pn = orthonormalize(P, H)
    H2 = GramBlocks([inner_block(u, Pn, n, Pn, n) for n in range(5)])
    Pn2 = orthonormalize(Pn, H2)
    for n in range(5):
        for k in range(n + 1):
            assert mk.max_abs(Pn2.block(n, k) - Pn.block(n, k)) <= 1e-8


def test_orthonormalize_pure_scaling():
    u = moments.chebyshev_functional_1d(2)
    scaled = moments.MomentFunctional(1, lambda a: 4.0 * u.moment(a))
    P, H = gram_schmidt_monic(scaled, 1)
    assert H.h(0)[0, 0] == pytest.approx(4.0)
    Pn = orthonormalize(P, H)
    assert Pn.block(0, 0)[0, 0] == pytest.approx(0.5)


def test_orthonormalize_rejects_indefinite():
    v = moments.krall_laguerre_functional(0.0, 2.0)
    P, H = gram_schmidt_monic(v, 3)
    signs = [np.linalg.eigvalsh(H.h(n)) for n in range(4)]
    assert any(np.any(s < 0) for s in signs)
    with pytest.raises(NotPositiveDefiniteError):
        orthonormalize(P, H)


def test_koornwinder_constant_mapping_is_tensor_product():
    w1 = moments.jacobi_functional_1d(0.0, 0.0)
    w2 = moments.jacobi_functional_1d(1.0, 1.0)
    N = 4
    sys2, func = koornwinder_system(w1, w2, RhoMap.linear(1.0), N)
    assert sys2.monic
    q, _ = gram_schmidt_monic(w1, N)
    r, _ = gram_schmidt_monic(w2, N)
    # row (n - k, k) of the product system is q_(n-k)(x) r_k(y)
    rows = {}
    for n in range(N + 1):
        for k in range(n + 1):
            qc = np.concatenate([q.block(n - k, m)[0] for m in range(n - k + 1)])
            rc = np.concatenate([r.block(k, m)[0] for m in range(k + 1)])
            rows[(n - k, k)] = mpoly.mul(mpoly.from_1d(qc, 0, 2), mpoly.from_1d(rc, 1, 2))
    product = system_from_rows(rows, 2, N, "q(x) r(y)")
    for n in range(N + 1):
        for m in range(n + 1):
            assert mk.max_abs(sys2.block(n, m) - product.block(n, m)) <= 1e-12
    # tensor moments factor through the two one-dimensional functionals
    assert func.moment((2, 3)) == pytest.approx(
        w1.moment((2,)) * w2.moment((3,)), rel=1e-13
    )


@functools.lru_cache(maxsize=None)
def _koornwinder_case(kind):
    """A Koornwinder system with the 1-d systems of its rows, built without mpoly."""
    w1 = moments.jacobi_functional_1d(0.5, 0.5)
    w2 = moments.jacobi_functional_1d(1.0, 1.0)
    N = 5
    if kind == "sqrt":
        rho = RhoMap.sqrt_poly(1.0, 0.0, -1.0)
        rho_of = lambda x: np.sqrt(1.0 - x * x)
        mult = lambda k: npoly.polypow([1.0, 0.0, -1.0], k)
    else:
        rho = RhoMap.linear(2.0, 0.5)
        rho_of = lambda x: 2.0 + 0.5 * x
        mult = lambda k: npoly.polypow([2.0, 0.5], 2 * k + 1)

    def monic(u, n):
        P, _ = gram_schmidt_monic(u, n)
        return [np.concatenate([P.block(m, j)[0] for j in range(m + 1)])
                for m in range(n + 1)]

    r = monic(w2, N)
    q = [monic(moments.left_multiply({(m,): c for m, c in enumerate(mult(k))}, w1), N - k)
         for k in range(N + 1)]
    system, _ = koornwinder_system(w1, w2, rho, N)
    return system, rho_of, q, r


@pytest.mark.parametrize("kind", ["sqrt", "linear"])
@given(x=st.floats(-0.95, 0.95), t=st.floats(-1.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_koornwinder_rows_evaluate_to_the_product_formula(kind, x, t):
    system, rho_of, q, r = _koornwinder_case(kind)
    rho = rho_of(x)
    y = t * rho
    basis = basis_for(2)
    for n in range(system.N + 1):
        got = sum(system.block(n, m) @ np.array([x**i * y**j for i, j in basis.indices(m)])
                  for m in range(n + 1))
        want = np.array([npoly.polyval(x, q[k][n - k]) * rho**k * npoly.polyval(t, r[k])
                         for k in range(n + 1)])
        scale = max(1.0, max(mk.max_abs(system.block(n, m)) for m in range(n + 1)))
        assert mk.max_abs(got - want) <= 1e-12 * scale


@pytest.mark.parametrize("kind", ["sqrt", "linear"])
def test_koornwinder_parts_share_one_form_table(monkeypatch, kind):
    # one product per row, each form of degree <= N once across all k, and
    # the powers of y, of rho and of the multipliers rho^(2k+1)
    calls = []
    real_mul = mpoly.mul
    monkeypatch.setattr(mpoly, "mul", lambda a, b: calls.append(1) or real_mul(a, b))
    rho = RhoMap.sqrt_poly(1.0, 0.0, -1.0) if kind == "sqrt" else RhoMap.linear(2.0, 0.5)
    N = 10
    koornwinder_system(moments.jacobi_functional_1d(0.5, 0.5),
                       moments.jacobi_functional_1d(1.0, 1.0), rho, N)
    assert len(calls) <= (N + 1) * (N + 2) + 4 * N + 1


def test_koornwinder_disk_orthogonality():
    rho = RhoMap.sqrt_poly(1.0, 0.0, -1.0)
    w2 = moments.jacobi_functional_1d(0.0, 0.0)
    sys2, func = koornwinder_system(
        moments.jacobi_functional_1d(0.5, 0.5), w2, rho, 4
    )
    assert gram_blocks(func, sys2).offdiag_residual <= 1e-10
    # the returned functional matches the conventional disk moments up to scale
    disk = moments.MomentFunctional(2, functools.partial(moments.disk_moment_closed, 0.0))
    ratio = func.moment((0, 0)) / disk.moment((0, 0))
    for alpha in [(2, 0), (0, 2), (2, 2), (4, 0)]:
        assert func.moment(alpha) == pytest.approx(ratio * disk.moment(alpha),
                                                   rel=1e-11, abs=1e-13)


def test_koornwinder_rejects_asymmetric_second_weight_for_sqrt():
    rho = RhoMap.sqrt_poly(1.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        koornwinder_system(
            moments.jacobi_functional_1d(0.5, 0.5),
            moments.jacobi_functional_1d(1.0, 0.0),  # not symmetric
            rho, 3,
        )


def test_to_monic_restores_identity_leading():
    rho = RhoMap.sqrt_poly(1.0, 0.0, -1.0)
    sys2, func = koornwinder_system(
        moments.jacobi_functional_1d(0.5, 0.5),
        moments.jacobi_functional_1d(0.0, 0.0), rho, 3,
    )
    assert not sys2.monic
    mon = sys2.to_monic()
    for n in range(4):
        assert np.array_equal(mon.leading(n), np.eye(n + 1))
    assert gram_blocks(func, mon).offdiag_residual <= 1e-10


def _pair_blockwise(u, rows_a, rows_b, basis):
    """Reference pairing: one moment block per pair of degrees, by per-entry gather."""
    out = 0.0
    for j, ga in rows_a.items():
        for k, gb in rows_b.items():
            block = np.array([[u.moment(tuple(x + y for x, y in zip(alpha, beta)))
                               for beta in basis.indices(k)] for alpha in basis.indices(j)])
            out = out + ga @ block @ gb.T
    return out


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_stacked_pairing_matches_blockwise_reference(d):
    from mvops.construct import pair_blocks
    from mvops.indexing import basis_for

    basis = basis_for(d)
    u = moments.cube_jacobi_functional(tuple(0.5 * i for i in range(d)), (0.25,) * d)
    rng = np.random.default_rng(d)

    def rows(lo, hi, height):
        return {k: rng.standard_normal((height, basis.size(k))) for k in range(lo, hi + 1)}

    P, _ = gram_schmidt_monic(u, 3)
    cases = [
        (rows(0, 3, 4), rows(0, 2, 2)),          # rows of different lengths
        (rows(2, 3, 3), rows(1, 3, 5)),          # ranges starting above degree 0
        ({k: g for k, g in rows(0, 3, 2).items() if k != 1}, rows(0, 1, 3)),   # degree gap
        (shift_rows(row_blocks(P, 3), d, basis), row_blocks(P, 2)),
        (shift_rows(row_blocks(P, 2), 1, basis), row_blocks(P, 3)),
    ]
    for rows_a, rows_b in cases:
        got = pair_blocks(u, rows_a, rows_b)
        want = _pair_blockwise(u, rows_a, rows_b, basis)
        assert got.shape == want.shape
        assert mk.max_abs(got - want) <= 1e-12 * mk.max_abs(want)


def test_system_from_rows_monic_means_identity_leading_blocks_exactly():
    from mvops import mpoly

    def system(lead):
        x, y = mpoly.linear(2, [lead, 0.0]), mpoly.linear(2, [0.0, 1.0], 3.0)
        return system_from_rows({(0, 0): mpoly.const(2), (1, 0): x, (0, 1): y}, 2, 1, "s")

    assert system(1.0).monic
    assert not system(1.0 + 1e-7).monic


def test_system_from_rows_rejects_a_term_above_the_row_degree():
    x, y = mpoly.linear(2, [1.0, 0.0]), mpoly.linear(2, [0.0, 1.0])
    rows = {(0, 0): mpoly.const(2), (1, 0): x}
    # terms of at most 1e-10 above the degree are dropped
    rows[(0, 1)] = mpoly.add(y, 1e-11 * mpoly.mul(x, x))
    system = system_from_rows(rows, 2, 1, "s")
    assert system.monic and not np.any(system.block(1, 0))
    rows[(0, 1)] = mpoly.add(y, 1e-9 * mpoly.mul(x, y))
    with pytest.raises(ValueError, match=r"row \(0, 1\) has degree 2 > 1"):
        system_from_rows(rows, 2, 1, "s")


def test_system_from_rows_names_the_first_row_and_its_first_degree_above_n():
    # one test per degree finds the fault; the search then names the first
    # row in order, and its degree whose first coefficient comes first
    # row-major: y^3 (entry [0, 3]) before x^2 (entry [2, 0])
    x, y = mpoly.linear(2, [1.0, 0.0]), mpoly.linear(2, [0.0, 1.0])
    rows = {(0, 0): mpoly.const(2),
            (1, 0): mpoly.add(x, mpoly.add(1e-9 * mpoly.mul(x, x),
                                           1e-9 * mpoly.mul(y, mpoly.mul(y, y)))),
            (0, 1): mpoly.add(y, 1e-9 * mpoly.mul(x, y))}
    with pytest.raises(ValueError, match=r"row \(1, 0\) has degree 3 > 1"):
        system_from_rows(rows, 2, 1, "s")
    rows[(1, 0)] = mpoly.add(x, 1e-11 * mpoly.mul(x, x))
    with pytest.raises(ValueError, match=r"row \(0, 1\) has degree 2 > 1"):
        system_from_rows(rows, 2, 1, "s")
    # a NaN above the degree is no coefficient above 1e-10, as before
    rows[(0, 1)] = np.array([[0.0, 1.0], [0.0, np.nan]])    # y + nan x y
    assert system_from_rows(rows, 2, 1, "s").monic


def test_system_from_rows_writes_negative_zero_as_zero():
    # x + (-0.0) + (-0.0) y: every zero coefficient of the rows is -0.0
    rows = {(0, 0): np.array([[1.0, -0.0]]), (1, 0): np.array([[-0.0, -0.0], [1.0, -0.0]]),
            (0, 1): np.array([[-0.0, 1.0], [-0.0, -0.0]])}
    system = system_from_rows(rows, 2, 1, "s")
    assert system.monic
    for n in range(2):
        for k in range(n + 1):
            assert not np.any(np.signbit(system.block(n, k)))


def _moments(u, top: int) -> np.ndarray:
    """Moments 0..top of a 1-d functional as one array."""
    return np.concatenate([u.moment_vector(m) for m in range(top + 1)])


@pytest.mark.parametrize("u,rec", [
    (moments.jacobi_functional_1d(0.0, 0.0), moments.jacobi_recurrence(6, 0.0, 0.0)),
    (moments.jacobi_functional_1d(1.5, 0.5), moments.jacobi_recurrence(6, 1.5, 0.5)),
    (moments.jacobi_functional_1d(-0.5, 2.0), moments.jacobi_recurrence(6, -0.5, 2.0)),
    (moments.jacobi_functional_1d(2.5, 1.5), moments.jacobi_recurrence(6, 2.5, 1.5)),
    (moments.laguerre_functional_1d(0.0), moments.laguerre_recurrence(6, 0.0)),
    (moments.laguerre_functional_1d(2.0), moments.laguerre_recurrence(6, 2.0)),
] + [(moments.chebyshev_functional_1d(k), moments.chebyshev_recurrence(6, k))
     for k in (1, 2, 3, 4)])
def test_recurrence_from_moments_matches_classical_recurrences(u, rec):
    got = construct.recurrence_from_moments(_moments(u, 12), label=u.label)
    assert got.N == 6 and np.isnan(got.b[6])   # b_6 would need moment 13
    assert got.label == f"recurrence({u.label})"
    np.testing.assert_allclose(got.b[:6], rec.b[:6], rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(got.c[1:], rec.c[1:], rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(got.norms(), rec.norms(), rtol=1e-10)
    for p, q in zip(got.monic_coeffs(), rec.monic_coeffs()):
        assert mk.max_abs(p - q) <= 1e-10 * max(1.0, mk.max_abs(q))


@pytest.mark.parametrize("shape", [(0,), (3, 3)])
def test_recurrence_from_moments_needs_a_nonempty_1d_array(shape):
    with pytest.raises(ValueError, match="nonempty 1-d array"):
        construct.recurrence_from_moments(np.ones(shape))


@pytest.mark.parametrize("u", [moments.jacobi_functional_1d(1.5, 0.5),
                               moments.laguerre_functional_1d(2.0),
                               moments.chebyshev_functional_1d(3)])
def test_recurrence_from_moments_fills_b_n_from_moment_2n_plus_1(u):
    N = 6
    got = construct.recurrence_from_moments(_moments(u, 2 * N + 1))
    longer = construct.recurrence_from_moments(_moments(u, 2 * N + 3))
    assert got.N == N and longer.N == N + 1
    assert got.b[N] == longer.b[N]
    np.testing.assert_array_equal(got.b, longer.b[:N + 1])
    np.testing.assert_array_equal(got.c, longer.c[:N + 1])


def test_recurrence_from_moments_checks_no_h_above_degree_n():
    # three nodes: h_3 = 0, which moments 0..5 reach only through b_2
    nodes, weights = np.array([-0.7, 0.1, 0.9]), np.array([0.5, 0.25, 0.25])
    mom = np.array([weights @ nodes**m for m in range(8)])
    rec = construct.recurrence_from_moments(mom[:6])
    assert rec.N == 2 and np.isfinite(rec.b).all()
    # the recurrence on the nodes' Jacobi matrix: b_0..b_2 are its diagonal,
    # whose trace is the sum of the nodes
    assert sum(rec.b) == pytest.approx(nodes.sum(), rel=1e-12)
    with pytest.raises(QuasiDefiniteFailure) as err:
        construct.recurrence_from_moments(mom[:7])
    assert err.value.degree == 3


def test_recurrence_from_moments_fails_where_gram_schmidt_does():
    # three nodes: quasi-definite through degree 2, degenerate at degree 3
    nodes, weights = np.array([-0.7, 0.1, 0.9]), np.array([0.5, 0.25, 0.25])
    u = moments.MomentFunctional(1, lambda a: float(weights @ nodes**a[0]), label="three")
    construct.recurrence_from_moments(_moments(u, 4))
    errors = []
    for build in (lambda: construct.recurrence_from_moments(_moments(u, 10), label=u.label),
                  lambda: gram_schmidt_monic(u, 5)):
        with pytest.raises(QuasiDefiniteFailure, match="three") as err:
            build()
        errors.append(err.value)
    assert [e.degree for e in errors] == [3, 3]
    assert errors[0].singular_values.shape == (1,)
    # a Krall functional degenerates at a predicted degree
    h = lambda m: sum(1.0 / i for i in range(1, m))
    v = moments.krall_laguerre_functional(0.0, 1.0 - 1.0 / h(4))
    with pytest.raises(QuasiDefiniteFailure) as err:
        construct.recurrence_from_moments(_moments(v, 12))
    assert err.value.degree == 3


def test_tensor_route_asks_no_moment_above_2n_plus_1():
    # the tensor route reads each factor's moments 0..2N+1 (b_N needs the
    # last one) and no higher, in construction and in compute_ttr
    def oracle(alpha):
        if alpha[0] > 9:
            raise AssertionError(f"moment {alpha[0]} asked")
        return 1.0 / (1.0 + alpha[0])   # Legendre moments on [0, 1]

    def legendre():
        return moments.MomentFunctional(1, oracle, label="legendre01")

    u = moments.tensor(legendre(), legendre())
    P, H = gram_schmidt_monic(u, 4)
    np.testing.assert_allclose(P.block(1, 0), [[-0.5], [-0.5]], rtol=1e-12)
    T = compute_ttr(P, u, H)
    # b_4 of the shifted Legendre weight on [0, 1] is 1/2
    np.testing.assert_allclose(np.diag(T.b(4, 1)), 0.5, rtol=1e-10)
    with pytest.raises(AssertionError, match="moment 10"):
        gram_schmidt_monic(moments.tensor(legendre(), legendre()), 5)


@pytest.mark.parametrize("rho", [RhoMap.sqrt_poly(1.0, 0.0, -1.0), RhoMap.linear(2.0, 0.5)])
def test_koornwinder_system_runs_no_block_gram_schmidt(monkeypatch, rho):
    calls = []
    for name in ("gram_schmidt_monic", "pair_blocks"):
        def counted(*args, real=getattr(construct, name), name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(construct, name, counted)
    system, _ = koornwinder_system(moments.jacobi_functional_1d(0.5, 0.5),
                                   moments.jacobi_functional_1d(1.0, 1.0), rho, 6)
    assert system.N == 6 and calls == []


@pytest.mark.parametrize("rho", [RhoMap.sqrt_poly(1.0, 0.0, -1.0), RhoMap.linear(2.0, 0.5)])
def test_koornwinder_system_creates_no_left_multiplied_functional(monkeypatch, rho):
    # the weights rho^(2k+1) w1 are read as combinations of w1's moments
    def refuse(self, *args, **kwargs):
        raise AssertionError("left-multiplied functional created")

    monkeypatch.setattr(moments._LeftMultiplied, "__init__", refuse)
    system, _ = koornwinder_system(moments.jacobi_functional_1d(0.5, 0.5),
                                   moments.jacobi_functional_1d(1.0, 1.0), rho, 6)
    assert system.N == 6


def test_to_monic_solves_each_degree_once_against_its_lower_blocks(monkeypatch):
    rho = RhoMap.sqrt_poly(1.0, 0.0, -1.0)
    system, _ = koornwinder_system(moments.jacobi_functional_1d(0.5, 0.5),
                                   moments.jacobi_functional_1d(0.0, 0.0), rho, 6)
    checks, solves = [], []
    rank, solve = mk.numeric_rank, np.linalg.solve

    def counted_rank(*args, **kwargs):
        checks.append(args[0].shape)
        return rank(*args, **kwargs)

    def counted_solve(a, b):
        solves.append(b.shape)
        return solve(a, b)

    monkeypatch.setattr(mk, "numeric_rank", counted_rank)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    mon = system.to_monic()
    assert checks == [(n + 1, n + 1) for n in range(1, 7)]
    basis = basis_for(2)
    assert solves == [(n + 1, basis.offset(n)) for n in range(1, 7)]
    monkeypatch.undo()
    # per-block solves are the reference; a one-column right-hand side takes
    # another LAPACK kernel, so they agree to rounding, not bit for bit
    for n in range(7):
        for k in range(n):
            want = mk.solve(system.leading(n), system.block(n, k))
            np.testing.assert_allclose(mon.block(n, k), want, rtol=1e-13, atol=1e-15)


def _count_calls(monkeypatch, owner, name: str) -> list:
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_gram_schmidt_takes_one_svd_per_degree(monkeypatch):
    # one rank verdict (mk.singular_values call) per degree, the
    # quasi-definiteness check; the projections solve against accepted
    # blocks with no second one, and the tensor route takes none at all
    verdicts = _count_calls(monkeypatch, mk, "singular_values")
    svds = _count_calls(monkeypatch, np.linalg, "svd")
    N = 6
    gram_schmidt_monic(moments.simplex_functional((0.5, 0.5, 0.5)), N)
    assert len(verdicts) == N + 1
    dense = len(svds)
    gram_schmidt_monic(moments.cube_jacobi_functional((0.5, 0.0), (0.0, 0.5)), N)
    assert len(verdicts) == N + 1 and len(svds) == dense


def test_tensor_gram_schmidt_refuses_norms_out_of_the_floats():
    # each factor's norms are finite (h_0 = Gamma(101) ~ 9e157), their
    # products are not
    f = moments.laguerre_functional_1d(100.0)
    assert np.isfinite(f.recurrence(3).norms()).all()
    with pytest.raises(ValueError, match="finite"):
        gram_schmidt_monic(moments.tensor(f, f, label="big"), 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_append_diagonal_refuses_non_finite_values(bad, monkeypatch):
    # the tensor route's diagonal Gram blocks (once built by
    # GramBlocks.append_diagonal) refuse a non-finite factor norm
    pair = construct.pair_blocks
    first = []

    def with_bad_norm(f, rows_a, rows_b):
        G = pair(f, rows_a, rows_b)
        if not first:
            first.append(f)
            G[-1, -1] = bad
        return G

    monkeypatch.setattr(construct, "pair_blocks", with_bad_norm)
    f = moments.laguerre_functional_1d(0.5)
    with pytest.raises(ValueError, match="finite"):
        gram_schmidt_monic(moments.tensor(f, f, label="bad norm"), 2)
    assert first


@pytest.mark.parametrize("d", [1, 2, 3])
def test_shift_rows_equals_the_shift_matrix_product(d):
    basis = basis_for(d)
    rng = np.random.default_rng(d)
    rows = {k: rng.standard_normal((3, basis.size(k))) for k in range(5)}
    for i in range(1, d + 1):
        got = shift_rows(rows, i, basis)
        assert sorted(got) == list(range(1, 6))
        for k, g in rows.items():
            assert np.array_equal(got[k + 1], g @ basis.shift_matrix(k, i))
    # a non-finite entry stays in its own column
    rows[2][1, 0] = np.nan
    got = shift_rows(rows, 1, basis)[3]
    assert np.count_nonzero(np.isnan(got)) == 1


def _block_route(u):
    """The same moments as a plain functional, which takes block Gram-Schmidt."""
    return moments.MomentFunctional(u.d, u.moment, label=u.label)


@given(data=st.data(), d=st.integers(2, 3), N=st.integers(0, 6))
@settings(max_examples=25, deadline=None)
def test_tensor_route_matches_block_gram_schmidt(data, d, N):
    exponent = st.floats(-0.5, 1.5, exclude_min=True, exclude_max=True)
    a, b = (data.draw(st.lists(exponent, min_size=d, max_size=d)) for _ in range(2))
    _assert_tensor_route_matches_block_route(a, b, N)


@pytest.mark.parametrize("a", [-0.49999999999999994, -0.4999999999999999])
def test_tensor_route_on_jacobi_exponents_just_above_minus_one_half(a):
    # a Hypothesis example of the test above: equal exponents whose
    # scipy Gauss-Jacobi rule divides 0 by 0
    _assert_tensor_route_matches_block_route((0.0, a), (0.0, a), 4)


def _assert_tensor_route_matches_block_route(a, b, N):
    u = moments.cube_jacobi_functional(a, b)
    P, H = gram_schmidt_monic(u, N)
    Pb, Hb = gram_schmidt_monic(_block_route(u), N)
    assert P.monic and P.label == Pb.label
    for n in range(N + 1):
        for k in range(n + 1):
            scale = max(1.0, mk.max_abs(Pb.block(n, k)))
            assert mk.max_abs(P.block(n, k) - Pb.block(n, k)) <= 1e-9 * scale
        diag = np.diag(Hb.h(n))
        assert np.array_equal(H.h(n), np.diag(np.diag(H.h(n))))
        assert mk.max_abs(np.diag(H.h(n)) - diag) <= 1e-9 * mk.max_abs(diag)
        assert mk.max_abs(Hb.h(n) - np.diag(diag)) <= 1e-9 * mk.max_abs(Hb.h(n))


def test_tensor_route_reaches_degree_12_on_tensor_laguerre():
    kappa = (0.0, 1.0, 0.5)
    u = moments.multiple_laguerre_functional(kappa)
    with pytest.raises(QuasiDefiniteFailure) as err:
        gram_schmidt_monic(_block_route(u), 12)
    assert err.value.degree == 8
    P, H = gram_schmidt_monic(u, 12)
    exact = construct.tensor_system(
        [moments.laguerre_recurrence(12, k).monic_coeffs() for k in kappa], 12, "exact")
    assert P.monic and exact.monic
    for n in range(13):
        assert np.all(np.diag(H.h(n)) > 0)
        for k in range(n + 1):
            assert mk.max_abs(P.block(n, k) - exact.block(n, k)) <= 1e-5 * mk.max_abs(
                exact.block(n, k))


def _three_nodes():
    # quasi-definite through degree 2, degenerate at degree 3
    nodes, weights = np.array([-0.7, 0.1, 0.9]), np.array([0.5, 0.25, 0.25])
    return moments.MomentFunctional(1, lambda a: float(weights @ nodes**a[0]), label="three")


def test_failing_factor_decides_the_tensor_degree():
    jac, two = moments.jacobi_functional_1d(0.5, 0.0), moments.MomentFunctional(
        1, lambda a: 0.5 * ((-1.0) ** a[0] + 1.0), label="two")   # degenerate at 2
    for factors, degree in (((jac, _three_nodes()), 3), ((_three_nodes(), jac, two), 2)):
        u = moments.tensor(*factors, label="mixed")
        for functional in (u, _block_route(u)):
            with pytest.raises(QuasiDefiniteFailure, match="'mixed'") as err:
                gram_schmidt_monic(functional, 5)
            assert err.value.degree == degree
    gram_schmidt_monic(moments.tensor(jac, _three_nodes()), 2)


@pytest.mark.parametrize("degrees", [(7,), (5, 6), (4, 3, 5)])
def test_tensor_system_equals_the_outer_product_assembly(degrees):
    rng = np.random.default_rng(len(degrees))
    N = min(degrees)
    axis_polys = [[np.append(rng.standard_normal(m), 1.0 if m % 2 else -2.0)
                   for m in range(top + 1)] for top in degrees]
    rows = {}
    for n in range(N + 1):
        for nu in basis_for(len(degrees)).indices(n):
            rows[nu] = functools.reduce(np.multiply.outer,
                                        (p[i] for p, i in zip(axis_polys, nu)))
    want = system_from_rows(rows, len(degrees), N, "outer")
    got = construct.tensor_system(axis_polys, N, "gather")
    assert not got.monic and not want.monic   # leading coefficients -2 on even degrees
    for n in range(N + 1):
        for k in range(n + 1):
            assert got.block(n, k).tobytes() == want.block(n, k).tobytes()


def _ix_tensor_blocks(tables, N):
    """tensor_system's blocks by the np.ix_ gather and out-of-place products."""
    d = len(tables)
    basis = basis_for(d)
    columns = np.vstack([basis.exponents(k) for k in range(N + 1)])
    blocks = []
    for n in range(N + 1):
        nu, alpha = basis.exponents(n), columns[:basis.offset(n + 1)]
        full = tables[0][np.ix_(nu[:, 0], alpha[:, 0])]
        for i in range(1, d):
            full = full * tables[i][np.ix_(nu[:, i], alpha[:, i])]
        full += 0.0
        blocks.append([full[:, basis.degree_slice(k, k)] for k in range(n + 1)])
    return blocks


@given(d=st.integers(1, 4), N=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_tensor_system_take_gather_equals_the_ix_gather_bit_for_bit(d, N, seed):
    rng = np.random.default_rng(seed)
    # signed entries with exact zeros, so products make -0.0 before the final + 0.0
    tables = [np.tril(rng.standard_normal((N + 1, N + 1))
                      * rng.integers(0, 2, (N + 1, N + 1))) for _ in range(d)]
    got = construct.tensor_system(tables, N, "take")
    for grow, wrow in zip(got.blocks, _ix_tensor_blocks(tables, N)):
        assert all(mk.same_bits(g, w) for g, w in zip(grow, wrow))


def test_tensor_system_blocks_are_read_only():
    u = moments.cube_jacobi_functional((0.5, 0.0, -0.5), (0.0, 0.5, 0.0))
    P, _ = gram_schmidt_monic(u, 4)
    for row in P.blocks:
        for g in row:
            assert not g.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                g[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        P.blocks[3][1] *= 2.0


def test_copies_of_a_system_are_built_again_from_its_rows():
    u = moments.cube_jacobi_functional((0.5, 0.0, -0.5), (0.0, 0.5, 0.0))
    P, _ = gram_schmidt_monic(u, 4)
    for S in (copy.copy(P), copy.deepcopy(P), pickle.loads(pickle.dumps(P))):
        assert S.monic and S.label == P.label and S.N == P.N
        assert all(not row.flags.writeable for row in S.rows)
        assert all(mk.same_bits(a, b) for a, b in zip(S.rows, P.rows))
    # neither a block nor the rows can be rebound
    with pytest.raises(TypeError):
        P.blocks[3][1] = P.blocks[3][1].copy()
    with pytest.raises(AttributeError):
        P.rows = copy.deepcopy(P).rows
    # a system cut to fewer degrees keeps its rows
    cut = construct.PolySystem(P.d, P.rows[:3])
    assert cut.N == 2 and all(a is b for a, b in zip(cut.rows, P.rows))


def test_a_write_into_a_leading_block_is_refused_so_monic_cannot_go_stale():
    P, _ = gram_schmidt_monic(moments.disk_functional(0.5), 3)
    with pytest.raises(ValueError, match="read-only"):
        P.blocks[2][2][0, 0] = 2.0
    assert P.monic and construct.PolySystem(P.d, P.rows).monic
    # a caller's array is kept, so it is made read-only too
    row = np.hstack([np.zeros((2, 1)), np.eye(2)])
    construct.PolySystem(2, [np.eye(1), row])
    with pytest.raises(ValueError, match="read-only"):
        row[0, 1] = 2.0


def test_rows_and_blocks_share_memory_and_cannot_be_rebound():
    P, _ = gram_schmidt_monic(moments.disk_functional(0.5), 4)
    basis = basis_for(2)
    assert isinstance(P.rows, tuple) and isinstance(P.blocks, tuple)
    for n, row in enumerate(P.rows):
        assert row.shape == (basis.size(n), basis.offset(n + 1)) and row.flags.c_contiguous
        assert isinstance(P.blocks[n], tuple) and len(P.blocks[n]) == n + 1
        for k, g in enumerate(P.blocks[n]):
            assert np.shares_memory(g, row)
            assert mk.same_bits(g, np.ascontiguousarray(row[:, basis.degree_slice(k, k)]))
    for name in ("rows", "blocks"):
        with pytest.raises(AttributeError):
            setattr(P, name, ())
    with pytest.raises(TypeError):
        P.rows[2] = P.rows[2].copy()
    with pytest.raises(TypeError):
        P.blocks[2][1] = P.blocks[2][1].copy()
    # rows and blocks are read-only, also in a copy
    for S in (P, copy.copy(P), copy.deepcopy(P), pickle.loads(pickle.dumps(P))):
        with pytest.raises(ValueError, match="read-only"):
            S.blocks[2][1][0, 1] += 7.0
        with pytest.raises(ValueError, match="read-only"):
            S.rows[2][0, 0] = 7.0


def test_a_degree_is_one_array_or_its_blocks_laid_side_by_side():
    rng = np.random.default_rng(4)
    lower = rng.standard_normal((3, 3))
    row = np.hstack([lower, np.eye(3)])
    given = construct.PolySystem(2, [np.eye(1), [lower[:2, :1], np.eye(2)],
                                     [lower[:, :1], lower[:, 1:], np.eye(3)]], "blocks")
    kept = construct.PolySystem(2, [np.eye(1), given.rows[1], row])
    assert given.monic and kept.monic and given.label == "blocks"
    assert kept.rows[2] is row and mk.same_bits(given.rows[2], row)
    # monic is read off the leading blocks, exactly; the kept row is
    # read-only, so the changed one is a copy
    row = row.copy()
    row[2, 5] = 1.0 + 2.0 ** -52
    assert not construct.PolySystem(2, [np.eye(1), given.rows[1], row]).monic
    with pytest.raises(ValueError, match=r"^degree 1 has blocks of shapes \[\(2, 1\), \(3, 2\)\]"):
        construct.PolySystem(2, [np.eye(1), [np.zeros((2, 1)), np.zeros((3, 2))]])
    # widths that add up but do not fit their degrees
    with pytest.raises(ValueError, match=r"^degree 1 has blocks of shapes \[\(2, 2\), \(2, 1\)\]"):
        construct.PolySystem(2, [np.eye(1), [np.zeros((2, 2)), np.zeros((2, 1))]])
    with pytest.raises(ValueError, match=r"degree 2 has coefficients of shape \(3, 5\)"):
        construct.PolySystem(2, [np.eye(1), given.rows[1], row[:, :5]])


# -- whole-system pairing -----------------------------------------------------


def _system_of(kind, param, N):
    """A functional and an orthogonal system of it through degree N."""
    if kind == "disk":
        u = moments.disk_functional(param)
        return u, gram_schmidt_monic(u, N)[0]
    if kind == "simplex":
        kappa = (param, 0.5, 0.75)
        return moments.simplex_functional(kappa), simplex_orthonormal_system(kappa, N)
    u = moments.cube_jacobi_functional((param, 0.0), (0.5, param))
    return u, gram_schmidt_monic(u, N)[0]


@given(kind=st.sampled_from(["disk", "simplex", "cube"]), param=st.floats(0.0, 1.5),
       N=st.integers(0, 8), data=st.data())
@settings(max_examples=30, deadline=None)
def test_pair_systems_blocks_equal_inner_block(kind, param, N, data):
    u, P = _system_of(kind, param, N)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # a second system on the same monomials, through a degree of its own:
    # each degree vector mixed at random
    Q = construct.PolySystem(P.d, [rng.standard_normal((P.size(n),) * 2) @ P.rows[n]
                                   for n in range(data.draw(st.integers(0, N)) + 1)])
    basis = u.basis
    # the pairing scale: the same pairings with every coefficient and moment
    # replaced by its magnitude, the size of the terms before cancellation
    u_abs = moments.MomentFunctional(u.d, lambda alpha: abs(u.moment(alpha)))

    def magnitudes(S):
        return construct.PolySystem(S.d, [np.abs(row) for row in S.rows])

    for left, right in ((P, Q), (Q, P), (P, P)):
        got = construct.pair_systems(u, left, right)
        assert got.shape == (basis.offset(left.N + 1), basis.offset(right.N + 1))
        want = {(n, m): inner_block(u, left, n, right, m)
                for n in range(left.N + 1) for m in range(right.N + 1)}
        scale = max(mk.max_abs(inner_block(u_abs, magnitudes(left), n, magnitudes(right), m))
                    for n, m in want)
        for (n, m), w in want.items():
            block = got[basis.degree_slice(n, n), basis.degree_slice(m, m)]
            assert mk.max_abs(block - w) <= 1e-12 * scale, (n, m)


def _count_pairings(monkeypatch) -> list:
    calls = []

    def counted(*args, real=construct.pair_blocks):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(construct, "pair_blocks", counted)
    return calls


def test_gram_blocks_pair_once_and_read_the_orthogonality_residual(monkeypatch):
    # the monic system of one disk weight paired against another: far from orthogonal
    u, N = moments.disk_functional(1.5), 6
    P, _ = gram_schmidt_monic(moments.disk_functional(0.5), N)
    want = [inner_block(u, P, n, P, n) for n in range(N + 1)]
    offdiag = mk.worst(mk.max_abs(inner_block(u, P, n, P, m))
                       for n in range(N + 1) for m in range(n))
    calls = _count_pairings(monkeypatch)
    H = gram_blocks(u, P)
    assert len(calls) == 1
    for n in range(N + 1):
        assert mk.max_abs(H.h(n) - want[n]) <= 1e-12 * H.scale()
    assert H.offdiag_residual == pytest.approx(offdiag / H.scale(), rel=1e-12)
    assert H.offdiag_residual > 1e-3
    assert np.isnan(GramBlocks([np.eye(1)]).offdiag_residual)   # not measured: fails closed


def _orthogonality_residual_per_degree(u, P):
    """orthogonality_residual with one graded_block gather per degree: the
    reference its single gather keeps bit for bit."""
    basis = u.basis
    ratios = []
    for n in range(1, P.N + 1):
        s = P.rows[n] @ u.graded_block(0, n, 0, n)
        low, top = mk.max_abs(s[:, :basis.offset(n)]), mk.max_abs(s[:, basis.offset(n):])
        ratios.append(low / top if top > 0.0 else np.nan)
    return mk.worst(ratios)


@pytest.mark.parametrize("kind", ["disk", "simplex-d3", "tensor-d4"])
def test_orthogonality_residual_equals_the_per_degree_gather_bit_for_bit(kind):
    # the system's own functional (near orthogonal) and another one (far from it)
    make, N = {"disk": (lambda p: moments.disk_functional(p), 8),
               "simplex-d3": (lambda p: moments.simplex_functional((p, 1.0, 0.0, 0.5)), 4),
               "tensor-d4": (lambda p: moments.cube_jacobi_functional(
                   (p, -0.5, 0.0, 1.0), (0.5, 0.0, 1.0, p)), 8)}[kind]
    P, _ = gram_schmidt_monic(make(0.5), N)
    for param in (0.5, 1.5):
        got = construct.orthogonality_residual(make(param), P)
        want = _orthogonality_residual_per_degree(make(param), P)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), param
        assert (got < 1e-10) == (param == 0.5)


@pytest.mark.parametrize("u", [moments.disk_functional(0.5),
                               moments.simplex_functional((0.5, 0.5, 0.5)),
                               moments.simplex_functional((0.5, 0.5, 0.5, 0.5))])
def test_block_gram_schmidt_pairs_at_most_twice_per_degree(monkeypatch, u):
    N = 5
    calls = _count_pairings(monkeypatch)
    gram_schmidt_monic(u, N)
    assert len(calls) <= 2 * (N + 1)


@pytest.mark.parametrize("kappa, failing", [((0.5, 0.5, 0.5), 7), ((0.5, 0.5, 0.5, 0.5), 6)])
def test_simplex_gates_keep_their_failing_degrees(kappa, failing):
    u = moments.simplex_functional(kappa)
    gram_schmidt_monic(u, failing - 1)
    with pytest.raises(QuasiDefiniteFailure) as err:
        gram_schmidt_monic(u, failing)
    assert err.value.degree == failing
