import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from mvops import construct, matrixkit as mk, moments
from mvops.construct import (GramBlocks, NotPositiveDefiniteError, QuasiDefiniteFailure,
                             RhoMap, gram_blocks, gram_offdiag_residual,
                             gram_schmidt_monic, inner_block, koornwinder_system,
                             orthonormalize, system_from_rows)
from mvops.indexing import basis_for

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
    P, H = gram_schmidt_monic(functional, 5)
    assert gram_offdiag_residual(functional, P, H) <= 1e-8


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
    X = construct.PolySystem(
        2, [[np.eye(1)], [np.zeros((2, 1)), np.eye(2)]], monic=True
    )
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
    from mvops.construct import pair_blocks, shift_rows
    from mvops.indexing import basis_for

    basis = basis_for(1)
    for n in range(5):
        shifted = shift_rows(Pn.row_blocks(n), 1, basis)
        a_val = pair_blocks(u, shifted, Pn.row_blocks(n + 1), basis)[0, 0]
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
    from mvops import mpoly
    from mvops.indexing import basis_for

    w1 = moments.jacobi_functional_1d(0.0, 0.0)
    w2 = moments.jacobi_functional_1d(1.0, 1.0)
    N = 4
    sys2, func = koornwinder_system(w1, w2, RhoMap.linear(1.0), N)
    assert sys2.monic
    q, _ = gram_schmidt_monic(w1, N)
    r, _ = gram_schmidt_monic(w2, N)
    basis = basis_for(2)
    for n in range(N + 1):
        for k in range(n + 1):
            qc = np.concatenate([q.block(n - k, m)[0] for m in range(n - k + 1)])
            rc = np.concatenate([r.block(k, m)[0] for m in range(k + 1)])
            prod = mpoly.mul(mpoly.from_1d(qc, 0, 2), mpoly.from_1d(rc, 1, 2))
            for m_deg, coeffs in mpoly.to_blocks(prod, basis).items():
                assert mk.max_abs(sys2.block(n, m_deg)[k] - coeffs) <= 1e-12
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


def test_koornwinder_disk_orthogonality():
    rho = RhoMap.sqrt_poly(1.0, 0.0, -1.0)
    w2 = moments.jacobi_functional_1d(0.0, 0.0)
    sys2, func = koornwinder_system(
        moments.jacobi_functional_1d(0.5, 0.5), w2, rho, 4
    )
    assert gram_offdiag_residual(func, sys2, gram_blocks(func, sys2)) <= 1e-10
    # the returned functional matches the conventional disk moments up to scale
    disk = moments.disk_functional(0.0, normalized=False)
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
    assert gram_offdiag_residual(func, mon, gram_blocks(func, mon)) <= 1e-10


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
    from mvops.construct import pair_blocks, shift_rows
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
        (shift_rows(P.row_blocks(3), d, basis), P.row_blocks(2)),
        (shift_rows(P.row_blocks(2), 1, basis), P.row_blocks(3)),
    ]
    for rows_a, rows_b in cases:
        got = pair_blocks(u, rows_a, rows_b, basis)
        want = _pair_blockwise(u, rows_a, rows_b, basis)
        assert got.shape == want.shape
        assert mk.max_abs(got - want) <= 1e-12 * mk.max_abs(want)


def test_solve_right_matches_solve():
    u = moments.cube_jacobi_functional((0.5, 0.0, -0.5), (0.0, 0.5, 0.0))
    _, H = gram_schmidt_monic(u, 4)
    rng = np.random.default_rng(11)
    unsymmetric = rng.standard_normal((6, 6)) + 6 * np.eye(6)
    blocks = GramBlocks(list(H.blocks) + [unsymmetric])
    for n in range(blocks.N + 1):
        s = rng.standard_normal((3, blocks.h(n).shape[0]))
        want = mk.solve(blocks.h(n), s.T).T
        for _ in range(2):   # second call skips the rank check
            got = blocks.solve_right(n, s)
            assert mk.max_abs(got - want) <= 1e-14 * mk.max_abs(want)


def test_solve_right_checks_rank_once_per_degree(monkeypatch):
    checks = []
    rank = mk.numeric_rank

    def counted_rank(*args, **kwargs):
        checks.append(args)
        return rank(*args, **kwargs)

    monkeypatch.setattr(mk, "numeric_rank", counted_rank)
    H = GramBlocks([np.diag([2.0, 3.0]), np.ones((2, 2))])
    for _ in range(3):
        H.solve_right(0, np.eye(2))
    assert len(checks) == 1
    with pytest.raises(mk.SingularMatrixError):
        H.solve_right(1, np.eye(2))


def test_system_from_rows_monic_means_identity_leading_blocks_exactly():
    from mvops import mpoly

    def system(lead):
        x, y = mpoly.linear(2, [lead, 0.0]), mpoly.linear(2, [0.0, 1.0], 3.0)
        return system_from_rows({(0, 0): mpoly.const(2), (1, 0): x, (0, 1): y}, 2, 1, "s")

    assert system(1.0).monic
    assert not system(1.0 + 1e-7).monic
