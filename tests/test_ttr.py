import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvops import matrixkit as mk, moments
from mvops.checks import Check
from mvops.construct import (GramBlocks, gram_blocks, gram_schmidt_monic, inner_block,
                             orthonormalize, pair_blocks, shift_rows)
from mvops.indexing import basis_for, joint_matrix
from mvops.linrel import counterexample
from mvops.ttr import (ThreeTermData, compute_ttr, fit_ttr, generate_from_ttr,
                       joint_shift_lstsq, rank_family, validate_rank_conditions)


@pytest.fixture(scope="module")
def disk_system():
    u = moments.disk_functional(0.0)
    P, H = gram_schmidt_monic(u, 5)
    return u, P, H


def test_monic_a_blocks_are_structural_shifts(disk_system):
    u, P, H = disk_system
    T = compute_ttr(P, u, H)
    basis = basis_for(2)
    for n in range(5):
        for i in (1, 2):
            assert np.array_equal(T.a(n, i), basis.shift_matrix(n, i))


def test_structural_a_blocks_are_read_only():
    # they are the basis's shared shift matrices, so an edit would reach
    # every later caller
    u = moments.cube_jacobi_functional((0.5, 0.0), (0.0, 0.5))
    P, H = gram_schmidt_monic(u, 3)
    T = compute_ttr(P, u, H)
    with pytest.raises(ValueError):
        T.A[1][0] *= 2.0
    np.testing.assert_array_equal(basis_for(2).shift_matrix(1, 1), [[1, 0, 0], [0, 1, 0]])


def test_centered_weight_has_zero_diagonal_blocks():
    # brute-force oracle: all odd moments vanish, so the diagonal pairing
    # <u, x_i P_n P_n^t> contracts odd-degree monomials only
    u = moments.product_chebyshev_functional(2)
    P, H = gram_schmidt_monic(u, 4)
    T = compute_ttr(P, u, H)
    for n in range(5):
        for i in (1, 2):
            assert mk.max_abs(T.b(n, i)) <= 1e-12


def test_orthonormal_c_is_a_transposed():
    u = moments.cube_jacobi_functional((0.0, 0.0), (0.0, 0.0))
    P, H = gram_schmidt_monic(u, 5)
    Pn = orthonormalize(P, H)
    Hn = GramBlocks([inner_block(u, Pn, n, Pn, n) for n in range(6)])
    T = compute_ttr(Pn, u, Hn)
    for n in range(1, 5):
        for i in (1, 2):
            assert mk.max_abs(T.c(n, i) - T.a(n - 1, i).T) <= 1e-8


def test_compute_ttr_rejects_non_orthogonal_input():
    u = moments.disk_functional(0.0)
    P, H = gram_schmidt_monic(u, 4)
    broken = [[b.copy() for b in row] for row in P.blocks]
    broken[3][0] = broken[3][0] + 0.05
    from mvops.construct import PolySystem

    bad = PolySystem(2, broken, monic=True)
    with pytest.raises(ValueError):
        compute_ttr(bad, u, H)


@pytest.mark.parametrize("functional", [
    moments.disk_functional(0.0),
    moments.cube_jacobi_functional((0.0, 0.0), (0.0, 0.0)),
    moments.product_chebyshev_functional(2),
    moments.simplex_functional((0.5, 0.5, 0.5)),
    moments.simplex_functional((0.5, 0.5, 0.5, 0.5)),
    moments.multiple_laguerre_functional((0.0, 1.0)),
    moments.tensor(moments.krall_laguerre_functional(1.0, 1.0),
                   moments.laguerre_functional_1d(0.0)),
    moments.tensor(moments.krall_jacobi_functional(1.0, 0.0, 1.0),
                   moments.jacobi_functional_1d(0.0, 0.0)),
])
def test_forward_generation_roundtrip(functional):
    # extraction followed by regeneration is the identity across the catalog
    N = 5 if functional.d == 2 else 4
    P, H = gram_schmidt_monic(functional, N)
    T = compute_ttr(P, functional, H)
    G, residuals = generate_from_ttr(T)
    scale = max(mk.max_abs(P.block(n, k)) for n in range(N + 1) for k in range(n + 1))
    assert np.max(residuals) <= 1e-8 * max(scale, 1.0)
    for n in range(G.N + 1):
        for k in range(n + 1):
            gap = mk.max_abs(G.block(n, k) - P.block(n, k))
            assert gap <= 1e-8 * max(scale, 1.0)


def test_forward_generation_univariate_reduces_to_scalar_recurrence():
    rec = moments.jacobi_recurrence(5, 0.5, 1.5)
    basis = basis_for(1)
    A = [[basis.shift_matrix(n, 1)] for n in range(5)]
    B = [[np.array([[rec.b[n]]])] for n in range(6)]
    C: list = [None] + [[np.array([[rec.c[n]]])] for n in range(1, 6)]
    T = ThreeTermData(1, A, B, C)
    G, residuals = generate_from_ttr(T)
    assert np.max(residuals) <= 1e-13
    expected = rec.monic_coeffs()
    for n in range(6):
        got = np.concatenate([G.block(n, k)[0] for k in range(n + 1)])
        np.testing.assert_allclose(got, expected[n], atol=1e-12)


def test_forward_generation_flags_incompatible_blocks():
    u = moments.disk_functional(0.0)
    P, H = gram_schmidt_monic(u, 4)
    T = compute_ttr(P, u, H)
    T.B[1][0] = T.B[1][0] + 0.1
    _, residuals = generate_from_ttr(T)
    assert np.max(residuals) > 1e-4


def test_forward_generation_reports_nan_blocks_as_nan():
    u = moments.disk_functional(0.0)
    P, H = gram_schmidt_monic(u, 4)
    T = compute_ttr(P, u, H)
    T.B[2][0] = T.B[2][0].copy()
    T.B[2][0][1, 1] = np.nan
    _, residuals = generate_from_ttr(T)
    assert np.all(np.isfinite(residuals[:2]))
    assert np.isnan(residuals[2])


def test_forward_generation_requires_structural_a():
    u = moments.disk_functional(0.0)
    P, H = gram_schmidt_monic(u, 3)
    T = compute_ttr(P, u, H)
    T.A[0][0] = 2.0 * T.A[0][0]
    with pytest.raises(ValueError):
        generate_from_ttr(T)


def test_rank_conditions_pass_for_quasi_definite_families(disk_system):
    u, P, H = disk_system
    T = compute_ttr(P, u, H)
    report = validate_rank_conditions(T)
    assert report.ok
    assert report.first_failure() is None


def test_rank_conditions_fail_for_zero_block():
    u = moments.disk_functional(0.0)
    P, H = gram_schmidt_monic(u, 3)
    T = compute_ttr(P, u, H)
    T.C[2][0] = np.zeros_like(T.C[2][0])
    report = validate_rank_conditions(T)
    assert not report.ok
    first = report.first_failure()
    assert (first.name, first.degree, first.direction) == ("C", 2, 1)
    assert first.rank == 0


def test_rank_report_without_checks_fails():
    T = ThreeTermData(2, [], [[np.zeros((1, 1)), np.zeros((1, 1))]], [None])
    report = validate_rank_conditions(T)
    assert report.checks == [] and not report.ok


def test_counterexample_recurrence_is_consistent():
    combined, _ = counterexample(8)
    _, residuals = generate_from_ttr(combined, 8)
    assert np.max(residuals) <= 1e-12


def test_fit_recovers_computed_blocks(disk_system):
    u, P, H = disk_system
    T = compute_ttr(P, u, H)
    fitted, residuals = fit_ttr(P)
    assert max(residuals.values()) <= 1e-9
    for n in range(4):
        for i in (1, 2):
            assert mk.max_abs(fitted.b(n, i) - T.b(n, i)) <= 1e-8
            if n >= 1:
                assert mk.max_abs(fitted.c(n, i) - T.c(n, i)) <= 1e-8


def test_fit_detects_broken_recurrence():
    u = moments.disk_functional(0.0)
    P, _ = gram_schmidt_monic(u, 4)
    rng = np.random.default_rng(11)
    broken = [[b.copy() for b in row] for row in P.blocks]
    broken[2][0] = broken[2][0] + rng.standard_normal(broken[2][0].shape)
    from mvops.construct import PolySystem

    bad = PolySystem(2, broken, monic=True)
    _, residuals = fit_ttr(bad)
    assert max(residuals.values()) > 1e-3


def test_fit_univariate_chebyshev_matches_classical():
    u = moments.chebyshev_functional_1d(1)
    P, _ = gram_schmidt_monic(u, 6)
    fitted, residuals = fit_ttr(P)
    assert max(residuals.values()) <= 1e-10
    rec = moments.chebyshev_recurrence(6, 1)
    for n in range(5):
        assert fitted.b(n, 1)[0, 0] == pytest.approx(rec.b[n], abs=1e-10)
        if n >= 1:
            assert fitted.c(n, 1)[0, 0] == pytest.approx(rec.c[n], abs=1e-10)


def test_fit_requires_monic():
    u = moments.disk_functional(0.0)
    P, H = gram_schmidt_monic(u, 3)
    with pytest.raises(ValueError):
        fit_ttr(orthonormalize(P, H))


@given(d=st.integers(1, 4), n=st.integers(0, 6), cols=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1), compatible=st.booleans())
@settings(max_examples=80, deadline=None)
def test_joint_shift_closed_form_equals_lstsq(d, n, cols, seed, compatible):
    basis = basis_for(d)
    J = basis.joint_shift(n)
    rng = np.random.default_rng(seed)
    if compatible:
        stacked = J @ rng.standard_normal((basis.size(n + 1), cols))
    else:
        stacked = rng.standard_normal((J.shape[0], cols)) * 10.0 ** rng.integers(-3, 4)
    rhs = np.split(stacked, d)
    g, defect = joint_shift_lstsq(basis, n, rhs)
    want = np.linalg.lstsq(J, stacked, rcond=None)[0]
    assert mk.max_abs(g - want) <= 1e-12 * mk.max_abs(want)
    want_defect = mk.max_abs(J @ want - stacked)
    assert abs(defect - want_defect) <= 1e-12 * mk.max_abs(stacked)


def test_forward_generation_runs_no_lstsq(monkeypatch):
    u = moments.cube_jacobi_functional((0.5, 0.0, -0.5), (0.0, 0.5, 0.0))
    P, H = gram_schmidt_monic(u, 5)
    T = compute_ttr(P, u, H)
    calls = []
    real = np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    G, residuals = generate_from_ttr(T)
    assert G.N == 5 and calls == []
    assert np.max(residuals) <= 1e-10


@pytest.mark.parametrize("u, N", [
    (moments.cube_jacobi_functional((0.5, -0.5, 0.0), (0.0, 0.5, 1.0)), 5),
    (moments.simplex_functional((0.5, 0.5, 0.5)), 3),
])
def test_compute_ttr_matches_per_direction_pairing(u, N):
    # the shared per-degree factor gives what one pairing and one solve per
    # direction give: B = <u, x_i P_n P_n^t> H_n^-1, C likewise with P_(n-1).
    # Summing in another order parts the two by the raw-moment cancellation,
    # which grows with the degree (simplex d=2: 4e-9 relative at degree 6),
    # so the 1e-12 bar is held where that cancellation stays below it
    P, H = gram_schmidt_monic(u, N)
    T = compute_ttr(P, u, H)
    basis = basis_for(u.d)
    for n in range(N + 1):
        for i in range(1, u.d + 1):
            shifted = shift_rows(P.row_blocks(n), i, basis)
            want_b = H.solve_right(n, pair_blocks(u, shifted, P.row_blocks(n)))
            assert mk.max_abs(T.b(n, i) - want_b) <= 1e-12 * mk.max_abs(want_b)
            if n >= 1:
                want_c = H.solve_right(n - 1, pair_blocks(u, shifted, P.row_blocks(n - 1)))
                assert mk.max_abs(T.c(n, i) - want_c) <= 1e-12 * mk.max_abs(want_c)


def _count_svds(monkeypatch) -> list:
    calls = []
    real = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def test_non_monic_a_blocks_take_one_solve_per_degree(monkeypatch):
    # A_(n,i) G_(n+1) = G_n L_(n,i) for the leading blocks G; one stacked
    # solve per degree gives the per-direction solves' blocks
    u = moments.disk_functional(0.5)
    P, H = gram_schmidt_monic(u, 6)
    O = orthonormalize(P, H)
    HO = gram_blocks(u, O)
    calls = _count_svds(monkeypatch)
    T = compute_ttr(O, u, HO)
    # one rank verdict per Gram block H_0..H_6, one per leading block G_1..G_6
    assert len(calls) == 7 + 6
    basis = basis_for(2)
    for n in range(6):
        for i in (1, 2):
            want = np.linalg.solve(O.leading(n + 1).T,
                                   (O.leading(n) @ basis.shift_matrix(n, i)).T).T
            assert mk.max_abs(T.a(n, i) - want) <= 1e-13 * mk.max_abs(want)


def _rank_family_by_svd(name, d, rows, tol, lower):
    """rank_family's rule with an SVD of every block and every joint."""
    basis = basis_for(d)
    sv = {n: [mk.singular_values(b) for b in row] for n, row in rows.items()}
    scale = max(s[0] for row in sv.values() for s in row)
    shift = -1 if lower else 0
    checks = []
    for n, row in rows.items():
        checks += [Check.ranked(name, mk.rank_from_sv(s, tol, scale), basis.size(n + shift), n, i)
                   for i, s in enumerate(sv[n], start=1)]
        joint = joint_matrix([b.T for b in row] if lower else row)
        checks.append(Check.ranked(f"{name}-joint", mk.numeric_rank(joint, tol, scale=scale),
                                   basis.size(n + shift + 1), n))
    return checks


@pytest.mark.parametrize("d, N", [(2, 8), (3, 6), (4, 5)])
@pytest.mark.parametrize("tol", [mk.DEFAULT_RANK_TOL, 1.5])
def test_structural_a_ranks_take_no_svd_and_match_the_svd_rule(monkeypatch, d, N, tol):
    # at tol 1.5 the joint keeps only its sqrt(c_beta) >= sqrt(3) directions
    u = moments.cube_jacobi_functional((0.5, -0.5, 0.0, 1.0)[:d], (0.0, 0.5, 1.0, 0.0)[:d])
    P, H = gram_schmidt_monic(u, N)
    T = compute_ttr(P, u, H)
    rows = dict(enumerate(T.A))
    want = _rank_family_by_svd("A", d, rows, tol, lower=False)
    calls = _count_svds(monkeypatch)
    assert rank_family("A", d, rows, tol, lower=False) == want
    assert calls == []
    # one perturbed block: its SVD and its degree's joint SVD, nothing else
    rows[2] = list(rows[2])
    rows[2][d - 1] = rows[2][d - 1] + 1e-3 * np.ones_like(rows[2][d - 1])
    want = _rank_family_by_svd("A", d, rows, tol, lower=False)
    del calls[:]
    assert rank_family("A", d, rows, tol, lower=False) == want
    assert calls == [rows[2][d - 1].shape, (d * rows[2][0].shape[0], rows[2][0].shape[1])]
