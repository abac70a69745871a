import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvops import matrixkit as mk, moments, serialize
from mvops.checks import Check
from mvops.construct import (PolySystem, gram_blocks, gram_schmidt_monic, orthonormalize,
                             pair_blocks)
from mvops.indexing import basis_for, joint_matrix
from mvops.linrel import counterexample
from mvops.ttr import (ThreeTermData, compute_ttr, generate_from_ttr,
                       joint_shift_lstsq, rank_family, validate_rank_conditions)

from blockref import (first_failure, full_width_recon_residual, full_width_shift_defects,
                      row_blocks, shift_rows)


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


def test_compute_ttr_rejects_non_orthogonal_input():
    u = moments.disk_functional(0.0)
    P, H = gram_schmidt_monic(u, 4)
    broken = [[b.copy() for b in row] for row in P.blocks]
    broken[3][0] = broken[3][0] + 0.05
    from mvops.construct import PolySystem

    bad = PolySystem(2, broken)
    with pytest.raises(ValueError):
        compute_ttr(bad, u, H)


@pytest.mark.parametrize("u", [moments.disk_functional(0.5),
                               moments.cube_jacobi_functional((0.5, -0.5), (0.0, 1.0))])
def test_compute_ttr_takes_monic_systems_only(u):
    # an orthonormal system is refused on either route; its monic system is
    # the one whose blocks compute_ttr extracts
    P, H = gram_schmidt_monic(u, 4)
    O = orthonormalize(P, H)
    assert not O.monic
    with pytest.raises(ValueError, match=r"monic system; PolySystem\.to_monic\(\)"):
        compute_ttr(O, u, gram_blocks(u, O))
    M = O.to_monic()
    T = compute_ttr(M, u, gram_blocks(u, M))
    want = compute_ttr(P, u, H)
    assert T.recon_residual <= 1e-12
    assert all(a is b for arow, brow in zip(T.A, want.A) for a, b in zip(arow, brow))
    for got, ref in ((T.B, want.B), (T.C[1:], want.C[1:])):
        assert all(mk.max_abs(g - r) <= 1e-10 for grow, rrow in zip(got, ref)
                   for g, r in zip(grow, rrow))


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
    # generation uses the shift itself, so an A block that is not exactly
    # the shift, even one within allclose of it, is refused, not ignored
    u = moments.disk_functional(0.0)
    P, H = gram_schmidt_monic(u, 3)
    for n, i, edit in [(0, 0, lambda a: 2.0 * a), (2, 0, lambda a: a + 5e-6 * (a == 1)),
                       (2, 1, lambda a: a - 1e-15 * (a == 1))]:
        T = compute_ttr(P, u, H)
        T.A[n][i] = edit(T.A[n][i])
        assert np.allclose(T.A[n][i], basis_for(2).shift_matrix(n, i + 1)) == (n > 0)
        with pytest.raises(ValueError, match="requires structural"):
            generate_from_ttr(T)


def test_rank_conditions_pass_for_quasi_definite_families(disk_system):
    u, P, H = disk_system
    T = compute_ttr(P, u, H)
    report = validate_rank_conditions(T)
    assert report.ok
    assert first_failure(report) is None


def test_rank_conditions_fail_for_zero_block():
    u = moments.disk_functional(0.0)
    P, H = gram_schmidt_monic(u, 3)
    T = compute_ttr(P, u, H)
    T.C[2][0] = np.zeros_like(T.C[2][0])
    report = validate_rank_conditions(T)
    assert not report.ok
    first = first_failure(report)
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
    g, defect = joint_shift_lstsq(basis, n, stacked)
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


def _without_factors(u):
    """u's moments behind a plain oracle: compute_ttr pairs against them."""
    return moments.MomentFunctional(u.d, lambda a: u.moment(a), label=f"paired({u.label})")


@pytest.mark.parametrize("u, N", [
    (_without_factors(moments.cube_jacobi_functional((0.5, -0.5, 0.0), (0.0, 0.5, 1.0))), 5),
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
            shifted = shift_rows(row_blocks(P, n), i, basis)
            want_b = mk.solve(H.h(n), pair_blocks(u, shifted, row_blocks(P, n)).T).T
            assert mk.max_abs(T.b(n, i) - want_b) <= 1e-12 * mk.max_abs(want_b)
            if n >= 1:
                want_c = mk.solve(H.h(n - 1), pair_blocks(u, shifted, row_blocks(P, n - 1)).T).T
                assert mk.max_abs(T.c(n, i) - want_c) <= 1e-12 * mk.max_abs(want_c)


def _count_calls(monkeypatch, owner=np.linalg, name: str = "svd") -> list:
    """Shapes of the matrices passed to owner.name from now on (an SVD by
    default; mk.singular_values counts rank verdicts)."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


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
    calls = _count_calls(monkeypatch)
    assert rank_family("A", d, rows, tol, lower=False) == want
    assert calls == []
    # one perturbed block: its SVD and its degree's joint SVD, nothing else
    rows[2] = list(rows[2])
    rows[2][d - 1] = rows[2][d - 1] + 1e-3 * np.ones_like(rows[2][d - 1])
    want = _rank_family_by_svd("A", d, rows, tol, lower=False)
    del calls[:]
    assert rank_family("A", d, rows, tol, lower=False) == want
    assert calls == [rows[2][d - 1].shape, (d * rows[2][0].shape[0], rows[2][0].shape[1])]


TENSORS = [
    (moments.cube_jacobi_functional((0.5, -0.5), (0.0, 1.0)), 7),
    (moments.cube_jacobi_functional((0.5, -0.5, 0.0), (0.0, 0.5, 1.0)), 5),
    (moments.cube_jacobi_functional((0.5, -0.5, 0.0, 1.0), (0.5, 0.0, 1.0, 0.0)), 4),
    (moments.multiple_laguerre_functional((0.0, 1.0)), 6),
    (moments.product_chebyshev_functional(3), 6),
    (moments.tensor(moments.krall_laguerre_functional(1.0, 1.0),
                    moments.laguerre_functional_1d(0.0)), 5),
]


def _c_pattern(d: int, n: int, i: int) -> np.ndarray:
    """Where C_(n,i) of a tensor weight may be nonzero: (nu, nu - e_i)."""
    basis = basis_for(d)
    mask = np.zeros((basis.size(n), basis.size(n - 1)), dtype=bool)
    mask[basis.shift_index(n - 1, i), np.arange(basis.size(n - 1))] = True
    return mask


@pytest.mark.parametrize("u, N", TENSORS)
def test_tensor_route_matches_the_moment_route(u, N):
    P, H = gram_schmidt_monic(u, N)
    T = compute_ttr(P, u, H)
    paired = _without_factors(u)
    want = compute_ttr(P, paired, gram_blocks(paired, P))
    assert T.recon_residual <= 1e-14
    b_scale = max(mk.max_abs(b) for row in T.B for b in row)
    for n in range(N + 1):
        for i in range(1, u.d + 1):
            pairs = [(T.b(n, i), want.b(n, i), np.eye(basis_for(u.d).size(n), dtype=bool))]
            if n >= 1:
                pairs.append((T.c(n, i), want.c(n, i), _c_pattern(u.d, n, i)))
            for got, ref, pattern in pairs:
                if mk.max_abs(got) == 0.0:
                    # a symmetric factor's b vanish; pairing leaves roundoff
                    assert mk.max_abs(ref) <= 1e-12 * b_scale
                else:
                    assert mk.max_abs(got - ref) <= 1e-8 * mk.max_abs(ref)
                # every entry off the pattern is +0.0, sign bit included
                assert mk.same_bits(np.where(pattern, 0.0, got), np.zeros_like(got))
    for n in range(N):
        for i in range(1, u.d + 1):
            assert mk.same_bits(T.a(n, i), basis_for(u.d).shift_matrix(n, i))


def test_tensor_route_reads_no_d_variate_moment(monkeypatch):
    u = moments.cube_jacobi_functional((0.5, -0.5, 0.0), (0.0, 0.5, 1.0))
    P, H = gram_schmidt_monic(u, 5)

    def refuse(self, *args):
        raise AssertionError("d-variate moments read")

    for name in ("graded_block", "moments", "moment_vector"):
        monkeypatch.setattr(type(u), name, refuse)
    T = compute_ttr(P, u, H)
    assert T.N == 5


@pytest.mark.parametrize("u, N", TENSORS)
def test_tensor_route_refuses_another_weights_system(u, N):
    # B and C come from u alone, so the reconstruction residual is what ties P
    # to u; both routes refuse the monic system of another tensor weight
    other = moments.tensor(*[moments.jacobi_functional_1d(0.25, 0.75)] * u.d)
    P, H = gram_schmidt_monic(other, N)
    paired = _without_factors(u)
    for functional in (u, paired):
        with pytest.raises(ValueError, match="not orthogonal for the functional"):
            compute_ttr(P, functional, H)


def test_compute_ttr_needs_the_functionals_dimension():
    u = moments.cube_jacobi_functional((0.5, 0.0, 0.0), (0.0, 0.5, 0.0))
    P, H = gram_schmidt_monic(moments.cube_jacobi_functional((0.5, 0.0), (0.0, 0.5)), 3)
    with pytest.raises(ValueError, match="share the dimension"):
        compute_ttr(P, u, H)


@pytest.mark.parametrize("u, N", TENSORS)
def test_tensor_recurrence_envelope_round_trips_bit_for_bit(u, N):
    P, H = gram_schmidt_monic(u, N)
    T = compute_ttr(P, u, H)
    back = serialize.ttr_from_json(serialize.ttr_to_json(T))
    for got, ref in ((back.A, T.A), (back.B, T.B), (back.C[1:], T.C[1:])):
        assert all(mk.same_bits(g, r) for grow, rrow in zip(got, ref)
                   for g, r in zip(grow, rrow))


@pytest.mark.parametrize("u, N", TENSORS[:3])
def test_tensor_rank_checks_take_no_svd(monkeypatch, u, N):
    # tensor C blocks and their joints hold one nonzero per column
    P, H = gram_schmidt_monic(u, N)
    T = compute_ttr(P, u, H)
    calls = _count_calls(monkeypatch)
    report = validate_rank_conditions(T)
    assert report.ok and calls == []


def test_generation_refuses_a_negative_degree_bound():
    u = moments.cube_jacobi_functional((0.5, 0.0), (0.0, 0.5))
    P, H = gram_schmidt_monic(u, 3)
    with pytest.raises(ValueError, match=r"degree bound must be >= 0, got -1"):
        generate_from_ttr(compute_ttr(P, u, H), -1)
    G, residuals = generate_from_ttr(compute_ttr(P, u, H), 0)
    assert G.N == 0 and residuals.size == 0


def _joint_lstsq_per_direction(basis, n, rhs):
    """joint_shift_lstsq on a list of per-direction blocks, with one scatter
    and one defect per direction: the reference the stacked solve
    reproduces."""
    shifts = [basis.shift_index(n, i) for i in range(1, len(rhs) + 1)]
    g = np.zeros((basis.size(n + 1), rhs[0].shape[1]))
    for idx, r in zip(shifts, rhs):
        g[idx] += r
    g /= np.bincount(np.concatenate(shifts), minlength=g.shape[0])[:, None]
    return g, mk.worst(mk.max_abs(g[idx] - r) for idx, r in zip(shifts, rhs))


def _shifted(basis, n, i):
    """Graded positions of alpha + e_i for alpha over degrees 0..n-1."""
    return np.concatenate([basis.offset(k + 1) + basis.shift_index(k, i) for k in range(n)]
                          or [np.zeros(0, dtype=int)])


def _generate_per_direction(T):
    """generate_from_ttr with one right-hand side, and one mk.product call
    for each of B and C, per (degree, direction): the reference its
    stacked steps reproduce."""
    d, N = T.d, T.reachable_degree
    basis = basis_for(d)
    rows = [np.eye(1)]
    cuts = [basis.offset(k) for k in range(1, N + 1)]
    residuals = np.zeros(N)
    for n in range(N):
        low = basis.offset(n)
        rhs = []
        for i in range(1, d + 1):
            r = -mk.product(T.b(n, i), rows[n], cuts[:n])
            r[:, _shifted(basis, n, i)] += rows[n][:, :low]
            if n >= 1:
                r[:, :low] -= mk.product(T.c(n, i), rows[n - 1], cuts[:n - 1])
            rhs.append(r)
        g, residuals[n] = _joint_lstsq_per_direction(basis, n, rhs)
        rows.append(np.hstack([g, np.eye(basis.size(n + 1))]))
    return [np.split(row, cuts[:n], axis=1) for n, row in enumerate(rows)], residuals


def _recon_residuals_per_direction(P, T):
    """compute_ttr's reconstruction residuals with one right-hand side, and
    one mk.product call for each of B and C, per (degree, direction): the
    rows of P_(n+1) at alpha + e_i less the step's right-hand side, over
    the columns of degrees 0..n."""
    basis = basis_for(P.d)
    sides = [np.hstack([P.block(n, k) for k in range(n + 1)]) for n in range(P.N + 1)]
    cuts = [basis.offset(k) for k in range(1, P.N + 1)]
    row_scale = [max(mk.max_abs(b) for b in P.blocks[n]) for n in range(P.N + 1)]
    residuals = []
    for n in range(P.N):
        scale = max(max(row_scale[max(0, n - 1):n + 2]), 1.0)
        low = basis.offset(n)
        for i in range(1, P.d + 1):
            rhs = -mk.product(T.b(n, i), sides[n], cuts[:n])
            rhs[:, _shifted(basis, n, i)] += sides[n][:, :low]
            if n >= 1:
                rhs[:, :low] -= mk.product(T.c(n, i), sides[n - 1], cuts[:n - 1])
            resid = sides[n + 1][basis.shift_index(n, i), :basis.offset(n + 1)] - rhs
            residuals.append(mk.max_abs(resid) / scale)
    return residuals


def _generate_per_block(T):
    """generate_from_ttr as one step per (degree, column degree, direction),
    with dense products: the reference its whole-degree steps reproduce."""
    d, N = T.d, T.reachable_degree
    basis = basis_for(d)
    blocks = [[np.eye(1)]]
    residuals = np.zeros(N)
    for n in range(N):
        row, defects = [], []
        for k in range(n + 1):
            rhs = []
            for i in range(1, d + 1):
                r = -(T.b(n, i) @ blocks[n][k])
                if k >= 1:
                    r[:, basis.shift_index(k - 1, i)] += blocks[n][k - 1]
                if k < n:
                    r -= T.c(n, i) @ blocks[n - 1][k]
                rhs.append(r)
            g, defect = _joint_lstsq_per_direction(basis, n, rhs)
            row.append(g)
            defects.append(defect)
        row.append(np.eye(basis.size(n + 1)))
        residuals[n] = mk.worst(defects)
        blocks.append(row)
    return blocks, residuals


def _recurrence(kind, d, N):
    """Recurrence data of several origins: tensor (line-sparse B and C),
    paired (dense, disk_neg for disk(-0.5)), and the counterexample's
    combined side."""
    a = (0.5, -0.5, 0.0, 1.0)[:d]
    b = (0.5, 0.0, 1.0, 0.0)[:d]
    u = {"tensor": lambda: moments.cube_jacobi_functional(a, b),
         "disk": lambda: moments.disk_functional(0.5),
         "simplex": lambda: moments.simplex_functional((0.5, 1.0, 0.0, 0.5)[:d + 1]),
         "disk_neg": lambda: moments.disk_functional(-0.5)}.get(kind)
    if u is None:
        return counterexample(N)[0]
    u = u()
    P, H = gram_schmidt_monic(u, N)
    return compute_ttr(P, u, H)


GENERATION_CASES = [("tensor", 2, 7), ("tensor", 3, 6), ("tensor", 4, 5), ("disk", 2, 6),
                    ("simplex", 2, 5), ("simplex", 3, 4), ("disk_neg", 2, 6),
                    ("counterexample", 2, 5)]


@pytest.mark.parametrize("kind, d, N", GENERATION_CASES)
def test_whole_degree_generation_equals_the_per_block_loop_bit_for_bit(kind, d, N):
    T = _recurrence(kind, d, N)
    assert T.d == d
    G, residuals = generate_from_ttr(T)
    blocks, want = _generate_per_block(T)
    assert mk.same_bits(residuals, want)
    assert len(G.blocks) == len(blocks)
    assert all(mk.same_bits(g, w) for grow, wrow in zip(G.blocks, blocks)
               for g, w in zip(grow, wrow))


@pytest.mark.parametrize("family", ["B", "C"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("kind", ["tensor", "disk"])
def test_a_non_finite_recurrence_entry_gives_nan_residuals_from_its_degree(family, bad, kind):
    T = _recurrence(kind, 2, 5)
    blocks = getattr(T, family)[2]
    blocks[0] = blocks[0].copy()
    blocks[0][1, 0 if family == "C" else 1] = bad
    with np.errstate(invalid="ignore"):    # inf * 0 in both
        _, residuals = generate_from_ttr(T)
        _, want = _generate_per_block(T)
    assert np.array_equal(np.isnan(residuals), [False, False, True, True, True])
    assert np.array_equal(residuals, want, equal_nan=True)
    if kind == "tensor":
        assert np.array_equal(residuals[:2], [0.0, 0.0])


def _with_non_finite(T, family, bad):
    """A copy of T with entry (1, 0) of a C block, or (1, 1) of a B block,
    of degree 2, direction 1, set to `bad`."""
    T = ThreeTermData(T.d, T.A, list(T.B), list(T.C))
    rows = getattr(T, family)
    rows[2] = list(rows[2])
    rows[2][0] = rows[2][0].copy()
    rows[2][0][1, 0 if family == "C" else 1] = bad
    return T


def _stacked_case(kind, d, N):
    """A system and recurrence data for it: tensor, simplex and disk systems
    with their compute_ttr blocks, the counterexample's dense blocks with
    the system they generate, and tensor and disk recurrences with one
    non-finite B or C entry."""
    if kind == "counterexample":
        T = counterexample(N)[0]
        return generate_from_ttr(T)[0], T
    base, _, bad = kind.partition("-")
    T = _recurrence(base, d, N)
    P = generate_from_ttr(T)[0]
    if bad:
        family, value = bad.split(":")
        T = _with_non_finite(T, family, float(value))
    return P, T


STACKED_CASES = GENERATION_CASES + [
    ("tensor-B:nan", 3, 5), ("tensor-C:inf", 3, 5),
    ("disk-C:nan", 2, 5), ("disk-B:inf", 2, 5)]


@pytest.mark.parametrize("kind, d, N", STACKED_CASES)
def test_stacked_steps_equal_the_per_direction_loops_bit_for_bit(kind, d, N):
    from mvops.ttr import _recon_residuals

    P, T = _stacked_case(kind, d, N)
    assert P.d == T.d == d
    with np.errstate(invalid="ignore"):    # inf * 0 in both
        got = _recon_residuals(P, T)
        want = _recon_residuals_per_direction(P, T)
    assert mk.same_bits(np.array(got), np.array(want))
    with np.errstate(invalid="ignore"):
        G, residuals = generate_from_ttr(T)
        blocks, want = _generate_per_direction(T)
    assert mk.same_bits(residuals, want)
    assert len(G.blocks) == len(blocks)
    assert all(mk.same_bits(g, w) for grow, wrow in zip(G.blocks, blocks)
               for g, w in zip(grow, wrow))
    if "-" in kind:
        assert np.isnan(residuals[2:]).all() and not np.isnan(residuals[:2]).any()


def test_rank_checks_of_a_basis_shift_and_of_an_equal_copy_agree():
    basis = basis_for(3)
    rows = {n: [basis.shift_matrix(n, i) for i in range(1, 4)] for n in range(6)}
    copies = {n: [np.array(b) for b in row] for n, row in rows.items()}
    assert rank_family("A", 3, rows, 1e-9, lower=False) == \
        rank_family("A", 3, copies, 1e-9, lower=False)
    # the basis's own blocks read the basis's singular values, copies take
    # mk.singular_values: bit for bit the same values
    for n in range(6):
        for i in range(1, 4):
            assert mk.same_bits(basis.shift_singular_values(n, i),
                                mk.singular_values(copies[n][i - 1]))
        assert mk.same_bits(basis.joint_shift_singular_values(n),
                            mk.singular_values(joint_matrix(copies[n])))


def test_rank_checks_of_basis_shifts_take_no_singular_values_call(monkeypatch):
    basis = basis_for(2)
    rows = {n: [basis.shift_matrix(n, i) for i in range(1, 3)] for n in range(5)}
    want = rank_family("A", 2, rows, 1e-9, lower=False)
    calls = _count_calls(monkeypatch, mk, "singular_values")
    assert rank_family("A", 2, rows, 1e-9, lower=False) == want
    assert calls == []


_EXPONENTS = st.floats(-0.9, 3.0)


@given(d=st.integers(2, 4), data=st.data())
@settings(max_examples=15, deadline=None)
def test_the_top_degree_columns_of_a_monic_shift_defect_are_exactly_zero(d, data):
    # identity rows of A P_(n+1) meet the shifted identity of P_n there, and
    # B and C never reach them: compute_ttr leaves them out of its residual
    a = tuple(data.draw(_EXPONENTS) for _ in range(d))
    b = tuple(data.draw(_EXPONENTS) for _ in range(d))
    N = {2: 5, 3: 4, 4: 3}[d]
    u = moments.cube_jacobi_functional(a, b)
    # the same moments without factors: block Gram-Schmidt and paired blocks
    plain = moments.MomentFunctional(d, u.moment, label="plain")
    basis = basis_for(d)
    for w in (u, plain):
        P, H = gram_schmidt_monic(w, N)
        T = compute_ttr(P, w, H)
        assert P.monic
        for n, resid in enumerate(full_width_shift_defects(P, T)):
            top = resid[:, basis.offset(n + 1):]
            assert top.shape[1] == basis.size(n + 1) and np.all(top == 0.0)
        assert T.recon_residual == full_width_recon_residual(P, T)
