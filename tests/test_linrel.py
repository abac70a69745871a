from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvops import construct, linrel, matrixkit as mk, moments, serialize
from mvops.construct import GramBlocks, RhoMap, gram_schmidt_monic, inner_block, \
    koornwinder_system
from mvops.indexing import basis_for
from mvops.linrel import (LinearRelation, classify_ranks, combined_from_reference,
                          compute_relation, counterexample,
                          functional_match_residual, recover_lambda,
                          reference_from_combined, relation_residual, verify_mh)
from mvops.moments import LinearPoly
from mvops.ttr import compute_ttr

from blockref import relation_by_pairing


@pytest.fixture(scope="module")
def disk_pair():
    mu = 0.0
    N = 5
    rho = RhoMap.sqrt_poly(1.0, 0.0, -1.0)
    w2 = moments.jacobi_functional_1d(mu, mu)
    Q, _ = koornwinder_system(moments.jacobi_functional_1d(mu + 0.5, mu + 0.5),
                              w2, rho, N)
    P, _ = koornwinder_system(moments.jacobi_functional_1d(mu + 1.5, mu + 0.5),
                              w2, rho, N)
    v = moments.disk_functional(mu)
    u = moments.left_multiply(LinearPoly((-1.0, 0.0), 1.0), v)
    return mu, N, Q, P, u, v


@pytest.fixture(scope="module")
def disk_monic(disk_pair):
    mu, N, Q, P, u, v = disk_pair
    Qm, Pm = Q.to_monic(), P.to_monic()
    HP = GramBlocks([inner_block(u, Pm, n, Pm, n) for n in range(N + 1)])
    HQ = GramBlocks([inner_block(v, Qm, n, Qm, n) for n in range(N + 1)])
    rel = compute_relation(Qm, Pm, u, HP)
    return mu, N, Qm, Pm, HP, HQ, rel, u, v


def test_identical_systems_give_zero_relation():
    u = moments.disk_functional(1.0)
    P, H = gram_schmidt_monic(u, 4)
    rel = compute_relation(P, P, u, H)
    assert rel.tail <= 1e-14
    assert all(mk.max_abs(rel.m(n)) <= 1e-14 for n in range(1, 5))
    assert classify_ranks(rel) == "zero"


def test_disk_relation_matches_closed_form(disk_pair):
    mu, N, Q, P, u, v = disk_pair
    HP = GramBlocks([inner_block(u, P, n, P, n) for n in range(N + 1)])
    rel = compute_relation(Q, P, u, HP)
    assert rel.tail <= 1e-10
    for n in range(1, N + 1):
        expected = np.zeros((n + 1, n))
        for k in range(n):
            expected[k, k] = -(n - k) / (2 * n + 2 * mu + 2)
        assert mk.max_abs(rel.m(n) - expected) <= 1e-10
    assert relation_residual(Q, P, rel) <= 1e-10


def test_krall_laguerre_relation_is_diagonal_over_zero_row():
    alpha, a1 = 1.0, 1.0  # coefficients a_n = n for this parameter pair
    u = moments.tensor(moments.laguerre_functional_1d(alpha),
                       moments.laguerre_functional_1d(0.0))
    v = moments.tensor(moments.krall_laguerre_functional(alpha, a1),
                       moments.laguerre_functional_1d(0.0))
    P, HP = gram_schmidt_monic(u, 4)
    Q, _ = gram_schmidt_monic(v, 4)
    rel = compute_relation(Q, P, u, HP)
    for n in range(1, 5):
        expected = np.zeros((n + 1, n))
        for k in range(n):
            expected[k, k] = float(n - k)
        assert mk.max_abs(rel.m(n) - expected) <= 1e-8


def test_compute_relation_rejects_leading_mismatch():
    u = moments.disk_functional(0.0)
    P, H = gram_schmidt_monic(u, 3)
    scaled = P.transformed([2.0 * np.eye(n + 1) for n in range(4)])
    with pytest.raises(ValueError):
        compute_relation(scaled, P, u, H)


def test_classify_handcrafted_mixed_relation():
    M = [None, np.array([[1.0], [0.0]]), np.zeros((3, 2))]
    rel = LinearRelation(2, M)
    assert classify_ranks(rel) == "mixed"


def test_classify_full(disk_monic):
    rel = disk_monic[6]
    assert classify_ranks(rel) == "full"


def test_recover_lambda_disk_direction_and_identity(disk_monic):
    mu, N, Qm, Pm, HP, HQ, rel, u, v = disk_monic
    lam = recover_lambda(rel, HP, HQ, v)
    target = LinearPoly((-1.0, 0.0), 1.0)
    assert np.max(np.abs(lam.direction() - target.direction())) <= 1e-8
    assert functional_match_residual(u, v, lam, 2 * N) <= 1e-10


def test_fourier_tail_vanishes_when_functionals_linked():
    # impose u = lambda . v on the moments and watch the expansion truncate
    v = moments.cube_jacobi_functional((0.0, 0.0), (0.0, 0.0))
    lam = LinearPoly((1.0, -0.5), 2.0)  # positive on the square
    u = moments.left_multiply(lam, v)
    P, HP = gram_schmidt_monic(u, 5)
    Q, HQ = gram_schmidt_monic(v, 5)
    rel = compute_relation(Q, P, u, HP)
    assert rel.tail <= 1e-10
    assert classify_ranks(rel) == "full"
    got = recover_lambda(rel, HP, HQ, v)
    assert np.max(np.abs(got.direction() - lam.direction())) <= 1e-9


def test_gram_link_identity(disk_monic):
    mu, N, Qm, Pm, HP, HQ, rel, u, v = disk_monic
    lam = recover_lambda(rel, HP, HQ, v)
    assert verify_mh(rel, HP, HQ, lam) <= 1e-10
    wrong = LinearPoly((lam.a[0] + 0.25, lam.a[1]), lam.b)
    assert verify_mh(rel, HP, HQ, wrong) > 1e-3


def test_gram_link_zero_relation_constant_factor():
    u = moments.disk_functional(0.5)
    P, H = gram_schmidt_monic(u, 3)
    rel = compute_relation(P, P, u, H)
    lam = LinearPoly((0.0, 0.0), 1.0)
    assert verify_mh(rel, H, H, lam) <= 1e-14


def test_scale_invariance_of_verdicts(disk_monic):
    mu, N, Qm, Pm, HP, HQ, rel, u, v = disk_monic
    scaled_u = moments.MomentFunctional(2, lambda a: 7.3 * u.moment(a))
    P2, H2 = gram_schmidt_monic(scaled_u, N)
    rel2 = compute_relation(Qm, P2, scaled_u, H2)
    assert classify_ranks(rel2) == classify_ranks(rel)
    lam = recover_lambda(rel, HP, HQ, v)
    lam2 = recover_lambda(rel2, H2, HQ, v)
    assert np.max(np.abs(lam.direction() - lam2.direction())) <= 1e-9
    for n in range(1, N + 1):
        assert mk.max_abs(rel2.m(n) - rel.m(n)) <= 1e-9


def test_reference_from_combined_matches_gram_schmidt_oracle(disk_monic):
    mu, N, Qm, Pm, HP, HQ, rel, u, v = disk_monic
    T_q = compute_ttr(Qm, v, HQ)
    candidate, report = reference_from_combined(T_q, rel)
    assert report.verdict
    assert all(c.ok for c in report.compat)
    T_p = compute_ttr(Pm, u, HP)  # independent construction
    top = report.degrees_covered[1]
    for n in range(top + 1):
        for i in (1, 2):
            assert mk.max_abs(candidate.b(n, i) - T_p.b(n, i)) <= 1e-8
            if n >= 1:
                assert mk.max_abs(candidate.c(n, i) - T_p.c(n, i)) <= 1e-8


def test_reference_from_combined_zero_relation_is_vacuous():
    u = moments.disk_functional(0.0)
    P, H = gram_schmidt_monic(u, 4)
    T = compute_ttr(P, u, H)
    M = [None] + [np.zeros((n + 1, n)) for n in range(1, 5)]
    candidate, report = reference_from_combined(T, LinearRelation(2, M))
    assert report.verdict
    top = report.degrees_covered[1]
    for n in range(top + 1):
        for i in (1, 2):
            assert mk.max_abs(candidate.b(n, i) - T.b(n, i)) <= 1e-14
            if n >= 1:
                assert mk.max_abs(candidate.c(n, i) - T.c(n, i)) <= 1e-14


def test_reference_from_combined_detects_random_relation(disk_monic):
    mu, N, Qm, Pm, HP, HQ, rel, u, v = disk_monic
    T_q = compute_ttr(Qm, v, HQ)
    rng = np.random.default_rng(5)
    M = [None] + [rng.standard_normal((n + 1, n)) for n in range(1, N + 1)]
    _, report = reference_from_combined(T_q, LinearRelation(2, M))
    assert not report.verdict
    assert max(c.value for c in report.compat) > 1e-3


def test_combined_from_reference_on_disk_is_orthogonal(disk_monic):
    mu, N, Qm, Pm, HP, HQ, rel, u, v = disk_monic
    T_p = compute_ttr(Pm, u, HP)
    candidate, report = combined_from_reference(T_p, rel)
    assert report.verdict
    T_q = compute_ttr(Qm, v, HQ)
    top = report.degrees_covered[1]
    for n in range(1, top + 1):
        for i in (1, 2):
            assert mk.max_abs(candidate.c(n, i) - T_q.c(n, i)) <= 1e-8


def _assert_round_trip(T_p, rel):
    """Theorem 4 then Theorem 3 returns the reference B and C blocks."""
    combined, _ = combined_from_reference(T_p, rel)
    back, _ = reference_from_combined(combined, rel)
    assert back.N >= 2
    scale = max(mk.max_abs(b) for row in T_p.B + T_p.C[1:] for b in row)
    for n in range(back.N + 1):
        for i in range(1, T_p.d + 1):
            assert mk.max_abs(back.b(n, i) - T_p.b(n, i)) <= 1e-12 * scale
            if n >= 1:
                assert mk.max_abs(back.c(n, i) - T_p.c(n, i)) <= 1e-12 * scale


def test_partner_round_trip_on_disk(disk_monic):
    mu, N, Qm, Pm, HP, HQ, rel, u, v = disk_monic
    _assert_round_trip(compute_ttr(Pm, u, HP), rel)


def test_partner_round_trip_on_counterexample_reference():
    _, rel = counterexample(6)
    _assert_round_trip(linrel.reference_ttr_for_counterexample(7), rel)


def test_counterexample_blocks_and_ranks():
    n_max = 8
    combined, rel = counterexample(n_max)
    basis_checks = linrel.reference_ttr_for_counterexample(n_max + 1)
    # reference B blocks: a single -1 in a corner
    for n in range(n_max):
        b1 = basis_checks.b(n, 1)
        expected = np.zeros((n + 1, n + 1))
        expected[n, n] = -1.0
        assert np.array_equal(b1, expected)
        b2 = basis_checks.b(n, 2)
        expected2 = np.zeros((n + 1, n + 1))
        expected2[0, 0] = -1.0
        assert np.array_equal(b2, expected2)
    # combined side identities
    for n in range(n_max):
        assert mk.max_abs(combined.b(n, 1)) <= 1e-14
        assert np.allclose(combined.b(n, 2), basis_checks.b(n, 2))
    for n in range(1, n_max + 1):
        assert np.allclose(combined.c(n, 2), basis_checks.c(n, 2))
        expected = basis_checks.c(n, 1) @ (np.eye(n) + basis_checks.b(n - 1, 1))
        assert np.allclose(combined.c(n, 1), expected)
        assert mk.numeric_rank(combined.c(n, 1)) == n - 1
    # compatibility identity residual vanishes
    for n in range(2, n_max + 1):
        lhs = rel.m(n) @ basis_checks.c(n - 1, 1)
        rhs = combined.c(n, 1) @ rel.m(n - 1)
        assert mk.max_abs(lhs - rhs) <= 1e-14


def test_counterexample_classification_is_full():
    _, rel = counterexample(6)
    assert classify_ranks(rel) == "full"


def test_counterexample_rejects_small_n():
    with pytest.raises(ValueError):
        counterexample(1)


def test_classify_ranks_refuses_a_relation_without_blocks():
    with pytest.raises(ValueError):
        classify_ranks(LinearRelation(2, [None]))


# -- the relation from one whole-system pairing ------------------------------


def _adjacent_pair(kind, param):
    """Functionals v and u = lambda . v with lambda of degree one."""
    if kind == "disk":
        v = moments.disk_functional(param)
        return v, moments.left_multiply(LinearPoly((-1.0, 0.0), 1.0), v)
    if kind == "cube":
        return (moments.cube_jacobi_functional((param, 0.0), (0.5, 0.0)),
                moments.cube_jacobi_functional((param + 1.0, 0.0), (0.5, 0.0)))
    return (moments.simplex_functional((param, 0.5, 0.75)),
            moments.simplex_functional((param + 1.0, 0.5, 0.75)))


def _agree(rel, M, N):
    """Largest gap between rel's blocks and M[1..N], relative to M's largest entry."""
    scale = max(mk.max_abs(m) for m in M[1:])
    assert rel.N == N and all(rel.m(n).shape == M[n].shape for n in range(1, N + 1))
    return max(mk.max_abs(rel.m(n) - M[n]) for n in range(1, N + 1)) / scale


@given(kind=st.sampled_from(["disk", "cube", "simplex"]), param=st.floats(0.0, 1.5),
       data=st.data())
@settings(max_examples=25, deadline=None)
def test_compute_relation_matches_per_block_fourier_reference(kind, param, data):
    # the Fourier expansion against raw moments (blockref) loses digits with
    # the degree on the simplex: 1e-11 at N = 4, 1e-7 at N = 6
    N = data.draw(st.integers(1, 4 if kind == "simplex" else 6))
    v, u = _adjacent_pair(kind, param)
    Q, _ = gram_schmidt_monic(v, N)
    P, H = gram_schmidt_monic(u, N)
    rel = compute_relation(Q, P, u, H)
    M, tail = relation_by_pairing(Q, P, u, H)
    assert _agree(rel, M, N) <= 1e-10
    assert rel.tail <= 1e-12 and tail <= 1e-12


def test_compute_relation_pairs_once(monkeypatch, disk_pair):
    # at most once, and in fact never: the relation is read off the
    # coefficients, so no pairing runs and no moment is read
    _, N, Q, P, u, _ = disk_pair
    calls = []
    monkeypatch.setattr(construct, "pair_blocks", lambda *args: calls.append(args))
    monkeypatch.setattr(moments.MomentFunctional, "graded_block",
                        lambda *args: calls.append(args))
    rel = compute_relation(Q, P, u)
    assert calls == [] and rel.N == N and rel.tail <= 1e-12


@given(kind=st.sampled_from(["disk", "cube", "simplex"]), param=st.floats(0.0, 1.5),
       data=st.data())
@settings(max_examples=25, deadline=None)
def test_a_lower_block_moved_by_eps_moves_the_tail_to_eps(kind, param, data):
    N = data.draw(st.integers(2, 4 if kind == "simplex" else 6))
    n = data.draw(st.integers(2, N))
    eps = data.draw(st.floats(1e-12, 1e-6))
    v, u = _adjacent_pair(kind, param)
    Q, _ = gram_schmidt_monic(v, N)
    P, _ = gram_schmidt_monic(u, N)
    rows = [row.copy() for row in Q.rows]
    below = basis_for(Q.d).degree_slice(n - 2, n - 2)
    rows[n][data.draw(st.integers(0, Q.size(n) - 1)),
            below.start + data.draw(st.integers(0, below.stop - below.start - 1))] += eps
    moved = construct.PolySystem(Q.d, rows)
    rel = compute_relation(moved, P, u)
    relative = eps / max(mk.max_abs(rows[n]), 1.0)
    assert relative / 2 <= rel.tail <= 2 * relative
    assert all(mk.same_bits(g, w) for g, w in zip(rel.M[1:], compute_relation(Q, P, u).M[1:]))


# -- tensor pairs --------------------------------------------------------------

_JACOBI_EXPONENTS = (-0.5, 0.0, 0.5, 1.0)


def _tensor_pair(a, b, raise_axes, N):
    """Monic systems of v = cube_jacobi(a, b) and u = prod_(j in raise_axes) (1 - x_j) v."""
    a2 = tuple(x + 1.0 if i in raise_axes else x for i, x in enumerate(a))
    v = moments.cube_jacobi_functional(a, b)
    u = moments.cube_jacobi_functional(a2, b)
    Q, _ = gram_schmidt_monic(v, N)
    P, H = gram_schmidt_monic(u, N)
    return Q, P, u, H


def test_a_tensor_chain_runs_the_chebyshev_algorithm_once_per_factor():
    # x_1 v = u; the Krall factors have no closed-form recurrence, the
    # classical ones do
    N = 6
    krall_x, krall_z = (moments.krall_laguerre_functional(1.0, 1.0),
                        moments.krall_jacobi_functional(1.0, 0.0, 1.0))
    cheb = mock.patch.object(moments, "recurrence_from_moments",
                             wraps=moments.recurrence_from_moments)
    jacobi = mock.patch.object(moments, "jacobi_recurrence", wraps=moments.jacobi_recurrence)
    laguerre = mock.patch.object(moments, "laguerre_recurrence",
                                 wraps=moments.laguerre_recurrence)
    systems = mock.patch.object(construct, "tensor_system", wraps=construct.tensor_system)
    with cheb as runs, jacobi as jac, laguerre as lag, systems as built:
        v = moments.tensor(krall_x, moments.jacobi_functional_1d(0.0, 0.5), krall_z)
        u = moments.tensor(moments.laguerre_functional_1d(1.0),
                           moments.jacobi_functional_1d(0.0, 0.5), krall_z)
        Q, _ = gram_schmidt_monic(v, N)
        P, H = gram_schmidt_monic(u, N)
        compute_ttr(P, u, H)
        rel = compute_relation(Q, P, u, H)
        # the Chebyshev algorithm runs for the two Krall factors only (v and u
        # share krall_z), and every factor keeps its one recurrence
        assert runs.call_count == 2 and jac.call_count == 2 and lag.call_count == 1
        assert built.call_count == 2
        for w in (u, v):
            kept = zip(construct.factor_recurrences(w, N), w.factors)
            assert all(rec is f.recurrence(N) for rec, f in kept)
        assert runs.call_count == 2 and jac.call_count == 2 and lag.call_count == 1
    moms = [call.args[0] for call in runs.call_args_list]
    assert all(m.shape == (2 * N + 2,) for m in moms)
    assert classify_ranks(rel) == "full" and rel.tail <= 1e-12


@given(data=st.data(), d=st.integers(2, 4), raised=st.integers(1, 2))
@settings(max_examples=20, deadline=None)
def test_tensor_route_matches_the_paired_expansion(data, d, raised):
    N = data.draw(st.integers(1, 6 if d < 4 else 5))
    a = tuple(data.draw(st.sampled_from(_JACOBI_EXPONENTS)) for _ in range(d))
    b = tuple(data.draw(st.sampled_from(_JACOBI_EXPONENTS)) for _ in range(d))
    axes = data.draw(st.lists(st.integers(0, d - 1), min_size=raised, max_size=raised,
                              unique=True))
    Q, P, u, H = _tensor_pair(a, b, axes, N)
    rel = compute_relation(Q, P, u)
    M, tail = relation_by_pairing(Q, P, u, H)
    assert _agree(rel, M, N) <= 1e-10
    if raised == 1:
        assert rel.tail <= 1e-12 and tail <= 1e-12
    elif N >= 2:
        # a link of degree two: no two-term relation, and both routes see it
        assert rel.tail > 1e-3 and tail > 1e-3


@pytest.mark.parametrize("d, N, j", [(2, 8, 1), (2, 8, 2), (3, 6, 2), (4, 5, 4)])
def test_one_raised_axis_gives_exact_zeros_off_nu_minus_e_j(d, N, j):
    a = tuple(_JACOBI_EXPONENTS[i % 4] for i in range(d))
    b = tuple(_JACOBI_EXPONENTS[(i + 1) % 4] for i in range(d))
    Q, P, u, _ = _tensor_pair(a, b, [j - 1], N)
    rel = compute_relation(Q, P, u)
    basis = basis_for(d)
    for n in rel.available():
        # row alpha + e_j, column alpha: the entries at (nu, nu - e_j)
        rows, cols = basis.shift_index(n - 1, j), np.arange(basis.size(n - 1))
        assert np.all(rel.m(n)[rows, cols] != 0.0)
        off = rel.m(n).copy()
        off[rows, cols] = 0.0
        assert mk.same_bits(off, np.zeros_like(off))
    assert classify_ranks(rel) == "full"


@pytest.mark.parametrize("d, N, raise_axes", [(2, 8, [0]), (3, 6, [2]), (4, 5, [1, 3]),
                                              (2, 6, [])])
def test_carried_and_read_back_tables_give_the_same_relation(d, N, raise_axes):
    # the systems as built and as read back from their envelopes give the
    # same relation bit for bit: it reads nothing but the coefficients
    a = tuple(_JACOBI_EXPONENTS[i % 4] for i in range(d))
    b = tuple(_JACOBI_EXPONENTS[(i + 2) % 4] for i in range(d))
    Q, P, u, H = _tensor_pair(a, b, raise_axes, N)
    want = compute_relation(Q, P, u, H)
    back = [serialize.system_from_json(serialize.system_to_json(S)) for S in (Q, P)]
    got = compute_relation(*back, u)
    assert all(mk.same_bits(g, w) for g, w in zip(got.M[1:], want.M[1:]))
    assert mk.same_bits(np.float64(got.tail), np.float64(want.tail))
    assert want.tail <= 1e-12 if len(raise_axes) < 2 else want.tail > 1e-3


@pytest.mark.parametrize("side", ["Q", "P"])
def test_a_one_ulp_change_falls_back_to_the_pairing_route(side):
    # there is no route left to fall back to: an entry moved by one ulp below
    # the degree-(n - 1) block leaves every M_n as it was, and the tail
    # moves by a few ulps at most
    Q, P, u, H = _tensor_pair((0.5, 0.0, -0.5), (0.0, 0.5, 0.0), [1], 4)
    system = Q if side == "Q" else P
    rows = [row.copy() for row in system.rows]
    col = basis_for(3).offset(1)                 # block (3, 1), column 0
    step = abs(np.spacing(rows[3][2, col]))
    rows[3][2, col] += step
    moved = construct.PolySystem(3, rows)
    want = compute_relation(Q, P, u, H)
    got = compute_relation(*((moved, P) if side == "Q" else (Q, moved)), u, H)
    assert all(mk.same_bits(g, w) for g, w in zip(got.M[1:], want.M[1:]))
    assert abs(got.tail - want.tail) <= 4 * step * max(1.0, mk.max_abs(want.m(4)))
    assert np.count_nonzero(got.m(4)) == basis_for(3).size(3)


def test_pairing_route_builds_the_gram_blocks_it_is_not_given(disk_pair):
    _, _, Q, P, u, _ = disk_pair
    got = compute_relation(Q, P, u)
    want = compute_relation(Q, P, u, construct.gram_blocks(u, P))
    assert all(mk.same_bits(g, w) for g, w in zip(got.M[1:], want.M[1:]))
    assert got.tail == want.tail


def _relation_residual_per_block(Q, P, rel, keep=None):
    """relation_residual as one defect per (degree, column degree), with one
    dense product per block: the reference its one pass per degree keeps."""
    defects = []
    for n in rel.available():
        if n > min(Q.N, P.N):
            break
        scale = max(max(mk.max_abs(Q.block(n, k)) for k in range(n + 1)), 1.0)
        for k in range(n + 1):
            kept = P.block(n, k) if keep is None else keep[n][:, None] * P.block(n, k)
            delta = Q.block(n, k) - kept
            if k < n:
                delta = delta - rel.m(n) @ P.block(n - 1, k)
            defects.append(mk.max_abs(delta) / scale)
    return mk.worst(defects)



def test_relation_residual_per_degree_is_the_per_block_defect_bit_for_bit(disk_pair):
    # a tensor pair with its one-nonzero-per-row relation (the row gather),
    # with and without a diagonal K, a dense random relation, a NaN
    # coefficient, and the disk pair's dense Fourier relation
    rng = np.random.default_rng(5)
    Q, P, u, H = _tensor_pair((0.5, 0.0, -0.5), (0.0, 0.5, 0.0), [1], 5)
    rel = compute_relation(Q, P, u, H)
    keep = [None] + [1.0 + 1e-3 * rng.standard_normal(Q.size(n)) for n in range(1, 6)]
    dense = LinearRelation(3, [None] + [rng.standard_normal(m.shape) for m in rel.M[1:]])
    rows = [row.copy() for row in Q.rows]
    rows[3][1, 2] = np.nan
    _, _, Qd, Pd, ud, _ = disk_pair
    Qm, Pm = Qd.to_monic(), Pd.to_monic()
    cases = [(Q, P, rel, None), (Q, P, rel, keep), (Q, P, dense, None),
             (construct.PolySystem(3, rows), P, rel, None),
             (Qm, Pm, compute_relation(Qm, Pm, ud), None)]
    for Q, P, rel, keep in cases:
        got = relation_residual(Q, P, rel, keep)
        want = _relation_residual_per_block(Q, P, rel, keep)
        assert mk.same_bits(np.float64(got), np.float64(want)), (got, want)


@pytest.mark.parametrize("tensor", [True, False])
def test_the_monic_relation_residual_leaves_out_only_exact_zeros(tensor):
    # with both systems monic and K_n = I, the degree-n columns of
    # Q_n - P_n - M_n P_(n-1) are exactly 0.0; keeping every K_n an explicit
    # identity takes the full-width route, which must read the same defect
    v = moments.cube_jacobi_functional((0.5, 0.0, -0.5), (0.0, 0.5, 0.0))
    u = moments.cube_jacobi_functional((0.5, 1.0, -0.5), (0.0, 0.5, 0.0))
    if not tensor:
        v, u = (moments.MomentFunctional(3, w.moment, label=w.label) for w in (v, u))
    Q, _ = gram_schmidt_monic(v, 4)
    P, _ = gram_schmidt_monic(u, 4)
    rel = linrel.compute_relation(Q, P, u)
    basis = basis_for(3)
    ones = [None] + [np.ones(basis.size(n)) for n in range(1, 5)]
    assert Q.monic and P.monic and 0.0 < rel.tail <= 1e-12
    assert rel.tail == linrel.relation_residual(Q, P, rel, keep=ones)
