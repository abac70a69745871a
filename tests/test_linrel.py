import numpy as np
import pytest

from mvops import linrel, matrixkit as mk, moments
from mvops.construct import GramBlocks, RhoMap, gram_schmidt_monic, inner_block, \
    koornwinder_system
from mvops.linrel import (LinearRelation, classify_ranks, combined_from_reference,
                          compute_relation, counterexample,
                          functional_match_residual, recover_lambda,
                          reference_from_combined, relation_residual, verify_mh)
from mvops.moments import LinearPoly
from mvops.ttr import compute_ttr


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
    with pytest.raises(ValueError):
        classify_ranks(rel, expect_dichotomy=True)


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
