"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module stays well under the one-minute budget.
"""

import time

import numpy as np
import pytest
from scipy import optimize

from mvops import families, linrel, matrixkit as mk, moments
from mvops.construct import QuasiDefiniteFailure, gram_schmidt_monic
from mvops.indexing import enumerate_indices
from mvops.linrel import classify_ranks, compute_relation, recover_lambda
from mvops.moments import LinearPoly
from mvops.ttr import compute_ttr, generate_from_ttr, validate_rank_conditions

from blockref import (disk_moment_quadrature, laguerre_moment_quadrature,
                      simplex_moment_quadrature)

RANK_TOL = 1e-9
RES_TOL = 1e-8


def _verdict(tag, ok, detail=""):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"{tag} failed: {detail}"


ORTHOGONAL_CATALOG = [
    ("disk", dict(mu=0.0)),
    ("disk", dict(mu=1.5)),
    ("krall-laguerre", dict(alpha=1.0, a1=1.0, kappa2=0.0)),
    ("krall-jacobi", dict(alpha=1.0, beta=0.0, a1=1.0, ay=0.0)),
    ("simplex", dict(kappa=(0.5, 0.5, 0.5), j=1)),
    ("simplex", dict(kappa=(0.5, 0.5, 0.5), j=2)),
    ("cube", dict(a=(0.0, 0.0), b=(0.0, 0.0), j=1, raise_b=False)),
    ("cube", dict(a=(0.0, 0.0), b=(0.0, 0.0), j=2, raise_b=True)),
    ("laguerre", dict(kappa=(0.0, 1.0), j=1)),
    ("laguerre", dict(kappa=(0.0, 1.0), j=2)),
]

CHEB_ADMISSIBLE = [(2, r) for r in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)] + \
    [(3, r) for r in (-2.0, -1.0, -0.5, 0.5, 2.0)] + \
    [(4, r) for r in (-2.0, -0.5, 0.5, 1.0, 2.0)]


def test_every_orthogonal_pair_passes_every_check_at_degree_6():
    """Both systems of each pair are orthogonal, so no check may fail."""
    failed = {}
    for name, params in ORTHOGONAL_CATALOG:
        bundle = families.build_family(name, 6, rank_tol=RANK_TOL, res_tol=RES_TOL, **params)
        bad = [(r.name, r.degree, r.direction) for r in bundle.records if not r.ok]
        if bad or not bundle.records:
            failed[(name, str(params))] = bad
    assert not failed, failed


def test_criterion_1_rank_dichotomy():
    """Every orthogonal catalog pair classifies as zero or full, never mixed."""
    outcomes = {}
    for name, params in ORTHOGONAL_CATALOG:
        bundle = families.build_family(name, 6, rank_tol=RANK_TOL, **params)
        outcomes[(name, str(params))] = bundle.extras["classification"]
    for kind, rho in CHEB_ADMISSIBLE:
        rel = linrel.LinearRelation(
            2, [None] + [families.chebyshev_relation_matrix(n, rho)
                         for n in range(1, 7)])
        outcomes[("cheb-koornwinder", f"{kind},{rho}")] = classify_ranks(rel, RANK_TOL)
    mixed = {k: v for k, v in outcomes.items() if v not in ("zero", "full")}
    _verdict("1 rank-dichotomy", not mixed,
             f"{len(outcomes)} catalog pairs, mixed: {mixed}")


def test_criterion_2_gram_link_identity():
    """M_n H_(n-1) = H~_n sum a_i L^t holds to 1e-8 through degree 6."""
    worst = 0.0
    for name, params in [("disk", dict(mu=0.0)), ("disk", dict(mu=1.5)),
                         ("krall-laguerre", dict(alpha=1.0, a1=1.0, kappa2=0.0)),
                         ("krall-jacobi", dict(alpha=1.0, beta=0.0, a1=1.0, ay=0.0))]:
        bundle = families.build_family(name, 6, **params)
        rec = [r for r in bundle.records if r.name == "gram-link"]
        assert rec, f"{name} bundle carries no gram-link record"
        worst = max(worst, rec[0].value)
    _verdict("2 gram-link-identity", worst <= RES_TOL, f"max residual {worst:.2e}")


def test_criterion_3_functional_relation_both_directions():
    """Imposed u = lambda.v truncates the expansion; the disk pair recovers
    lambda proportional to 1 - x."""
    # (a) impose the functional relation and check the Fourier tail
    v = moments.disk_functional(0.0)
    lam = LinearPoly((-1.0, 0.0), 1.0)
    u = moments.left_multiply(lam, v)
    P, HP = gram_schmidt_monic(u, 6)
    Q, HQ = gram_schmidt_monic(v, 6)
    rel = compute_relation(Q, P, u, HP)
    tail_ok = rel.tail <= RES_TOL

    v2 = moments.cube_jacobi_functional((0.0, 0.0), (0.0, 0.0))
    lam2 = LinearPoly((1.0, -0.5), 2.0)
    u2 = moments.left_multiply(lam2, v2)
    P2, HP2 = gram_schmidt_monic(u2, 6)
    Q2, _ = gram_schmidt_monic(v2, 6)
    rel2 = compute_relation(Q2, P2, u2, HP2)
    tail_ok = tail_ok and rel2.tail <= RES_TOL

    # (b) recover the linking polynomial on the disk pair
    got = recover_lambda(rel, HP, HQ, v)
    gap = float(np.max(np.abs(got.direction() - lam.direction())))
    _verdict("3 functional-relation", tail_ok and gap <= RES_TOL,
             f"tails {rel.tail:.2e}/{rel2.tail:.2e}, direction gap {gap:.2e}")


def test_criterion_4_chebyshev_verdict_table():
    """24 verdicts across four kinds and six slopes match the closed rule."""
    rule = {1: lambda r: False, 2: lambda r: True,
            3: lambda r: r != 1.0, 4: lambda r: r != -1.0}
    agreements = 0
    for kind in (1, 2, 3, 4):
        for rho in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
            bundle = families.chebyshev_koornwinder_family(kind, rho, 6,
                                                           res_tol=RES_TOL,
                                                           rank_tol=RANK_TOL)
            if bundle.orthogonal_verdict == rule[kind](rho) and bundle.all_pass:
                agreements += 1
    _verdict("4 chebyshev-verdicts", agreements == 24, f"{agreements}/24 agree")


def test_criterion_5_counterexample():
    """The recurrence-compatible pair loses exactly one rank per degree."""
    combined, rel = linrel.counterexample(8)
    _, residuals = generate_from_ttr(combined, 8)
    consistency_ok = float(np.max(residuals)) <= 1e-10
    reference = linrel.reference_ttr_for_counterexample(9)
    _, partner = linrel.combined_from_reference(reference, rel, tol=1e-10,
                                                rank_tol=RANK_TOL)
    compat_ok = all(c.value <= 1e-10 for c in partner.compat)
    ranks_ok = all(
        mk.numeric_rank(combined.c(n, 1), RANK_TOL) == n - 1 for n in range(2, 9)
    )
    full = validate_rank_conditions(combined, RANK_TOL)
    others_ok = all(
        c.ok for c in full.checks
        if not (c.name == "C" and c.direction == 1) and not (c.name == "C-joint" and c.degree == 1)
    )
    _verdict("5 counterexample", consistency_ok and compat_ok and ranks_ok and others_ok,
             f"consistency {np.max(residuals):.1e}, ranks n-1 for n=2..8: {ranks_ok}")


def test_criterion_6_forward_generation_roundtrip():
    """Recurrence extraction then forward generation reproduces the blocks."""
    worst = 0.0
    for u in (moments.cube_jacobi_functional((0.0, 0.0), (0.0, 0.0)),
              moments.disk_functional(0.0)):
        P, H = gram_schmidt_monic(u, 5)
        T = compute_ttr(P, u, H)
        G, _ = generate_from_ttr(T)
        for n in range(G.N + 1):
            for k in range(n + 1):
                worst = max(worst, mk.max_abs(G.block(n, k) - P.block(n, k)))
    _verdict("6 forward-roundtrip", worst <= RES_TOL, f"max block gap {worst:.2e}")


def test_criterion_7_adjacent_reconstructions():
    """Closed-form parameter-raising relations hold coefficientwise."""
    cases = []
    for j in (1, 2):
        cases.append(("simplex", dict(kappa=(0.5, 0.5, 0.5), j=j), 5))
    for j in (1, 2, 3):
        cases.append(("simplex", dict(kappa=(0.5, 0.5, 0.5, 0.5), j=j), 4))
    for j in (1, 2):
        for raise_b in (False, True):
            cases.append(("cube", dict(a=(0.0, 0.0), b=(0.0, 0.0), j=j,
                                       raise_b=raise_b), 5))
    for j in (1, 2):
        cases.append(("laguerre", dict(kappa=(0.0, 1.0), j=j), 5))
    worst = 0.0
    for name, params, N in cases:
        bundle = families.build_family(name, N, **params)
        rec = [r for r in bundle.records if r.name == "relation-closed-form"][0]
        worst = max(worst, rec.value)
        assert bundle.all_pass, (name, params)
    _verdict("7 adjacent-reconstructions", worst <= RES_TOL,
             f"{len(cases)} cases, max residual {worst:.2e}")


def test_criterion_8_moment_oracle_cross_validation():
    """Closed-form moments against Gauss quadrature, 1e-10 relative."""
    worst = 0.0
    for mu in (0.0, 1.5):
        mass = moments.disk_moment_closed(mu, (0, 0))
        for n in range(9):
            for alpha in enumerate_indices(2, n):
                closed = moments.disk_moment_closed(mu, alpha)
                quad = disk_moment_quadrature(mu, alpha)
                # odd moments vanish identically; measure those on the mass scale
                scale = mass if closed == 0.0 else max(abs(closed), abs(quad))
                worst = max(worst, abs(closed - quad) / scale)
    for kappa in ((0.5, 0.5, 0.5), (1.0, 0.25, 0.75), (0.5, 0.5, 0.5, 0.5)):
        d = len(kappa) - 1
        for n in range(9):
            for alpha in enumerate_indices(d, n):
                closed = moments.simplex_moment_closed(kappa, alpha)
                quad = simplex_moment_quadrature(kappa, alpha)
                worst = max(worst, abs(closed - quad) / abs(quad))
    for kappa in ((0.0, 1.0), (0.5, 1.5)):
        ml = moments.multiple_laguerre_functional(kappa)
        for n in range(9):
            for alpha in enumerate_indices(2, n):
                quad = laguerre_moment_quadrature(kappa, alpha)
                worst = max(worst, abs(ml.moment(alpha) - quad) / abs(quad))
    _verdict("8 moment-cross-validation", worst <= 1e-10,
             f"max relative gap {worst:.2e}")


def test_criterion_9_quasi_definiteness_gates():
    """Roots of the denominator sequences, located by scanning the free
    parameter, pin the degree where construction must fail."""
    hits = []
    # mass-modified Laguerre, alpha = 0: roots of (a1-1) h_{n-1} + 1
    def alt(n0, a1):
        return (a1 - 1.0) * sum(1.0 / i for i in range(1, n0)) + 1.0

    for n0 in (3, 4, 5, 6):
        grid = np.linspace(0.05, 0.95, 19)
        vals = [alt(n0, a) for a in grid]
        bracket = next(i for i in range(len(grid) - 1)
                       if vals[i] * vals[i + 1] <= 0)
        root = optimize.brentq(lambda a: alt(n0, a), grid[bracket],
                               grid[bracket + 1])
        v1 = moments.krall_laguerre_functional(0.0, root)
        with pytest.raises(QuasiDefiniteFailure) as err:
            gram_schmidt_monic(v1, 6)
        hits.append(err.value.degree == n0 - 1)
        # the tensor inherits the failure at the same degree
        v2 = moments.tensor(v1, moments.laguerre_functional_1d(0.0))
        with pytest.raises(QuasiDefiniteFailure) as err2:
            gram_schmidt_monic(v2, 6)
        hits.append(err2.value.degree == n0 - 1)

    # general-parameter branch of the same family
    def al(n0, alpha, a1):
        import scipy.special as sp
        return (sp.gamma(n0) * sp.gamma(alpha + 1) * (alpha + 1 - a1)
                + (a1 - 1) * sp.gamma(n0 + alpha))

    alpha = 1.0  # analytic roots sit at (n0 - 2) / (n0 - 1)
    for n0 in (3, 5):
        root = optimize.brentq(lambda a: al(n0, alpha, a), 0.05, 0.95)
        assert root == pytest.approx((n0 - 2) / (n0 - 1), rel=1e-10)
        v1 = moments.krall_laguerre_functional(alpha, root)
        with pytest.raises(QuasiDefiniteFailure) as err:
            gram_schmidt_monic(v1, 6)
        hits.append(err.value.degree == n0 - 1)
    _verdict("9 quasi-definite-gates", all(hits),
             f"{sum(hits)}/{len(hits)} failures at the predicted degree")


def test_total_runtime_budget():
    """The full catalog re-runs comfortably inside the time budget."""
    start = time.time()
    for name, params in ORTHOGONAL_CATALOG:
        families.build_family(name, 6, **params)
    elapsed = time.time() - start
    print(f"ACCEPTANCE runtime: catalog at degree 6 in {elapsed:.1f}s")
    assert elapsed < 60.0
