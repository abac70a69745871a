"""Catalog of concrete linearly related orthogonal families.

Each builder constructs a pair of polynomial systems, the closed-form
relation blocks connecting them, and a bundle of named checks: the
coefficientwise relation residual, structural checks on the relation
matrices, and the cross-checks through the relation machinery (rank
dichotomy, recovered linking polynomial, Gram-link identity).  Bundles
where the combined system is predictably *not* orthogonal carry that
expectation so callers can score "fails as predicted" as agreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as sp

from . import matrixkit as mk
from . import moments, mpoly
from .checks import Check, all_pass
from .construct import (PolySystem, RhoMap, gram_blocks, gram_offdiag_residual,
                        gram_schmidt_monic, koornwinder_system, system_from_rows,
                        tensor_system)
from .indexing import basis_for, enumerate_indices
from .linrel import (LinearRelation, classify_ranks, combined_from_reference,
                     compute_relation, functional_match_residual,
                     recover_lambda, relation_residual, verify_mh)
from .matrixkit import DEFAULT_RANK_TOL, DEFAULT_RES_TOL
from .moments import LinearPoly, MomentFunctional, ParameterError
from .ttr import ThreeTermData


def _check_range(name: str, value: int, lo: int, hi: int) -> None:
    if not lo <= value <= hi:
        raise ParameterError(f"{name} must be in {lo}..{hi}, got {value}")


# ---------------------------------------------------------------------------
# scalar coefficient evaluators


def pochhammer(a: float, n: int) -> float:
    out = 1.0
    for i in range(n):
        out *= a + i
    return out


def jacobi_orthonormal_lower(m: int, a: float, b: float) -> float:
    """Coefficient of the same-degree term when raising b by one."""
    return math.sqrt(
        2 * (m + b + 1) * (m + a + b + 1) / ((2 * m + a + b + 2) * (2 * m + a + b + 1))
    )


def jacobi_orthonormal_drop(m: int, a: float, b: float) -> float:
    """Coefficient of the degree-lowered term when raising b by one."""
    if m == 0:
        return 0.0
    return math.sqrt(2 * m * (m + a) / ((2 * m + a + b + 1) * (2 * m + a + b)))


def jacobi_standard_keep(m: int, a: float, b: float) -> float:
    """f coefficient of the standard-normalization a-raising relation."""
    return (m + a + b + 1) / (2 * m + a + b + 1)


def jacobi_standard_drop(m: int, a: float, b: float) -> float:
    """g coefficient of the standard-normalization a-raising relation."""
    return (m + b) / (2 * m + a + b + 1)


def simplex_norm_sq(kappa, nu) -> float:
    """Squared normalization of the simplex product-formula basis row."""
    d = len(nu)
    num = 1.0
    for j in range(1, d + 1):
        num *= pochhammer(
            sum(kappa[j - 1:]) + 2 * sum(nu[j:]) + (d - j + 2) / 2.0, 2 * nu[j - 1]
        )
    return num / pochhammer(sum(kappa) + (d + 1) / 2.0, 2 * sum(nu))


def krall_laguerre_coefficient(alpha: float, a1: float, n: int) -> float:
    """Relation coefficient a_n for the mass-modified Laguerre family."""
    if n < 1:
        raise ValueError("defined for n >= 1")
    if n == 1:
        return a1
    if alpha != 0.0:
        def al(m):
            return (sp.gamma(m) * sp.gamma(alpha + 1) * (alpha + 1 - a1)
                    + (a1 - 1) * sp.gamma(m + alpha))
        return al(n + 1) / al(n)

    def alt(m):
        return (a1 - 1) * sum(1.0 / i for i in range(1, m)) + 1.0

    return n * alt(n + 1) / alt(n)


def krall_jacobi_coefficient(alpha: float, beta: float, a1: float, n: int) -> float:
    """Relation coefficient a_n for the mass-modified Jacobi family."""
    if n < 1:
        raise ValueError("defined for n >= 1")
    if n == 1:
        return a1
    if alpha != 0.0:
        mass_ratio = -(2 * (beta + 1) + a1 * (alpha + beta + 1) * (alpha + beta + 2)) / (
            2 * (alpha + 1) + a1 * (alpha + beta + 2)
        )

        def al(m):
            return (sp.gamma(alpha + 1) * sp.gamma(alpha + beta + 2) * sp.gamma(m)
                    * sp.gamma(m + beta)
                    + mass_ratio * sp.gamma(beta + 1) * sp.gamma(m + alpha)
                    * sp.gamma(m + alpha + beta))

        s = 2 * n + alpha + beta
        return -2.0 / (s * (s - 1)) * al(n + 1) / al(n)

    def alt(m):
        return (2 * (beta + 2) / (2 + a1 * (beta + 2))
                - (beta + 1) * sum(1.0 / i + 1.0 / (beta + i) for i in range(1, m)))

    return -2 * n * (n + beta) / ((2 * n + beta) * (2 * n + beta - 1)) * alt(n + 1) / alt(n)


def chebyshev_lambda(rec: moments.Recurrence1D, n: int, rho: float) -> float:
    """Diagonal value of the constructed C~ block for the symmetrized pair."""
    a = rec.orthonormal_offdiag()
    b = rec.b
    return a[n - 1] - rho**2 * (a[n - 1] - a[n]) + rho * (b[n - 1] - b[n])


def chebyshev_scalar_condition(rec: moments.Recurrence1D, n: int, rho: float) -> float:
    """Defect of the first-direction compatibility identity at degree n."""
    a = rec.orthonormal_offdiag()
    b = rec.b
    return (a[n - 1] - a[n - 2]) + rho * (b[n - 1] - b[n]) + rho**2 * (a[n] - a[n - 1])


def chebyshev_relation_matrix(n: int, rho: float) -> np.ndarray:
    """The (n+1) x n quasi-orthogonality block for the symmetrized pair."""
    m = np.zeros((n + 1, n))
    for r in range(n - 1):
        m[r, r] = rho
    m[n - 1, n - 1] = math.sqrt(2.0) * rho
    m[n, n - 1] = -rho * rho
    return m


def chebyshev_ctilde_closed_form(rec: moments.Recurrence1D, n: int, rho: float) -> np.ndarray:
    """Closed form of the first-direction C~ block, degrees n >= 2."""
    a = rec.orthonormal_offdiag()
    lam = chebyshev_lambda(rec, n, rho)
    out = np.zeros((n + 1, n))
    for r in range(n - 1):
        out[r, r] = lam
    out[n - 1, n - 2] = rho * a[n - 2]
    out[n - 1, n - 1] = math.sqrt(2.0) * lam
    out[n, n - 2] = -math.sqrt(2.0) * rho**2 * a[n - 2]
    out[n, n - 1] = -2.0 * rho * lam
    return out


# ---------------------------------------------------------------------------
# 1-d coefficient families


def orthonormal_jacobi_coeffs(a: float, b: float, N: int) -> list[np.ndarray]:
    """Jacobi polynomials of unit norm against the raw weight mass."""
    return moments.jacobi_recurrence(N, a, b).orthonormal_coeffs()


def standard_jacobi_coeffs(a: float, b: float, N: int) -> list[np.ndarray]:
    """Jacobi polynomials in the classical normalization P_m(1) = C(m+a, m)."""
    polys = [np.array([1.0])]
    if N >= 1:
        polys.append(np.array([(a - b) / 2.0, (a + b + 2) / 2.0]))
    for m in range(2, N + 1):
        s = 2 * m + a + b
        c1 = 2 * m * (m + a + b) * (s - 2)
        c2 = (s - 1) * (a**2 - b**2)
        c3 = (s - 1) * s * (s - 2)
        c4 = 2 * (m + a - 1) * (m + b - 1) * s
        prev, prev2 = polys[m - 1], polys[m - 2]
        nxt = np.zeros(m + 1)
        nxt[1:] += c3 * prev
        nxt[: m] += c2 * prev
        nxt[: m - 1] -= c4 * prev2
        polys.append(nxt / c1)
    return polys


def standard_laguerre_coeffs(alpha: float, N: int) -> list[np.ndarray]:
    """Laguerre polynomials in the classical normalization (leading (-1)^m/m!)."""
    out = []
    for m in range(N + 1):
        c = np.array([
            (-1.0) ** i * sp.binom(m + alpha, m - i) / sp.gamma(i + 1.0)
            for i in range(m + 1)
        ])
        out.append(c)
    return out


# ---------------------------------------------------------------------------
# explicit system builders


def simplex_orthonormal_system(kappa, N: int, first: int = 1) -> PolySystem:
    """Product-formula basis on the simplex, orthogonal for the Dirichlet weight.

    `first` picks which coordinate plays the leading role in the nested
    construction (the weight is symmetric under permuting coordinates, so
    any choice yields an orthogonal basis); parameter-raising relations in
    direction j take the clean two-term form exactly for first = j.
    """
    kappa = [float(k) for k in kappa]
    d = len(kappa) - 1
    order = [first] + [x for x in range(1, d + 1) if x != first]
    kperm = [kappa[o - 1] for o in order] + [kappa[d]]
    # factor j is a form in (arg, hom), which depend on j and `first` only
    tables = []
    for j in range(d):
        prev = [o - 1 for o in order[:j]]
        arg = [2.0 if l == order[j] - 1 else float(l in prev) for l in range(d)]
        hom = [-1.0 if l in prev else 0.0 for l in range(d)]
        tables.append(mpoly.form_table(mpoly.linear(d, arg, -1.0), mpoly.linear(d, hom, 1.0)))
    # one Jacobi list per parameter pair: degree m of a longer list is the
    # same float computation as the last entry of a list through m
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
                    jacobi[aj, bj] = orthonormal_jacobi_coeffs(aj, bj, N)
                c = jacobi[aj, bj][nperm[j - 1]]
                poly = mpoly.mul(poly, tables[j - 1](c))
            rows[nu] = poly / math.sqrt(simplex_norm_sq(kperm, nperm))
    return system_from_rows(rows, d, N, f"simplex(kappa={tuple(kappa)},dir={first})")


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


def symmetrized_chebyshev_system(kind: int, N: int) -> PolySystem:
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


def lower_shift_with_values(d: int, n: int, j: int, values: dict) -> np.ndarray:
    """Matrix with values[nu] at (position of nu, position of nu - e_j)."""
    basis = basis_for(d)
    out = np.zeros((basis.size(n), basis.size(n - 1)))
    for nu, val in values.items():
        if nu[j - 1] < 1:
            continue
        down = tuple(v - (1 if l == j - 1 else 0) for l, v in enumerate(nu))
        out[basis.position(nu), basis.position(down)] = val
    return out


# ---------------------------------------------------------------------------
# bundles


@dataclass
class FamilyBundle:
    name: str
    params: dict
    d: int
    N: int
    records: list[Check] = field(default_factory=list)
    orthogonal_verdict: bool = True
    expected_orthogonal: bool | None = None
    extras: dict = field(default_factory=dict)

    def residual_check(self, name, value, bound, degree=None, direction=None) -> None:
        self.records.append(Check.residual(name, value, bound, degree, direction))

    def flag_check(self, name, ok, degree=None, direction=None) -> None:
        self.records.append(Check.flag(name, ok, degree, direction))

    @property
    def all_pass(self) -> bool:
        return all_pass(self.records)

    @property
    def matches_expectation(self) -> bool:
        if self.expected_orthogonal is None:
            return self.all_pass
        checks_ok = all(r.ok for r in self.records if not r.name.startswith("verdict"))
        return checks_ok and self.orthogonal_verdict == self.expected_orthogonal


def _cross_checks(bundle: FamilyBundle, Q: PolySystem, P: PolySystem,
                  u: MomentFunctional, v: MomentFunctional,
                  expected_lambda: LinearPoly | None,
                  res_tol: float, rank_tol: float) -> LinearRelation:
    """Relation-machinery checks shared by every catalog pair.

    Q must be orthogonal for v, P for u, with u = lambda . v.  Both systems
    are converted to monic form, the relation blocks are computed by
    Fourier expansion, and rank dichotomy, the recovered linking
    polynomial, the functional identity and the Gram-link identity are all
    verified.  Returns the relation between the monic forms.
    """
    N = min(Q.N, P.N)
    Qm = Q if Q.monic else Q.to_monic()
    Pm = P if P.monic else P.to_monic()
    HP, HQ = gram_blocks(u, Pm), gram_blocks(v, Qm)
    bundle.residual_check("orthogonality-combined", gram_offdiag_residual(v, Qm, HQ), res_tol)
    bundle.residual_check("orthogonality-reference", gram_offdiag_residual(u, Pm, HP), res_tol)
    rel = compute_relation(Qm, Pm, u, HP)
    bundle.residual_check("fourier-tail", rel.tail, res_tol)
    classification = classify_ranks(rel, rank_tol)
    bundle.flag_check("rank-dichotomy", classification in ("zero", "full"))
    bundle.extras["classification"] = classification
    if classification == "full":
        lam = recover_lambda(rel, HP, HQ, v)
        bundle.extras["lambda"] = lam
        bundle.residual_check(
            "functional-identity", functional_match_residual(u, v, lam, 2 * N), res_tol
        )
        bundle.residual_check("gram-link", verify_mh(rel, HP, HQ, lam), res_tol)
        if expected_lambda is not None:
            gap = float(np.max(np.abs(lam.direction() - expected_lambda.direction())))
            bundle.residual_check("lambda-direction", gap, res_tol)
    return rel


def disk_family(mu: float, N: int, res_tol: float = DEFAULT_RES_TOL,
                rank_tol: float = DEFAULT_RANK_TOL) -> FamilyBundle:
    """Adjacent weights on the unit disk: (1-x^2-y^2)^mu against its (1-x)
    multiple, built through the nested square-root mapping."""
    bundle = FamilyBundle("disk", {"mu": mu}, d=2, N=N)
    v = moments.disk_functional(mu)
    u = moments.left_multiply(LinearPoly((-1.0, 0.0), 1.0), v, label=f"(1-x)*{v.label}")
    rho = RhoMap.sqrt_poly(1.0, 0.0, -1.0)
    w2 = moments.jacobi_functional_1d(mu, mu)
    Q, _ = koornwinder_system(
        moments.jacobi_functional_1d(mu + 0.5, mu + 0.5), w2, rho, N
    )
    P, _ = koornwinder_system(
        moments.jacobi_functional_1d(mu + 1.5, mu + 0.5), w2, rho, N
    )

    # closed-form relation blocks in the shared product basis
    M: list = [None]
    for n in range(1, N + 1):
        m = np.zeros((n + 1, n))
        for k in range(n):
            m[k, k] = -(n - k) / (2.0 * n + 2.0 * mu + 2.0)
        M.append(m)
    rel = LinearRelation(2, M, label="disk closed form")
    bundle.residual_check("relation-closed-form", relation_residual(Q, P, rel), res_tol)
    computed = compute_relation(Q, P, u, gram_blocks(u, P))
    gap = mk.worst(mk.max_abs(computed.m(n) - rel.m(n)) for n in range(1, N + 1))
    bundle.residual_check("relation-matches-display", gap, res_tol)
    bundle.extras["relation"] = computed
    _cross_checks(bundle, Q, P, u, v, LinearPoly((-1.0, 0.0), 1.0), res_tol, rank_tol)
    bundle.orthogonal_verdict = bundle.all_pass
    return bundle


def krall_tensor_family(kind: str, N: int, a1: float, alpha: float = 0.0,
                        beta: float = 0.0, wy_param: float = 0.0,
                        res_tol: float = DEFAULT_RES_TOL,
                        rank_tol: float = DEFAULT_RANK_TOL) -> FamilyBundle:
    """Tensor pair with a point-mass-modified first factor.

    kind "laguerre": v_x is the Laguerre functional divided by x plus a
    mass at 0, so x v = u and the linking polynomial is x.  kind "jacobi":
    division by (1-x) plus a mass at 1, linking polynomial 1 - x.  The
    second factor is a classical weight with parameter `wy_param`.
    """
    if kind == "laguerre":
        ux = moments.laguerre_functional_1d(alpha)
        vx = moments.krall_laguerre_functional(alpha, a1)
        wy = moments.laguerre_functional_1d(wy_param)
        lam = LinearPoly((1.0, 0.0), 0.0)
        coeff = lambda n: krall_laguerre_coefficient(alpha, a1, n)
        params = {"alpha": alpha, "a1": a1, "kappa2": wy_param}
    elif kind == "jacobi":
        ux = moments.jacobi_functional_1d(alpha, beta)
        vx = moments.krall_jacobi_functional(alpha, beta, a1)
        wy = moments.jacobi_functional_1d(wy_param, wy_param)
        lam = LinearPoly((-1.0, 0.0), 1.0)
        coeff = lambda n: krall_jacobi_coefficient(alpha, beta, a1, n)
        params = {"alpha": alpha, "beta": beta, "a1": a1, "ay": wy_param}
    else:
        raise ValueError(f"unknown krall kind {kind!r}")
    bundle = FamilyBundle(f"krall-{kind}", params, d=2, N=N)

    u = moments.tensor(ux, wy)
    v = moments.tensor(vx, wy)
    P, _ = gram_schmidt_monic(u, N)
    Q, _ = gram_schmidt_monic(v, N)

    M: list = [None]
    for n in range(1, N + 1):
        m = np.zeros((n + 1, n))
        for k in range(n):
            m[k, k] = coeff(n - k)
        M.append(m)
    rel = LinearRelation(2, M, label=f"krall-{kind} closed form")
    bundle.residual_check("relation-closed-form", relation_residual(Q, P, rel), res_tol)
    computed = _cross_checks(bundle, Q, P, u, v, lam, res_tol, rank_tol)
    # row (n, 0) of Q_n is q_n(x), so M_n[0, 0] is the 1-d coefficient a_n
    gap1 = mk.worst(abs(float(computed.m(n)[0, 0]) - coeff(n)) / max(1.0, abs(coeff(n)))
                    for n in range(1, N + 1))
    bundle.residual_check("coefficients-1d", gap1, res_tol)
    gap = mk.worst(mk.max_abs(computed.m(n) - rel.m(n)) /
                   max(1.0, mk.max_abs(rel.m(n))) for n in range(1, N + 1))
    bundle.residual_check("relation-matches-display", gap, res_tol)
    bundle.extras["relation"] = computed
    bundle.orthogonal_verdict = bundle.all_pass
    return bundle


def _chebyshev_angle_grid(kind: int, points: int):
    """Uniform angle grid making Chebyshev-weight integrals exact.

    Returns node values x = cos(theta) and weights summing to one; the rule
    integrates any polynomial of degree below (points - 3) in x exactly
    against the unit-mass weight of the given kind.
    """
    theta = (np.arange(points) + 0.5) * (2.0 * np.pi / points)
    x = np.cos(theta)
    if kind == 1:
        g = np.ones_like(x)
    elif kind == 2:
        g = 2.0 * np.sin(theta) ** 2
    elif kind == 3:
        g = 1.0 - x
    elif kind == 4:
        g = 1.0 + x
    else:
        raise ValueError(f"chebyshev kind must be 1..4, got {kind}")
    return x, g / points


def _orthonormal_values(rec: moments.Recurrence1D, x: np.ndarray, N: int) -> list:
    """Values of the orthonormal family on the nodes, by the recurrence."""
    a = rec.orthonormal_offdiag()
    vals = [np.ones_like(x)]
    if N >= 1:
        vals.append((x - rec.b[0]) / a[0])
    for m in range(1, N):
        vals.append(((x - rec.b[m]) * vals[m] - a[m - 1] * vals[m - 1]) / a[m])
    return vals


def symmetrized_chebyshev_ttr(kind: int, N: int) -> tuple:
    """Recurrence blocks of the symmetrized-product system, from moments.

    All pairings are evaluated on an exact trigonometric product grid in
    value space, which keeps every quantity at unit scale and avoids the
    cancellation the monomial-coefficient route suffers at high degree.
    Returns (blocks, orthonormality residual).
    """
    pts = 4 * N + 16
    x, w = _chebyshev_angle_grid(kind, pts)
    rec = moments.chebyshev_recurrence(N + 1, kind)
    p = _orthonormal_values(rec, x, N + 1)
    U = np.add.outer(x, x)[:, None, :]
    V = np.outer(x, x)[:, None, :]
    root_w = np.sqrt(w)

    # rows[n]: the degree-n rows times sqrt(weight) as (grid row, basis row,
    # grid column); a block sums one matrix product per grid row, which keeps
    # each accumulation short (one product over all pts^2 nodes loses a digit)
    rows: list = []
    for n in range(N + 1):
        block = np.empty((pts, n + 1, pts))
        for k in range(n + 1):
            f = np.outer(p[n] * root_w, p[k] * root_w)
            block[:, k, :] = (f + f.T) / math.sqrt(2.0) if k < n else f
        rows.append(block)

    def pair(fa, fb):
        return (fa @ fb.transpose(0, 2, 1)).sum(axis=0)

    ortho = mk.worst(
        mk.max_abs(pair(rows[n], rows[m_]) - (np.eye(n + 1) if m_ == n else 0.0))
        for n in range(N + 1) for m_ in range(n + 1))

    A, B, C = [], [], [None]
    for n in range(N + 1):
        a_row, b_row, c_row = [], [], []
        for coord in (U, V):
            shifted = rows[n] * coord
            b_row.append(pair(shifted, rows[n]))
            if n >= 1:
                c_row.append(pair(shifted, rows[n - 1]))
            if n < N:
                a_row.append(pair(shifted, rows[n + 1]))
        if n < N:
            A.append(a_row)
        B.append(b_row)
        if n >= 1:
            C.append(c_row)
    return ThreeTermData(2, A, B, C), ortho


def chebyshev_koornwinder_family(kind: int, rho: float, N: int,
                                 res_tol: float = DEFAULT_RES_TOL,
                                 rank_tol: float = DEFAULT_RANK_TOL) -> FamilyBundle:
    """Quasi-orthogonal modification of the symmetrized Chebyshev system.

    The orthonormal base system lives in the symmetric variables of a
    Chebyshev product weight; adding the closed-form rank-one-generated
    blocks produces the system whose common zeros supply minimal cubature
    nodes.  Orthogonality of the modified system holds exactly for kind 2
    (any rho), kind 3 (rho != 1) and kind 4 (rho != -1), and fails for
    kind 1 whenever rho != 0; the bundle carries that expectation.
    """
    _check_range("kind", kind, 1, 4)
    if not math.isfinite(rho):
        raise ParameterError(f"rho must be finite, got {rho}")
    expected = (
        rho == 0.0
        or (kind == 2)
        or (kind == 3 and rho != 1.0)
        or (kind == 4 and rho != -1.0)
    )
    bundle = FamilyBundle(
        "cheb-koornwinder", {"kind": kind, "rho": rho}, d=2, N=N,
        expected_orthogonal=expected,
    )
    T, ortho = symmetrized_chebyshev_ttr(kind, N + 1)
    bundle.residual_check("orthonormality", ortho, res_tol)
    cerr = mk.worst(
        mk.max_abs(T.c(n, i) - T.a(n - 1, i).T)
        for n in range(1, N + 1) for i in (1, 2)
    )
    bundle.residual_check("orthonormal-c-transpose", cerr, res_tol)

    rec = moments.chebyshev_recurrence(N + 2, kind)
    M: list = [None]
    for n in range(1, N + 2):
        M.append(chebyshev_relation_matrix(n, rho))
    rel = LinearRelation(2, M, label=f"cheb{kind} rho={rho}")
    bundle.extras["relation"] = rel

    if rho == 0.0:
        bundle.orthogonal_verdict = True
        bundle.extras["classification"] = "zero"
        return bundle

    candidate, report = combined_from_reference(T, rel, tol=res_tol, rank_tol=rank_tol)
    bundle.extras["report"] = report
    compat_i1 = [c for c in report.compat if c.direction == 1]
    agree = all(c.ok == (abs(chebyshev_scalar_condition(rec, c.degree, rho)) <= res_tol)
                for c in compat_i1)
    bundle.flag_check("scalar-condition-agrees", agree)

    align_gaps, lam_gaps = [], []
    for n in range(2, N + 1):
        closed = chebyshev_ctilde_closed_form(rec, n, rho)
        got = candidate.c(n, 1)
        align_gaps.append(mk.max_abs(got - closed))
        lam_gaps.extend(abs(got[r, r] - chebyshev_lambda(rec, n, rho)) for r in range(n - 1))
    bundle.residual_check("ctilde-closed-form", mk.worst(align_gaps), res_tol)
    bundle.residual_check("lambda-diagonal", mk.worst(lam_gaps), res_tol)
    bundle.orthogonal_verdict = bool(report.verdict)
    return bundle


def _closed_form_residual(bundle: FamilyBundle, Q: PolySystem, P: PolySystem, j: int,
                          keep, drop) -> float:
    """Defect of Q_n = K_n P_n + M_n P_{n-1} over degrees 1..N.

    K_n is diagonal with keep(nu) in the row of nu; M_n holds drop(nu) at
    (nu, nu - e_j) for every nu with nu_j >= 1.  Stores the blocks as the
    bundle's "K_blocks" and "M_blocks" extras.
    """
    basis = basis_for(bundle.d)
    defects, K_blocks, M_blocks = [], [], []
    for n in range(1, bundle.N + 1):
        K = np.diag([keep(nu) for nu in basis.indices(n)])
        Mh = lower_shift_with_values(
            bundle.d, n, j, {nu: drop(nu) for nu in basis.indices(n) if nu[j - 1] >= 1}
        )
        K_blocks.append(K)
        M_blocks.append(Mh)
        for k in range(n + 1):
            delta = Q.block(n, k) - K @ P.block(n, k)
            if k < n:
                delta = delta - Mh @ P.block(n - 1, k)
            defects.append(mk.max_abs(delta))
    bundle.extras["K_blocks"] = K_blocks
    bundle.extras["M_blocks"] = M_blocks
    return mk.worst(defects)


def simplex_family(kappa, j: int, N: int, res_tol: float = DEFAULT_RES_TOL,
                   rank_tol: float = DEFAULT_RANK_TOL) -> FamilyBundle:
    """Parameter-raising relation for the Dirichlet weight on the simplex."""
    kappa = [float(k) for k in kappa]
    d = len(kappa) - 1
    _check_range("j", j, 1, d)
    bundle = FamilyBundle("simplex", {"kappa": tuple(kappa), "j": j}, d=d, N=N)
    kp = list(kappa)
    kp[j - 1] += 1.0
    v = moments.simplex_functional(kappa)
    u = moments.simplex_functional(kp)
    Q = simplex_orthonormal_system(kappa, N, first=j)
    P = simplex_orthonormal_system(kp, N, first=j)

    order = [j] + [x for x in range(1, d + 1) if x != j]
    kperm = [kappa[o - 1] for o in order] + [kappa[d]]
    kpperm = [kp[o - 1] for o in order] + [kp[d]]
    b1 = kperm[0] - 0.5

    def permuted(nu):
        nperm = [nu[o - 1] for o in order]
        return nperm, sum(kperm[1:]) + 2 * sum(nperm[1:]) + (d - 2) / 2.0

    def keep(nu):
        nperm, a1 = permuted(nu)
        ratio = math.sqrt(simplex_norm_sq(kpperm, nperm) / simplex_norm_sq(kperm, nperm))
        return ratio * jacobi_orthonormal_lower(nperm[0], a1, b1)

    def drop(nu):
        nperm, a1 = permuted(nu)
        nm = [nperm[0] - 1] + nperm[1:]
        return math.sqrt(
            simplex_norm_sq(kpperm, nm) / simplex_norm_sq(kperm, nperm)
        ) * jacobi_orthonormal_drop(nperm[0], a1, b1)

    bundle.residual_check("relation-closed-form",
                          _closed_form_residual(bundle, Q, P, j, keep, drop), res_tol)
    _cross_checks(bundle, Q, P, u, v,
                  LinearPoly(tuple(1.0 if l == j - 1 else 0.0 for l in range(d)), 0.0),
                  res_tol, rank_tol)
    bundle.orthogonal_verdict = bundle.all_pass
    return bundle


def cube_family(a, b, j: int, raise_b: bool, N: int,
                res_tol: float = DEFAULT_RES_TOL,
                rank_tol: float = DEFAULT_RANK_TOL) -> FamilyBundle:
    """Parameter-raising relations for the tensor Jacobi weight on the cube.

    raise_b False: raise a_j, relation with a minus sign on the lowered
    term; raise_b True: raise b_j, plus sign with the g coefficient's
    arguments swapped.
    """
    a = [float(x) for x in a]
    b = [float(x) for x in b]
    d = len(a)
    _check_range("j", j, 1, d)
    sign = "+b" if raise_b else "+a"
    bundle = FamilyBundle("cube", {"a": tuple(a), "b": tuple(b), "j": j,
                                   "variant": sign}, d=d, N=N)
    a2, b2 = list(a), list(b)
    if raise_b:
        b2[j - 1] += 1.0
    else:
        a2[j - 1] += 1.0
    v = moments.cube_jacobi_functional(a, b)
    u = moments.cube_jacobi_functional(a2, b2)
    axis0 = [standard_jacobi_coeffs(a[ax], b[ax], N) for ax in range(d)]
    axis1 = [standard_jacobi_coeffs(a2[ax], b2[ax], N) for ax in range(d)]
    Q = tensor_system(axis0, N, f"cube{tuple(a)}x{tuple(b)}")
    P = tensor_system(axis1, N, f"cube{tuple(a2)}x{tuple(b2)}")

    aj, bj = a[j - 1], b[j - 1]

    def keep(nu):
        return jacobi_standard_keep(nu[j - 1], aj, bj)

    def drop(nu):
        if raise_b:
            return jacobi_standard_drop(nu[j - 1], bj, aj)
        return -jacobi_standard_drop(nu[j - 1], aj, bj)

    bundle.residual_check("relation-closed-form",
                          _closed_form_residual(bundle, Q, P, j, keep, drop), res_tol)
    lam_coeffs = tuple(
        (-1.0 if not raise_b else 1.0) if l == j - 1 else 0.0 for l in range(d)
    )
    _cross_checks(bundle, Q, P, u, v, LinearPoly(lam_coeffs, 1.0), res_tol, rank_tol)
    bundle.orthogonal_verdict = bundle.all_pass
    return bundle


def laguerre_family(kappa, j: int, N: int, res_tol: float = DEFAULT_RES_TOL,
                    rank_tol: float = DEFAULT_RANK_TOL) -> FamilyBundle:
    """Parameter-raising relation for the tensor Laguerre weight."""
    kappa = [float(k) for k in kappa]
    d = len(kappa)
    _check_range("j", j, 1, d)
    bundle = FamilyBundle("laguerre", {"kappa": tuple(kappa), "j": j}, d=d, N=N)
    kp = list(kappa)
    kp[j - 1] += 1.0
    v = moments.multiple_laguerre_functional(kappa)
    u = moments.multiple_laguerre_functional(kp)
    axis0 = [standard_laguerre_coeffs(kappa[ax], N) for ax in range(d)]
    axis1 = [standard_laguerre_coeffs(kp[ax], N) for ax in range(d)]
    Q = tensor_system(axis0, N, f"laguerre{tuple(kappa)}")
    P = tensor_system(axis1, N, f"laguerre{tuple(kp)}")

    worst = _closed_form_residual(bundle, Q, P, j, lambda nu: 1.0, lambda nu: -1.0)
    basis = basis_for(d)
    for n, Mh in enumerate(bundle.extras["M_blocks"], start=1):
        gap = mk.max_abs(Mh + basis.shift_matrix(n - 1, j).T)
        bundle.residual_check("shift-structure", gap, 0.0, degree=n, direction=j)
    bundle.residual_check("relation-closed-form", worst, res_tol)
    _cross_checks(bundle, Q, P, u, v,
                  LinearPoly(tuple(1.0 if l == j - 1 else 0.0 for l in range(d)), 0.0),
                  res_tol, rank_tol)
    bundle.orthogonal_verdict = bundle.all_pass
    return bundle


# ---------------------------------------------------------------------------
# registry


def build_family(name: str, N: int, res_tol: float = DEFAULT_RES_TOL,
                 rank_tol: float = DEFAULT_RANK_TOL, **params) -> FamilyBundle:
    """The named catalog family through degree N >= 1 (every relation,
    Gram-link and rank check starts at degree 1)."""
    if N < 1:
        raise ParameterError(f"N must be >= 1, got {N}")
    name = name.lower()
    if name == "disk":
        return disk_family(params.get("mu", 0.0), N, res_tol, rank_tol)
    if name == "cheb-koornwinder":
        return chebyshev_koornwinder_family(
            int(params.get("kind", 2)), params.get("rho", 0.5), N, res_tol, rank_tol
        )
    if name == "krall-laguerre":
        return krall_tensor_family(
            "laguerre", N, params.get("a1", 1.0), alpha=params.get("alpha", 1.0),
            wy_param=params.get("kappa2", 0.0), res_tol=res_tol, rank_tol=rank_tol,
        )
    if name == "krall-jacobi":
        return krall_tensor_family(
            "jacobi", N, params.get("a1", 1.0), alpha=params.get("alpha", 0.0),
            beta=params.get("beta", 0.0), wy_param=params.get("ay", 0.0),
            res_tol=res_tol, rank_tol=rank_tol,
        )
    if name == "simplex":
        kappa = params.get("kappa", (0.5, 0.5, 0.5))
        return simplex_family(kappa, int(params.get("j", 1)), N, res_tol, rank_tol)
    if name == "cube":
        d = int(params.get("d", 2))
        a = params.get("a", (0.0,) * d)
        b = params.get("b", (0.0,) * d)
        return cube_family(a, b, int(params.get("j", 1)),
                           bool(params.get("raise_b", False)), N, res_tol, rank_tol)
    if name == "laguerre":
        kappa = params.get("kappa", (0.0, 1.0))
        return laguerre_family(kappa, int(params.get("j", 1)), N, res_tol, rank_tol)
    raise KeyError(f"unknown family {name!r}")


FAMILY_NAMES = (
    "disk", "cheb-koornwinder", "krall-laguerre", "krall-jacobi",
    "simplex", "cube", "laguerre",
)
