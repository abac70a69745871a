"""Catalog of concrete linearly related orthogonal families.

Each builder constructs a pair of polynomial systems, the closed-form
relation blocks connecting them, and a bundle of named checks: the
coefficientwise relation residual, structural checks on the relation
matrices, and the cross-checks through the relation machinery (rank
dichotomy, recovered linking polynomial, Gram-link identity).  The five
parameter-raising builders state Q_n = K_n P_n + M_n P_{n-1} with
K_n = diag(keep(nu)) and M_n = diag(drop(nu)) L_{n-1,j}^t through one
builder, _closed_form, and one scale-relative residual.  Bundles where the
combined system is predictably *not* orthogonal carry that expectation so
callers can score "fails as predicted" as agreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import matrixkit as mk
from . import moments, mpoly
from .checks import Check, all_pass
from .construct import (PolySystem, gram_blocks, gram_schmidt_monic,
                        koornwinder_system, system_from_rows, tensor_system)
from .indexing import basis_for
from .linrel import (LinearRelation, classify_ranks, combined_from_reference,
                     compute_relation, functional_match_residual,
                     recover_lambda, relation_residual, verify_mh)
from .matrixkit import DEFAULT_RANK_TOL, DEFAULT_RES_TOL
from .moments import LinearPoly, MomentFunctional, ParameterError, gamma
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


def krall_laguerre_coefficient(alpha: float, a1: float, n: int) -> float:
    """Relation coefficient a_n for the mass-modified Laguerre family."""
    if n < 1:
        raise ValueError("defined for n >= 1")
    if n == 1:
        return a1
    if alpha != 0.0:
        def al(m):
            # divided by Gamma(alpha + 1), which overflows above alpha ~ 170,
            # as a Pochhammer symbol (m >= 2)
            return gamma(m) * (alpha + 1 - a1) + (a1 - 1) * pochhammer(alpha + 1, m - 1)
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
            # divided by Gamma(alpha + 1) Gamma(alpha + beta + 2), which
            # overflow above alpha ~ 170, as Pochhammer symbols (m >= 2)
            return (gamma(m) * gamma(m + beta) + mass_ratio * gamma(beta + 1)
                    * pochhammer(alpha + 1, m - 1) * pochhammer(alpha + beta + 2, m - 2))

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
    """Laguerre polynomials in the classical normalization (leading (-1)^m/m!):
    the coefficient of x^i in L_m is (-1)^i binom(m + alpha, m - i) / i!."""
    out = []
    for m in range(N + 1):
        c = np.array([
            (-1.0) ** i * _binomial(alpha + i, m - i) / gamma(i + 1.0)
            for i in range(m + 1)
        ])
        out.append(c)
    return out


def _binomial(low: float, k: int) -> float:
    """binom(low + k, k) for real low > -1, as the product of (low + j) / j
    over j = 1..k.

    The partial products are the binomials binom(low + j, j), monotone in j
    (every factor is at least 1, or every one below 1), so none overflows
    where the binomial is finite.  Each step multiplies before it divides,
    which keeps an integer binomial exact while it stays below 2^53, and
    divides first where the product alone would overflow.
    """
    out = 1.0
    for j in range(1, k + 1):
        step = out * (low + j)
        out = step / j if step < math.inf else out / j * (low + j)
    return out


# ---------------------------------------------------------------------------
# explicit system builders


class _SimplexFactors:
    """The product formula's factors in one direction, through degree N.

    Factor j of row nu is a form in two linear polynomials that depend on
    j and the direction only, so each j has one form table; the form is
    evaluated at the orthonormal Jacobi coefficients of degree n_j with
    parameters (a_j, b_j), where n, a and b are read in the direction's
    coordinate order, and a_j depends on the row through
    s = n_(j+1) + ... + n_d alone.  Each Jacobi list runs through the
    highest degree N - s a row reads of it, and factor j is evaluated per
    degree m, one stack over every s <= N - m, so the systems of two
    weights built in one direction share every stack they have in common.
    A row is the product of its factors in order, started from the first:
    the products f_1 ... f_j of every row prefix with one s are one stack,
    and each is multiplied by f_j of one (n_j, s) in one `mpoly.mul`.
    """

    def __init__(self, d: int, first: int, N: int):
        self.order = [first] + [x for x in range(1, d + 1) if x != first]
        self.N = N
        self.tables = []
        for j in range(d):
            prev = [o - 1 for o in self.order[:j]]
            arg = [2.0 if l == self.order[j] - 1 else float(l in prev) for l in range(d)]
            hom = [-1.0 if l in prev else 0.0 for l in range(d)]
            self.tables.append(mpoly.form_table(mpoly.linear(d, arg, -1.0),
                                                mpoly.linear(d, hom, 1.0)))
        self._stacks: dict = {}

    def permuted(self, kappa: list) -> list:
        return [kappa[o - 1] for o in self.order] + [kappa[len(self.order)]]

    def norms(self, kappa: list) -> np.ndarray:
        """Squared norm of every row nu of degree <= N, in graded order,
        with n = nu and kappa in the direction's order:
        prod_j (kappa_j + ... + kappa_(d+1) + 2 (n_(j+1) + ... + n_d)
        + (d - j + 2) / 2)_(2 n_j) over (|kappa| + (d + 1) / 2)_(2 |n|).
        Each Pochhammer symbol is a running product from 1.0 in the order
        of `pochhammer`, read off one table per j, and the numerator runs
        over j in order.  ParameterError unless each norm is a positive
        finite float."""
        d, N = len(self.order), self.N
        kperm = self.permuted(kappa)
        exps = basis_for(d).graded_exponents(N)
        nperm = exps[:, [o - 1 for o in self.order]]
        tails = np.cumsum(nperm[:, ::-1], axis=1)[:, ::-1]   # tails[:, j] = sum(nperm[j:])
        s = np.arange(N + 1)
        with np.errstate(over="ignore", invalid="ignore"):   # refused just below
            for j in range(1, d + 1):
                table = _pochhammer_table(sum(kperm[j - 1:]) + 2 * s + (d - j + 2) / 2.0, 2 * N)
                factor = table[tails[:, j] if j < d else 0, 2 * nperm[:, j - 1]]
                num = factor if j == 1 else num * factor
            h = num / _pochhammer_table(np.array([sum(kperm) + (d + 1) / 2.0]), 2 * N)[
                0, 2 * tails[:, 0]]
        bad = np.flatnonzero(~((h > 0.0) & (h < math.inf)))
        if bad.size:
            raise ParameterError(f"simplex squared norm at {tuple(exps[bad[0]].tolist())} for "
                                 f"kappa={tuple(kappa)} is {float(h[bad[0]])!r}, not a "
                                 "positive finite float")
        return h

    def systems(self, kappas: list, norms: list) -> list:
        """The systems of the weights kappas, each row over the square root
        of its entry of norms[i] (graded order)."""
        d, N = len(self.order), self.N
        params = [[(self._a_values(kperm, j), kperm[j - 1] - 0.5) for j in range(1, d + 1)]
                  for kperm in map(self.permuted, kappas)]
        # one Jacobi list per parameter pair: degree m of a longer list is
        # the same float computation as the last entry of a list through m
        need: dict = {}
        for a, b in (ab for factors in params for ab in factors):
            for s, aj in enumerate(a):
                need[aj, b] = max(need.get((aj, b), 0), N - s)
        jacobi = {key: orthonormal_jacobi_coeffs(*key, top) for key, top in need.items()}
        box = (N + 1,) * d
        where = basis_for(d).entry_positions(box).reshape(box)
        axes = np.argsort([o - 1 for o in self.order])   # nu = ms[:, axes]
        out = []
        for kappa, factors, h in zip(kappas, params, norms):
            groups = []
            evaluated = [self._evaluated(j, a, b, jacobi) for j, (a, b) in enumerate(factors, 1)]
            for ms, stack in self._products(evaluated):
                nus = ms[:, axes]
                scale = np.sqrt(h[where[tuple(nus.T)]])
                groups.append((nus, stack / scale.reshape(-1, *(1,) * d)))
            out.append(system_from_rows(groups, d, N,
                                        f"simplex(kappa={tuple(kappa)},dir={self.order[0]})"))
        return out

    def _a_values(self, kperm: list, j: int) -> list:
        """a_j at s = 0..N, at s = 0 alone for the last factor."""
        d = len(self.order)
        return [sum(kperm[j:]) + 2 * s + (d - j - 1) / 2.0
                for s in range(self.N + 1 if j < d else 1)]

    def _evaluated(self, j: int, a: list, b: float, jacobi: dict) -> list:
        """Factor j at each degree m: the stack of its forms at the Jacobi
        lists (a[s], b), s <= N - m, evaluated from the highest degree down
        so that its form table is built once."""
        key = (j, tuple(a), b)
        if key not in self._stacks:
            N = self.N
            stacks = [self.tables[j - 1](np.array([jacobi[x, b][m] for x in a[:N - m + 1]]))
                      for m in reversed(range(N + 1))]
            self._stacks[key] = stacks[::-1]
        return self._stacks[key]

    def _products(self, factors: list):
        """(ms, stack) pairs covering every row of degree <= N once: ms holds
        the rows' n in the direction's order, stack their products of
        factors.  factors[j - 1][m][s] is f_j of degree m at s."""
        d, N = len(self.order), self.N
        # level[s]: the prefixes n_1..n_j with sum <= N - s and their f_1 ... f_j
        first = factors[0]
        shape = np.maximum.accumulate([f.shape[1:] for f in first])   # through degree m
        table = np.zeros((len(first[0]), N + 1, *shape[-1]))
        for m, f in enumerate(first):
            table[(slice(0, len(f)), m, *(slice(0, x) for x in f.shape[1:]))] = f
        level = [(np.arange(N - s + 1)[:, None],
                  table[(s, slice(0, N - s + 1), *(slice(0, x) for x in shape[N - s]))])
                 for s in range(len(first[0]))]
        for j in range(2, d + 1):
            nxt = []
            for s in range(len(factors[j - 1][0])):
                parts = []
                for m in range(N - s + 1):
                    ms, stack = level[m + s]
                    parts.append((np.column_stack((ms, np.full(len(ms), m))),
                                  mpoly.mul(stack, factors[j - 1][m][s][None])))
                if j == d:   # the last factor has s = 0 alone
                    return parts
                nxt.append((np.vstack([p[0] for p in parts]),
                            _padded_stack([p[1] for p in parts])))
            level = nxt
        return level   # d = 1: the first factor is the last


def _padded_stack(stacks: list) -> np.ndarray:
    """The stacks one after another, zero-padded to their largest shape."""
    shape = np.max([s.shape[1:] for s in stacks], axis=0)
    out = np.zeros((sum(len(s) for s in stacks), *shape))
    row = 0
    for s in stacks:
        out[(slice(row, row + len(s)), *(slice(0, x) for x in s.shape[1:]))] = s
        row += len(s)
    return out


def _pochhammer_table(base, n: int) -> np.ndarray:
    """pochhammer(base[r], k) at [r, k], k = 0..n: each the running product
    of pochhammer, in its order."""
    base = np.asarray(base, dtype=float)
    table = np.ones((len(base), n + 1))
    table[:, 1:] = np.multiply.accumulate(base[:, None] + np.arange(n), axis=1)
    return table


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
    are converted to monic form and paired once each with their functional
    (Gram blocks and orthogonality residual), the relation blocks are read
    off their coefficients, and rank dichotomy, the recovered linking
    polynomial, the functional identity and the Gram-link identity are all
    verified.  Returns the relation between the monic forms.
    """
    N = min(Q.N, P.N)
    Qm = Q if Q.monic else Q.to_monic()
    Pm = P if P.monic else P.to_monic()
    HP, HQ = gram_blocks(u, Pm), gram_blocks(v, Qm)
    bundle.residual_check("orthogonality-combined", HQ.offdiag_residual, res_tol)
    bundle.residual_check("orthogonality-reference", HP.offdiag_residual, res_tol)
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


def _closed_form(bundle: FamilyBundle, Q: PolySystem, P: PolySystem, j: int,
                 drop, res_tol: float, keep=None) -> LinearRelation:
    """Closed form of Q_n = K_n P_n + M_n P_{n-1} over degrees 1..N, checked.

    K_n = diag(keep(nu)), the identity when keep is None, and
    M_n = diag(drop(nu)) L_{n-1,j}^t: drop(nu) at (nu, nu - e_j), so drop
    is called only where nu_j >= 1.  Records the scale-relative
    "relation-closed-form" residual and returns the relation.
    """
    basis, degrees = basis_for(bundle.d), range(1, bundle.N + 1)
    M = [None]
    for n in degrees:
        nus, rows = basis.indices(n), basis.shift_index(n - 1, j)   # rows: alpha + e_j
        M.append(np.zeros((len(nus), rows.size)))
        M[n][rows, np.arange(rows.size)] = [drop(nus[r]) for r in rows]
    K = None if keep is None else [None] + [np.array([keep(nu) for nu in basis.indices(n)])
                                            for n in degrees]
    rel = LinearRelation(bundle.d, M, label=f"{bundle.name} closed form")
    bundle.residual_check("relation-closed-form", relation_residual(Q, P, rel, K), res_tol)
    return rel


def _matches_display(bundle: FamilyBundle, computed: LinearRelation,
                     rel: LinearRelation, res_tol: float) -> None:
    """Gap between computed and closed-form M_n, relative to max(1, |M_n|)."""
    gap = mk.worst(mk.max_abs(computed.m(n) - rel.m(n)) / max(1.0, mk.max_abs(rel.m(n)))
                   for n in rel.available())
    bundle.residual_check("relation-matches-display", gap, res_tol)


def disk_family(mu: float, N: int, res_tol: float = DEFAULT_RES_TOL,
                rank_tol: float = DEFAULT_RANK_TOL) -> FamilyBundle:
    """Adjacent weights on the unit disk: (1-x^2-y^2)^mu against its (1-x)
    multiple, built through the nested square-root mapping."""
    bundle = FamilyBundle("disk", {"mu": mu}, d=2, N=N)
    v = moments.disk_functional(mu)
    u = moments.left_multiply(LinearPoly((-1.0, 0.0), 1.0), v, label=f"(1-x)*{v.label}")
    Q = koornwinder_system(mu + 0.5, mu + 0.5, mu, N)
    P = koornwinder_system(mu + 1.5, mu + 0.5, mu, N)

    # closed-form relation blocks in the shared product basis
    rel = _closed_form(bundle, Q, P, 1,
                       lambda nu: -nu[0] / (2.0 * sum(nu) + 2.0 * mu + 2.0), res_tol)
    computed = compute_relation(Q, P, u)
    _matches_display(bundle, computed, rel, res_tol)
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

    rel = _closed_form(bundle, Q, P, 1, lambda nu: coeff(nu[0]), res_tol)
    computed = _cross_checks(bundle, Q, P, u, v, lam, res_tol, rank_tol)
    # row (n, 0) of Q_n is q_n(x), so M_n[0, 0] is the 1-d coefficient a_n
    gap1 = mk.worst(abs(float(computed.m(n)[0, 0]) - coeff(n)) / max(1.0, abs(coeff(n)))
                    for n in range(1, N + 1))
    bundle.residual_check("coefficients-1d", gap1, res_tol)
    _matches_display(bundle, computed, rel, res_tol)
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
    The grid is a product rule and every integrand a sum of separable
    products, so each pairing is read off one-dimensional sums: with
    phi_a = p_a sqrt(w) on the nodes, G = Phi Phi^t and X = Phi diag(x) Phi^t,
        sum_(g,h) K(x_g, x_h) (phi_a (x) phi_b)(phi_c (x) phi_d) = L_ac R_bd
    where (L, R) is (G, G) for K = 1, (X, G) + (G, X) for K = x + y and
    (X, X) for K = x y.  It is the grid's discrete inner product summed in
    another order, so only rounding differs from summing over all nodes, and
    each sum runs over pts nodes rather than pts^2.  Nothing is symmetrized
    by hand, so orthonormal-c-transpose still measures the rounding.
    Returns (blocks, orthonormality residual).
    """
    pts = 4 * N + 16
    x, w = _chebyshev_angle_grid(kind, pts)
    rec = moments.chebyshev_recurrence(N + 1, kind)
    phi = np.array(_orthonormal_values(rec, x, N + 1)) * np.sqrt(w)
    G, X = phi @ phi.T, (phi * x) @ phi.T

    # row (n, k), k <= n, is s (phi_n (x) phi_k + phi_k (x) phi_n) with
    # s = 1/sqrt(2) for k < n and 1/2 for k = n; rows are ordered by degree
    deg, k = np.tril_indices(N + 1)
    s = np.where(k < deg, math.sqrt(0.5), 0.5)
    scale = np.outer(s, s)
    g, xg = ([m[np.ix_(left, right)] for left, right in ((deg, deg), (k, k), (deg, k), (k, deg))]
             for m in (G, X))

    def pair(L, R):
        # the four products of rows (a, b) and (c, d): L_ac R_bd + L_bd R_ac
        # + L_ad R_bc + L_bc R_ad, summed so that where a = b and c = d the
        # four equal products make exactly 4 times one before the 1/4 scale
        return scale * ((L[0] * R[1] + L[1] * R[0]) + (L[2] * R[3] + L[3] * R[2]))

    gram = pair(g, g)
    ortho = mk.max_abs((gram - np.eye(deg.size))[deg[:, None] >= deg[None, :]])
    coords = (pair(xg, g) + pair(g, xg), pair(xg, xg))   # x + y, x y
    at = [slice(n * (n + 1) // 2, (n + 1) * (n + 2) // 2) for n in range(N + 1)]
    A = [[c[at[n], at[n + 1]] for c in coords] for n in range(N)]
    B = [[c[at[n], at[n]] for c in coords] for n in range(N + 1)]
    C = [None] + [[c[at[n], at[n - 1]] for c in coords] for n in range(1, N + 1)]
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
    if N < 2:
        raise ParameterError(f"cheb-koornwinder needs N >= 2, got {N}: through degree 1 "
                             "no check tells a non-orthogonal modification from an orthogonal one")
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


def simplex_family(kappa, j: int, N: int, res_tol: float = DEFAULT_RES_TOL,
                   rank_tol: float = DEFAULT_RANK_TOL) -> FamilyBundle:
    """Parameter-raising relation for the Dirichlet weight on the simplex.

    Q and P share the direction's form tables and common factors, and the
    closed form reads their row norms."""
    kappa = [float(k) for k in kappa]
    d = len(kappa) - 1
    # refuses a kappa too short for a simplex before j's range is read
    v = moments.simplex_functional(kappa)
    _check_range("j", j, 1, d)
    bundle = FamilyBundle("simplex", {"kappa": tuple(kappa), "j": j}, d=d, N=N)
    kp = list(kappa)
    kp[j - 1] += 1.0
    u = moments.simplex_functional(kp)
    factors = _SimplexFactors(d, j, N)
    norms, pnorms = factors.norms(kappa), factors.norms(kp)
    Q, P = factors.systems([kappa, kp], [norms, pnorms])
    basis = basis_for(d)

    def at(nu):
        return basis.offset(sum(nu)) + basis.position(nu)

    kperm = factors.permuted(kappa)
    b1 = kperm[0] - 0.5

    def a1(nu):
        return sum(kperm[1:]) + 2 * (sum(nu) - nu[j - 1]) + (d - 2) / 2.0

    def keep(nu):
        ratio = math.sqrt(pnorms[at(nu)] / norms[at(nu)])
        return ratio * jacobi_orthonormal_lower(nu[j - 1], a1(nu), b1)

    def drop(nu):
        lower = tuple(x - (l == j - 1) for l, x in enumerate(nu))
        ratio = math.sqrt(pnorms[at(lower)] / norms[at(nu)])
        return ratio * jacobi_orthonormal_drop(nu[j - 1], a1(nu), b1)

    _closed_form(bundle, Q, P, j, drop, res_tol, keep)
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
    # refuses vectors of unequal length before b2[j - 1] is read
    v = moments.cube_jacobi_functional(a, b)
    a2, b2 = list(a), list(b)
    if raise_b:
        b2[j - 1] += 1.0
    else:
        a2[j - 1] += 1.0
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

    _closed_form(bundle, Q, P, j, drop, res_tol, keep)
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

    _closed_form(bundle, Q, P, j, lambda nu: -1.0, res_tol)
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
    Gram-link and rank check starts at degree 1).  A parameter the family
    does not read raises ParameterError before anything is built."""
    if N < 1:
        raise ParameterError(f"N must be >= 1, got {N}")
    name = name.lower()
    take = params.pop   # what is left in params at the end was not read
    if name == "disk":
        build = partial(disk_family, take("mu", 0.0), N)
    elif name == "cheb-koornwinder":
        build = partial(chebyshev_koornwinder_family, int(take("kind", 2)), take("rho", 0.5), N)
    elif name == "krall-laguerre":
        build = partial(krall_tensor_family, "laguerre", N, take("a1", 1.0),
                        alpha=take("alpha", 1.0), wy_param=take("kappa2", 0.0))
    elif name == "krall-jacobi":
        build = partial(krall_tensor_family, "jacobi", N, take("a1", 1.0),
                        alpha=take("alpha", 0.0), beta=take("beta", 0.0), wy_param=take("ay", 0.0))
    elif name == "simplex":
        build = partial(simplex_family, take("kappa", (0.5, 0.5, 0.5)), int(take("j", 1)), N)
    elif name == "cube":
        d = int(take("d", 2))
        build = partial(cube_family, take("a", (0.0,) * d), take("b", (0.0,) * d),
                        int(take("j", 1)), bool(take("raise_b", False)), N)
    elif name == "laguerre":
        build = partial(laguerre_family, take("kappa", (0.0, 1.0)), int(take("j", 1)), N)
    else:
        raise KeyError(f"unknown family {name!r}")
    if params:
        raise ParameterError(f"family {name!r} does not read {', '.join(sorted(params))}")
    return build(res_tol=res_tol, rank_tol=rank_tol)


FAMILY_NAMES = (
    "disk", "cheb-koornwinder", "krall-laguerre", "krall-jacobi",
    "simplex", "cube", "laguerre",
)
