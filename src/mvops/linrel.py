"""The linear structure relation between two graded polynomial systems.

Two systems with matching leading coefficients are *linearly related* when
each degree vector of one equals the corresponding vector of the other
plus a constant matrix times the previous vector: Q_n = P_n + M_n P_{n-1}.
This module computes the M_n blocks by Fourier expansion, classifies their
ranks (for two orthogonal systems only the all-zero and all-full-rank
cases can occur), recovers the degree-one polynomial linking the two
moment functionals, verifies the identity M_n H_{n-1} = H~_n sum_i a_i
L_{n-1,i}^t tying relation, Gram and shift blocks together, and implements
the two inverse-problem validators: given the recurrence of one orthogonal
side, build the candidate recurrence of the other side and decide its
orthogonality from compatibility residuals and rank conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matrixkit as mk
from .construct import GramBlocks, PolySystem, inner_block
from .indexing import basis_for, joint_matrix
from .matrixkit import DEFAULT_RES_TOL
from .moments import LinearPoly, MomentFunctional, left_multiply
from .ttr import RankCheck, RankReport, ThreeTermData


@dataclass
class LinearRelation:
    """Blocks M_n of Q_n = P_n + M_n P_{n-1}; index 0 is unused."""

    d: int
    M: list
    tail: float = 0.0
    label: str = ""

    @property
    def N(self) -> int:
        return len(self.M) - 1

    def m(self, n: int) -> np.ndarray:
        return self.M[n]

    def available(self) -> range:
        return range(1, self.N + 1)


def compute_relation(Q: PolySystem, P: PolySystem, u: MomentFunctional,
                     H: GramBlocks, lead_tol: float = 1e-8) -> LinearRelation:
    """Fourier coefficients of Q against the u-orthogonal system P.

    Requires matching leading coefficient blocks, so each difference
    Q_n - P_n has lower degree and expands over P_0..P_{n-1}.  The block
    against P_{n-1} is M_n; the reported tail is the largest coefficient
    against any P_j with j <= n-2, relative to the coefficient scale, and
    certifies the two-term relation when it is negligible.
    """
    if Q.d != P.d:
        raise ValueError("systems must share the dimension")
    N = min(Q.N, P.N)
    scale = max(
        max(mk.max_abs(Q.block(n, k)) for n in range(N + 1) for k in range(n + 1)), 1.0
    )
    for n in range(N + 1):
        gap = mk.max_abs(Q.leading(n) - P.leading(n))
        if gap > lead_tol * scale:
            raise ValueError(
                f"leading coefficients differ at degree {n} (gap {gap:.3e}); "
                "convert both systems to a common leading normalization first"
            )
    M: list = [None]
    tail = 0.0
    for n in range(1, N + 1):
        coeffs = []
        for j in range(n):
            s = inner_block(u, Q, n, P, j)
            coeffs.append(H.solve_right(j, s))
        M.append(coeffs[n - 1])
        for j in range(n - 1):
            tail = max(tail, mk.max_abs(coeffs[j]) / scale)
    return LinearRelation(Q.d, M, tail=tail, label=f"{Q.label} vs {P.label}")


def relation_residual(Q: PolySystem, P: PolySystem, rel: LinearRelation) -> float:
    """Coefficientwise defect of Q_n = P_n + M_n P_{n-1}, scale relative."""
    worst = 0.0
    for n in rel.available():
        if n > min(Q.N, P.N):
            break
        scale = max(
            max(mk.max_abs(Q.block(n, k)) for k in range(n + 1)), 1.0
        )
        for k in range(n + 1):
            delta = Q.block(n, k) - P.block(n, k)
            if k < n:
                delta = delta - rel.m(n) @ P.block(n - 1, k)
            worst = max(worst, mk.max_abs(delta) / scale)
    return worst


def classify_ranks(rel: LinearRelation, tol: float = mk.DEFAULT_RANK_TOL,
                   expect_dichotomy: bool = False) -> str:
    """"zero" if every block vanishes, "full" if every block has full rank,
    otherwise "mixed".

    Two orthogonal systems can only produce "zero" or "full", so "mixed"
    there signals a modeling or numerical fault; pass expect_dichotomy=True
    to turn that outcome into an exception instead of a silent string.
    """
    basis = basis_for(rel.d)
    sigmas = [mk.singular_values(rel.m(n)) for n in rel.available()]
    if not sigmas:
        return "zero"
    scale = max(max(s[0] for s in sigmas), 0.0)
    ranks = [
        mk.numeric_rank(rel.m(n), tol, scale=max(scale, 1e-300))
        for n in rel.available()
    ]
    if all(r == 0 for r in ranks):
        return "zero"
    if all(r == basis.size(n - 1) for r, n in zip(ranks, rel.available())):
        return "full"
    if expect_dichotomy:
        detail = {n: r for n, r in zip(rel.available(), ranks)}
        raise ValueError(
            f"mixed relation ranks {detail} on a supposedly orthogonal pair"
        )
    return "mixed"


def recover_lambda(rel: LinearRelation, H: GramBlocks, Ht: GramBlocks,
                   v: MomentFunctional) -> LinearPoly:
    """Degree-one polynomial with u = lambda . v, from the first block.

    The gradient comes from M_1 = H~_1 a H_0^{-1}; the constant is fixed by
    matching the zeroth moments, <u, 1> = sum_i a_i <v, x_i> + b <v, 1>.
    """
    d = rel.d
    if rel.N < 1:
        raise ValueError("relation has no degree-1 block")
    h0 = float(H.h(0)[0, 0])
    a = mk.solve(Ht.h(1), rel.m(1)).ravel() * h0
    scale = max(mk.max_abs(rel.m(1)), 1e-300)
    if np.max(np.abs(a)) <= 1e-12 * scale:
        raise ValueError("degenerate gradient recovered from a full-rank relation")
    ones = (0,) * d
    mv0 = v.moment(ones)
    mv1 = np.array([v.moment(tuple(1 if j == i else 0 for j in range(d)))
                    for i in range(d)])
    b = (h0 - float(a @ mv1)) / mv0
    return LinearPoly(tuple(a), b)


def functional_match_residual(u: MomentFunctional, v: MomentFunctional,
                              lam: LinearPoly, max_degree: int) -> float:
    """Largest relative gap between moments of u and of lambda . v."""
    lv = left_multiply(lam, v)
    basis = basis_for(u.d)
    worst = 0.0
    for n in range(max_degree + 1):
        mu = u.moment_vector(n, basis)
        mlv = lv.moment_vector(n, basis)
        scale = max(np.max(np.abs(mu)), np.max(np.abs(mlv)), 1.0)
        worst = max(worst, float(np.max(np.abs(mu - mlv))) / scale)
    return worst


def verify_mh(rel: LinearRelation, H: GramBlocks, Ht: GramBlocks,
              lam: LinearPoly) -> float:
    """Residual of M_n H_{n-1} = H~_n sum_i a_i L_{n-1,i}^t, over all n."""
    basis = basis_for(rel.d)
    worst = 0.0
    for n in rel.available():
        if n > min(H.N, Ht.N):
            break
        lhs = rel.m(n) @ H.h(n - 1)
        shift_sum = sum(
            lam.a[i - 1] * basis.shift_matrix(n - 1, i).T for i in range(1, rel.d + 1)
        )
        rhs = Ht.h(n) @ shift_sum
        scale = max(mk.max_abs(lhs), mk.max_abs(rhs), 1.0)
        worst = max(worst, mk.max_abs(lhs - rhs) / scale)
    return worst


# ---------------------------------------------------------------------------
# inverse problems: one side orthogonal, decide the other


@dataclass
class CompatCheck:
    n: int
    i: int
    residual: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.residual <= self.tol


@dataclass
class PartnerReport:
    """Outcome of building one side's recurrence from the other's."""

    compat: list = field(default_factory=list)
    rank_report: RankReport | None = None
    degrees_covered: tuple = ()
    verdict: bool = False

    @property
    def compat_ok(self) -> bool:
        return all(c.ok for c in self.compat)

    def to_records(self) -> list[dict]:
        recs = [
            {
                "check": "compatibility",
                "degree": c.n,
                "direction": c.i,
                "residual": c.residual,
                "pass": c.ok,
            }
            for c in self.compat
        ]
        if self.rank_report is not None:
            recs.extend(self.rank_report.to_records())
        return recs


def _compat_checks(rel: LinearRelation, C_ref: list, C_cand: list, d: int,
                   n_range, tol: float) -> list[CompatCheck]:
    """Residuals of M_n C_{n-1,i} = C~_{n,i} M_{n-1}."""
    checks = []
    for n in n_range:
        for i in range(1, d + 1):
            lhs = rel.m(n) @ C_ref[n - 1][i - 1]
            rhs = C_cand[n][i - 1] @ rel.m(n - 1)
            scale = max(mk.max_abs(lhs), mk.max_abs(rhs), 1.0)
            checks.append(CompatCheck(n, i, mk.max_abs(lhs - rhs) / scale, tol))
    return checks


def _shift_blocks(d: int, n: int):
    basis = basis_for(d)
    return [basis.shift_matrix(n, i) for i in range(1, d + 1)]


def _a_block(T: ThreeTermData, n: int, i: int) -> np.ndarray:
    """A block of the given side; falls back to the structural shift."""
    if n < len(T.A):
        return T.a(n, i)
    return basis_for(T.d).shift_matrix(n, i)


def reference_from_combined(T_q: ThreeTermData, rel: LinearRelation,
                            tol: float = DEFAULT_RES_TOL,
                            rank_tol: float = mk.DEFAULT_RANK_TOL
                            ) -> tuple[ThreeTermData, PartnerReport]:
    """Build the reference side's recurrence from the combined (orthogonal)
    side and decide whether the reference system is orthogonal.

    Both A families are the structural shifts.  B blocks need the next
    relation matrix, so coverage stops one degree short of the relation;
    the verdict is the conjunction of compatibility residuals (rank
    conditions on the reference side follow automatically).
    """
    d = T_q.d
    n_top = min(rel.N - 1, T_q.N)
    A = [[_a_block(T_q, n, i) for i in range(1, d + 1)] for n in range(n_top)]
    B: list = []
    for n in range(n_top + 1):
        row = []
        for i in range(1, d + 1):
            bt = T_q.b(n, i).copy()
            if n >= 1:
                bt -= rel.m(n) @ _a_block(T_q, n - 1, i)
            bt += _a_block(T_q, n, i) @ rel.m(n + 1)
            row.append(bt)
        B.append(row)
    C: list = [None]
    for n in range(1, n_top + 1):
        row = []
        for i in range(1, d + 1):
            ct = T_q.c(n, i).copy()
            ct -= rel.m(n) @ B[n - 1][i - 1]
            ct += T_q.b(n, i) @ rel.m(n)
            row.append(ct)
        C.append(row)
    candidate = ThreeTermData(d, A, B, C)
    checks = _compat_checks(rel, C, [None] + [T_q.C[n] for n in range(1, n_top + 1)],
                            d, range(2, n_top + 1), tol)
    report = PartnerReport(
        compat=checks,
        rank_report=None,
        degrees_covered=(0, n_top),
        verdict=all(c.ok for c in checks),
    )
    return candidate, report


def combined_from_reference(T_p: ThreeTermData, rel: LinearRelation,
                            tol: float = DEFAULT_RES_TOL,
                            rank_tol: float = mk.DEFAULT_RANK_TOL
                            ) -> tuple[ThreeTermData, PartnerReport]:
    """Build the combined side's recurrence from the reference (orthogonal)
    side and decide whether the combined system is orthogonal.

    Unlike the converse direction, the rank conditions on the constructed
    C~ blocks are *not* implied by compatibility and are checked
    explicitly: each C~_{n,i} must have full rank and so must the joint of
    their transposes.
    """
    d = T_p.d
    basis = basis_for(d)
    n_top = min(rel.N - 1, T_p.N)
    A = [[_a_block(T_p, n, i) for i in range(1, d + 1)] for n in range(n_top)]
    Bt: list = []
    for n in range(n_top + 1):
        row = []
        for i in range(1, d + 1):
            bt = T_p.b(n, i).copy()
            if n >= 1:
                bt += rel.m(n) @ _a_block(T_p, n - 1, i)
            bt -= _a_block(T_p, n, i) @ rel.m(n + 1)
            row.append(bt)
        Bt.append(row)
    Ct: list = [None]
    for n in range(1, n_top + 1):
        row = []
        for i in range(1, d + 1):
            ct = T_p.c(n, i).copy()
            ct += rel.m(n) @ T_p.b(n - 1, i)
            ct -= Bt[n][i - 1] @ rel.m(n)
            row.append(ct)
        Ct.append(row)
    candidate = ThreeTermData(d, A, Bt, Ct)
    checks = _compat_checks(rel, [None] + [T_p.C[n] for n in range(1, n_top + 1)],
                            Ct, d, range(2, n_top + 1), tol)
    # rank decisions share one scale so a block that is zero up to noise
    # registers as deficient instead of trivially full against itself
    scale = max(
        (mk.singular_values(Ct[n][i - 1])[0]
         for n in range(1, n_top + 1) for i in range(1, d + 1)),
        default=1.0,
    )
    scale = max(scale, 1e-300)
    rank_report = RankReport()
    for n in range(1, n_top + 1):
        for i in range(1, d + 1):
            rank_report.checks.append(
                RankCheck("C~", n, i,
                          mk.numeric_rank(Ct[n][i - 1], rank_tol, scale=scale),
                          basis.size(n - 1))
            )
        joint = joint_matrix([Ct[n][i - 1].T for i in range(1, d + 1)])
        rank_report.checks.append(
            RankCheck("C~-joint", n, None,
                      mk.numeric_rank(joint, rank_tol, scale=scale),
                      basis.size(n))
        )
    report = PartnerReport(
        compat=checks,
        rank_report=rank_report,
        degrees_covered=(0, n_top),
        verdict=all(c.ok for c in checks) and rank_report.ok,
    )
    return candidate, report


def counterexample(n_max: int) -> tuple[ThreeTermData, LinearRelation]:
    """Two-variable recurrence data satisfying every compatibility identity
    whose combined system is nevertheless not orthogonal.

    The reference blocks are A = L, C = -L^t and B = L C - C L (each B is
    diagonal with a single -1 entry).  Taking M_n equal to the first
    C block produces combined-side blocks whose first-direction C~ loses
    exactly one rank per degree, so the rank conditions fail while all
    residual checks pass.  Returns the combined-side blocks and the
    relation.
    """
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    reference = reference_ttr_for_counterexample(n_max + 1)
    M: list = [None]
    for n in range(1, n_max + 2):
        M.append(reference.c(n, 1))
    rel = LinearRelation(2, M, tail=0.0, label="counterexample")
    combined, _ = combined_from_reference(reference, rel)
    return combined, rel


def reference_ttr_for_counterexample(n_max: int) -> ThreeTermData:
    """The orthogonal reference recurrence underlying `counterexample`."""
    d = 2
    basis = basis_for(d)
    A = [_shift_blocks(d, n) for n in range(n_max)]
    C: list = [None]
    for n in range(1, n_max + 1):
        C.append([-basis.shift_matrix(n - 1, i).T for i in range(1, d + 1)])
    B = []
    for n in range(n_max):
        row = []
        for i in range(1, d + 1):
            b = basis.shift_matrix(n, i) @ C[n + 1][i - 1]
            if n >= 1:
                b -= C[n][i - 1] @ basis.shift_matrix(n - 1, i)
            row.append(b)
        B.append(row)
    return ThreeTermData(d, A, B, C)
