"""The linear structure relation between two graded polynomial systems.

Two systems with matching leading coefficients are *linearly related* when
each degree vector of one equals the corresponding vector of the other
plus a constant matrix times the previous vector: Q_n = P_n + M_n P_{n-1}.
The relation is linear in the coefficients, so this module reads the M_n
blocks off Q_n - P_n and measures the relation by its coefficient residual
(relation_residual), with no pairing against moments.  It classifies the
blocks' ranks (for two orthogonal systems only the all-zero and all-full-
rank cases can occur), recovers the degree-one polynomial linking the two
moment functionals, verifies the identity M_n H_{n-1} = H~_n sum_i a_i
L_{n-1,i}^t tying relation, Gram and shift blocks together, and implements
the two inverse-problem validators: given the recurrence of one orthogonal
side, build the candidate recurrence of the other side and decide its
orthogonality from compatibility residuals and rank conditions.

For two tensor weights with u = (1 - x_j) v, whose monic systems are
products of univariate families that differ on axis j only, every entry of
Q_n - P_n at degree n - 1 off (nu, nu - e_j) is exactly 0.0, and so is the
same entry of M_n (Dunkl and Xu, Orthogonal Polynomials of Several
Variables, 2014, ch. 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matrixkit as mk
from .checks import Check, all_pass
# inner_block is not called here; perfbench's tracer test expects it among
# this module's names
from .construct import GramBlocks, PolySystem, inner_block  # noqa: F401
from .indexing import basis_for
from .matrixkit import DEFAULT_RES_TOL
from .moments import LinearPoly, MomentFunctional, left_multiply
from .ttr import RankReport, ThreeTermData, rank_family


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
                     H: GramBlocks | None = None) -> LinearRelation:
    """The blocks M_n of Q_n = P_n + M_n P_(n-1), read off the coefficients.

    Requires matching leading coefficient blocks (they may differ by 1e-8
    relative to the largest coefficient of Q, at least 1), so Q_n - P_n has
    degree n - 1 at most.  When the relation holds, its block at degree
    n - 1 is M_n lead(P_(n-1)), since P_(n-1) is the only term of degree
    n - 1: M_n is that block times lead(P_(n-1))^-1, the block itself for
    a monic P.  The tail is relation_residual(Q, P, rel), which certifies
    the relation when it is negligible.  u and H are not read.
    """
    if Q.d != P.d:
        raise ValueError("systems must share the dimension")
    N = min(Q.N, P.N)
    # two monic systems share their leading blocks, the identity, exactly
    if not (Q.monic and P.monic):
        scale = max(max(mk.max_abs(Q.rows[n]) for n in range(N + 1)), 1.0)
        for n in range(N + 1):
            gap = mk.max_abs(Q.leading(n) - P.leading(n))
            if gap > 1e-8 * scale:
                raise ValueError(
                    f"leading coefficients differ at degree {n} (gap {gap:.3e}); "
                    "convert both systems to a common leading normalization first"
                )
    basis = basis_for(Q.d)
    M = [None]
    for n in range(1, N + 1):
        below = basis.degree_slice(n - 1, n - 1)
        block = Q.rows[n][:, below] - P.rows[n][:, below]
        M.append(block if P.monic else mk.solve(P.leading(n - 1).T, block.T).T)
    rel = LinearRelation(Q.d, M, label=f"{Q.label} vs {P.label}")
    rel.tail = relation_residual(Q, P, rel)
    return rel


def relation_residual(Q: PolySystem, P: PolySystem, rel: LinearRelation,
                      keep: list | None = None) -> float:
    """Coefficientwise defect of Q_n = K_n P_n + M_n P_{n-1}, scale relative.

    `keep[n]` is the diagonal of K_n (index 0 unused, like rel.M); None
    means every K_n is the identity.  One pass per degree over its rows,
    with M_n applied by mk.product per column block of P_(n-1), so the
    defect is the largest of the per-block defects bit for bit.  When both
    systems are monic and every K_n is the identity, the degree-n columns
    are left out: there the identity blocks cancel and M_n P_(n-1) never
    reaches, so the defect is exactly 0.0, and Q_n's identity block adds a
    1.0 to its scale, which is at least 1 anyway.
    """
    basis = basis_for(Q.d)
    cuts = [basis.offset(k) for k in range(1, rel.N)]
    monic = keep is None and Q.monic and P.monic
    defects = []
    for n in rel.available():
        if n > min(Q.N, P.N):
            break
        low = basis.offset(n)
        if monic:
            q = Q.rows[n][:, :low]
            delta = q - P.rows[n][:, :low]
        else:
            q = Q.rows[n]
            delta = q - (P.rows[n] if keep is None else keep[n][:, None] * P.rows[n])
        delta[:, :low] -= mk.product(rel.m(n), P.rows[n - 1], cuts[:n - 1])
        defects.append(mk.max_abs(delta) / max(mk.max_abs(q), 1.0))
    return mk.worst(defects)


def classify_ranks(rel: LinearRelation, tol: float = mk.DEFAULT_RANK_TOL) -> str:
    """"zero" if every block vanishes, "full" if every block has full rank,
    otherwise "mixed".

    Two orthogonal systems can only produce "zero" or "full", so "mixed"
    there signals a modeling or numerical fault.  A relation without blocks
    has nothing to classify and raises ValueError.
    """
    if rel.N < 1:
        raise ValueError("relation has no blocks to classify")
    basis = basis_for(rel.d)
    sigmas = [mk.singular_values(rel.m(n)) for n in rel.available()]
    scale = max(max(s[0] for s in sigmas), 1e-300)
    ranks = [mk.rank_from_sv(s, tol, scale) for s in sigmas]
    if all(r == 0 for r in ranks):
        return "zero"
    if all(r == basis.size(n - 1) for r, n in zip(ranks, rel.available())):
        return "full"
    return "mixed"


def recover_lambda(rel: LinearRelation, H: GramBlocks, Ht: GramBlocks,
                   v: MomentFunctional) -> LinearPoly:
    """Degree-one polynomial with u = lambda . v, from the first block.

    The gradient comes from M_1 = H~_1 a H_0^{-1}; the constant is fixed by
    matching the zeroth moments, <u, 1> = sum_i a_i <v, x_i> + b <v, 1>.
    """
    if rel.N < 1:
        raise ValueError("relation has no degree-1 block")
    h0 = float(H.h(0)[0, 0])
    a = mk.solve(Ht.h(1), rel.m(1)).ravel() * h0
    scale = max(mk.max_abs(rel.m(1)), 1e-300)
    if np.max(np.abs(a)) <= 1e-12 * scale:
        raise ValueError("degenerate gradient recovered from a full-rank relation")
    # the degree-1 basis lists e_1..e_d in order
    b = (h0 - float(a @ v.moment_vector(1))) / float(v.moment_vector(0)[0])
    return LinearPoly(tuple(a), b)


def functional_match_residual(u: MomentFunctional, v: MomentFunctional,
                              lam: LinearPoly, max_degree: int) -> float:
    """Largest gap between the moments of u and of lambda . v, relative per
    degree to the larger moment of that degree (at least 1).  Both prefixes
    through max_degree are reduced at once (np.maximum.reduceat)."""
    mu = u.moments(max_degree)
    mlv = left_multiply(lam, v).moments(max_degree)
    starts = [u.basis.offset(n) for n in range(max_degree + 1)]
    scale = np.maximum(np.maximum.reduceat(np.abs(mu), starts),
                       np.maximum.reduceat(np.abs(mlv), starts))
    return mk.worst(np.maximum.reduceat(np.abs(mu - mlv), starts) / np.maximum(scale, 1.0))


def verify_mh(rel: LinearRelation, H: GramBlocks, Ht: GramBlocks,
              lam: LinearPoly) -> float:
    """Residual of M_n H_{n-1} = H~_n sum_i a_i L_{n-1,i}^t, over all n."""
    basis = basis_for(rel.d)
    gaps = []
    for n in rel.available():
        if n > min(H.N, Ht.N):
            break
        lhs = rel.m(n) @ H.h(n - 1)
        shift_sum = sum(
            lam.a[i - 1] * basis.shift_matrix(n - 1, i).T for i in range(1, rel.d + 1)
        )
        rhs = Ht.h(n) @ shift_sum
        scale = max(mk.max_abs(lhs), mk.max_abs(rhs), 1.0)
        gaps.append(mk.max_abs(lhs - rhs) / scale)
    return mk.worst(gaps)


# ---------------------------------------------------------------------------
# inverse problems: one side orthogonal, decide the other


@dataclass
class PartnerReport:
    """Outcome of building one side's recurrence from the other's.

    The verdict needs at least one check: a relation too short to test
    compatibility decides nothing.
    """

    compat: list[Check]
    rank_report: RankReport | None

    @property
    def checks(self) -> list[Check]:
        ranks = self.rank_report.checks if self.rank_report is not None else []
        return self.compat + ranks

    @property
    def verdict(self) -> bool:
        return all_pass(self.checks)


def compat_checks(rel: LinearRelation, ref: ThreeTermData, comb: ThreeTermData,
                  tol: float) -> list[Check]:
    """Residuals of M_n C_{n-1,i} = C~_{n,i} M_{n-1}."""
    checks = []
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite residual fails
        for n in range(2, min(ref.N, comb.N) + 1):
            for i in range(1, ref.d + 1):
                lhs = rel.m(n) @ ref.c(n - 1, i)
                rhs = comb.c(n, i) @ rel.m(n - 1)
                scale = max(mk.max_abs(lhs), mk.max_abs(rhs), 1.0)
                checks.append(Check.residual("compatibility", mk.max_abs(lhs - rhs) / scale,
                                             tol, n, i))
    return checks


def _shift_blocks(d: int, n: int):
    basis = basis_for(d)
    return [basis.shift_matrix(n, i) for i in range(1, d + 1)]


def _a_block(T: ThreeTermData, n: int, i: int) -> np.ndarray:
    """A block of the given side; falls back to the structural shift."""
    if n < len(T.A):
        return T.a(n, i)
    return basis_for(T.d).shift_matrix(n, i)


def _partner(T: ThreeTermData, rel: LinearRelation, sign: float) -> ThreeTermData:
    """Recurrence blocks of the other side of Q_n = P_n + M_n P_{n-1}.

    Both sides share the A blocks, and
        B~_n = B_n + M_n A_{n-1} - A_n M_{n+1},
        C~_n = C_n + M_n B_{n-1} - B~_n M_n.
    With sign +1, T is the reference side (B, C) and the combined side
    (B~, C~) is built; with sign -1, T is the combined side and the same
    identity is solved for the reference side.  B_n needs M_{n+1}, so the
    result stops one degree short of the relation.
    """
    d = T.d
    n_top = min(rel.N - 1, T.N)
    A = [[_a_block(T, n, i) for i in range(1, d + 1)] for n in range(n_top)]
    # large relation blocks overflow here; the non-finite blocks fail the
    # checks that read them (a NaN residual, a refused rank), so numpy's
    # warnings would only repeat that
    with np.errstate(over="ignore", invalid="ignore"):
        B: list = []
        for n in range(n_top + 1):
            row = []
            for i in range(1, d + 1):
                bt = T.b(n, i).copy()
                if n >= 1:
                    bt += sign * (rel.m(n) @ _a_block(T, n - 1, i))
                bt -= sign * (_a_block(T, n, i) @ rel.m(n + 1))
                row.append(bt)
            B.append(row)
        ref_B, comb_B = (T.B, B) if sign > 0 else (B, T.B)
        C: list = [None]
        for n in range(1, n_top + 1):
            row = []
            for i in range(1, d + 1):
                ct = T.c(n, i).copy()
                ct += sign * (rel.m(n) @ ref_B[n - 1][i - 1])
                ct -= sign * (comb_B[n][i - 1] @ rel.m(n))
                row.append(ct)
            C.append(row)
    return ThreeTermData(d, A, B, C)


def reference_from_combined(T_q: ThreeTermData, rel: LinearRelation,
                            tol: float = DEFAULT_RES_TOL
                            ) -> tuple[ThreeTermData, PartnerReport]:
    """Build the reference side's recurrence from the combined (orthogonal)
    side and decide whether the reference system is orthogonal.

    The verdict is the conjunction of compatibility residuals (rank
    conditions on the reference side follow automatically).
    """
    candidate = _partner(T_q, rel, -1.0)
    checks = compat_checks(rel, candidate, T_q, tol)
    return candidate, PartnerReport(checks, None)


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
    candidate = _partner(T_p, rel, 1.0)
    checks = compat_checks(rel, T_p, candidate, tol)
    Ct = {n: candidate.C[n] for n in range(1, candidate.N + 1)}
    ranks = RankReport(rank_family("C~", candidate.d, Ct, rank_tol, lower=True))
    return candidate, PartnerReport(checks, ranks)


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
    return _partner(reference, rel, 1.0), rel


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
