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

The expansion takes one of two routes.  A pair of monic tensor systems, P
the monic system of a tensor functional u and Q a product of univariate
monic families, expands axis by axis: each q^(i)_k is p^(i)_k plus a
combination of lower p^(i)_m, and the coefficients of every Q_n against
every P_k are the tensor product of those per-axis expansions, whose
rows (construct._tensor_rows) give M_n and the tail with no system built.
The factors' recurrences behind P come from moments, kept on each factor
(MomentFunctional.recurrence).  For two
weights with u = (1 - x_j) v, M_n then holds one nonzero per row, at
(nu, nu - e_j), and every other entry is exactly 0.0 (Dunkl and Xu,
Orthogonal Polynomials of Several Variables, 2014, ch. 3).  Every other
pair is paired in d variables against the functional's moments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matrixkit as mk
from .checks import Check, all_pass
from . import construct
# inner_block is not called here; perfbench's tracer test expects it among
# this module's names
from .construct import (GramBlocks, PolySystem, axis_tables, factor_tables,  # noqa: F401
                        gram_blocks, inner_block, pair_blocks, pair_systems)
from .indexing import basis_for
from .matrixkit import DEFAULT_RES_TOL
from .moments import LinearPoly, MomentFunctional, QuasiDefiniteFailure, left_multiply
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
    """Fourier coefficients of Q against the u-orthogonal system P.

    Requires matching leading coefficient blocks, so each difference
    Q_n - P_n has lower degree and expands over P_0..P_{n-1}.  The block
    against P_{n-1} is M_n; the reported tail is the largest coefficient
    against any P_j with j <= n-2, relative to the coefficient scale (the
    largest coefficient of Q, at least 1), and certifies the two-term
    relation when it is negligible.  Leading blocks may differ by 1e-8
    relative to the coefficient scale.  Two routes (module docstring):

    - Tensor route, when u has `factors`, P is bit for bit
      gram_schmidt_monic(u, P.N)'s system and Q is a monic tensor system
      (construct.axis_tables).  Per axis, C_i = I + tril(F_i, -1), F_i the
      coefficients of q^(i)_k - p^(i)_k against p^(i)_m under u.factors[i],
      from one univariate pair_blocks divided by the factor's Gram
      diagonal; an axis whose tables agree bit for bit gives C_i = I
      exactly.  Row n of the tensor product of C_1..C_d
      (construct._tensor_rows) holds the coefficients of Q_n against
      P_0..P_n side by side: M_n is its block of degree n - 1, and the
      columns before it give the tail.  H is not read.
    - Pairing route, every other input: one pair_systems(u, Q, P) through
      degrees N and N - 1 holds every pairing, and one solve per degree j
      against H_j gives the coefficients of all Q_n, n > j, against P_j.
      H defaults to gram_blocks(u, P).
    """
    if Q.d != P.d:
        raise ValueError("systems must share the dimension")
    N = min(Q.N, P.N)
    scale = max(max(mk.max_abs(Q.rows[n]) for n in range(N + 1)), 1.0)
    for n in range(N + 1):
        gap = mk.max_abs(Q.leading(n) - P.leading(n))
        if gap > 1e-8 * scale:
            raise ValueError(
                f"leading coefficients differ at degree {n} (gap {gap:.3e}); "
                "convert both systems to a common leading normalization first"
            )
    label = f"{Q.label} vs {P.label}"
    basis = basis_for(Q.d)
    expansions = _axis_expansions(Q, P, u, N)
    if expansions is not None:
        M, tails = [None], []
        for n, full in enumerate(construct._tensor_rows(expansions, N)):
            if n:
                M.append(full[:, basis.degree_slice(n - 1, n - 1)].copy())
            if n >= 2:
                tails.append(mk.max_abs(full[:, :basis.offset(n - 1)]))
        return LinearRelation(Q.d, M, tail=mk.worst(tails) / scale, label=label)
    if H is None:
        H = gram_blocks(u, P)
    M = [None] * (N + 1)
    tails = []
    if N:
        G = pair_systems(u, Q, P, N, N - 1)
    for j in range(N):
        # coefficients of Q_(j+1), ..., Q_N against P_j, stacked by degree
        coef = H.solve_right(j, G[basis.degree_slice(j + 1, N), basis.degree_slice(j, j)])
        M[j + 1] = coef[:basis.size(j + 1)]
        tails.append(mk.max_abs(coef[basis.size(j + 1):]) / scale)
    return LinearRelation(Q.d, M, tail=mk.worst(tails), label=label)


def _axis_expansions(Q: PolySystem, P: PolySystem, u: MomentFunctional,
                     N: int) -> list | None:
    """C_1..C_d of compute_relation's tensor route through degree N, or None
    when the pair takes the pairing route.  P is tied to u by comparing its
    axis tables with factor_tables(u), built from the recurrences u's
    factors keep: tables a system carries from tensor_system cost no
    rebuild (construct.axis_tables)."""
    if not hasattr(u, "factors") or u.d != P.d:
        return None
    tp = axis_tables(P)
    if tp is None:
        return None
    try:
        own = factor_tables(u, P.N)
    except QuasiDefiniteFailure:
        return None
    # tensor_system adds 0.0, so a -0.0 of the factor tables reads as 0.0 in P
    if not all(mk.same_bits(t, w + 0.0) for t, w in zip(tp, own)):
        return None
    tq = axis_tables(Q)
    if tq is None:
        return None
    expansions = []
    for f, p, q in zip(u.factors, tp, tq):
        p, q = p[:N + 1, :N + 1], q[:N + 1, :N + 1]
        if mk.same_bits(p, q):
            expansions.append(np.eye(N + 1))
            continue
        # rows 0..N: <f, (q_k - p_k) p_m>; rows N+1..2N+1: <f, p_k p_m>,
        # whose diagonal is the factor's Gram diagonal h_m
        side = np.vstack([q - p, p])
        s = pair_blocks(f, {k: side[:, k:k + 1] for k in range(N + 1)},
                        {k: p[:, k:k + 1] for k in range(N + 1)})
        fourier = s[:N + 1] / np.diagonal(s[N + 1:])
        expansions.append(np.eye(N + 1) + np.tril(fourier, -1))
    return expansions


def relation_residual(Q: PolySystem, P: PolySystem, rel: LinearRelation,
                      keep: list | None = None) -> float:
    """Coefficientwise defect of Q_n = K_n P_n + M_n P_{n-1}, scale relative.

    `keep[n]` is the diagonal of K_n (index 0 unused, like rel.M); None
    means every K_n is the identity.  One pass per degree over its rows,
    with M_n applied by mk.product per column block of P_(n-1), so the
    defect is the largest of the per-block defects bit for bit.
    """
    basis = basis_for(Q.d)
    cuts = [basis.offset(k) for k in range(1, rel.N)]
    defects = []
    for n in rel.available():
        if n > min(Q.N, P.N):
            break
        kept = P.rows[n] if keep is None else keep[n][:, None] * P.rows[n]
        delta = Q.rows[n] - kept
        delta[:, :basis.offset(n)] -= mk.product(rel.m(n), P.rows[n - 1], cuts[:n - 1])
        defects.append(mk.max_abs(delta) / max(mk.max_abs(Q.rows[n]), 1.0))
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
    """Largest relative gap between moments of u and of lambda . v."""
    lv = left_multiply(lam, v)
    gaps = []
    for n in range(max_degree + 1):
        mu = u.moment_vector(n)
        mlv = lv.moment_vector(n)
        scale = max(np.max(np.abs(mu)), np.max(np.abs(mlv)), 1.0)
        gaps.append(float(np.max(np.abs(mu - mlv))) / scale)
    return mk.worst(gaps)


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
    degrees_covered: tuple

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
    return candidate, PartnerReport(checks, None, (0, candidate.N))


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
    return candidate, PartnerReport(checks, ranks, (0, candidate.N))


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
