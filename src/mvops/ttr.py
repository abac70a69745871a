"""Vector three-term recurrence for graded polynomial systems.

For an orthogonal system, multiplication by each coordinate maps a degree
block into its neighbours: x_i P_n = A_{n,i} P_{n+1} + B_{n,i} P_n +
C_{n,i} P_{n-1}.  This module extracts those coefficient blocks from a
system and its functional, regenerates a monic system forward from given
blocks (reporting how consistent the overdetermined steps are), fits
best-effort blocks to an arbitrary monic system, and checks the rank
conditions that characterize orthogonality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matrixkit as mk
from .checks import Check, all_pass
# pair_blocks is not called here; perfbench's tracer test expects it among
# this module's names
from .construct import GramBlocks, PolySystem, pair_blocks, shift_rows  # noqa: F401
from .indexing import GradedBasis, basis_for, joint_matrix
from .matrixkit import DEFAULT_RES_TOL
from .moments import MomentFunctional


@dataclass
class ThreeTermData:
    """Per-degree, per-direction recurrence blocks.

    A[n][i-1] has shape (r_n, r_{n+1}) and exists for n < len(A); B[n][i-1]
    is square of order r_n; C[n][i-1] has shape (r_n, r_{n-1}) with C[0]
    unused (None).
    """

    d: int
    A: list
    B: list
    C: list
    recon_residual: float = 0.0

    @property
    def N(self) -> int:
        return len(self.B) - 1

    def a(self, n: int, i: int) -> np.ndarray:
        return self.A[n][i - 1]

    def b(self, n: int, i: int) -> np.ndarray:
        return self.B[n][i - 1]

    def c(self, n: int, i: int) -> np.ndarray:
        return self.C[n][i - 1]


def _row_scale(P: PolySystem, n: int) -> float:
    return max(mk.max_abs(P.block(n, k)) for k in range(n + 1))


def _combine(target: dict, mat: np.ndarray, rows: dict, sign: float = 1.0) -> None:
    for k, g in rows.items():
        target[k] = target.get(k, 0.0) + sign * (mat @ g)


def compute_ttr(P: PolySystem, u: MomentFunctional, H: GramBlocks) -> ThreeTermData:
    """Extract recurrence blocks of an orthogonal system.

    B and C come from pairing x_i P_n against P_n and P_{n-1}; A comes from
    the leading-coefficient identity, which for a monic system makes
    A_{n,i} the structural shift matrix exactly.  The reconstruction
    residual over all degrees below the top one is checked against
    DEFAULT_RES_TOL times the coefficient scale; a violation means the
    input was not orthogonal for the functional.

    Per degree, one read of the graded moment matrix M and one
    factorization of each of H_n and H_(n-1) serve all d directions.  With
    side(P_m) the blocks of P_m side by side, <u, x_i P_n P_m^t> =
    (side(P_n) M[rows of alpha + e_i]) side(P_m)^t, the association
    pair_blocks uses, and the d pairings are solved as one stack.
    """
    basis = basis_for(P.d)
    d, N = P.d, P.N
    sides = [np.hstack([P.block(n, k) for k in range(n + 1)]) for n in range(N + 1)]
    A, B, C = [], [], [None]
    residuals = []
    for n in range(N + 1):
        # graded positions of alpha + e_i, alpha over degrees 0..n
        shifted = [np.concatenate([basis.offset(k + 1) + basis.shift_index(k, i)
                                   for k in range(n + 1)]) for i in range(1, d + 1)]
        M = u.graded_block(0, n + 1, 0, n)
        pb, pc = [], []
        for rows in shifted:
            # x_i P_n against the monomials of degrees 0..n: the rows of M
            # at alpha + e_i, so no shifted copy of P_n is formed
            left = sides[n] @ M[rows]
            pb.append(left @ sides[n].T)
            if n >= 1:
                pc.append(left[:, :basis.offset(n)] @ sides[n - 1].T)
        B.append(np.split(H.solve_right(n, np.vstack(pb)), d))
        if n >= 1:
            C.append(np.split(H.solve_right(n - 1, np.vstack(pc)), d))
        if n == N:
            break
        if P.monic:
            A.append([basis.shift_matrix(n, i) for i in range(1, d + 1)])
        else:
            # A_(n,i) G_(n+1) = G_n L_(n,i), G the leading blocks: one
            # rank-checked solve per degree for all d directions side by side
            lead = P.leading(n)
            rhs = np.hstack([(lead @ basis.shift_matrix(n, i)).T for i in range(1, d + 1)])
            A.append([a.T for a in np.split(mk.solve(P.leading(n + 1).T, rhs), d, axis=1)])
        # x_i P_n - A P_{n+1} - B P_n - C P_{n-1}, all degrees side by side
        scale = max(max(_row_scale(P, m) for m in range(max(0, n - 1), n + 2)), 1.0)
        for i, rows in enumerate(shifted):
            resid = -(A[n][i] @ sides[n + 1])
            resid[:, rows] += sides[n]
            resid[:, :basis.offset(n + 1)] -= B[n][i] @ sides[n]
            if n >= 1:
                resid[:, :basis.offset(n)] -= C[n][i] @ sides[n - 1]
            residuals.append(mk.max_abs(resid) / scale)
    worst = mk.worst(residuals)
    if not worst <= DEFAULT_RES_TOL:
        raise ValueError(
            f"three-term reconstruction residual {worst:.3e} exceeds {DEFAULT_RES_TOL:.1e}; "
            "input system is not orthogonal for the functional"
        )
    ttr = ThreeTermData(d, A, B, C)
    ttr.recon_residual = worst
    return ttr


def joint_shift_lstsq(basis: GradedBasis, n: int, rhs: list) -> tuple[np.ndarray, float]:
    """Least-squares solution g of J g = stack(rhs), J = basis.joint_shift(n),
    and its defect max|J g - stack(rhs)|, in closed form.

    rhs[i-1] is the block of direction i.  Every row of J holds one 1, so
    J^t J = diag(c), c_beta = #{i : beta_i > 0}, and g = diag(1/c) J^t rhs:
    row beta of g is the mean of the rows of rhs whose shift reaches beta.
    J has full column rank, so this is the unique minimizer.
    """
    shifts = [basis.shift_index(n, i) for i in range(1, len(rhs) + 1)]
    g = np.zeros((basis.size(n + 1), rhs[0].shape[1]))
    for idx, r in zip(shifts, rhs):
        g[idx] += r
    g /= np.bincount(np.concatenate(shifts), minlength=g.shape[0])[:, None]
    return g, mk.worst(mk.max_abs(g[idx] - r) for idx, r in zip(shifts, rhs))


def generate_from_ttr(T: ThreeTermData, N: int | None = None) -> tuple[PolySystem, np.ndarray]:
    """Regenerate the monic system degree by degree from recurrence blocks.

    Each step solves the stacked overdetermined system J P_{n+1} =
    stack_i(x_i P_n - B_{n,i} P_n - C_{n,i} P_{n-1}), J = joint(L_n), by
    closed-form least squares on the joint shift, whose normal matrix is
    diagonal: every row of J holds one 1, so J^t J = diag(c) with c_beta =
    #{i : beta_i > 0}, and the solution diag(1/c) J^t rhs averages the
    equations that reach each degree-(n+1) monomial.  Compatible data reproduce the
    unique solution and the returned per-degree residuals max|J g - rhs|
    are zero up to roundoff.  Incompatible blocks show up as nonzero
    residuals rather than an exception.
    """
    d = T.d
    basis = basis_for(d)
    max_steps = min(len(T.A), len(T.B), len(T.C))
    N = max_steps if N is None else min(N, max_steps)
    monic_ok = all(
        np.allclose(T.a(n, i), basis.shift_matrix(n, i))
        for n in range(min(N, len(T.A)))
        for i in range(1, d + 1)
    )
    if not monic_ok:
        raise ValueError("forward generation requires structural (monic) A blocks")

    blocks: list[list[np.ndarray]] = [[np.eye(1)]]
    residuals = np.zeros(N)
    for n in range(N):
        row, defects = [], []
        for k in range(n + 1):
            # rhs_i = block k of x_i P_n - B_{n,i} P_n - C_{n,i} P_{n-1}
            rhs = []
            for i in range(1, d + 1):
                r = -(T.b(n, i) @ blocks[n][k])
                if k >= 1:
                    r[:, basis.shift_index(k - 1, i)] += blocks[n][k - 1]
                if k < n:
                    r -= T.c(n, i) @ blocks[n - 1][k]
                rhs.append(r)
            g, defect = joint_shift_lstsq(basis, n, rhs)
            row.append(g)
            defects.append(defect)
        # the top rhs block is L_(n,i) itself (the shift of P_n's identity
        # leading block), so the identity solves it with zero defect
        row.append(np.eye(basis.size(n + 1)))
        residuals[n] = mk.worst(defects)
        blocks.append(row)
    return PolySystem(d, blocks, monic=True, label="generated"), residuals


@dataclass
class RankReport:
    checks: list[Check] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all_pass(self.checks)

    def first_failure(self) -> Check | None:
        # per-direction checks sort before the joint check at the same degree
        bad = sorted(
            (c for c in self.checks if not c.ok),
            key=lambda c: (c.degree, c.direction if c.direction is not None else 1 << 30),
        )
        return bad[0] if bad else None


def rank_family(name: str, d: int, rows: dict, tol: float, lower: bool) -> list[Check]:
    """Full-rank checks of one block family: each block, then per degree the
    joint of the blocks ("<name>-joint").

    `rows` maps a degree n to its d blocks.  An upper family (A) needs rank
    r_n per block and r_{n+1} jointly; a lower family (C, lower=True) needs
    r_{n-1} per block and r_n for the joint of the transposes.  Every
    decision uses one scale, the largest singular value in the family, so a
    block that vanishes up to roundoff registers as rank deficient.

    An upper block equal to basis.shift_matrix(n, i) has r_n singular
    values 1 (its rows are distinct unit rows), and when all d blocks of a
    degree are, the joint J has sqrt(c_beta), J^t J = diag(c) as in
    joint_shift_lstsq; those values are used without an SVD.
    """
    basis = basis_for(d)
    structural = {n: [not lower and np.array_equal(b, basis.shift_matrix(n, i))
                      for i, b in enumerate(row, start=1)] for n, row in rows.items()}
    sv = {n: [np.ones(basis.size(n)) if exact else mk.singular_values(b)
              for b, exact in zip(row, structural[n])] for n, row in rows.items()}
    scale = max(max((s[0] for row in sv.values() for s in row), default=0.0),
                1e-300)
    shift = -1 if lower else 0
    checks = []
    for n, row in rows.items():
        for i, s in enumerate(sv[n], start=1):
            checks.append(Check.ranked(name, mk.rank_from_sv(s, tol, scale),
                                       basis.size(n + shift), n, i))
        if all(structural[n]):
            counts = np.bincount(np.concatenate([basis.shift_index(n, i)
                                                 for i in range(1, d + 1)]))
            rank = mk.rank_from_sv(np.sqrt(counts), tol, scale)
        else:
            joint = joint_matrix([b.T for b in row] if lower else row)
            rank = mk.numeric_rank(joint, tol, scale=scale)
        checks.append(Check.ranked(f"{name}-joint", rank, basis.size(n + shift + 1), n))
    return checks


def validate_rank_conditions(T: ThreeTermData, tol: float = mk.DEFAULT_RANK_TOL) -> RankReport:
    """Check the full-rank conditions on the A and C blocks and their joints."""
    C = {n: T.C[n] for n in range(1, T.N + 1) if T.C[n] is not None}
    return RankReport(rank_family("A", T.d, dict(enumerate(T.A)), tol, lower=False)
                      + rank_family("C", T.d, C, tol, lower=True))


def fit_ttr(P: PolySystem) -> tuple[ThreeTermData, dict]:
    """Least-squares recurrence blocks for an arbitrary monic system.

    For every degree with both neighbours available, fits B_{n,i} and
    C_{n,i} minimizing the coefficientwise defect of x_i P_n - L_{n,i}
    P_{n+1} - B P_n - C P_{n-1}.  Residuals (per degree and direction) are
    zero exactly when the system satisfies a three-term relation.
    """
    if not P.monic:
        raise ValueError("fit_ttr expects a monic system")
    d, N = P.d, P.N
    basis = basis_for(d)
    A = [[basis.shift_matrix(n, i) for i in range(1, d + 1)] for n in range(N)]
    B: list = []
    C: list = [None]
    residuals: dict[tuple[int, int], float] = {}
    for n in range(N):
        rows_n = P.row_blocks(n)
        design = [np.hstack([rows_n[k] for k in range(n + 1)])]
        if n >= 1:
            # pad the previous degree's blocks with a zero top-degree block
            design.append(np.hstack(
                [P.block(n - 1, k) for k in range(n)]
                + [np.zeros((basis.size(n - 1), basis.size(n)))]
            ))
        X = np.vstack(design)
        b_row, c_row = [], []
        for i in range(1, d + 1):
            target = shift_rows(rows_n, i, basis)
            _combine(target, basis.shift_matrix(n, i), P.row_blocks(n + 1), sign=-1.0)
            D = np.hstack([target.get(k, np.zeros((basis.size(n), basis.size(k))))
                           for k in range(n + 1)])
            top = mk.max_abs(target.get(n + 1, np.zeros(1)))
            coeffs = mk.lstsq(X.T, D.T).T
            scale = max(_row_scale(P, n), 1.0)
            residuals[(n, i)] = max(mk.max_abs(coeffs @ X - D), top) / scale
            b_row.append(coeffs[:, : basis.size(n)])
            c_row.append(coeffs[:, basis.size(n):] if n >= 1 else None)
        B.append(b_row)
        if n >= 1:
            C.append(c_row)
    return ThreeTermData(d, A, B, C), residuals
