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
from .construct import GramBlocks, PolySystem, pair_blocks, shift_rows
from .indexing import basis_for, joint_matrix
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


def _residual_rows(rows: dict) -> float:
    return mk.worst(mk.max_abs(g) for g in rows.values())


def _combine(target: dict, mat: np.ndarray, rows: dict, sign: float = 1.0) -> None:
    for k, g in rows.items():
        target[k] = target.get(k, 0.0) + sign * (mat @ g)


def compute_ttr(P: PolySystem, u: MomentFunctional, H: GramBlocks,
                res_tol: float = DEFAULT_RES_TOL) -> ThreeTermData:
    """Extract recurrence blocks of an orthogonal system.

    B and C come from pairing x_i P_n against P_n and P_{n-1}; A comes from
    the leading-coefficient identity, which for a monic system makes
    A_{n,i} the structural shift matrix exactly.  The reconstruction
    residual over all degrees below the top one is checked against
    `res_tol` times the coefficient scale; a violation means the input was
    not orthogonal for the functional.
    """
    basis = basis_for(P.d)
    d, N = P.d, P.N
    A, B, C = [], [], []
    for n in range(N + 1):
        rows_n = P.row_blocks(n)
        b_row, c_row, a_row = [], [], []
        for i in range(1, d + 1):
            shifted = shift_rows(rows_n, i, basis)
            pb = pair_blocks(u, shifted, P.row_blocks(n), basis)
            b_row.append(H.solve_right(n, pb))
            if n >= 1:
                pc = pair_blocks(u, shifted, P.row_blocks(n - 1), basis)
                c_row.append(H.solve_right(n - 1, pc))
            if n < N:
                lead = P.leading(n) @ basis.shift_matrix(n, i)
                if P.monic:
                    a_row.append(basis.shift_matrix(n, i))
                else:
                    a_row.append(mk.solve(P.leading(n + 1).T, lead.T).T)
        B.append(b_row)
        if n >= 1:
            C.append(c_row)
        else:
            C.append(None)
        if n < N:
            A.append(a_row)

    residuals = []
    for n in range(N):
        scale = max(_row_scale(P, m) for m in range(max(0, n - 1), n + 2))
        for i in range(1, d + 1):
            resid = shift_rows(P.row_blocks(n), i, basis)
            _combine(resid, A[n][i - 1], P.row_blocks(n + 1), sign=-1.0)
            _combine(resid, B[n][i - 1], P.row_blocks(n), sign=-1.0)
            if n >= 1:
                _combine(resid, C[n][i - 1], P.row_blocks(n - 1), sign=-1.0)
            residuals.append(_residual_rows(resid) / max(scale, 1.0))
    worst = mk.worst(residuals)
    if not worst <= res_tol:
        raise ValueError(
            f"three-term reconstruction residual {worst:.3e} exceeds {res_tol:.1e}; "
            "input system is not orthogonal for the functional"
        )
    ttr = ThreeTermData(d, A, B, C)
    ttr.recon_residual = worst
    return ttr


def generate_from_ttr(T: ThreeTermData, N: int | None = None) -> tuple[PolySystem, np.ndarray]:
    """Regenerate the monic system degree by degree from recurrence blocks.

    Each step solves the stacked overdetermined system joint(L_n) P_{n+1} =
    stack_i(x_i P_n - B_{n,i} P_n - C_{n,i} P_{n-1}) in the least-squares
    sense; the joint shift matrix has full column rank, so compatible data
    reproduce the unique solution and the returned per-degree residuals are
    zero up to roundoff.  Incompatible blocks show up as nonzero residuals
    rather than an exception.
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
        stacked: dict[int, list[np.ndarray]] = {k: [] for k in range(n + 2)}
        for i in range(1, d + 1):
            rhs = shift_rows({k: blocks[n][k] for k in range(n + 1)}, i, basis)
            _combine(rhs, T.b(n, i), {k: blocks[n][k] for k in range(n + 1)}, sign=-1.0)
            if n >= 1:
                _combine(rhs, T.c(n, i), {k: blocks[n - 1][k] for k in range(n)}, sign=-1.0)
            for k in range(n + 2):
                block = rhs.get(k)
                if block is None:
                    block = np.zeros((basis.size(n), basis.size(k)))
                stacked[k].append(block)
        joint = basis.joint_shift(n)
        row, defects = [], []
        for k in range(n + 1):
            rhs_k = joint_matrix(stacked[k])
            g = mk.lstsq(joint, rhs_k)
            defects.append(mk.max_abs(joint @ g - rhs_k))
            row.append(g)
        # top block is the identity by construction; count its defect too
        defects.append(mk.max_abs(joint_matrix(stacked[n + 1]) - joint))
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
    """
    basis = basis_for(d)
    sv = {n: [mk.singular_values(b) for b in row] for n, row in rows.items()}
    scale = max(max((s[0] for row in sv.values() for s in row), default=0.0),
                1e-300)
    shift = -1 if lower else 0
    checks = []
    for n, row in rows.items():
        for i, s in enumerate(sv[n], start=1):
            checks.append(Check.ranked(name, mk.rank_from_sv(s, tol, scale),
                                       basis.size(n + shift), n, i))
        joint = joint_matrix([b.T for b in row] if lower else row)
        checks.append(Check.ranked(f"{name}-joint", mk.numeric_rank(joint, tol, scale=scale),
                                   basis.size(n + shift + 1), n))
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
