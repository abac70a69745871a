"""Vector three-term recurrence for graded polynomial systems.

For an orthogonal system, multiplication by each coordinate maps a degree
block into its neighbours: x_i P_n = A_{n,i} P_{n+1} + B_{n,i} P_n +
C_{n,i} P_{n-1}.  This module extracts those coefficient blocks from a
system and its functional, regenerates a monic system forward from given
blocks (reporting how consistent the overdetermined steps are), and checks
the rank conditions that characterize orthogonality.

Blocks are extracted by pairing against the functional's moments, except
for the monic system of a tensor functional, whose B and C blocks are read
off the univariate recurrences its factors keep (MomentFunctional.
recurrence): B_{n,i} is diagonal and C_{n,i}
has one nonzero per row, with every other entry exactly 0.0.  Such blocks,
like the shift matrices A of every monic system, hold at most one nonzero
per line, so their rank checks need no SVD (matrixkit.singular_values)
and their products are row gathers (matrixkit.product), in the
reconstruction residual and in forward generation alike.

Both of those work one degree at a time for all d directions: the d
residuals or right-hand sides of a degree are one array, stacked
direction-major, and each of B and C multiplies it in one mk.product call;
x_i P_n enters as a column gather of P_n (_shifted_columns).  For a monic
system the top block cancels exactly: in x_i P_n - A_(n,i) P_(n+1) the
identity block of P_(n+1), gathered at alpha + e_i, meets the identity
block of P_n moved to alpha + e_i, and B P_n and C P_(n-1) have no
degree-(n+1) columns, so every degree-(n+1) entry of the defect is exactly
0.0 (Dunkl and Xu, Orthogonal Polynomials of Several Variables, 2014,
ch. 3, for the structure).  The reconstruction residual therefore reads
the columns of degrees 0..n only, and forward generation
writes each new degree's identity block directly.  The index facts of the
shifts, and the singular values of the shift matrices that rank checks
read, are kept on the GradedBasis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matrixkit as mk
from .checks import Check, all_pass
# pair_blocks is not called here; perfbench's tracer test expects it among
# this module's names
from .construct import GramBlocks, PolySystem, factor_recurrences, pair_blocks  # noqa: F401
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

    @property
    def reachable_degree(self) -> int:
        """Highest degree generate_from_ttr can build: one step per degree
        below it needs that degree's A, B and C blocks."""
        return min(len(self.A), len(self.B), len(self.C))

    def a(self, n: int, i: int) -> np.ndarray:
        return self.A[n][i - 1]

    def b(self, n: int, i: int) -> np.ndarray:
        return self.B[n][i - 1]

    def c(self, n: int, i: int) -> np.ndarray:
        return self.C[n][i - 1]


def compute_ttr(P: PolySystem, u: MomentFunctional, H: GramBlocks) -> ThreeTermData:
    """Extract recurrence blocks of an orthogonal system.

    A comes from the leading-coefficient identity, which for a monic system
    makes A_{n,i} the structural shift matrix exactly.  B and C come from
    one of two routes:

    - A monic system of a tensor functional (one with `factors`) reads
      them off the factors' recurrences x p_k = p_(k+1) + b_k p_k +
      c_k p_(k-1) (Dunkl and Xu, Orthogonal Polynomials of Several
      Variables, 2014, ch. 3): B_{n,i} = diag(b^(i)_(nu_i)), and C_{n,i}
      holds c^(i)_(nu_i) in row nu at column nu - e_i, every other entry
      exactly 0.0.  H is not read; a factor that fails the default rank
      rule raises QuasiDefiniteFailure (construct.factor_recurrences).
    - Every other system pairs x_i P_n against P_n and P_{n-1}.  Per
      degree, one read of the graded moment matrix M serves all d
      directions.  With P.rows[m] the coefficients of P_m, <u, x_i P_n
      P_m^t> = (rows[n] M[rows of alpha + e_i]) rows[m]^t, the
      association pair_blocks uses.  B_n and C_(n+1) both solve against
      H_n, so their pairings, all d directions, are one mk.solve: each
      Gram block is rank-checked once.

    The reconstruction residual over all degrees below the top one, one
    stacked pass per degree for all d directions with B and C applied by
    mk.product (a row gather for tensor blocks), is checked against
    DEFAULT_RES_TOL times the coefficient scale; a violation means the
    input was not orthogonal for the functional.  On the tensor route that
    check is what ties P to u.
    """
    if P.d != u.d:
        raise ValueError("systems and functional must share the dimension")
    basis = basis_for(P.d)
    d, N = P.d, P.N
    if P.monic and hasattr(u, "factors"):
        B, C = _tensor_blocks(u, N)
    else:
        B, C = _paired_blocks(u, H, P.rows)
    A = []
    for n in range(N):
        if P.monic:
            A.append([basis.shift_matrix(n, i) for i in range(1, d + 1)])
        else:
            # A_(n,i) G_(n+1) = G_n L_(n,i), G the leading blocks: one
            # rank-checked solve per degree for all d directions side by side
            lead = P.leading(n)
            rhs = np.hstack([(lead @ basis.shift_matrix(n, i)).T for i in range(1, d + 1)])
            A.append([a.T for a in np.split(mk.solve(P.leading(n + 1).T, rhs), d, axis=1)])
    ttr = ThreeTermData(d, A, B, C)
    worst = mk.worst(_recon_residuals(P, ttr))
    if not worst <= DEFAULT_RES_TOL:
        raise ValueError(
            f"three-term reconstruction residual {worst:.3e} exceeds {DEFAULT_RES_TOL:.1e}; "
            "input system is not orthogonal for the functional"
        )
    ttr.recon_residual = worst
    return ttr


def _shift_defect(P: PolySystem, n: int, A: list) -> np.ndarray:
    """x_i P_n - A_(n,i) P_(n+1), i = 1..d, stacked direction-major, with
    x_i P_n a column gather of P_n (_shifted_columns).  A monic system's
    defect covers the columns of degrees 0..n, where its A_(n,i) P_(n+1)
    are the rows of P_(n+1) at alpha + e_i (the A blocks are not read); at
    degree n + 1 it is exactly 0.0.  Any other system's covers degrees
    0..n+1."""
    basis = basis_for(P.d)
    if P.monic:
        top, low = n, P.rows[n][:, :basis.offset(n)]
        lifted = P.rows[n + 1][:, :basis.offset(n + 1)].take(basis.joint_shift_index(n)[0], axis=0)
    else:
        top, low = n + 1, P.rows[n]
        lifted = np.vstack([a @ P.rows[n + 1] for a in A])
    size = basis.size(n)
    for i, shifted in enumerate(_shifted_columns(basis, top, low)):
        block = lifted[i * size:(i + 1) * size]
        np.subtract(shifted, block, out=block)
    return lifted


def _recon_residuals(P: PolySystem, T: ThreeTermData) -> list:
    """max|x_i P_n - A P_{n+1} - B P_n - C P_{n-1}| over the coefficient
    scale of degrees n-1..n+1 (at least 1), for n < P.N and i = 1..d in
    that order (compute_ttr).

    A monic system's defect is formed over the columns of degrees 0..n
    only (_shift_defect): at degree n + 1 the identity rows of A P_(n+1)
    meet the shifted identity of P_n, and B and C never reach there, so
    those entries are exactly 0.0 and cannot raise a largest magnitude.
    """
    basis = basis_for(P.d)
    row_scale = [mk.max_abs(row) for row in P.rows]
    residuals = []
    for n in range(P.N):
        # all degrees side by side, the d directions stacked direction-major
        scale = max(max(row_scale[max(0, n - 1):n + 2]), 1.0)
        resid = _shift_defect(P, n, T.A[n])
        resid[:, :basis.offset(n + 1)] -= mk.product(T.B[n], P.rows[n])
        if n >= 1:
            resid[:, :basis.offset(n)] -= mk.product(T.C[n], P.rows[n - 1])
        # the largest magnitude per direction, as np.abs(resid) would give
        # it (NaN where one is NaN), by one max and one min pass
        per_direction = resid.reshape(P.d, -1)
        worst = np.maximum(per_direction.max(axis=1), -per_direction.min(axis=1))
        residuals.extend(np.abs(worst) / scale)
    return residuals


def _shifted_columns(basis: GradedBasis, n: int, low: np.ndarray):
    """x_i times the rows `low` over the monomials of degrees 0..n-1, as rows
    over the columns of degrees 0..n, for i = 1..d in turn: each one column
    gather (basis.shift_source) of `low` with a -0.0 column appended, which
    fills the columns no alpha + e_i reaches.  Adding a gathered row, or
    subtracting from it, is then adding `low` into the scattered columns
    alpha + e_i bit for bit, signed zeros included (x + -0.0 is x, and
    -0.0 - x is -x), at a fraction of the cost."""
    padded = np.empty((low.shape[0], low.shape[1] + 1))
    padded[:, :-1] = low
    padded[:, -1] = -0.0
    for i in range(1, basis.d + 1):
        yield padded.take(basis.shift_source(n, i), axis=1)


def _tensor_blocks(u: MomentFunctional, N: int) -> tuple[list, list]:
    """B and C blocks of a tensor functional's monic system through degree
    N, from each factor's recurrence (compute_ttr)."""
    basis = u.basis
    recs = factor_recurrences(u, N)
    B, C = [], [None]
    for n in range(N + 1):
        exps = basis.exponents(n)
        B.append([np.diag(rec.b[exps[:, i]]) for i, rec in enumerate(recs)])
        if n == 0:
            continue
        # column mu of C_(n,i) holds c^(i)_(mu_i + 1) in the row of mu + e_i
        below = basis.exponents(n - 1)
        cols = np.arange(basis.size(n - 1))
        row = []
        for i, rec in enumerate(recs, start=1):
            c = np.zeros((basis.size(n), basis.size(n - 1)))
            c[basis.shift_index(n - 1, i), cols] = rec.c[below[:, i - 1] + 1]
            row.append(c)
        C.append(row)
    return B, C


def _paired_blocks(u: MomentFunctional, H: GramBlocks, rows: tuple) -> tuple[list, list]:
    """B and C blocks by pairing against the graded moment matrix
    (compute_ttr)."""
    basis = u.basis
    # stacks[n]: the pairings that solve against H_n, B_n's then C_(n+1)'s,
    # each with its d directions stacked direction-major
    stacks = [[] for _ in rows]
    for n in range(len(rows)):
        M = u.graded_block(0, n + 1, 0, n)
        pb, pc = [], []
        for i in range(1, u.d + 1):
            # x_i P_n against the monomials of degrees 0..n: the rows of M
            # at alpha + e_i, so no shifted copy of P_n is formed
            left = rows[n] @ M[basis.shifted(n + 1, i)]
            pb.append(left @ rows[n].T)
            if n >= 1:
                pc.append(left[:, :basis.offset(n)] @ rows[n - 1].T)
        stacks[n].append(np.vstack(pb))
        if n >= 1:
            stacks[n - 1].append(np.vstack(pc))
    B, C = [], [None]
    for n, stack in enumerate(stacks):
        x = mk.solve(H.h(n), np.vstack(stack).T).T
        size = stack[0].shape[0]
        B.append(np.split(x[:size], u.d))
        if len(stack) > 1:
            C.append(np.split(x[size:], u.d))
    return B, C


def joint_shift_lstsq(basis: GradedBasis, n: int, rhs: np.ndarray,
                      out: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Least-squares solution g of J g = rhs, J = basis.joint_shift(n), and
    its defect max|J g - rhs|, in closed form.

    rhs stacks the blocks of directions 1..d, size(n) rows each.  Every row
    of J holds one 1, so J^t J = diag(c), c_beta = #{i : beta_i > 0}, and
    g = diag(1/c) J^t rhs: row beta of g is the mean of the rows of rhs
    whose shift reaches beta, summed in direction order from 0.0.  J has
    full column rank, so this is the unique minimizer.  g is written to
    `out` when given: an array of zeros of g's shape, such as the leading
    columns of the next degree's row.
    """
    idx, counts = basis.joint_shift_index(n)
    size = basis.size(n)
    g = np.zeros((basis.size(n + 1), rhs.shape[1])) if out is None else out
    for lo in range(0, idx.size, size):
        g[idx[lo:lo + size]] += rhs[lo:lo + size]
    g /= counts[:, None]
    defect = g.take(idx, axis=0)
    defect -= rhs
    return g, mk.max_abs(defect)


def generate_from_ttr(T: ThreeTermData, N: int | None = None) -> tuple[PolySystem, np.ndarray]:
    """Regenerate the monic system degree by degree from recurrence blocks.

    Each degree is one step: the right-hand sides x_i P_n - B_{n,i} P_n -
    C_{n,i} P_{n-1} over the columns of degrees 0..n side by side, stacked
    over the directions i, with each of B and C applied to all d
    directions by one mk.product call (a row gather for the diagonal and
    one-per-row blocks of tensor recurrences, one dense product per block
    and column block otherwise), then one solve of the stacked
    overdetermined system J P_{n+1} = stack_i(rhs_i), J = joint(L_n), by
    closed-form least squares on the joint shift (joint_shift_lstsq).
    Every row of J holds one 1, so J^t J = diag(c) with c_beta = #{i :
    beta_i > 0}, and the solution diag(1/c) J^t rhs averages the equations
    that reach each degree-(n+1) monomial.  Compatible data reproduce the unique solution
    and the returned per-degree residuals max|J g - rhs| are zero up to
    roundoff.  Incompatible blocks show up as nonzero residuals rather than
    an exception, a non-finite block as NaN residuals from its degree on.
    Every A block used must be basis.shift_matrix(n, i) bit for bit;
    anything else raises ValueError, as does a negative N.
    """
    d = T.d
    basis = basis_for(d)
    if N is not None and N < 0:
        raise ValueError(f"degree bound must be >= 0, got {N}")
    N = T.reachable_degree if N is None else min(N, T.reachable_degree)
    def structural(n: int, i: int) -> bool:
        # exact, as for the envelope writer's "shift" marker: the steps use
        # the shift itself, so a block that only came close would be ignored
        shift = basis.shift_matrix(n, i)
        return T.a(n, i) is shift or mk.same_bits(T.a(n, i), shift)

    if not all(structural(n, i) for n in range(min(N, len(T.A))) for i in range(1, d + 1)):
        raise ValueError("forward generation requires structural (monic) A blocks")

    # rows[n]: degree n's blocks side by side, over the columns of degrees
    # 0..n; a dense B or C multiplies them block by block (mk.product)
    rows = [np.eye(1)]
    cuts = [basis.offset(k) for k in range(1, N + 1)]
    residuals = np.zeros(N)
    for n in range(N):
        low, size, width = basis.offset(n), basis.size(n), basis.offset(n + 1)
        # the d right-hand sides, stacked direction-major
        rhs = mk.product(T.B[n], rows[n], cuts[:n])
        np.negative(rhs, out=rhs)
        # x_i P_n: the blocks of degrees 0..n-1 move to alpha + e_i; the top
        # block's shift L_(n,i) is the identity's, which solves it with zero
        # defect
        for i, shifted in enumerate(_shifted_columns(basis, n, rows[n][:, :low])):
            rhs[i * size:(i + 1) * size] += shifted
        if n >= 1:
            rhs[:, :low] -= mk.product(T.C[n], rows[n - 1], cuts[:n - 1])
        # degree n + 1 is written in place: g, then the identity block
        row = np.zeros((basis.size(n + 1), basis.offset(n + 2)))
        _, residuals[n] = joint_shift_lstsq(basis, n, rhs, out=row[:, :width])
        np.fill_diagonal(row[:, width:], 1.0)
        rows.append(row)
    return PolySystem(d, rows, label="generated"), residuals


@dataclass
class RankReport:
    checks: list[Check] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all_pass(self.checks)



def rank_family(name: str, d: int, rows: dict, tol: float, lower: bool) -> list[Check]:
    """Full-rank checks of one block family: each block, then per degree the
    joint of the blocks ("<name>-joint").

    `rows` maps a degree n to its d blocks.  An upper family (A) needs rank
    r_n per block and r_{n+1} jointly; a lower family (C, lower=True) needs
    r_{n-1} per block and r_n for the joint of the transposes.  Every
    decision uses one scale, the largest singular value in the family, so a
    block that vanishes up to roundoff registers as rank deficient.
    Shift blocks, tensor C blocks and their joints hold at most one nonzero
    per line, so mk.singular_values reads them with no SVD.  An upper block
    that is basis.shift_matrix(n, i) itself, the read-only object that
    compute_ttr and the envelope reader's "shift" marker hand out, has its
    singular values read off the basis, and so has a joint of d of them.
    """
    basis = basis_for(d)

    def is_shift(n: int, i: int, b) -> bool:
        return not lower and b is basis.shift_matrix(n, i)

    sv = {n: [basis.shift_singular_values(n, i) if is_shift(n, i, b) else mk.singular_values(b)
              for i, b in enumerate(row, start=1)] for n, row in rows.items()}
    scale = max(max((s[0] for row in sv.values() for s in row), default=0.0),
                1e-300)
    shift = -1 if lower else 0
    checks = []
    for n, row in rows.items():
        for i, s in enumerate(sv[n], start=1):
            checks.append(Check.ranked(name, mk.rank_from_sv(s, tol, scale),
                                       basis.size(n + shift), n, i))
        if len(row) == d and all(is_shift(n, i, b) for i, b in enumerate(row, start=1)):
            joint_sv = basis.joint_shift_singular_values(n)
        else:
            joint_sv = mk.singular_values(joint_matrix([b.T for b in row] if lower else row))
        rank = mk.rank_from_sv(joint_sv, tol, scale)
        checks.append(Check.ranked(f"{name}-joint", rank, basis.size(n + shift + 1), n))
    return checks


def validate_rank_conditions(T: ThreeTermData, tol: float = mk.DEFAULT_RANK_TOL) -> RankReport:
    """Check the full-rank conditions on the A and C blocks and their joints."""
    C = {n: T.C[n] for n in range(1, T.N + 1) if T.C[n] is not None}
    return RankReport(rank_family("A", T.d, dict(enumerate(T.A)), tol, lower=False)
                      + rank_family("C", T.d, C, tol, lower=True))

