"""Construction of orthogonal polynomial systems from moment functionals.

A polynomial system is a graded sequence of column vectors of polynomials,
one vector per total degree: vector n is sum_k G[n][k] X_k, against the
ordered monomial basis, and PolySystem keeps the blocks G[n][k] side by
side in one array per degree.  Every pairing of two systems against a
functional is one product: pair_systems stacks each system's blocks by
column degree and returns the graded matrix <u, P Q^t>, whose block
(n, m) is <u, P_n Q_m^t>.  Gram blocks and their orthogonality residual
are slices of it (gram_blocks).  orthogonality_residual pairs each P_n
with the monomials instead, one product per degree against the leading
square of one graded moment block.

Systems are built degree by degree through block Gram-Schmidt against the
functional's graded moment matrix, one pairing of the degree-n monomials
with all earlier degrees per step; a Gram block that is rank deficient at
mk.DEFAULT_RANK_TOL, the one rank rule of construction, means the
functional is not quasi-definite through that degree and construction
stops with a diagnosable error.  GramBlocks is plain data: a later solve
against one of its blocks goes through mk.solve, which checks it.  A
univariate monic system needs only its recurrence, which moments owns:
MomentFunctional.recurrence, or a closed form.  koornwinder_system reads
the closed-form jacobi_recurrence of each weight rho^(2k) (1-x)^a (1+x)^b,
itself a Jacobi weight, and no moment.  Its one mapping is the disk's,
rho = sqrt(1 - x^2), the one the disk family builds both of its systems
with.

A tensor functional (one with `factors`) takes neither route in d
variables: its monic system is the product of its factors' monic systems,
from the recurrence each factor keeps (factor_recurrences, read alike by
gram_schmidt_monic and ttr.compute_ttr), assembled by tensor_system from
the per-axis coefficient tables (factor_tables, each factor's
Recurrence1D.monic_table).  _tensor_rows gathers each axis's table columns
at alpha_i, then rows at nu_i (ndarray.take), and multiplies in place, in
axis order, bit for bit the products of an np.ix_ gather.  A tensor
functional's Gram blocks are diagonal, H_n =
diag(prod_i h_(nu_i)) with h_k = <f_i, p_k p_k> read from one univariate
pairing per factor, and the tensor is quasi-definite through degree n
exactly when every factor is, so the first factor that fails decides the
tensor's failing degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matrixkit as mk
from . import mpoly
from .indexing import GradedBasis, basis_for
from .moments import MomentFunctional, QuasiDefiniteFailure, Recurrence1D, jacobi_recurrence


class NotPositiveDefiniteError(Exception):
    """A Gram block has a non-positive eigenvalue where positivity is required."""

    def __init__(self, degree: int, eigenvalues):
        self.degree = degree
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        super().__init__(f"Gram block at degree {degree} is not positive definite")


class PolySystem:
    """Graded coefficients of a polynomial system, one array per degree.

    rows[n], of shape (r_n, basis.offset(n + 1)), holds degree n against
    the monomials of degrees 0..n in graded order, and blocks[n][k] is its
    column view at degree k (a copy takes them off its own rows); neither
    tuple can be rebound, and every row is read-only.  A degree is given as
    such an array (a C-contiguous float one is kept, not copied, and made
    read-only) or as its n + 1 blocks, laid side by side.  `monic` (every
    leading block exactly the identity) is read off the rows on
    construction, so it holds for as long as the system does.  A copy or a
    pickle is built again from the rows.
    """

    def __init__(self, d: int, rows, label: str = ""):
        basis = basis_for(d)
        self.d = d
        self.label = label
        self._rows = tuple(_degree_row(basis, n, row) for n, row in enumerate(rows))
        for row in self._rows:
            row.flags.writeable = False
        cols = [basis.degree_slice(k, k) for k in range(len(self._rows))]
        self._blocks = tuple(tuple(row[:, s] for s in cols[:n + 1])
                             for n, row in enumerate(self._rows))
        self.monic = all(_is_identity(row[-1]) for row in self._blocks)

    def __reduce__(self):
        return PolySystem, (self.d, self._rows, self.label)

    @property
    def rows(self) -> tuple:
        return self._rows

    @property
    def blocks(self) -> tuple:
        return self._blocks

    @property
    def N(self) -> int:
        return len(self._rows) - 1

    def block(self, n: int, k: int) -> np.ndarray:
        return self._blocks[n][k]

    def leading(self, n: int) -> np.ndarray:
        return self._blocks[n][n]

    def size(self, n: int) -> int:
        return self._rows[n].shape[0]

    def to_monic(self) -> "PolySystem":
        """Divide each degree vector by its leading coefficient block: one
        solve per degree against the lower blocks side by side."""
        basis = basis_for(self.d)
        rows = []
        for n, row in enumerate(self.rows):
            eye = np.eye(row.shape[0])
            rows.append(np.hstack([mk.solve(self.leading(n), row[:, :basis.offset(n)]), eye])
                        if n else eye)
        return PolySystem(self.d, rows, label=f"monic({self.label})")

    def transformed(self, mats) -> "PolySystem":
        """Left-multiply each degree vector by the given square matrices, one
        product per block."""
        out = []
        for n, blocks in enumerate(self.blocks):
            s = np.asarray(mats[n], dtype=float)
            out.append([s @ g for g in blocks])
        return PolySystem(self.d, out, label=self.label)


def _is_identity(block: np.ndarray) -> bool:
    """block equals np.eye of its order exactly: square, ones on the
    diagonal (NaN is not one) and no other nonzero (-0.0 is zero)."""
    r, c = block.shape
    return bool(r == c and np.count_nonzero(block != 0.0) == r
                and (block.diagonal() == 1.0).all())


def _degree_row(basis: GradedBasis, n: int, row) -> np.ndarray:
    """Degree n of a system as one array (PolySystem); ValueError names a
    degree whose blocks or array do not fit its columns."""
    if not isinstance(row, np.ndarray):
        blocks = [np.asarray(g, dtype=float) for g in row]
        shapes = [g.shape for g in blocks]
        if len({s[0] for s in shapes}) > 1 or [s[1] for s in shapes] != [
                basis.size(k) for k in range(n + 1)]:
            raise ValueError(f"degree {n} has blocks of shapes {shapes}: they need one row "
                             f"count and the widths of degrees 0..{n}")
        row = np.hstack(blocks)
    row = np.ascontiguousarray(row, dtype=float)
    if row.ndim != 2 or row.shape[1] != basis.offset(n + 1):
        raise ValueError(f"degree {n} has coefficients of shape {row.shape}, expected "
                         f"{basis.offset(n + 1)} columns")
    return row


@dataclass
class GramBlocks:
    """Per-degree pairing blocks H_n of a system against its functional.

    `offdiag_residual` is the largest entry of any block <u, P_n P_m^t>,
    m < n, relative to scale(): gram_blocks reads it off the pairing that
    gives the H_n.  Blocks built otherwise leave it NaN, so an
    orthogonality check on it fails closed.
    """

    blocks: list
    offdiag_residual: float = math.nan

    def h(self, n: int) -> np.ndarray:
        return self.blocks[n]

    @property
    def N(self) -> int:
        return len(self.blocks) - 1

    def scale(self) -> float:
        return max(mk.max_abs(h) for h in self.blocks)


def _side_by_side(rows: dict, basis: GradedBasis) -> tuple[int, int, np.ndarray]:
    """Degree range of a block-coefficient vector and its blocks laid side by
    side over that range, zero blocks filling missing degrees."""
    lo, hi = min(rows), max(rows)
    height = next(iter(rows.values())).shape[0]
    blocks = [rows[k] if k in rows else np.zeros((height, basis.size(k)))
              for k in range(lo, hi + 1)]
    return lo, hi, np.hstack(blocks)


def pair_blocks(u: MomentFunctional, rows_a: dict, rows_b: dict) -> np.ndarray:
    """Pairing <u, A B^t> of two block-coefficient polynomial vectors.

    One product A M B^t, where A and B hold each vector's blocks side by
    side and M is the functional's graded moment matrix over their degree
    ranges.
    """
    a0, a1, A = _side_by_side(rows_a, u.basis)
    b0, b1, B = _side_by_side(rows_b, u.basis)
    return A @ u.graded_block(a0, a1, b0, b1) @ B.T


def inner_block(u: MomentFunctional, P: PolySystem, n: int, Q: PolySystem, m: int) -> np.ndarray:
    """<u, P_n Q_m^t>: the rows of P_n and Q_m about the graded moments."""
    if P.d != Q.d or P.d != u.d:
        raise ValueError("systems and functional must share the dimension")
    return P.rows[n] @ u.graded_block(0, n, 0, m) @ Q.rows[m].T


def _stacked(rows, top: int, basis: GradedBasis) -> dict:
    """Degrees 0..top of a system, rows[n] holding degree n's blocks side by
    side, stacked by column degree as pair_blocks takes them: entry k holds
    every degree vector's block against the degree-k monomials, rows in
    graded order, zero for the vectors of degree below k.  They are the
    column blocks of one array whose block row n is rows[n] followed by
    zeros, written with one copy per degree."""
    A = np.zeros((basis.offset(top + 1), basis.offset(top + 1)))
    for n in range(top + 1):
        A[basis.degree_slice(n, n), :basis.offset(n + 1)] = rows[n]
    return {k: A[:, basis.degree_slice(k, k)] for k in range(top + 1)}


def pair_systems(u: MomentFunctional, P: PolySystem, Q: PolySystem) -> np.ndarray:
    """Graded matrix <u, P Q^t> over degrees 0..P.N of P and 0..Q.N of Q.

    Block (n, m), rows basis.degree_slice(n, n) and columns
    basis.degree_slice(m, m), equals inner_block(u, P, n, Q, m).  One
    pair_blocks call on both systems stacked by column degree (_stacked).
    """
    if P.d != Q.d or P.d != u.d:
        raise ValueError("systems and functional must share the dimension")
    rows_p = _stacked(P.rows, P.N, u.basis)
    if Q is P:
        return pair_blocks(u, rows_p, rows_p)
    return pair_blocks(u, rows_p, _stacked(Q.rows, Q.N, u.basis))


def gram_schmidt_monic(u: MomentFunctional, N: int) -> tuple[PolySystem, GramBlocks]:
    """Unique monic orthogonal system of the functional through degree N.

    Each degree starts from the monomial vector and removes its projections
    onto all previous degrees, read from one pairing of the monomials with
    every earlier degree, so leading blocks are exactly the identity.
    Raises QuasiDefiniteFailure at the first degree whose Gram block is
    numerically rank deficient at mk.DEFAULT_RANK_TOL, measured against the
    scale of the raw monomial pairing block when that exceeds sv[0], so
    genuinely tiny Gram blocks are caught.  A block that passes also passes
    mk.solve's rule (same tolerance, scale sv[0]), so the projections solve
    against it with no second check.  A tensor functional takes the tensor
    route (module docstring).
    """
    if N < 0:
        raise ValueError("degree bound must be >= 0")
    if hasattr(u, "factors"):
        return _tensor_monic(u, N)
    basis = u.basis
    blocks: list[list[np.ndarray]] = []
    rows: list[np.ndarray] = []   # blocks[n] side by side
    grams: list[np.ndarray] = []
    for n in range(N + 1):
        row = [np.zeros((basis.size(n), basis.size(k))) for k in range(n)]
        row.append(np.eye(basis.size(n)))
        if n:
            # <u, X_n P_j^t> for every j < n, P_j as block column j
            s = pair_blocks(u, {n: row[n]}, _stacked(rows, n - 1, basis))
        for j in range(n):
            coef = np.linalg.solve(grams[j], s[:, basis.degree_slice(j, j)].T).T
            for k in range(j + 1):
                row[k] -= coef @ blocks[j][k]
        h = pair_blocks(u, dict(enumerate(row)), dict(enumerate(row)))
        h = (h + h.T) / 2.0
        raw_scale = mk.max_abs(u.moment_matrix(n, n))
        sv = mk.singular_values(h)
        if mk.rank_from_sv(sv, mk.DEFAULT_RANK_TOL, max(raw_scale, sv[0])) < basis.size(n):
            raise QuasiDefiniteFailure(n, sv, u.label)
        blocks.append(row)
        rows.append(np.hstack(row))
        grams.append(h)
    return PolySystem(u.d, rows, label=f"mops({u.label})"), GramBlocks(grams)


def factor_recurrences(u: MomentFunctional, N: int) -> list[Recurrence1D]:
    """The monic recurrence through degree N of each factor of a tensor
    functional, b_N included: the one each factor keeps
    (MomentFunctional.recurrence).  When factors fail, QuasiDefiniteFailure
    is raised under the tensor's label at the lowest failing degree, which
    is the tensor's failing degree.
    """
    recs, failures = [], []
    for f in u.factors:
        try:
            recs.append(f.recurrence(N))
        except QuasiDefiniteFailure as err:
            failures.append(err)
    if failures:
        first = min(failures, key=lambda err: err.degree)
        raise QuasiDefiniteFailure(first.degree, first.singular_values, u.label)
    return recs


def factor_tables(u: MomentFunctional, N: int) -> list[np.ndarray]:
    """The coefficient table through degree N of each factor's monic system:
    row k of table i holds the ascending coefficients of p^(i)_k, zero-padded
    to N + 1 columns.  Their tensor_system is gram_schmidt_monic(u, N)'s
    system; failures raise as in factor_recurrences."""
    return [rec.monic_table() for rec in factor_recurrences(u, N)]


def _tensor_monic(u: MomentFunctional, N: int) -> tuple[PolySystem, GramBlocks]:
    """gram_schmidt_monic of a tensor functional, from its factors'
    recurrences (module docstring).  Products of norms that leave the
    floats raise ValueError."""
    tables = factor_tables(u, N)
    norms = []
    for f, table in zip(u.factors, tables):
        # h_0..h_N: the diagonal of one pairing of (p_0, ..., p_N) with itself
        rows = {k: table[:, k:k + 1] for k in range(N + 1)}
        norms.append(np.diagonal(pair_blocks(f, rows, rows)))
    basis = u.basis
    grams = []
    for n in range(N + 1):
        exps = basis.exponents(n)
        values = norms[0][exps[:, 0]]
        with np.errstate(over="ignore"):   # refused just below
            for i in range(1, u.d):
                values = values * norms[i][exps[:, i]]
        if not np.isfinite(values).all():
            raise ValueError("matrix entries must be finite")
        grams.append(np.diag(values))
    return tensor_system(tables, N, f"mops({u.label})"), GramBlocks(grams)


def gram_blocks(u: MomentFunctional, P: PolySystem) -> GramBlocks:
    """Gram blocks <u, P_n P_n^t> of a system, n = 0..P.N, and its
    orthogonality residual, all read off one pair_systems(u, P, P)."""
    G = pair_systems(u, P, P)
    degree = [u.basis.degree_slice(n, n) for n in range(P.N + 1)]
    H = GramBlocks([G[s, s].copy() for s in degree])
    # block row n left of its diagonal block holds the pairings with P_0..P_(n-1)
    worst = mk.worst(mk.max_abs(G[s, :s.start]) for s in degree[1:])
    H.offdiag_residual = worst / max(H.scale(), 1e-300)
    return H


def orthogonality_residual(u: MomentFunctional, P: PolySystem) -> float:
    """How far P is from orthogonal for u: the largest |<u, P_n x^alpha>|
    over |alpha| < n, relative to the largest |<u, P_n X_n^t>| (H_n for a
    monic P), worst over the degrees n >= 1.  One graded_block over degrees
    0..P.N, and per degree one product of P.rows[n] with its leading square;
    NaN when some degree's pairings with X_n all vanish."""
    if P.d != u.d:
        raise ValueError("system and functional must share the dimension")
    basis = u.basis
    M = u.graded_block(0, P.N, 0, P.N)
    ratios = []
    for n in range(1, P.N + 1):
        low, width = basis.offset(n), basis.offset(n + 1)
        s = P.rows[n] @ M[:width, :width]
        top = mk.max_abs(s[:, low:])
        ratios.append(mk.max_abs(s[:, :low]) / top if top > 0.0 else math.nan)
    return mk.worst(ratios)


def orthonormalize(P: PolySystem, H: GramBlocks) -> PolySystem:
    """Rescale a monic orthogonal system to unit Gram blocks.

    Uses the inverse symmetric square root of each Gram block, which fixes
    the rotation freedom of orthonormal bases; requires positive definite
    blocks.
    """
    mats = []
    for n in range(P.N + 1):
        w, v = np.linalg.eigh(H.h(n))
        if np.any(w <= 0):
            raise NotPositiveDefiniteError(n, w)
        mats.append(v @ np.diag(1.0 / np.sqrt(w)) @ v.T)
    out = P.transformed(mats)
    out.label = f"orthonormal({P.label})"
    return out


def system_from_rows(groups, d: int, N: int, label: str) -> PolySystem:
    """Assemble a PolySystem from stacks of dense mpoly arrays.

    Each group is a pair (nus, stack): an integer array of multi-indices,
    one a row, and the polynomials in their rows of their degree vectors,
    stack[i] that of nus[i], zero-padded to one shape.  Every multi-index
    of degree <= N is given once.  A group is written with one scatter,
    through basis.entry_positions of its shape, into one array over the
    graded positions of degrees 0..N; adding 0.0 turns a -0.0 coefficient
    into 0.0, and its rows of degree n over the columns of degrees 0..n
    are the system's row of degree n.  A row with a coefficient above
    1e-10 in some degree above its own raises ValueError: one test per
    group covers all its rows, and only when it fails is the first such
    row in graded order searched for the degree.
    """
    basis = basis_for(d)
    box = (N + 1,) * d
    where = basis.entry_positions(box).reshape(box)
    ends = np.array([basis.offset(n + 1) for n in range(N + 1)])
    width = ends[-1]
    full = np.zeros((width, width))
    written, faults = [], []
    for nus, stack in groups:
        nus = np.asarray(nus, dtype=np.intp).reshape(-1, d)
        rows = where[tuple(nus.T)]
        values = stack.reshape(len(rows), -1)
        pos = basis.entry_positions(stack.shape[1:])
        high = (pos >= ends[nus.sum(axis=1), None]) & (np.abs(values) > 1e-10)
        faults.extend((rows[r], nus[r], stack[r]) for r in np.flatnonzero(high.any(axis=1)))
        low = pos < width
        full[rows[:, None], pos[low]] = values[:, low]
        written.append(rows)
    if faults:
        _, nu, row = min(faults, key=lambda fault: fault[0])
        _check_row_degree(row, tuple(nu.tolist()), int(nu.sum()))
    if not (np.bincount(np.concatenate(written), minlength=width) == 1).all():
        raise ValueError(f"the rows must give every multi-index of degree <= {N} once")
    full += 0.0
    return PolySystem(d, [full[basis.degree_slice(n, n), :ends[n]] for n in range(N + 1)], label)


def _check_row_degree(row: np.ndarray, nu: tuple, n: int) -> None:
    """Raise for the row of nu if its coefficients of some degree m > n
    reach above 1e-10.  Degrees are tried in the order their first nonzero
    coefficient appears in the row, row-major."""
    degree = np.indices(row.shape).sum(axis=0)
    for m in dict.fromkeys(degree[row != 0].tolist()):
        if m > n and np.max(np.abs(row[degree == m])) > 1e-10:
            raise ValueError(f"row {nu} has degree {m} > {n}")


def _coefficient_table(polys: list, N: int) -> np.ndarray:
    """Row m holds the ascending coefficients of polys[m], zero-padded to
    N + 1 columns; a float table of that shape is that table already."""
    if isinstance(polys, np.ndarray) and polys.shape == (N + 1, N + 1) and polys.dtype == float:
        return polys
    table = np.zeros((N + 1, N + 1))
    for m in range(N + 1):
        table[m, :len(polys[m])] = polys[m]
    return table


def tensor_system(axis_polys: list, N: int, label: str) -> PolySystem:
    """Products of per-axis univariate families, one row per multi-index.

    axis_polys[i][m] holds the ascending coefficients of axis i's degree-m
    polynomial (a coefficient table's row m will do).  Entry (nu, alpha) of
    block (n, k) is prod_i t_i[nu_i, alpha_i], t_i the axis's coefficient
    table (_tensor_rows).
    """
    tables = [_coefficient_table(polys, N) for polys in axis_polys]
    return PolySystem(len(axis_polys), _tensor_rows(tables, N), label)


def _tensor_rows(tables: list, N: int):
    """Per degree n = 0..N, the rows of degree n of the tensor system of the
    coefficient tables over the columns of all degrees 0..n, whose column
    slices are its blocks.  Per axis, the table's columns at alpha_i are
    gathered first (a small array) and its rows at nu_i then copied whole,
    into one factor array the degree reuses; the factors are multiplied in
    place in axis order, and adding 0.0 turns the -0.0 of vanished terms
    into 0.0."""
    d = len(tables)
    basis = basis_for(d)
    columns = np.vstack([basis.exponents(k) for k in range(N + 1)])
    for n in range(N + 1):
        nu, alpha = basis.exponents(n), columns[:basis.offset(n + 1)]
        full = tables[0].take(alpha[:, 0], axis=1).take(nu[:, 0], axis=0)
        factor = np.empty_like(full)
        for i in range(1, d):
            tables[i].take(alpha[:, i], axis=1).take(nu[:, i], axis=0, out=factor, mode="clip")
            full *= factor
        full += 0.0
        yield full


# ---------------------------------------------------------------------------
# Koornwinder's construction of bivariate systems from two 1-d weights


def koornwinder_system(a: float, b: float, mu: float, N: int) -> PolySystem:
    """Bivariate orthogonal system on the disk from two Jacobi weights.

    Row k of the degree-n vector is q_(n-k)(x) rho(x)^k r_k(y / rho(x)),
    where rho(x) = sqrt(1 - x^2), q is the monic system of
    rho^(2k) (1-x)^a (1+x)^b = (1-x)^(a+k) (1+x)^(b+k) and r that of
    (1-t^2)^mu, both from the closed-form jacobi_recurrence: no moment is
    read.  r_k has the parity of k, its b_n being exactly 0.0.  The parts
    rho^k r_k(y / rho) of one form degree are evaluated together, and the
    rows of one k are one product of q's coefficient table with the part.
    """
    rho2 = np.array([1.0, 0.0, -1.0])
    y = mpoly.linear(2, [0.0, 1.0])
    # parts[k] = rho^k r_k(y / rho): y^(k mod 2) times a form in (y^2, rho^2)
    # of degree k // 2, the forms of k = 2p and 2p + 1 evaluated together
    forms = mpoly.form_table(mpoly.mul(y, y), mpoly.from_1d(rho2, 0, 2))
    r = jacobi_recurrence(N, mu, mu).monic_coeffs()
    groups = []
    for p in reversed(range(N // 2 + 1)):
        ks = range(2 * p, min(2 * p + 1, N) + 1)
        for k, part in zip(ks, forms(np.array([r[k][k % 2::2] for k in ks]))):
            part = mpoly.mul(y, part) if k % 2 else part
            q = jacobi_recurrence(N - k, a + k, b + k).monic_table()
            nus = np.column_stack((np.arange(N - k + 1), np.full(N - k + 1, k)))
            groups.append((nus, mpoly.mul(q[:, :, None], part[None])))
    label = f"koornwinder(jacobi(a={a},b={b}),jacobi(a={mu},b={mu}))"
    return system_from_rows(groups, 2, N, label)
