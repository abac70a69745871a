"""Construction of orthogonal polynomial systems from moment functionals.

A polynomial system is a graded sequence of column vectors of polynomials,
one vector per total degree, stored as coefficient blocks against the
ordered monomial basis: row vector n is sum_k G[n][k] X_k.  Systems are
built degree by degree through block Gram-Schmidt against the functional's
monomial pairing blocks; a rank-deficient Gram block means the functional
is not quasi-definite through that degree and construction stops with a
diagnosable error.  A univariate monic system needs only its recurrence,
which recurrence_from_moments reads off the moments by the same rule.

A tensor functional (one with `factors`) takes neither route in d
variables: its monic system is the product of its factors' monic systems,
one recurrence per factor, assembled by tensor_system.  Its Gram blocks
are diagonal, H_n = diag(prod_i h_(nu_i)) with h_k = <f_i, p_k p_k> read
from one univariate pairing per factor, and the tensor is quasi-definite
through degree n exactly when every factor is, so the first factor that
fails decides the tensor's failing degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matrixkit as mk
from . import mpoly
from .indexing import GradedBasis, basis_for
from .moments import MomentFunctional, Recurrence1D, left_multiply


class QuasiDefiniteFailure(Exception):
    """The Gram block at some degree is numerically singular."""

    def __init__(self, degree: int, singular_values, label: str = ""):
        self.degree = degree
        self.singular_values = np.asarray(singular_values, dtype=float)
        self.label = label
        super().__init__(
            f"functional {label!r} is not quasi-definite at degree {degree}; "
            f"Gram singular values {self.singular_values}"
        )


class NotPositiveDefiniteError(Exception):
    """A Gram block has a non-positive eigenvalue where positivity is required."""

    def __init__(self, degree: int, eigenvalues):
        self.degree = degree
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        super().__init__(f"Gram block at degree {degree} is not positive definite")


class PolySystem:
    """Graded coefficient blocks of a polynomial system."""

    def __init__(self, d: int, blocks, monic: bool, label: str = ""):
        self.d = d
        self.blocks = [[np.asarray(g, dtype=float) for g in row] for row in blocks]
        self.monic = monic
        self.label = label

    @property
    def N(self) -> int:
        return len(self.blocks) - 1

    def block(self, n: int, k: int) -> np.ndarray:
        return self.blocks[n][k]

    def leading(self, n: int) -> np.ndarray:
        return self.blocks[n][n]

    def row_blocks(self, n: int) -> dict[int, np.ndarray]:
        return {k: self.blocks[n][k] for k in range(n + 1)}

    def size(self, n: int) -> int:
        return self.blocks[n][n].shape[0]

    def to_monic(self) -> "PolySystem":
        """Divide each degree vector by its leading coefficient block."""
        out = []
        for n in range(self.N + 1):
            lead = self.leading(n)
            # the first block runs the rank check of lead, the others skip it
            row = [(np.linalg.solve if k else mk.solve)(lead, self.block(n, k))
                   for k in range(n)]
            row.append(np.eye(lead.shape[0]))
            out.append(row)
        return PolySystem(self.d, out, monic=True, label=f"monic({self.label})")

    def transformed(self, mats) -> "PolySystem":
        """Left-multiply each degree vector by the given square matrices."""
        out = []
        for n in range(self.N + 1):
            s = np.asarray(mats[n], dtype=float)
            out.append([s @ self.block(n, k) for k in range(n + 1)])
        return PolySystem(self.d, out, monic=False, label=self.label)


@dataclass
class GramBlocks:
    """Per-degree pairing blocks H_n of a system against its functional."""

    blocks: list
    _checked: set = field(default_factory=set, init=False, repr=False, compare=False)
    _diagonal: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def h(self, n: int) -> np.ndarray:
        return self.blocks[n]

    @property
    def N(self) -> int:
        return len(self.blocks) - 1

    def scale(self) -> float:
        return max(mk.max_abs(h) for h in self.blocks)

    def append(self, h: np.ndarray, sv: np.ndarray) -> None:
        """Add the next degree's block with its singular values.

        A block that is full rank by mk.solve's own rule (default tolerance,
        scale sv[0]) counts as checked, so no solve takes a second SVD of it.
        """
        if mk.rank_from_sv(sv, mk.DEFAULT_RANK_TOL, sv[0]) == h.shape[0]:
            self._checked.add(len(self.blocks))
        self.blocks.append(h)

    def append_diagonal(self, values) -> None:
        """Add the next degree's block diag(values), known to be diagonal.

        Its singular values are |values|, so it is checked by the same rule
        as `append` with no SVD, and solve_right divides by the values.
        """
        values = np.asarray(values, dtype=float)
        self._diagonal[len(self.blocks)] = values
        self.append(np.diag(values), np.sort(np.abs(values))[::-1])

    def solve_right(self, n: int, s) -> np.ndarray:
        """X with H_n X^t = s^t, i.e. s H_n^-1 for a symmetric block.

        Equals mk.solve(H_n, s.T).T: the first call at an unchecked degree
        runs its rank check (raising SingularMatrixError), later calls skip
        it.  A checked block added by append_diagonal is divided by.  Blocks
        must not change after their first solve.
        """
        if n in self._checked and n in self._diagonal:
            return np.asarray(s, dtype=float) / self._diagonal[n]
        rhs = np.asarray(s, dtype=float).T
        if n in self._checked:
            return np.linalg.solve(self.blocks[n], rhs).T
        x = mk.solve(self.blocks[n], rhs)
        self._checked.add(n)
        return x.T


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


def shift_rows(rows: dict, i: int, basis: GradedBasis) -> dict:
    """Coefficient blocks of x_i times a block-coefficient vector: each
    block's columns scattered to the positions of alpha + e_i."""
    out = {}
    for k, g in rows.items():
        block = np.zeros((g.shape[0], basis.size(k + 1)))
        block[:, basis.shift_index(k, i)] = g
        out[k + 1] = block
    return out


def inner_block(u: MomentFunctional, P: PolySystem, n: int, Q: PolySystem, m: int) -> np.ndarray:
    """<u, P_n Q_m^t> by coefficient contraction against the moments."""
    if P.d != Q.d or P.d != u.d:
        raise ValueError("systems and functional must share the dimension")
    return pair_blocks(u, P.row_blocks(n), Q.row_blocks(m))


def gram_schmidt_monic(u: MomentFunctional, N: int,
                       rank_tol: float = mk.DEFAULT_RANK_TOL) -> tuple[PolySystem, GramBlocks]:
    """Unique monic orthogonal system of the functional through degree N.

    Each degree starts from the monomial vector and removes its projections
    onto all previous degrees, so leading blocks are exactly the identity.
    Raises QuasiDefiniteFailure at the first degree whose Gram block is
    numerically rank deficient (measured against the scale of the raw
    monomial pairing block, so genuinely tiny Gram blocks are caught).
    A tensor functional takes the tensor route (module docstring) with the
    same `rank_tol` applied to each factor.
    """
    if N < 0:
        raise ValueError("degree bound must be >= 0")
    if hasattr(u, "factors"):
        return _tensor_monic(u, N, rank_tol)
    basis = u.basis
    blocks: list[list[np.ndarray]] = []
    grams = GramBlocks([])
    for n in range(N + 1):
        row = [np.zeros((basis.size(n), basis.size(k))) for k in range(n)]
        row.append(np.eye(basis.size(n)))
        for j in range(n):
            s = pair_blocks(u, {n: row[n]}, {k: blocks[j][k] for k in range(j + 1)})
            coef = grams.solve_right(j, s)
            for k in range(j + 1):
                row[k] -= coef @ blocks[j][k]
        h = pair_blocks(u, dict(enumerate(row)), dict(enumerate(row)))
        h = (h + h.T) / 2.0
        raw_scale = mk.max_abs(u.moment_matrix(n, n))
        sv = mk.singular_values(h)
        if mk.rank_from_sv(sv, rank_tol, max(raw_scale, sv[0])) < basis.size(n):
            raise QuasiDefiniteFailure(n, sv, u.label)
        blocks.append(row)
        grams.append(h, sv)
    return PolySystem(u.d, blocks, monic=True, label=f"mops({u.label})"), grams


def recurrence_from_moments(u: MomentFunctional, N: int,
                            rank_tol: float = mk.DEFAULT_RANK_TOL) -> Recurrence1D:
    """Monic recurrence of a 1-d functional from its moments 0..2N.

    The Chebyshev algorithm: sig[l] = <u, p_k x^l> is one vector per step k,
    h_k = sig[k], b_k and c_k = h_k / h_(k-1) are read from it, and the next
    vector follows from the recurrence itself.  b_N needs moment 2N + 1 and
    is left NaN.  Raises QuasiDefiniteFailure at the first degree k whose
    h_k fails the rank rule gram_schmidt_monic applies to a 1x1 Gram block.
    """
    if u.d != 1:
        raise ValueError("recurrence_from_moments needs a univariate functional")
    if N < 0:
        raise ValueError("degree bound must be >= 0")
    mom = np.array([u.moment((m,)) for m in range(2 * N + 1)])
    b, c = np.full(N + 1, np.nan), np.zeros(N + 1)
    prev, sig = np.zeros_like(mom), mom
    for k in range(N + 1):
        h = sig[k]
        if not abs(h) > rank_tol * max(abs(mom[2 * k]), abs(h)):
            raise QuasiDefiniteFailure(k, [abs(h)], u.label)
        if k:
            c[k] = h / prev[k - 1]
        if k == N:
            break
        b[k] = sig[k + 1] / h - (prev[k] / prev[k - 1] if k else 0.0)
        nxt = np.zeros_like(mom)
        nxt[:-1] = sig[1:] - b[k] * sig[:-1] - c[k] * prev[:-1]
        prev, sig = sig, nxt
    return Recurrence1D(b, c, mass=float(mom[0]), label=f"recurrence({u.label})")


def _tensor_monic(u: MomentFunctional, N: int, rank_tol: float) -> tuple[PolySystem, GramBlocks]:
    """gram_schmidt_monic of a tensor functional, from its factors'
    recurrences (module docstring)."""
    recs, failures = [], []
    for f in u.factors:
        try:
            recs.append(recurrence_from_moments(f, N, rank_tol))
        except QuasiDefiniteFailure as err:
            failures.append(err)
    if failures:
        first = min(failures, key=lambda err: err.degree)
        raise QuasiDefiniteFailure(first.degree, first.singular_values, u.label)
    polys = [rec.monic_coeffs() for rec in recs]
    norms = []
    for f, p in zip(u.factors, polys):
        # h_0..h_N: the diagonal of one pairing of (p_0, ..., p_N) with itself
        table = _coefficient_table(p, N)
        rows = {k: table[:, k:k + 1] for k in range(N + 1)}
        norms.append(np.diagonal(pair_blocks(f, rows, rows)))
    basis = u.basis
    grams = GramBlocks([])
    for n in range(N + 1):
        exps = basis.exponents(n)
        values = norms[0][exps[:, 0]]
        for i in range(1, u.d):
            values = values * norms[i][exps[:, i]]
        grams.append_diagonal(values)
    return tensor_system(polys, N, f"mops({u.label})"), grams


def gram_blocks(u: MomentFunctional, P: PolySystem) -> GramBlocks:
    """Gram blocks <u, P_n P_n^t> of a system, n = 0..P.N."""
    return GramBlocks([inner_block(u, P, n, P, n) for n in range(P.N + 1)])


def gram_offdiag_residual(u: MomentFunctional, P: PolySystem, H: GramBlocks) -> float:
    """Largest off-diagonal pairing block entry, relative to the scale of the
    Gram blocks H of P."""
    worst = mk.worst(mk.max_abs(inner_block(u, P, n, Q=P, m=m))
                     for n in range(P.N + 1) for m in range(n))
    return worst / max(H.scale(), 1e-300)


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


def system_from_rows(rows: dict, d: int, N: int, label: str) -> PolySystem:
    """Assemble a PolySystem from dense mpoly arrays, one per multi-index.

    rows[nu] is the polynomial in the row of nu of its degree vector.  The
    system is monic exactly when every leading block is the identity.
    """
    basis = basis_for(d)
    blocks = []
    for n in range(N + 1):
        row = [np.zeros((basis.size(n), basis.size(k))) for k in range(n + 1)]
        for pos, nu in enumerate(basis.indices(n)):
            for m, coeffs in mpoly.to_blocks(rows[nu], basis).items():
                if m > n and np.max(np.abs(coeffs)) > 1e-10:
                    raise ValueError(f"row {nu} has degree {m} > {n}")
                if m <= n:
                    row[m][pos] += coeffs
        blocks.append(row)
    return _assembled(d, blocks, label)


def _coefficient_table(polys: list, N: int) -> np.ndarray:
    """Row m holds the ascending coefficients of polys[m], zero-padded to
    N + 1 columns."""
    table = np.zeros((N + 1, N + 1))
    for m in range(N + 1):
        table[m, :len(polys[m])] = polys[m]
    return table


def tensor_system(axis_polys: list, N: int, label: str) -> PolySystem:
    """Products of per-axis univariate families, one row per multi-index.

    axis_polys[i][m] holds the ascending coefficients of axis i's degree-m
    polynomial.  Entry (nu, alpha) of block (n, k) is prod_i t_i[nu_i,
    alpha_i], t_i the axis's coefficient table: one gather over the
    exponent tables of degrees n and k per axis, multiplied in axis order.
    Adding 0.0 turns the -0.0 of vanished terms into 0.0.
    """
    d = len(axis_polys)
    basis = basis_for(d)
    tables = [_coefficient_table(polys, N) for polys in axis_polys]
    blocks = []
    for n in range(N + 1):
        row = []
        for k in range(n + 1):
            nu, alpha = basis.exponents(n), basis.exponents(k)
            block = tables[0][np.ix_(nu[:, 0], alpha[:, 0])]
            for i in range(1, d):
                block = block * tables[i][np.ix_(nu[:, i], alpha[:, i])]
            row.append(block + 0.0)
        blocks.append(row)
    return _assembled(d, blocks, label)


def _assembled(d: int, blocks: list, label: str) -> PolySystem:
    """The system of assembled blocks; monic exactly when every leading
    block is the identity."""
    monic = all(np.array_equal(row[-1], np.eye(row[-1].shape[0])) for row in blocks)
    return PolySystem(d, blocks, monic=monic, label=label)


# ---------------------------------------------------------------------------
# Koornwinder's construction of bivariate systems from two 1-d weights


@dataclass(frozen=True)
class RhoMap:
    """Mapping rho(x) coupling the two 1-d weights.

    kind "linear": coeffs (c0, c1) give rho = c0 + c1 x.
    kind "sqrt": coeffs (q0, q1, q2) give rho^2 = q0 + q1 x + q2 x^2, the
    second weight must be symmetric, and the first-weight functional passed
    to koornwinder_system must carry the moments of rho(x) w1(x).
    """

    kind: str
    coeffs: tuple

    @staticmethod
    def linear(c0: float, c1: float = 0.0) -> "RhoMap":
        return RhoMap("linear", (float(c0), float(c1)))

    @staticmethod
    def sqrt_poly(q0: float, q1: float = 0.0, q2: float = 0.0) -> "RhoMap":
        return RhoMap("sqrt", (float(q0), float(q1), float(q2)))


def _poly_map_1d(coeffs) -> dict[tuple[int], float]:
    return {(m,): float(c) for m, c in enumerate(coeffs) if c != 0.0}


def koornwinder_system(w1: MomentFunctional, w2: MomentFunctional, rho: RhoMap,
                       N: int) -> tuple[PolySystem, MomentFunctional]:
    """Bivariate orthogonal system from two 1-d weights and a mapping.

    Row k of the degree-n vector is q_(n-k)(x) rho(x)^k r_k(y / rho(x)),
    where q is the monic system of rho^(2k+1) w1 and r the monic system of
    w2.  Returns the system together with the bivariate functional it is
    orthogonal against.  With a constant mapping this reduces to tensor
    products of the univariate systems.
    """
    if w1.d != 1 or w2.d != 1:
        raise ValueError("koornwinder construction needs univariate weights")
    linear = rho.kind == "linear"
    base = np.array(rho.coeffs, dtype=float)  # rho if linear, else rho^2
    y = mpoly.linear(2, [0.0, 1.0])
    base_xy = mpoly.from_1d(base, 0, 2)
    powers = [mpoly.const(1)]

    def base_power(t: int) -> np.ndarray:
        while len(powers) <= t:
            powers.append(mpoly.mul(powers[-1], base))
        return powers[t]

    # parts[k] = rho^k r_k(y / rho), a homogeneous form in (y, rho) or,
    # for a sqrt mapping, y^(k mod 2) times a form in (y^2, rho^2)
    forms = mpoly.form_table(y if linear else mpoly.mul(y, y), base_xy)
    parts = []
    for k, c in enumerate(recurrence_from_moments(w2, N).monic_coeffs()):
        if linear:
            parts.append(forms(c))
            continue
        # the symmetric second weight makes r_k share the parity of k
        scale = max(1.0, float(np.max(np.abs(c))))
        if np.any(np.abs(c[1 - k % 2::2]) > 1e-9 * scale):
            raise ValueError("second weight must be symmetric for a sqrt mapping")
        parts.append(mpoly.mul(y if k % 2 else mpoly.const(2), forms(c[k % 2::2])))

    rows = {}
    for k in range(N + 1):
        mult = base_power(2 * k + 1 if linear else k)
        u_k = left_multiply(_poly_map_1d(mult), w1, label=f"rho^{2 * k + 1}*w1")
        for m, q in enumerate(recurrence_from_moments(u_k, N - k).monic_coeffs()):
            rows[(m, k)] = mpoly.mul(mpoly.from_1d(q, 0, 2), parts[k])

    def oracle(alpha):
        j, k = alpha
        myk = w2.moment((k,))
        if myk == 0.0:
            return 0.0
        if linear:
            mult = base_power(k + 1)
        else:
            if k % 2:
                return 0.0
            mult = base_power(k // 2)
        mx = sum(c * w1.moment((j + m,)) for m, c in enumerate(mult) if c != 0.0)
        return myk * mx

    label = f"koornwinder({w1.label},{w2.label})"
    return system_from_rows(rows, 2, N, label), MomentFunctional(2, oracle, label=label)
