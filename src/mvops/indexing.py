"""Graded monomial bookkeeping for polynomials in d real variables.

Monomials are grouped by total degree.  Within a degree block they are
ordered descending-lexicographically on the exponent tuple, which for two
variables gives the row order x^n, x^(n-1)y, ..., y^n.  All coefficient
blocks elsewhere in the package are expressed against these ordered blocks,
so this module is the single source of truth for positions, block sizes and
the 0/1 shift matrices that encode multiplication by a coordinate.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np


def rank_count(d: int, n: int) -> int:
    """Number of monomials of total degree n in d variables, C(n+d-1, d-1)."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    return comb(n + d - 1, d - 1)


def enumerate_indices(d: int, n: int) -> list[tuple[int, ...]]:
    """All exponent tuples of total degree n, descending lexicographic.

    For d = 2 this is [(n,0), (n-1,1), ..., (0,n)].
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    if d == 1:
        return [(n,)]
    out = []
    for v in range(n, -1, -1):
        out.extend((v,) + rest for rest in enumerate_indices(d - 1, n - v))
    return out


def joint_matrix(blocks) -> np.ndarray:
    """Stack matrices with a common column count vertically, in given order."""
    blocks = [np.asarray(b, dtype=float) for b in blocks]
    if not blocks:
        raise ValueError("need at least one block")
    cols = blocks[0].shape[1]
    for b in blocks:
        if b.shape[1] != cols:
            raise ValueError(f"column mismatch: {b.shape[1]} != {cols}")
    return np.vstack(blocks)


class GradedBasis:
    """Ordered monomial basis of a fixed dimension with shift structure.

    Immutable after construction apart from internal memo tables, which only
    grow; safe for concurrent reads under CPython.  Blocks of all degrees
    0..n concatenated in degree order form the graded order used for
    graded moment matrices.
    """

    def __init__(self, d: int):
        if d < 1:
            raise ValueError(f"dimension must be >= 1, got {d}")
        self.d = d
        self._indices: dict[int, list[tuple[int, ...]]] = {}
        self._positions: dict[tuple[int, ...], int] = {}
        self._shift: dict[tuple[int, int], np.ndarray] = {}
        self._table = np.zeros((0, 0), dtype=np.intp)
        self._table_top = -1

    def size(self, n: int) -> int:
        return rank_count(self.d, n)

    def offset(self, n: int) -> int:
        """Graded position of the first degree-n monomial: the number of
        monomials of degree below n, C(n+d-1, d)."""
        return comb(n + self.d - 1, self.d)

    def degree_slice(self, lo: int, hi: int) -> slice:
        """Graded positions of the monomials of degrees lo..hi."""
        return slice(self.offset(lo), self.offset(hi + 1))

    def indices(self, n: int) -> list[tuple[int, ...]]:
        if n not in self._indices:
            idx = enumerate_indices(self.d, n)
            self._indices[n] = idx
            for pos, alpha in enumerate(idx):
                self._positions[alpha] = pos
        return self._indices[n]

    def position(self, alpha) -> int:
        """Position of a multi-index within its own degree block."""
        alpha = tuple(int(a) for a in alpha)
        if alpha not in self._positions:
            self.indices(sum(alpha))
        return self._positions[alpha]

    def shift_matrix(self, n: int, i: int) -> np.ndarray:
        """0/1 matrix S of shape (size(n), size(n+1)) with S X_{n+1} = x_i X_n.

        Row r carries a single 1 at the column of alpha_r + e_i, so
        S S^t is the identity.
        """
        if not 1 <= i <= self.d:
            raise ValueError(f"direction must be in 1..{self.d}, got {i}")
        key = (n, i)
        if key not in self._shift:
            src = self.indices(n)
            self.indices(n + 1)
            mat = np.zeros((self.size(n), self.size(n + 1)))
            for r, alpha in enumerate(src):
                shifted = list(alpha)
                shifted[i - 1] += 1
                mat[r, self._positions[tuple(shifted)]] = 1.0
            self._shift[key] = mat
        return self._shift[key]

    def joint_shift(self, n: int) -> np.ndarray:
        """Vertical stack of shift_matrix(n, i) over i = 1..d; full column rank."""
        return joint_matrix([self.shift_matrix(n, i) for i in range(1, self.d + 1)])

    def graded_table(self, n: int) -> np.ndarray:
        """Integer table over degrees 0..n in graded order: entry (a, b) is the
        graded position of alpha_a + beta_b.

        The graded position of gamma is sum_k C(t_k + d - k - 1, d - k), where
        t_k = gamma_k + ... + gamma_d is a tail sum (k counted from 0); the
        k = 0 term is `offset` of the total degree and the rest rank gamma
        within its degree block.  One table is kept, rebuilt larger when a
        caller needs a higher degree; smaller requests are views into it.
        """
        if n > self._table_top:
            d, old = self.d, self._table.shape[0]
            size = self.offset(n + 1)
            exps = np.array([a for m in range(n + 1) for a in self.indices(m)],
                            dtype=np.intp).reshape(-1, d)
            tails = np.cumsum(exps[:, ::-1], axis=1)[:, ::-1]
            pascal = np.array([[comb(m, r) for r in range(d + 1)] for m in range(2 * n + d)],
                              dtype=np.intp)
            table = np.zeros((size, size), dtype=np.intp)
            table[:old, :old] = self._table
            # new rows one degree block at a time, to keep temporaries small;
            # alpha + beta = beta + alpha gives the new columns of old rows
            for m in range(self._table_top + 1, n + 1):
                rows = self.degree_slice(m, m)
                for k in range(d):
                    table[rows] += pascal[np.add.outer(tails[rows, k],
                                                       tails[:, k] + (d - k - 1)), d - k]
            table[:old, old:] = table[old:, :old].T
            self._table, self._table_top = table, n
        size = self.offset(n + 1)
        return self._table[:size, :size]

    def sum_table(self, j: int, k: int) -> np.ndarray:
        """Integer table T with T[a, b] = position of alpha_a + beta_b in degree j+k."""
        table = self.graded_table(max(j, k))
        return table[self.degree_slice(j, j), self.degree_slice(k, k)] - self.offset(j + k)


@lru_cache(maxsize=None)
def basis_for(d: int) -> GradedBasis:
    """Shared per-dimension basis instance."""
    return GradedBasis(d)
