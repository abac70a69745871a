"""Block-by-block helpers that several test modules build references with."""

import numpy as np

from mvops import construct, families
from mvops import matrixkit as mk


def shift_rows(rows: dict, i: int, basis) -> dict:
    """Coefficient blocks of x_i times a block-coefficient vector: each
    block's columns scattered to the positions of alpha + e_i."""
    out = {}
    for k, g in rows.items():
        block = np.zeros((g.shape[0], basis.size(k + 1)))
        block[:, basis.shift_index(k, i)] = g
        out[k + 1] = block
    return out


def row_blocks(P, n: int) -> dict:
    """Degree n of a system as the dict of its blocks that pair_blocks takes."""
    return dict(enumerate(P.blocks[n]))


def simplex_orthonormal_system(kappa, N: int, first: int = 1):
    """Product-formula basis on the simplex, orthogonal for the Dirichlet weight.

    `first` picks which coordinate plays the leading role in the nested
    construction (the weight is symmetric under permuting coordinates, so
    any choice yields an orthogonal basis); parameter-raising relations in
    direction j take the clean two-term form exactly for first = j.
    ParameterError where a row norm or a Jacobi recurrence coefficient is
    not a positive finite float.
    """
    kappa = [float(k) for k in kappa]
    factors = families._SimplexFactors(len(kappa) - 1, first, N)
    return factors.system(kappa, factors.norms(kappa))


def first_failure(report):
    """The first failed check of a ttr.RankReport by degree, a direction's
    check before the joint check of its degree; None when all pass."""
    bad = sorted(
        (c for c in report.checks if not c.ok),
        key=lambda c: (c.degree, c.direction if c.direction is not None else 1 << 30),
    )
    return bad[0] if bad else None


def relation_by_pairing(Q, P, u, H=None):
    """The relation Q_n = P_n + M_n P_(n-1) by Fourier expansion against the
    moments of u, the u-orthogonal system P's functional: one
    pair_systems(u, Q, P) through degrees N and N - 1, and one solve per
    degree j against H_j (default gram_blocks(u, P)) for the coefficients of
    every Q_n, n > j, against P_j.  M_n is the block against P_(n-1); the
    tail is the largest coefficient against any P_j, j <= n - 2, relative to
    the largest coefficient of Q (at least 1).  Returns (M, tail)."""
    N = min(Q.N, P.N)
    basis = u.basis
    H = construct.gram_blocks(u, P) if H is None else H
    scale = max(max(mk.max_abs(Q.rows[n]) for n in range(N + 1)), 1.0)
    M, tails = [None] * (N + 1), []
    G = construct.pair_systems(u, Q, P, N, N - 1) if N else None
    for j in range(N):
        coef = H.solve_right(j, G[basis.degree_slice(j + 1, N), basis.degree_slice(j, j)])
        M[j + 1] = coef[:basis.size(j + 1)]
        tails.append(mk.max_abs(coef[basis.size(j + 1):]) / scale)
    return M, mk.worst(tails)
