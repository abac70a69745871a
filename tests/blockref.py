"""Block-by-block helpers that several test modules build references with."""

import numpy as np
from scipy import special as sp

from mvops import construct, families
from mvops import matrixkit as mk
from mvops.indexing import basis_for
from mvops.matrixkit import DEFAULT_RES_TOL
from mvops.moments import QuasiDefiniteFailure


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
    pair_systems(u, Q, P), read through degrees N and N - 1, and one solve per
    degree j against H_j (default gram_blocks(u, P)) for the coefficients of
    every Q_n, n > j, against P_j.  M_n is the block against P_(n-1); the
    tail is the largest coefficient against any P_j, j <= n - 2, relative to
    the largest coefficient of Q (at least 1).  Returns (M, tail)."""
    N = min(Q.N, P.N)
    basis = u.basis
    H = construct.gram_blocks(u, P) if H is None else H
    scale = max(max(mk.max_abs(Q.rows[n]) for n in range(N + 1)), 1.0)
    M, tails = [None] * (N + 1), []
    G = construct.pair_systems(u, Q, P) if N else None
    for j in range(N):
        coef = mk.solve(H.h(j), G[basis.degree_slice(j + 1, N), basis.degree_slice(j, j)].T).T
        M[j + 1] = coef[:basis.size(j + 1)]
        tails.append(mk.max_abs(coef[basis.size(j + 1):]) / scale)
    return M, mk.worst(tails)


# Gauss-quadrature moments: an independent route to the closed forms of
# mvops.moments, through scipy's Gauss-Jacobi and Gauss-Laguerre rules.


def disk_moment_quadrature(mu: float, alpha) -> float:
    """Raw disk moment via iterated Gauss-Jacobi rules."""
    j, k = alpha
    # inner integral over y on a slice: y = sqrt(1-x^2) t
    xk, wk = sp.roots_jacobi(k // 2 + 2, mu, mu)
    inner = float(np.sum(wk * xk**k))
    xj, wj = sp.roots_jacobi(j // 2 + 2, mu + (k + 1) / 2.0, mu + (k + 1) / 2.0)
    outer = float(np.sum(wj * xj**j))
    return inner * outer


def simplex_moment_quadrature(kappa, alpha) -> float:
    """Raw simplex moment via iterated Gauss-Jacobi rules on [0, 1] slices."""
    kappa = np.asarray(kappa, dtype=float)
    alpha = tuple(alpha)
    d = len(alpha)
    total = 1.0
    for ell in range(1, d + 1):
        # exponent of t on axis ell is alpha_ell plus the singular kappa part;
        # the factor (1-t) collects everything from later axes plus Jacobian
        frac_one_minus = sum(kappa[j] - 0.5 for j in range(ell, d)) + kappa[d] - 0.5
        poly_one_minus = sum(alpha[ell:]) + (d - ell)
        x, w = sp.roots_jacobi(
            (alpha[ell - 1] + poly_one_minus) // 2 + 2, frac_one_minus, kappa[ell - 1] - 0.5
        )
        t = (x + 1.0) / 2.0
        vals = t ** alpha[ell - 1] * (1.0 - t) ** poly_one_minus
        # rule carries (1-x)^A (1+x)^B on [-1,1]; map to [0,1] with t=(1+x)/2
        scale = 0.5 ** (frac_one_minus + (kappa[ell - 1] - 0.5) + 1)
        total *= scale * float(np.sum(w * vals))
    return total


def laguerre_moment_quadrature(kappa, alpha) -> float:
    """Raw multiple-Laguerre moment via Gauss-Laguerre rules per axis."""
    total = 1.0
    for k, m in zip(kappa, alpha):
        x, w = sp.roots_genlaguerre(m // 2 + 2, k)
        total *= float(np.sum(w * x**m))
    return total


def check_recurrence_by_powers(rec, moments, label: str = "") -> None:
    """The moment check of mvops.moments.check_recurrence as one
    matrix-vector product per power of the Jacobi matrix J and of |J|: the
    reference its doubling route must agree with, verdict for verdict."""
    mom = np.asarray(moments, dtype=float)
    N = rec.N
    h = rec.norms()
    bad = np.flatnonzero(~(h > 0.0))
    if bad.size:
        raise QuasiDefiniteFailure(int(bad[0]), [abs(h[bad[0]])], label)
    J = np.diag(rec.b) + np.diag(np.ones(N), 1) + np.diag(rec.c[1:], -1)
    size_J = np.abs(J)
    got, size = np.empty(2 * N + 2), np.empty(2 * N + 2)
    v = w = np.eye(N + 1)[0]
    for k in range(2 * N + 2):
        got[k], size[k] = v[0], w[0]
        v, w = J @ v, size_J @ w
    gap = np.abs(rec.mass * got - mom)
    bound = np.maximum(DEFAULT_RES_TOL * abs(rec.mass) * size, np.finfo(float).tiny)
    bad = np.flatnonzero(~(gap <= bound))
    if bad.size:
        k = bad[0]
        raise ValueError(f"the closed-form recurrence of {label!r} gives moment {k} as "
                         f"{float(rec.mass * got[k])!r}, not {float(mom[k])!r}")


def monic_coeffs_by_arrays(rec):
    """The monic coefficient arrays of a Recurrence1D built one numpy array
    per degree: the reference its monic_table must equal bit for bit."""
    polys = [np.array([1.0])]
    if rec.N >= 1:
        polys.append(np.array([-rec.b[0], 1.0]))
    for n in range(1, rec.N):
        prev, prev2 = polys[n], polys[n - 1]
        nxt = np.zeros(n + 2)
        nxt[1:] += prev
        nxt[:-1] -= rec.b[n] * prev
        nxt[: n] -= rec.c[n] * prev2
        polys.append(nxt)
    return polys


def full_width_shift_defects(P, T):
    """Per degree n < P.N, x_i P_n - A_(n,i) P_(n+1) - B_(n,i) P_n -
    C_(n,i) P_(n-1) of a monic system over all the columns of degrees
    0..n+1, directions stacked, with dense products: the defect whose
    degree-(n+1) columns compute_ttr's residual leaves out."""
    basis = basis_for(P.d)
    out = []
    for n in range(P.N):
        size = basis.size(n)
        resid = -P.rows[n + 1][basis.joint_shift_index(n)[0]]
        for i in range(P.d):
            resid[i * size:(i + 1) * size, basis.shifted(n + 1, i + 1)] += P.rows[n]
        resid[:, :basis.offset(n + 1)] -= np.vstack([b @ P.rows[n] for b in T.B[n]])
        if n >= 1:
            resid[:, :basis.offset(n)] -= np.vstack([c @ P.rows[n - 1] for c in T.C[n]])
        out.append(resid)
    return out


def full_width_recon_residual(P, T) -> float:
    """compute_ttr's reconstruction residual read off full_width_shift_defects."""
    scales = [mk.max_abs(row) for row in P.rows]
    worst = []
    for n, resid in enumerate(full_width_shift_defects(P, T)):
        scale = max(max(scales[max(0, n - 1):n + 2]), 1.0)
        worst.extend(np.abs(resid).reshape(P.d, -1).max(axis=1) / scale)
    return mk.worst(worst)
