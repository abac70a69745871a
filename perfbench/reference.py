"""50-digit reference coefficients for tensor-product weights.

The monic orthogonal system of a quasi-definite functional is unique, and
for a product weight the product of the per-axis monic polynomials,
p_nu(x) = prod_i p_(nu_i)(x_i), is already monic (its top-degree part is
x^nu) and orthogonal.  So the exact graded system of a tensor Jacobi or
tensor Laguerre weight follows from one-variable Gram-Schmidt on the
closed-form moments, done here in 50-digit arithmetic with mpmath.  The
benchmark compares the library's floating-point Gram-Schmidt against it,
which measures coefficient error directly instead of through the
library's own self-consistency residuals.
"""

from __future__ import annotations

import itertools

import mpmath
import numpy as np

DIGITS = 50


def jacobi_moments(a: float, b: float, count: int, dps: int = DIGITS) -> list:
    """int_{-1}^{1} x^k (1-x)^a (1+x)^b dx for k < count, closed form.

    With x = 2t - 1 the moment is 2^(a+b+1) sum_i C(k,i) 2^i (-1)^(k-i)
    B(b+i+1, a+1); the alternating sum loses about 15 digits at k = 24,
    which the working precision absorbs.
    """
    with mpmath.workdps(dps + 20):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        out = []
        for k in range(count):
            total = mpmath.mpf(0)
            for i in range(k + 1):
                total += (mpmath.binomial(k, i) * mpmath.mpf(2) ** i * (-1) ** (k - i)
                          * mpmath.beta(b + i + 1, a + 1))
            out.append(+(mpmath.mpf(2) ** (a + b + 1) * total))
        return out


def laguerre_moments(alpha: float, count: int, dps: int = DIGITS) -> list:
    """int_0^inf t^k t^alpha e^-t dt = Gamma(k + alpha + 1) for k < count."""
    with mpmath.workdps(dps + 20):
        return [mpmath.gamma(k + mpmath.mpf(alpha) + 1) for k in range(count)]


def monic_from_moments(mom: list, N: int, dps: int = DIGITS) -> list:
    """Ascending coefficients of the monic orthogonal p_0..p_N.

    Gram-Schmidt on the monomials: p_n = x^n - sum_{j<n} c_j x^j with the
    Hankel system sum_j c_j m_(i+j) = m_(i+n), i < n.
    """
    out = [[mpmath.mpf(1)]]
    with mpmath.workdps(dps):
        for n in range(1, N + 1):
            H = mpmath.matrix(n, n)
            rhs = mpmath.matrix(n, 1)
            for i in range(n):
                rhs[i] = mom[i + n]
                for j in range(n):
                    H[i, j] = mom[i + j]
            c = mpmath.lu_solve(H, rhs)
            out.append([-c[j] for j in range(n)] + [mpmath.mpf(1)])
    return out


def axis_table(kind: str, params: tuple, N: int, dps: int = DIGITS) -> np.ndarray:
    """(N+1) x (N+1) float table T[m, k] = coefficient of x^k in p_m."""
    if kind == "jacobi":
        mom = jacobi_moments(params[0], params[1], 2 * N + 1, dps)
    elif kind == "laguerre":
        mom = laguerre_moments(params[0], 2 * N + 1, dps)
    else:
        raise ValueError(f"unknown axis weight {kind!r}")
    table = np.zeros((N + 1, N + 1))
    for m, coeffs in enumerate(monic_from_moments(mom, N, dps)):
        table[m, : m + 1] = [float(c) for c in coeffs]
    return table


def graded_indices(d: int, n: int) -> list[tuple[int, ...]]:
    """Exponents of total degree n in descending lexicographic order."""
    return sorted((t for t in itertools.product(range(n + 1), repeat=d) if sum(t) == n),
                  reverse=True)


class TensorReference:
    """Exact monic graded system of a product weight, as float blocks."""

    def __init__(self, axes: list[tuple[str, tuple]], N: int, dps: int = DIGITS):
        self.d = len(axes)
        self.N = N
        cache: dict = {}
        self.tables = []
        for kind, params in axes:
            key = (kind, tuple(params))
            if key not in cache:
                cache[key] = axis_table(kind, params, N, dps)
            self.tables.append(cache[key])
        self._idx = [np.array(graded_indices(self.d, n), dtype=int) for n in range(N + 1)]

    def block(self, n: int, k: int) -> np.ndarray:
        rows, cols = self._idx[n], self._idx[k]
        out = np.ones((len(rows), len(cols)))
        for axis, table in enumerate(self.tables):
            out *= table[rows[:, axis][:, None], cols[:, axis][None, :]]
        return out

    def degree_errors(self, blocks) -> list[float]:
        """Per-degree relative error of blocks[n][k] against the reference.

        The error of degree n is the largest entry gap over its blocks
        divided by the largest reference entry of that degree.
        """
        errs = []
        for n in range(min(len(blocks) - 1, self.N) + 1):
            ref = [self.block(n, k) for k in range(n + 1)]
            gap = max(float(np.max(np.abs(np.asarray(blocks[n][k]) - ref[k])))
                      for k in range(n + 1))
            scale = max(float(np.max(np.abs(r))) for r in ref)
            errs.append(gap / scale)
        return errs
