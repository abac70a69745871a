"""Dense d-variate polynomial arrays.

A polynomial is an ndarray whose entry [i1, ..., id] is the coefficient of
x1^i1 ... xd^id.  Shapes stay tiny at the degrees used here, so products
are computed by direct shifted accumulation.  This is the one polynomial
arithmetic of the explicit product-form bases (Koornwinder, simplex,
tensor and symmetrized Chebyshev systems); `construct.system_from_rows`
splits their rows into the graded coefficient blocks the rest of the
package works with.
"""

from __future__ import annotations

import numpy as np

from .indexing import GradedBasis


def const(d: int, value: float = 1.0) -> np.ndarray:
    arr = np.zeros((1,) * d)
    arr[(0,) * d] = value
    return arr


def linear(d: int, coeffs, constant: float = 0.0) -> np.ndarray:
    """constant + sum coeffs[i] * x_{i+1}."""
    arr = np.zeros((2,) * d)
    arr[(0,) * d] = constant
    for i, c in enumerate(coeffs):
        idx = tuple(1 if j == i else 0 for j in range(d))
        arr[idx] = c
    return trim(arr)


def from_1d(coeffs, axis: int, d: int) -> np.ndarray:
    """Embed an ascending-power univariate polynomial on the given axis."""
    coeffs = np.asarray(coeffs, dtype=float)
    shape = [1] * d
    shape[axis] = len(coeffs)
    return coeffs.reshape(shape)


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    shape = tuple(max(x, y) for x, y in zip(a.shape, b.shape))
    out = np.zeros(shape)
    out[tuple(slice(0, s) for s in a.shape)] += a
    out[tuple(slice(0, s) for s in b.shape)] += b
    return out


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros(tuple(x + y - 1 for x, y in zip(a.shape, b.shape)))
    for idx in np.argwhere(a):
        key = tuple(idx)
        out[tuple(slice(i, i + s) for i, s in zip(key, b.shape))] += a[key] * b
    return out


def power(a: np.ndarray, k: int) -> np.ndarray:
    out = const(a.ndim)
    for _ in range(k):
        out = mul(out, a)
    return out


def hom_eval(coeffs, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum coeffs[i] * a^i * b^(m-i) for a univariate coefficient list; each
    power of a and of b is computed once."""
    coeffs = np.asarray(coeffs, dtype=float)
    m = len(coeffs) - 1
    pa, pb = [const(a.ndim)], [const(b.ndim)]
    for _ in range(m):
        pa.append(mul(pa[-1], a))
        pb.append(mul(pb[-1], b))
    out = const(a.ndim, 0.0)
    for i, c in enumerate(coeffs):
        if c != 0.0:
            out = add(out, c * mul(pa[i], pb[m - i]))
    return out


def trim(a: np.ndarray) -> np.ndarray:
    """Drop trailing all-zero hyperplanes."""
    shape = list(a.shape)
    for axis in range(a.ndim):
        while shape[axis] > 1:
            sel = [slice(None)] * a.ndim
            sel[axis] = shape[axis] - 1
            if np.any(a[tuple(sel)]):
                break
            shape[axis] -= 1
        a = a[tuple(slice(0, s) for s in shape)]
    return a


def to_blocks(a: np.ndarray, basis: GradedBasis) -> dict[int, np.ndarray]:
    """Split into graded coefficient rows keyed by total degree."""
    out: dict[int, np.ndarray] = {}
    for key in map(tuple, np.argwhere(a).tolist()):
        n = sum(key)
        if n not in out:
            out[n] = np.zeros(basis.size(n))
        out[n][basis.position(key)] = a[key]
    return out
