"""Dense d-variate polynomial arrays.

A polynomial is an ndarray whose entry [i1, ..., id] is the coefficient of
x1^i1 ... xd^id.  Shapes stay tiny at the degrees used here, so products
are computed by direct shifted accumulation.  This is the one polynomial
arithmetic of the explicit product-form bases (Koornwinder, simplex and
symmetrized Chebyshev systems; tensor systems are assembled by
`construct.tensor_system` without it); `construct.system_from_rows` splits
their rows into the graded coefficient blocks the rest of the package
works with.
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


def form_table(a: np.ndarray, b: np.ndarray):
    """Evaluator of sum c_i a^i b^(m-i) for coefficient lists c_0..c_m.

    Powers of a and of b are built lazily by one sequential `mul` chain
    each, and every form a^i b^(m-i) is multiplied once and kept by (m, i),
    so all the coefficient lists an explicit basis evaluates against one
    pair (a, b) share their products.
    """
    powers = ([const(a.ndim)], [const(b.ndim)])
    forms: dict[tuple[int, int], np.ndarray] = {}

    def form(m: int, i: int) -> np.ndarray:
        if (m, i) not in forms:
            for chain, base, k in zip(powers, (a, b), (i, m - i)):
                while len(chain) <= k:
                    chain.append(mul(chain[-1], base))
            forms[m, i] = mul(powers[0][i], powers[1][m - i])
        return forms[m, i]

    def evaluate(coeffs) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=float)
        m = len(coeffs) - 1
        out = const(a.ndim, 0.0)
        for i, c in enumerate(coeffs):
            if c != 0.0:
                out = add(out, c * form(m, i))
        return out

    return evaluate


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
