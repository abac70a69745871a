"""Dense d-variate polynomial arrays.

A polynomial is an ndarray whose entry [i1, ..., id] is the coefficient of
x1^i1 ... xd^id.  A product is one outer product of the two coefficient
arrays, summed into place by one bincount through an index table cached
per pair of shapes; every output entry sums the same products in the same
order as shifted accumulation over the first factor's entries would.
This is the one polynomial arithmetic of the explicit product-form bases
(Koornwinder and simplex systems; tensor systems are assembled by
`construct.tensor_system` without it);
`construct.system_from_rows` writes their rows into the graded
coefficient blocks the rest of the package works with, through
`GradedBasis.entry_positions`.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

import numpy as np


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


@lru_cache(maxsize=1024)
def _product_index(sa: tuple, sb: tuple) -> np.ndarray:
    """Flat position in the product array of entry (p, q) of the row-major
    outer product of arrays of shapes sa and sb, raveled; read-only.  The
    explicit bases of the catalog use a few hundred shape pairs."""
    shape = tuple(x + y - 1 for x, y in zip(sa, sb))
    strides = np.array([prod(shape[i + 1:]) for i in range(len(shape))], dtype=np.intp)
    flat_a = np.indices(sa, dtype=np.intp).reshape(len(sa), -1).T @ strides
    flat_b = np.indices(sb, dtype=np.intp).reshape(len(sb), -1).T @ strides
    idx = np.add.outer(flat_a, flat_b).ravel()
    idx.flags.writeable = False
    return idx


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two coefficient arrays.

    Entry gamma is the sum of a[alpha] * b[gamma - alpha] over alpha in
    row-major order, accumulated from 0.0 by bincount; the terms of zero
    entries of a are +-0.0 and change no sum.
    """
    shape = tuple(x + y - 1 for x, y in zip(a.shape, b.shape))
    terms = np.multiply.outer(a, b).ravel()
    out = np.bincount(_product_index(a.shape, b.shape), weights=terms, minlength=prod(shape))
    return out.reshape(shape)


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
        terms = [(c, form(m, i)) for i, c in enumerate(coeffs) if c != 0.0]
        out = np.zeros(tuple(np.max([(1,) * a.ndim] + [f.shape for _, f in terms], axis=0)))
        for c, f in terms:
            out[tuple(slice(0, s) for s in f.shape)] += c * f
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
