"""Dense d-variate polynomial arrays.

A polynomial is an ndarray whose entry [i1, ..., id] is the coefficient of
x1^i1 ... xd^id.  A product is one outer product of the two coefficient
arrays, summed into place by one bincount through an index table cached
per pair of shapes; every output entry sums the same products in the same
order as shifted accumulation over the first factor's entries would.  A
stack of polynomials has one more, leading axis, and mul(stack, f[None])
multiplies each of them by f in that order: the leading axis is one more
variable, of which f has degree 0.
This is the one polynomial arithmetic of the explicit product-form bases
(Koornwinder and simplex systems; tensor systems are assembled by
`construct.tensor_system` without it);
`construct.system_from_rows` writes their rows into the graded coefficient
blocks the rest of the package works with, through
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


@lru_cache(maxsize=1024)
def _product_index(sa: tuple, sb: tuple) -> np.ndarray:
    """Flat position in the product array of entry [p, q]: the product of
    entry p of an array of shape sa and entry q of one of shape sb, both
    raveled; read-only.  The explicit bases of the catalog use a few
    hundred shape pairs."""
    shape = tuple(x + y - 1 for x, y in zip(sa, sb))
    strides = np.array([prod(shape[i + 1:]) for i in range(len(shape))], dtype=np.intp)
    flat_a = np.indices(sa, dtype=np.intp).reshape(len(sa), -1).T @ strides
    flat_b = np.indices(sb, dtype=np.intp).reshape(len(sb), -1).T @ strides
    idx = np.add.outer(flat_a, flat_b)
    idx.flags.writeable = False
    return idx


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two coefficient arrays.

    Entry gamma is the sum of a[alpha] * b[gamma - alpha] over the nonzero
    entries alpha of a in row-major order, accumulated from 0.0 by
    bincount, as shifted accumulation over those entries sums it; a zero
    entry of a, such as the padding of a stack, costs nothing.
    """
    shape = tuple(x + y - 1 for x, y in zip(a.shape, b.shape))
    nz = np.flatnonzero(a)
    terms = np.multiply.outer(a.take(nz), b).ravel()
    index = _product_index(a.shape, b.shape)[nz].ravel()
    return np.bincount(index, weights=terms, minlength=prod(shape)).reshape(shape)


def form_table(a: np.ndarray, b: np.ndarray):
    """Evaluator of sum c_i a^i b^(m-i) for coefficient lists c_0..c_m.

    The forms a^i b^k are built together through the highest degree asked
    so far, when a longer list first asks for them: the powers of a and of
    b come from one sequential `mul` chain each, and one `mul` of a^i with
    the stack of b^0, ..., b^(top-i), zero-padded to one shape, gives every
    form with that power of a; the forms sit in one zero-padded table, so
    all the coefficient lists an explicit basis evaluates against one pair
    (a, b) share their products.  A table asked for its highest degree
    first is built once.

    An evaluation takes a stack of lists of one length, shape (..., m + 1),
    and returns the polynomials of the stack, shape (..., *shape): one
    broadcast product of the coefficients nonzero in some list with their
    forms, summed over the forms in order from 0.0 and cut to the largest
    of those forms' shapes.  For one list this is bit for bit the chain of
    zero-padded additions of its nonzero terms, from 0.0, and each
    polynomial of a stack is that of its list alone, zero-padded: a zero
    coefficient or a zero entry of the padding adds +-0.0 to a running sum
    that is never -0.0.
    """
    d = a.ndim
    powers = ([const(d)], [const(d)])
    table = shapes = None   # table[i, k] holds a^i b^k, of shape shapes[i, k]

    def build(top: int) -> None:
        nonlocal table, shapes
        for chain, base in zip(powers, (a, b)):
            while len(chain) <= top:
                chain.append(mul(chain[-1], base))
        sa, sb = (np.array([p.shape for p in chain[:top + 1]], dtype=np.intp)
                  for chain in powers)
        shapes = sa[:, None] + sb[None, :] - 1
        table = np.zeros((top + 1, top + 1, *shapes.max(axis=(0, 1))))
        bs = np.zeros((top + 1, *sb[top]))
        for k, p in enumerate(powers[1][:top + 1]):
            bs[(k, *(slice(0, s) for s in p.shape))] = p
        for i, p in enumerate(powers[0][:top + 1]):
            forms = mul(p[None], bs[(slice(0, top - i + 1), *(slice(0, s) for s in sb[top - i]))])
            table[(i, *(slice(0, s) for s in forms.shape))] = forms

    def evaluate(coeffs) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=float)
        m = coeffs.shape[-1] - 1
        if table is None or m >= len(table):
            build(m)
        lists = coeffs.reshape(-1, m + 1)
        nz = np.flatnonzero(lists.any(axis=0))
        if not nz.size:
            return np.zeros((*coeffs.shape[:-1], *(1,) * d))
        shape = tuple(shapes[nz, m - nz].max(axis=0))
        forms = table[(nz, m - nz, *(slice(0, s) for s in shape))].reshape(nz.size, 1, -1)
        terms = lists.T[nz, :, None] * forms
        if terms[0].size > 1:
            out = np.add.reduce(terms, axis=0, initial=0.0)
        else:   # numpy would sum a lone column pairwise, not in order
            out = np.add.accumulate(terms[:, 0, 0])[-1:] + 0.0
        return out.reshape(*coeffs.shape[:-1], *shape)

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
