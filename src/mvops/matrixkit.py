"""Dense real matrix kernel: solves, least squares, numeric rank.

Thin wrappers around numpy's LAPACK bindings that add the shape and
singularity checks the rest of the package relies on, plus the plain-text
matrix format used by the command line tools: a 'rows cols' header and one
line per row of repr per entry.  The format has one definition, but blocks
of _VECTOR_MIN_ENTRIES entries or more of which at least half are zeros,
such as the structural zeros of tensor systems, are written and read per
byte and per nonzero: format_matrix takes repr only of the entries that
are not +0.0, and parse_matrix calls float() only on the tokens that are
not '0.0', each once per distinct bit pattern or token in the block.
Tensor systems repeat their values: in the cli-files benchmark's d=4
envelopes, the blocks taking this route hold 10,905 nonzeros in a
reference system (1,066 distinct per block), 3,100 in a recurrence (260)
and 315 in a relation (30).  Smaller or denser blocks are split and joined
per token, which costs less than the vectorized route's fixed numpy
overhead and its per-nonzero slicing.  Matrices with at most one nonzero
per line (shift blocks, diagonal and one-per-row recurrence blocks of
tensor systems) are recognised from their entries, with one comparison
pass (m != 0.0) and reductions of the boolean array that gives:
singular_values reads them with no SVD, and product multiplies by one
with a row gather.  product also takes a family of blocks, such as the d
blocks of one degree of a recurrence, and decides on the row gather once
for all of them.  max_abs reads a large array by one max and one min pass
rather than through a copy of its magnitudes.
"""

from __future__ import annotations

import math

import numpy as np

# package-wide defaults: relative singular-value threshold for rank
# decisions, and relative bound for residual checks
DEFAULT_RANK_TOL = 1e-9
DEFAULT_RES_TOL = 1e-8


class ShapeMismatchError(ValueError):
    """Operand shapes are incompatible."""


class SingularMatrixError(np.linalg.LinAlgError):
    """Matrix is numerically rank deficient where full rank is required."""


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-d array, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def numeric_rank(m, tol: float = DEFAULT_RANK_TOL, scale: float | None = None) -> int:
    """Count singular values above tol * scale.

    `scale` defaults to the largest singular value, giving the usual
    relative rank; passing an external scale makes near-zero blocks of a
    larger problem register as deficient instead of trivially full.
    """
    sv = singular_values(m)
    if scale is None:
        scale = sv[0] if sv.size else 0.0
    return rank_from_sv(sv, tol, scale)


def rank_from_sv(sv, tol: float, scale: float) -> int:
    """Number of the singular values `sv` above tol * scale; 0 when scale <= 0."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if scale <= 0.0:
        return 0
    return int(np.count_nonzero(sv > tol * scale))


def singular_values(m) -> np.ndarray:
    """Singular values of m, largest first, min(rows, cols) of them.

    When every column holds at most one nonzero, the rows have disjoint
    supports, so they are orthogonal and the singular values are the row
    norms; when every row does, they are the column norms.  Such matrices
    (shift and tensor recurrence blocks, their joints, diagonal blocks)
    take no SVD; when both hold, the values are the magnitudes of the
    nonzeros, exactly.  Any other matrix goes to LAPACK.
    """
    m = _as_matrix(m)
    nonzero = m != 0.0
    count = np.count_nonzero(nonzero)
    # with more nonzeros than rows and than columns, some row and some
    # column each hold two
    if count <= max(m.shape):
        # the nonzeros lie in `count` distinct columns, or rows
        distinct_cols = np.count_nonzero(nonzero.any(axis=0)) == count
        distinct_rows = np.count_nonzero(nonzero.any(axis=1)) == count
        if distinct_cols and distinct_rows:
            sv = np.zeros(min(m.shape))
            sv[:count] = np.sort(np.abs(m[nonzero]))[::-1]
            return sv
        if distinct_cols or distinct_rows:
            return np.sort(_line_norms(m, 1 if distinct_cols else 0))[::-1][:min(m.shape)]
    return np.linalg.svd(m, compute_uv=False)


def _line_norms(m: np.ndarray, axis: int) -> np.ndarray:
    """2-norms of the rows (axis 1) or columns (axis 0) of m, computed on m
    scaled by a power of two so that its largest entry lies in [1/2, 1),
    so that no square overflows."""
    top = max(float(np.max(m, initial=0.0)), -float(np.min(m, initial=0.0)))
    if top == 0.0:
        return np.zeros(m.shape[1 - axis])
    exp = math.frexp(top)[1]
    w = np.ldexp(m, -exp)
    return np.ldexp(np.sqrt(np.einsum("ij,ij->i" if axis == 1 else "ij,ij->j", w, w)), exp)


def product(s, x, split=()) -> np.ndarray:
    """s @ x + 0.0, with a dense product taken per column block of x.

    s is one matrix, or a list or tuple of blocks of one width, such as the
    d blocks of one degree of a recurrence; for blocks the result is the
    vertical stack of their products, and the route below is chosen once
    for all of them.

    When every row of s holds at most one nonzero (NaN counts as one) and
    x is finite, each row of the product is one row of x times that
    nonzero: a row gather with no sum, which is the dense product's value
    exactly, since its other terms are zeros.  Otherwise (some row holds
    two nonzeros, or x holds a non-finite entry, where 0 * inf makes the
    dense product NaN) each block of s multiplies each column block of x,
    split at the column positions `split` (np.split) and copied to a
    contiguous array, so that the result is bit for bit the products of
    those blocks held apart, side by side: BLAS may round a wide product
    otherwise than its pieces, and a strided block otherwise than a
    contiguous one.  Adding 0.0 turns a -0.0 into 0.0, the one difference
    the two routes could show.
    """
    blocks = [np.asarray(b, dtype=float) for b in (s if isinstance(s, (list, tuple)) else [s])]
    x = np.asarray(x, dtype=float)
    for b in blocks:
        if b.ndim != 2 or x.ndim != 2 or b.shape[1] != x.shape[0]:
            raise ShapeMismatchError(f"cannot multiply {b.shape} by {x.shape}")
    stack = blocks[0] if len(blocks) == 1 else np.vstack(blocks)
    if stack.shape[1]:
        nonzero = stack != 0.0
        # each row's first nonzero, or 0.0 for an empty row: s holds one
        # nonzero per row at most when these are all of its nonzeros
        cols = nonzero.argmax(axis=1)
        first = stack[np.arange(stack.shape[0]), cols]
        if np.count_nonzero(first) == np.count_nonzero(nonzero) and np.isfinite(x).all():
            out = x.take(cols, axis=0)
            out *= first[:, None]
            out += 0.0
            return out
    if len(split):
        parts = [np.ascontiguousarray(part) for part in np.split(x, split, axis=1)]
        prods = [np.hstack([b @ part for part in parts]) for b in blocks]
    else:
        prods = [b @ x for b in blocks]
    out = prods[0] if len(prods) == 1 else np.vstack(prods)
    out += 0.0
    return out


def solve(a, b) -> np.ndarray:
    """Solve a x = b for square a, full rank at DEFAULT_RANK_TOL."""
    a, b = _as_matrix(a), np.asarray(b, dtype=float)
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatchError(f"solve needs a square matrix, got {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise ShapeMismatchError(f"rhs rows {b.shape[0]} != matrix order {a.shape[0]}")
    if numeric_rank(a) < a.shape[0]:
        raise SingularMatrixError(f"matrix of order {a.shape[0]} is numerically singular")
    return np.linalg.solve(a, b)


def lstsq(a, b) -> np.ndarray:
    """Minimum-residual (and among those, minimum-norm) solution of a x = b."""
    a, b = _as_matrix(a), np.asarray(b, dtype=float)
    if b.shape[0] != a.shape[0]:
        raise ShapeMismatchError(f"rhs rows {b.shape[0]} != matrix rows {a.shape[0]}")
    x, _, _, _ = np.linalg.lstsq(a, b, rcond=None)
    return x


# from this many entries on, max_abs reads its largest magnitude as the
# larger of max(m) and -min(m), two passes with no copy; below it, forming
# np.abs(m) costs less than the second reduction's fixed overhead.  Per call
# on a 2-core Xeon host (AVX-512, 4 MB L2): 2.9 vs 4.8 us at 100 entries,
# 7.6 vs 7.4 us at 16384, 108 vs 44 us at 158400 (np.abs route first).
# catalog makes some 81 calls per operation, all below the cut-off: with
# max/-min at every size its op_p50_ref_s was 2.8% higher, in 9 of 10
# paired 20 s runs.
_REDUCE_MIN_ENTRIES = 16384


def max_abs(m) -> float:
    """Largest magnitude of the entries (NaN if one is NaN, 0.0 if there
    are none): float(np.abs(m).max()) bit for bit, read without a copy of
    the magnitudes from _REDUCE_MIN_ENTRIES entries on."""
    m = np.asarray(m, dtype=float)
    if m.size < _REDUCE_MIN_ENTRIES:
        return float(np.abs(m).max()) if m.size else 0.0
    return abs(max(float(m.max()), -float(m.min())))


def worst(values) -> float:
    """Largest of the values, NaN if any of them is NaN, 0.0 if there are none.

    Python's `max(0.0, nan)` is 0.0, so a running `max` would let a NaN
    residual pass its check; this reducer lets it fail.
    """
    arr = np.fromiter(values, dtype=float)
    return float(np.max(arr)) if arr.size else 0.0


def same_bits(a, b) -> bool:
    """True when a and b have one dtype, one shape and the same bytes.

    Exact equality that also tells -0.0 from 0.0, so a block that passes it
    against a structural matrix can stand for that matrix bit for bit.
    """
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# blocks of at least this many entries, at least half of them zeros, are
# read and written per byte and per nonzero; the others take the per-token
# route, which costs less than the vectorized route's fixed numpy cost of
# some 40 us per block (on the tensor Jacobi envelope blocks the routes
# read equally fast at 400 to 500 entries, and write equally fast at 100
# to 150) and than its slicing per nonzero, which makes it some 15% slower
# on blocks with no zeros.  On read the zero share is told by the bytes per
# entry: a '0.0 ' takes 4 bytes and a nonzero about 20, so a block half of
# zeros takes about 12 bytes per entry.
_VECTOR_MIN_ENTRIES = 500
_VECTOR_MAX_BYTES_PER_ENTRY = 12


def format_matrix(m) -> str:
    """Serialize as 'rows cols' header plus one whitespace row per matrix row.

    Entries use Python's shortest round-trip float representation, so
    parse_matrix(format_matrix(m)) reproduces m bit for bit.  A block of
    _VECTOR_MIN_ENTRIES entries or more, at most half of them nonzero, takes
    repr only of the entries that are not +0.0 and splices them into runs
    of '0.0 ': the same text.
    """
    m = _as_matrix(m)
    head = f"{m.shape[0]} {m.shape[1]}"
    if m.size < _VECTOR_MIN_ENTRIES or 2 * np.count_nonzero(m) > m.size:
        return "\n".join([head, *(" ".join(map(repr, row)) for row in m.tolist())])
    return head + "\n" + _format_spliced(m)


def _format_spliced(m: np.ndarray) -> str:
    """The rows of m as format_matrix writes them, with repr taken only of
    the entries that are not +0.0 (signbit tells -0.0, which is written
    '-0.0', from 0.0), once per distinct bit pattern: the int64 view keeps
    0.0 and -0.0, and NaN payloads, apart."""
    rows, cols = m.shape
    # all-zero text: entry k's '0.0' at 4k, its separator at 4k + 3
    zeros = "\n".join([" ".join(["0.0"] * cols)] * rows)
    flat = m.ravel()
    where = np.flatnonzero((flat != 0.0) | np.signbit(flat))
    bits, inverse = np.unique(flat[where].view(np.int64), return_inverse=True)
    texts = np.array([repr(x) for x in bits.view(np.float64).tolist()], dtype=object)
    cut = 4 * where
    parts = [""] * (2 * where.size + 1)
    parts[0::2] = [zeros[a:b] for a, b in zip([0, *(cut + 3).tolist()], [*cut.tolist(), len(zeros)])]
    parts[1::2] = texts[inverse].tolist()
    return "".join(parts)


def matrix_shape(text: str) -> tuple[int, int]:
    """The (rows, cols) header of matrix text, read without its payload."""
    if not isinstance(text, str):
        raise ValueError(f"expected matrix text, got {type(text).__name__}")
    text = text.lstrip()
    end = text.find("\n")
    head = text[:end if end >= 0 else len(text)].splitlines()
    if not head:
        raise ValueError("empty matrix text")
    header = head[0].split()
    if len(header) != 2:
        raise ValueError(f"bad header {head[0]!r}, expected 'rows cols'")
    rows, cols = int(header[0]), int(header[1])
    if rows < 0 or cols < 0:
        raise ValueError(f"bad header {head[0]!r}, expected counts >= 0")
    return rows, cols


def parse_matrix(text: str) -> np.ndarray:
    """Inverse of format_matrix: check the row and column counts against the
    header, then convert every entry in one pass.  An entry is accepted
    exactly when float() accepts it.  Blank lines carry no row, so the r
    rows of an r x 0 matrix are not counted, but must hold no entry.

    A header of _VECTOR_MIN_ENTRIES entries or more over ASCII text of at
    most _VECTOR_MAX_BYTES_PER_ENTRY bytes per entry (mostly '0.0' tokens)
    whose only whitespace is ' ' and '\\n', as format_matrix writes it, is
    read from its bytes: a token that is exactly '0.0' becomes +0.0 with no
    conversion, and float() is called once per distinct other token, in the
    order of their first use, so a bad token raises as the split route
    raises on it.  Any other text is split.
    """
    rows, cols = matrix_shape(text)
    entries = rows * cols
    if (entries >= _VECTOR_MIN_ENTRIES and len(text) <= _VECTOR_MAX_BYTES_PER_ENTRY * entries
            and text.isascii()):
        out = _parse_bytes(text, rows, cols)
        if out is not None:
            return out
    data = [ln.split() for ln in text.strip().splitlines()[1:]]
    data = [row for row in data if row]
    _check_counts(rows, cols, [len(row) for row in data])
    return np.array(data, dtype=float).reshape(rows, cols)


def _check_counts(rows: int, cols: int, counts) -> None:
    """Refuse the tokens per line of the payload (blank lines dropped) when
    they do not make a rows x cols matrix."""
    if cols and len(counts) != rows:
        raise ValueError(f"expected {rows} rows, found {len(counts)}")
    for count in counts:
        if count != cols:
            raise ValueError(f"expected {cols} columns, found {count}")


def _parse_bytes(text: str, rows: int, cols: int) -> np.ndarray | None:
    """parse_matrix of ASCII text, read from its bytes; None when the text
    holds a control byte other than '\\n', which str.split may take for
    whitespace."""
    n = len(text)
    # one '\n' before the text and three after: every line lies between
    # two newlines, and the four bytes from any token's first lie in buf
    buf = np.frombuffer(f"\n{text}\n\n\n".encode("ascii"), dtype=np.uint8)
    newlines = np.flatnonzero(buf == 10)
    if np.count_nonzero(buf < 32) != newlines.size:
        return None
    space = buf <= 32
    # start[i]: a token starts at text[i] (buf is one byte ahead)
    start = space[:-1] > space[1:]
    first = np.flatnonzero(start)
    ends = np.searchsorted(first, newlines)
    counts = ends[1:] - ends[:-1]
    counts = counts[counts > 0][1:]                 # the header's line dropped
    if counts.size != rows or np.any(counts != cols):
        _check_counts(rows, cols, counts.tolist())
    # zero[i]: the token at text[i] is '0.0', followed by a space or newline
    zero = start[:n] & (buf[1:n + 1] == ord("0"))
    zero &= buf[2:n + 2] == ord(".")
    zero &= buf[3:n + 3] == ord("0")
    zero &= space[4:n + 4]
    out = np.zeros(rows * cols)
    nonzero = np.flatnonzero(~zero[first[2:]])
    if nonzero.size:
        # the text without its '0.0' tokens and the byte after each holds
        # the header and the other tokens; tensor blocks repeat their
        # values, so each distinct token is converted once
        drop = zero.copy()
        for k in (1, 2, 3):
            drop[k:] |= zero[:-k]
        tokens = buf[1:n + 1][~drop].tobytes().decode("ascii").split()[2:]
        table = dict.fromkeys(tokens)
        for token in table:
            table[token] = float(token)
        out[nonzero] = np.fromiter(map(table.__getitem__, tokens), dtype=float, count=len(tokens))
    return out.reshape(rows, cols)
