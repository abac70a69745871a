"""Dense real matrix kernel: solves, least squares, numeric rank.

Thin wrappers around numpy's LAPACK bindings that add the shape and
singularity checks the rest of the package relies on, plus the plain-text
matrix format used by the command line tools.
"""

from __future__ import annotations

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
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def numeric_rank(m, tol: float = DEFAULT_RANK_TOL, scale: float | None = None) -> int:
    """Count singular values above tol * scale.

    `scale` defaults to the largest singular value, giving the usual
    relative rank; passing an external scale makes near-zero blocks of a
    larger problem register as deficient instead of trivially full.
    """
    sv = np.linalg.svd(_as_matrix(m), compute_uv=False)
    if scale is None:
        scale = sv[0] if sv.size else 0.0
    return rank_from_sv(sv, tol, scale)


def rank_from_sv(sv, tol: float, scale: float) -> int:
    """Number of the singular values `sv` above tol * scale; 0 when scale <= 0."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if scale <= 0.0:
        return 0
    return int(np.sum(sv > tol * scale))


def singular_values(m) -> np.ndarray:
    return np.linalg.svd(_as_matrix(m), compute_uv=False)


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


def max_abs(m) -> float:
    m = np.asarray(m, dtype=float)
    return float(np.max(np.abs(m))) if m.size else 0.0


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


def format_matrix(m) -> str:
    """Serialize as 'rows cols' header plus one whitespace row per matrix row.

    Entries use Python's shortest round-trip float representation, so
    parse_matrix(format_matrix(m)) reproduces m bit for bit.
    """
    m = _as_matrix(m)
    lines = [f"{m.shape[0]} {m.shape[1]}"]
    lines.extend(" ".join(map(repr, row)) for row in m.tolist())
    return "\n".join(lines)


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
    return int(header[0]), int(header[1])


def parse_matrix(text: str) -> np.ndarray:
    """Inverse of format_matrix: check the row and column counts against the
    header, then convert every entry in one pass.  An entry is accepted
    exactly when float() accepts it.  Blank lines carry no row, so the r
    rows of an r x 0 matrix are not counted, but must hold no entry."""
    rows, cols = matrix_shape(text)
    data = [ln.split() for ln in text.strip().splitlines()[1:]]
    data = [row for row in data if row]
    if cols and len(data) != rows:
        raise ValueError(f"expected {rows} rows, found {len(data)}")
    for row in data:
        if len(row) != cols:
            raise ValueError(f"expected {cols} columns, found {len(row)}")
    return np.array(data, dtype=float).reshape(rows, cols)
