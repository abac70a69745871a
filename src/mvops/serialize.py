"""JSON envelopes for polynomial systems, recurrence blocks and relations.

Matrices travel as plain-text payloads (rows/cols header plus rows of
shortest round-trip decimals) inside a JSON wrapper carrying the shape
metadata, so files are diffable and bit-exact across writers and readers.

A block that is structural by construction travels as a one-word marker
instead of matrix text: `"shift"` in a recurrence's `A[n][i]` slot stands
for `basis_for(d).shift_matrix(n, i)`, and `"identity"` in a system's
diagonal slot `(n, n)` for `np.eye(r_n)`.  The writers emit a marker only
when the block equals that matrix bit for bit (`matrixkit.same_bits`, the
one definition of an exact structural block), so reading back what was
written gives the same bytes.  Readers accept both forms in those slots,
and a marker anywhere else, or a word no marker has, is refused with the
block's name.  One table, `_STRUCTURAL`, and one block layout, `_slots`,
serve the writers and the readers.

The CLI reads every file through a checked read, the one definition of a
valid envelope: d >= 1, a finite tail, and every block the layout uses
finite and shaped as its two degrees require.  It checks structure before
numbers: the kind, d, the tail, the number of blocks per degree and
direction, the place of every marker and every other block's `rows cols`
header come first, the payloads after, block by block.  Its error names
the first bad block (a field that is missing, or a block list that is not
a JSON list, with its file), and a misshapen block costs no payload
conversion.  The public readers need a JSON integer d, a JSON number as a
relation's tail and the same layout, with a marker or matrix text in every
block the layout uses, and keep the values of every block and the shapes
of recurrence and relation blocks; a system's blocks are laid side by side
(PolySystem), so they must fit their degree.  A system's `monic` field is
written but not read: PolySystem derives it from the blocks.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .construct import PolySystem
from .indexing import basis_for, rank_count
from .linrel import LinearRelation
from .matrixkit import format_matrix, matrix_shape, parse_matrix, same_bits
from .ttr import ThreeTermData

_NOUNS = {"polynomial_system": "polynomial system", "three_term": "three-term recurrence",
          "linear_relation": "linear relation"}

# marker -> the block it stands for in a slot of dimension d, row degree n
# and index i in its row (direction i + 1 of A, column degree i of a system)
_STRUCTURAL = {
    "shift": lambda d, n, i: basis_for(d).shift_matrix(n, i + 1),
    "identity": lambda d, n, i: np.eye(rank_count(d, n)),
}


def _slots(kind: str, d: int, part, source: str = ""):
    """(label, container, index, row degree, column degree, marker) of every
    block a document of `kind` uses, read or being written; `part(name)`
    returns its list `name`, and `marker` is the key of `_STRUCTURAL` the
    slot may hold, or None.

    A list or a degree's row that is not a list raises ValueError naming
    it, and `source`, the file, when given.  Index 0 of a recurrence's C
    and of a relation's M is unused and not visited; C needs an entry for
    every degree n >= 1 that B has.
    """
    where = f" in {source}" if source else ""

    def listed(name: str, value):
        if not isinstance(value, list):
            got = "null" if value is None else type(value).__name__
            raise ValueError(f"field {name}{where} must be a list, got {got}")
        return value

    if kind == "polynomial_system":
        for n, row in enumerate(listed("blocks", part("blocks"))):
            if len(listed(f"blocks[{n}]", row)) != n + 1:
                raise ValueError(f"degree {n} has {len(row)} blocks, expected {n + 1}")
            for k in range(n + 1):
                yield f"block ({n}, {k})", row, k, n, k, "identity" if k == n else None
    elif kind == "three_term":
        B = listed("B", part("B"))
        for name, first, step in (("A", 0, 1), ("B", 0, 0), ("C", 1, -1)):
            marker = "shift" if name == "A" else None
            rows = listed(name, part(name))
            if name == "C" and len(B) > max(len(rows), 1):
                raise ValueError(f"C must hold one entry per degree 1..{len(B) - 1} "
                                 f"of B, got {max(len(rows) - 1, 0)}")
            for n, row in enumerate(rows[first:], start=first):
                if not isinstance(row, list) or len(row) != d:
                    raise ValueError(f"{name}[{n}] must hold {d} blocks")
                for i in range(d):
                    yield f"{name}[{n}][{i + 1}]", row, i, n, n + step, marker
    else:
        M = listed("M", part("M"))
        for n in range(1, len(M)):
            yield f"M[{n}]", M, n, n, n - 1, None


def _holds_marker(where: str, block, marker: str | None) -> bool:
    """True when a slot holds its own marker; any other marker raises."""
    if isinstance(block, str) and block in _STRUCTURAL:
        if block != marker:
            raise ValueError(f"{where} cannot hold the marker {block!r}")
        return True
    return False


def _named(where: str, read, text):
    """read(text), with the block's label on a ValueError it raises."""
    try:
        return read(text)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _read(text: str, kind: str, checked: bool, source: str = ""):
    """Decode an envelope of `kind` into the system, recurrence or relation
    it holds; `source` names the file in the error for a field that is
    missing or not a list.

    Every block the layout uses must be its slot's marker or matrix text; a
    marker comes back as the block it stands for ("shift" as the basis's
    shared, read-only shift matrix), and the unused index 0 of C or M as
    None.  A `d` that is not a JSON integer, or a relation's tail that is
    not a JSON number, raises ValueError on every read.  A `checked` read
    checks structure before numbers (module docstring): d >= 1, a finite
    tail, every marker's place and every other block's shape first, then
    the payloads block by block, each finite as it is decoded.
    """
    payload = json.loads(text)
    if not isinstance(payload, dict) or payload.get("kind") != kind:
        raise ValueError(f"not a {_NOUNS[kind]} document")

    def field(name: str):
        if name not in payload:
            raise ValueError(f"field {name} missing" + (f" in {source}" if source else ""))
        return payload[name]

    d = field("d")
    if not isinstance(d, int) or isinstance(d, bool):
        raise ValueError(f"dimension d must be an integer, got {d!r}")
    tail = payload.get("tail", 0.0) if kind == "linear_relation" else 0.0
    if not isinstance(tail, (int, float)) or isinstance(tail, bool):
        raise ValueError(f"tail must be a number, got {tail!r}")
    try:
        tail = float(tail)
    except OverflowError:   # an integer past the floats, read as 1e400 is
        tail = math.inf if tail > 0 else -math.inf
    if checked:
        if d < 1:
            raise ValueError(f"dimension d must be >= 1, got {d}")
        if not math.isfinite(tail):
            raise ValueError(f"tail must be finite, got {tail}")
    slots = list(_slots(kind, d, field, source))
    marked = [_holds_marker(where, row[i], marker) for where, row, i, _, _, marker in slots]
    if checked:
        for (where, row, i, n, k, _), structural in zip(slots, marked):
            if not structural:
                shape = None if row[i] is None else _named(where, matrix_shape, row[i])
                want = (rank_count(d, n), rank_count(d, k))
                if shape != want:
                    raise ValueError(f"{where} has shape {shape}, expected {want}")
    for (where, row, i, n, _, marker), structural in zip(slots, marked):
        if structural:
            row[i] = _STRUCTURAL[marker](d, n, i)
            continue
        row[i] = _named(where, parse_matrix, row[i])
        if checked and not np.all(np.isfinite(row[i])):
            raise ValueError(f"{where} has a non-finite entry")
    if kind == "polynomial_system":
        return PolySystem(d, payload["blocks"], payload.get("label", ""))
    if kind == "three_term":
        return ThreeTermData(d, payload["A"], payload["B"], [None, *payload["C"][1:]])
    return LinearRelation(d, [None, *payload["M"][1:]], tail=tail,
                          label=payload.get("label", ""))


def _write(kind: str, d: int, fields: dict, parts: dict) -> str:
    """The envelope of `kind`: `fields`, then the block lists `parts`, whose
    rows the caller has copied.  Each block the layout uses becomes its
    slot's marker when it is that structural block bit for bit, and matrix
    text otherwise."""
    for _, row, i, n, _, marker in _slots(kind, d, parts.__getitem__):
        block = row[i]
        structural = marker is not None and same_bits(block, _STRUCTURAL[marker](d, n, i))
        row[i] = marker if structural else format_matrix(block)
    return json.dumps({"kind": kind, "d": d, **fields, **parts}, indent=2)


def _rows(rows, first: int = 0) -> list:
    """Copies of the rows of blocks, with the unused rows before `first` as None."""
    return [None if n < first or row is None else list(row) for n, row in enumerate(rows)]


def system_to_json(P: PolySystem) -> str:
    return _write("polynomial_system", P.d,
                  {"N": P.N, "monic": bool(P.monic), "label": P.label},
                  {"blocks": _rows(P.blocks)})


def system_from_json(text: str) -> PolySystem:
    return _read(text, "polynomial_system", checked=False)


def ttr_to_json(T: ThreeTermData) -> str:
    return _write("three_term", T.d, {},
                  {"A": _rows(T.A), "B": _rows(T.B), "C": _rows(T.C, first=1)})


def ttr_from_json(text: str) -> ThreeTermData:
    return _read(text, "three_term", checked=False)


def relation_to_json(rel: LinearRelation) -> str:
    return _write("linear_relation", rel.d, {"label": rel.label, "tail": rel.tail},
                  {"M": [None if n == 0 else m for n, m in enumerate(rel.M)]})


def relation_from_json(text: str) -> LinearRelation:
    return _read(text, "linear_relation", checked=False)
