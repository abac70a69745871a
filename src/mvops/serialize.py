"""JSON envelopes for polynomial systems, recurrence blocks and relations.

Matrices travel as plain-text payloads (rows/cols header plus rows of
shortest round-trip decimals) inside a JSON wrapper carrying the shape
metadata, so files are diffable and bit-exact across writers and readers.

The CLI reads every file through a checked read, which refuses what
`validate_blocks` refuses and checks structure before numbers: the kind,
d >= 1, the number of blocks per degree and direction and every block's
`rows cols` header come first, the payloads after, block by block.  Its
error names the first bad block, and a misshapen block costs no payload
conversion.  The public readers need the same layout, with matrix text
in every block the layout uses, but keep whatever shapes and values the
blocks hold.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .construct import PolySystem
from .indexing import rank_count
from .linrel import LinearRelation
from .matrixkit import format_matrix, matrix_shape, parse_matrix
from .ttr import ThreeTermData

_NOUNS = {"polynomial_system": "polynomial system", "three_term": "three-term recurrence",
          "linear_relation": "linear relation"}


def _slots(kind: str, d: int, part):
    """(label, container, index, row degree, column degree) of every block a
    document or object of `kind` uses; `part(name)` returns its list `name`.

    Index 0 of a recurrence's C and of a relation's M is unused and not visited.
    """
    if kind == "polynomial_system":
        for n, row in enumerate(part("blocks")):
            if len(row) != n + 1:
                raise ValueError(f"degree {n} has {len(row)} blocks, expected {n + 1}")
            for k in range(n + 1):
                yield f"block ({n}, {k})", row, k, n, k
    elif kind == "three_term":
        for name, first, step in (("A", 0, 1), ("B", 0, 0), ("C", 1, -1)):
            for n, row in enumerate(part(name)[first:], start=first):
                if row is None or len(row) != d:
                    raise ValueError(f"{name}[{n}] must hold {d} blocks")
                for i in range(d):
                    yield f"{name}[{n}][{i + 1}]", row, i, n, n + step
    else:
        M = part("M")
        for n in range(1, len(M)):
            yield f"M[{n}]", M, n, n, n - 1


def _check_shape(where: str, shape, d: int, n: int, k: int) -> None:
    want = (rank_count(d, n), rank_count(d, k))
    if shape != want:
        raise ValueError(f"{where} has shape {shape}, expected {want}")


def _check_finite(where: str, m: np.ndarray) -> None:
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{where} has a non-finite entry")


def _check_scalars(d: int, tail: float | None) -> None:
    if d < 1:
        raise ValueError(f"dimension d must be >= 1, got {d}")
    if tail is not None and not math.isfinite(tail):
        raise ValueError(f"tail must be finite, got {tail}")


def validate_blocks(obj: PolySystem | ThreeTermData | LinearRelation) -> None:
    """Raise ValueError unless d >= 1 and every block the system, recurrence
    or relation uses is finite and shaped as its two degrees require."""
    kind = ("polynomial_system" if isinstance(obj, PolySystem)
            else "three_term" if isinstance(obj, ThreeTermData) else "linear_relation")
    _check_scalars(obj.d, obj.tail if kind == "linear_relation" else None)
    for where, row, i, n, k in _slots(kind, obj.d, lambda name: getattr(obj, name)):
        m = row[i]
        _check_shape(where, None if m is None else m.shape, obj.d, n, k)
        _check_finite(where, m)


def _read(text: str, kind: str, checked: bool):
    """Decode an envelope of `kind` into the system, recurrence or relation
    it holds.

    Every block the layout uses must be matrix text; the unused index 0 of C
    or M comes back as None.  A `checked` read refuses what `validate_blocks`
    refuses, structure before numbers: d, the tail and every block's header
    first, then the payloads block by block, each checked as it is decoded.
    """
    payload = json.loads(text)
    if not isinstance(payload, dict) or payload.get("kind") != kind:
        raise ValueError(f"not a {_NOUNS[kind]} document")
    d = int(payload["d"])
    tail = float(payload.get("tail", 0.0)) if kind == "linear_relation" else None
    if checked:
        _check_scalars(d, tail)
    slots = list(_slots(kind, d, payload.__getitem__))
    if checked:
        for where, row, i, n, k in slots:
            _check_shape(where, None if row[i] is None else matrix_shape(row[i]), d, n, k)
    for where, row, i, _, _ in slots:
        row[i] = parse_matrix(row[i])
        if checked:
            _check_finite(where, row[i])
    if kind == "polynomial_system":
        return PolySystem(d, payload["blocks"], bool(payload["monic"]), payload.get("label", ""))
    if kind == "three_term":
        return ThreeTermData(d, payload["A"], payload["B"], [None, *payload["C"][1:]])
    return LinearRelation(d, [None, *payload["M"][1:]], tail=tail,
                          label=payload.get("label", ""))


def system_to_json(P: PolySystem) -> str:
    payload = {
        "kind": "polynomial_system",
        "d": P.d,
        "N": P.N,
        "monic": bool(P.monic),
        "label": P.label,
        "blocks": [
            [format_matrix(P.block(n, k)) for k in range(n + 1)]
            for n in range(P.N + 1)
        ],
    }
    return json.dumps(payload, indent=2)


def system_from_json(text: str) -> PolySystem:
    return _read(text, "polynomial_system", checked=False)


def ttr_to_json(T: ThreeTermData) -> str:
    payload = {
        "kind": "three_term",
        "d": T.d,
        "A": [[format_matrix(m) for m in row] for row in T.A],
        "B": [[format_matrix(m) for m in row] for row in T.B],
        "C": [None if row is None else [format_matrix(m) for m in row]
              for row in T.C],
    }
    return json.dumps(payload, indent=2)


def ttr_from_json(text: str) -> ThreeTermData:
    return _read(text, "three_term", checked=False)


def relation_to_json(rel: LinearRelation) -> str:
    payload = {
        "kind": "linear_relation",
        "d": rel.d,
        "label": rel.label,
        "tail": rel.tail,
        "M": [None if m is None else format_matrix(m) for m in rel.M],
    }
    return json.dumps(payload, indent=2)


def relation_from_json(text: str) -> LinearRelation:
    return _read(text, "linear_relation", checked=False)
