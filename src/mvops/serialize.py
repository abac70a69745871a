"""JSON envelopes for polynomial systems, recurrence blocks and relations.

Matrices travel as plain-text payloads (rows/cols header plus rows of
shortest round-trip decimals) inside a JSON wrapper carrying the shape
metadata, so files are diffable and bit-exact across writers and readers.
The readers return what a document says; `validate_blocks` then refuses
one whose blocks are not finite or not shaped as its dimension requires.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .construct import PolySystem
from .indexing import rank_count
from .linrel import LinearRelation
from .matrixkit import format_matrix, parse_matrix
from .ttr import ThreeTermData


def _blocks(obj):
    """(label, matrix, row degree, column degree) of every block obj uses."""
    if isinstance(obj, PolySystem):
        for n, row in enumerate(obj.blocks):
            if len(row) != n + 1:
                raise ValueError(f"degree {n} has {len(row)} blocks, expected {n + 1}")
            for k, m in enumerate(row):
                yield f"block ({n}, {k})", m, n, k
    elif isinstance(obj, ThreeTermData):
        for name, rows, first, step in (("A", obj.A, 0, 1), ("B", obj.B, 0, 0),
                                        ("C", obj.C[1:], 1, -1)):
            for n, row in enumerate(rows, start=first):
                if row is None or len(row) != obj.d:
                    raise ValueError(f"{name}[{n}] must hold {obj.d} blocks")
                for i, m in enumerate(row, start=1):
                    yield f"{name}[{n}][{i}]", m, n, n + step
    else:
        for n in obj.available():
            yield f"M[{n}]", obj.M[n], n, n - 1


def validate_blocks(obj: PolySystem | ThreeTermData | LinearRelation) -> None:
    """Raise ValueError unless d >= 1 and every block the system, recurrence
    or relation uses is finite and shaped as its two degrees require."""
    if obj.d < 1:
        raise ValueError(f"dimension d must be >= 1, got {obj.d}")
    if isinstance(obj, LinearRelation) and not math.isfinite(obj.tail):
        raise ValueError(f"tail must be finite, got {obj.tail}")
    for where, m, n, k in _blocks(obj):
        want = (rank_count(obj.d, n), rank_count(obj.d, k))
        shape = None if m is None else m.shape
        if shape != want:
            raise ValueError(f"{where} has shape {shape}, expected {want}")
        if not np.all(np.isfinite(m)):
            raise ValueError(f"{where} has a non-finite entry")


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
    payload = json.loads(text)
    if payload.get("kind") != "polynomial_system":
        raise ValueError("not a polynomial system document")
    blocks = [[parse_matrix(t) for t in row] for row in payload["blocks"]]
    return PolySystem(int(payload["d"]), blocks, bool(payload["monic"]),
                      payload.get("label", ""))


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
    payload = json.loads(text)
    if payload.get("kind") != "three_term":
        raise ValueError("not a three-term recurrence document")
    return ThreeTermData(
        int(payload["d"]),
        [[parse_matrix(t) for t in row] for row in payload["A"]],
        [[parse_matrix(t) for t in row] for row in payload["B"]],
        [None if row is None else [parse_matrix(t) for t in row]
         for row in payload["C"]],
    )


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
    payload = json.loads(text)
    if payload.get("kind") != "linear_relation":
        raise ValueError("not a linear relation document")
    M = [None if t is None else parse_matrix(t) for t in payload["M"]]
    return LinearRelation(int(payload["d"]), M, tail=float(payload.get("tail", 0.0)),
                          label=payload.get("label", ""))
