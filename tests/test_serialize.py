import json

import numpy as np
import pytest

from mvops import linrel, moments, serialize
from mvops.construct import gram_schmidt_monic
from mvops.ttr import compute_ttr


@pytest.fixture(scope="module")
def disk_pieces():
    u = moments.disk_functional(0.5)
    P, H = gram_schmidt_monic(u, 4)
    T = compute_ttr(P, u, H)
    return P, T


def test_system_round_trip_bit_exact(disk_pieces):
    P, _ = disk_pieces
    text = serialize.system_to_json(P)
    back = serialize.system_from_json(text)
    assert back.d == P.d and back.N == P.N and back.monic == P.monic
    assert back.label == P.label
    for n in range(P.N + 1):
        for k in range(n + 1):
            assert np.array_equal(back.block(n, k), P.block(n, k))


def test_ttr_round_trip_bit_exact(disk_pieces):
    _, T = disk_pieces
    back = serialize.ttr_from_json(serialize.ttr_to_json(T))
    assert back.d == T.d
    assert back.C[0] is None
    for n in range(len(T.A)):
        for i in (1, 2):
            assert np.array_equal(back.a(n, i), T.a(n, i))
    for n in range(T.N + 1):
        for i in (1, 2):
            assert np.array_equal(back.b(n, i), T.b(n, i))
            if n >= 1:
                assert np.array_equal(back.c(n, i), T.c(n, i))


def test_relation_round_trip_bit_exact():
    _, rel = linrel.counterexample(5)
    back = serialize.relation_from_json(serialize.relation_to_json(rel))
    assert back.d == rel.d and back.M[0] is None
    for n in range(1, rel.N + 1):
        assert np.array_equal(back.m(n), rel.m(n))


def test_documents_are_json_with_kind_tags(disk_pieces):
    P, T = disk_pieces
    assert json.loads(serialize.system_to_json(P))["kind"] == "polynomial_system"
    assert json.loads(serialize.ttr_to_json(T))["kind"] == "three_term"


def test_wrong_kind_rejected(disk_pieces):
    P, T = disk_pieces
    with pytest.raises(ValueError):
        serialize.system_from_json(serialize.ttr_to_json(T))
    with pytest.raises(ValueError):
        serialize.ttr_from_json(serialize.system_to_json(P))
    with pytest.raises(ValueError):
        serialize.relation_from_json(serialize.system_to_json(P))


def test_validate_blocks_accepts_written_documents(disk_pieces):
    P, T = disk_pieces
    _, rel = linrel.counterexample(4)
    serialize.validate_blocks(serialize.system_from_json(serialize.system_to_json(P)))
    serialize.validate_blocks(serialize.ttr_from_json(serialize.ttr_to_json(T)))
    serialize.validate_blocks(serialize.relation_from_json(serialize.relation_to_json(rel)))


def test_validate_blocks_names_the_bad_block(disk_pieces):
    P, T = disk_pieces
    _, rel = linrel.counterexample(4)
    bad_shape = serialize.ttr_from_json(serialize.ttr_to_json(T))
    bad_shape.C[2][1] = np.zeros((3, 3))
    with pytest.raises(ValueError, match=r"C\[2\]\[2\] has shape \(3, 3\), expected \(3, 2\)"):
        serialize.validate_blocks(bad_shape)
    bad_value = serialize.relation_from_json(serialize.relation_to_json(rel))
    bad_value.M[3] = bad_value.M[3].copy()
    bad_value.M[3][0, 0] = np.inf
    with pytest.raises(ValueError, match=r"M\[3\] has a non-finite entry"):
        serialize.validate_blocks(bad_value)
    short_row = serialize.system_from_json(serialize.system_to_json(P))
    short_row.blocks[2].pop()
    with pytest.raises(ValueError, match="degree 2 has 2 blocks"):
        serialize.validate_blocks(short_row)
    no_dim = serialize.system_from_json(serialize.system_to_json(P))
    no_dim.d = 0
    with pytest.raises(ValueError, match="d must be >= 1"):
        serialize.validate_blocks(no_dim)


READERS = {"system": serialize.system_from_json, "ttr": serialize.ttr_from_json,
           "relation": serialize.relation_from_json}
KINDS = {"system": "polynomial_system", "ttr": "three_term", "relation": "linear_relation"}


def _checked(kind: str, text: str):
    """The checked read the CLI makes of every file."""
    return serialize._read(text, KINDS[kind], checked=True)


@pytest.fixture(scope="module")
def texts(disk_pieces):
    P, T = disk_pieces
    _, rel = linrel.counterexample(4)
    return {"system": serialize.system_to_json(P), "ttr": serialize.ttr_to_json(T),
            "relation": serialize.relation_to_json(rel)}


def _arrays(obj) -> list:
    rows = {"system": obj.blocks} if hasattr(obj, "blocks") else (
        {"A": obj.A, "B": obj.B, "C": obj.C[1:]} if hasattr(obj, "A") else {"M": obj.M[1:]})
    return [m for part in rows.values() for row in part
            for m in (row if isinstance(row, list) else [row])]


@pytest.mark.parametrize("kind", sorted(READERS))
def test_validating_read_returns_the_same_arrays(texts, kind):
    plain = READERS[kind](texts[kind])
    checked = _checked(kind, texts[kind])
    pairs = list(zip(_arrays(plain), _arrays(checked), strict=True))
    assert pairs and all(a.tobytes() == b.tobytes() and a.shape == b.shape for a, b in pairs)


def _with_block(text: str, name: str, n: int, i, block: str) -> str:
    payload = json.loads(text)
    (payload[name] if i is None else payload[name][n])[n if i is None else i] = block
    return json.dumps(payload)


def _count_parses(monkeypatch) -> list:
    calls = []
    real = serialize.parse_matrix
    monkeypatch.setattr(serialize, "parse_matrix", lambda t: calls.append(t) or real(t))
    return calls


def test_validating_read_checks_every_header_before_any_number(texts, monkeypatch):
    # a garbled payload early, a misshapen header late: the header is named,
    # and no payload is converted
    text = _with_block(texts["ttr"], "A", 0, 0, "1 2\nabc 0.0")
    text = _with_block(text, "C", 3, 1, "3 3\n0 0 0\n0 0 0\n0 0 0")
    calls = _count_parses(monkeypatch)
    with pytest.raises(ValueError, match=r"C\[3\]\[2\] has shape \(3, 3\), expected \(4, 3\)"):
        _checked("ttr", text)
    assert calls == []
    with pytest.raises(ValueError, match=r"M\[2\] has shape None, expected \(3, 2\)"):
        _checked("relation", _with_block(texts["relation"], "M", 2, None, None))


def test_validating_read_stops_at_the_first_non_finite_block(texts, monkeypatch):
    text = _with_block(texts["ttr"], "B", 1, 1, "2 2\n0.0 inf\n0.0 0.0")
    text = _with_block(text, "C", 2, 0, "3 2\nabc 0\n0 0\n0 0")
    calls = _count_parses(monkeypatch)
    with pytest.raises(ValueError, match=r"B\[1\]\[2\] has a non-finite entry"):
        _checked("ttr", text)
    # A[0..3] and B[0] with both directions, then B[1][1] and the bad B[1][2]
    assert len(calls) == 2 * 4 + 2 + 2
    # a public read gives the document's values back as they are
    T = serialize.ttr_from_json(_with_block(texts["ttr"], "B", 1, 1, "2 2\n0 inf\n0 0"))
    assert np.isinf(T.b(1, 2)[0, 1])


def test_validating_read_refuses_what_validate_blocks_refuses(texts):
    cases = [
        ("system", lambda p: p.update(d=0), "d must be >= 1"),
        ("relation", lambda p: p.update(tail=float("nan")), "tail must be finite"),
        ("system", lambda p: p["blocks"][2].pop(), "degree 2 has 2 blocks, expected 3"),
        ("ttr", lambda p: p["B"][1].pop(), r"B\[1\] must hold 2 blocks"),
        ("relation", lambda p: p.update(kind="three_term"), "not a linear relation"),
    ]
    for kind, edit, message in cases:
        payload = json.loads(texts[kind])
        edit(payload)
        with pytest.raises(ValueError, match=message):
            _checked(kind, json.dumps(payload))
    with pytest.raises(ValueError, match="not a three-term recurrence document"):
        serialize.ttr_from_json("[1, 2]")


def test_readers_leave_the_unused_first_slot_empty(texts):
    payload = json.loads(texts["relation"])
    payload["M"][0] = "1 1\n0.5"
    assert serialize.relation_from_json(json.dumps(payload)).M[0] is None
    payload = json.loads(texts["ttr"])
    payload["C"][0] = ["1 1\n0.5", "1 1\n0.5"]
    assert _checked("ttr", json.dumps(payload)).C[0] is None


@pytest.mark.parametrize("kind, name, n, i", [("system", "blocks", 2, 1), ("ttr", "A", 1, 0),
                                              ("ttr", "C", 2, 1), ("relation", "M", 2, None)])
def test_public_readers_refuse_a_missing_block(texts, kind, name, n, i):
    # a block the layout uses must be matrix text, even where shapes and
    # values are not checked
    with pytest.raises(ValueError, match="expected matrix text, got NoneType"):
        READERS[kind](_with_block(texts[kind], name, n, i, None))


def test_public_readers_keep_shapes_and_values(texts):
    payload = json.loads(texts["relation"])
    payload["M"][2] = "3 1\n0.5\nnan\n0"
    rel = serialize.relation_from_json(json.dumps(payload))
    assert rel.m(2).shape == (3, 1) and np.isnan(rel.m(2)[1, 0])
    with pytest.raises(ValueError, match=r"M\[2\] has shape \(3, 1\), expected \(3, 2\)"):
        serialize.validate_blocks(rel)
    payload = json.loads(texts["system"])
    payload["blocks"][2].pop()
    with pytest.raises(ValueError, match="degree 2 has 2 blocks, expected 3"):
        serialize.system_from_json(json.dumps(payload))
