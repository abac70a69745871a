import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvops import families, linrel, moments, serialize
from mvops import matrixkit as mk
from mvops.construct import PolySystem, gram_schmidt_monic, orthonormalize
from mvops.matrixkit import format_matrix
from mvops.ttr import ThreeTermData, compute_ttr, generate_from_ttr


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


@pytest.mark.parametrize("written", [False, "x", None])
def test_monic_is_read_off_the_blocks_not_the_envelope(disk_pieces, written):
    P, _ = disk_pieces
    orthonormal = orthonormalize(*gram_schmidt_monic(moments.disk_functional(0.5), 4))
    for system, monic in ((P, True), (orthonormal, False)):
        payload = json.loads(serialize.system_to_json(system))
        assert payload["monic"] is monic
        if written is None:
            del payload["monic"]
        else:
            payload["monic"] = written if monic else True
        back = serialize.system_from_json(json.dumps(payload))
        assert back.monic is monic
        assert all(mk.same_bits(a, b) for a, b in zip(back.rows, system.rows))


@pytest.mark.parametrize("keep", [0, 1, 2])
def test_readers_refuse_a_c_list_shorter_than_b(texts, keep):
    payload = json.loads(texts["ttr"])
    payload["C"] = payload["C"][:keep]
    text = json.dumps(payload)
    for read in (serialize.ttr_from_json, lambda t: _checked("ttr", t)):
        with pytest.raises(ValueError, match=rf"^C must hold one entry per degree 1\.\.4 of B, "
                                             rf"got {max(keep - 1, 0)}$"):
            read(text)


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
    rows = {"system": obj.rows} if hasattr(obj, "rows") else (
        {"A": obj.A, "B": obj.B, "C": obj.C[1:]} if hasattr(obj, "A") else {"M": obj.M[1:]})
    return [m for part in rows.values() for row in part
            for m in (row if isinstance(row, (list, tuple)) else [row])]


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
    # A[0..3] are "shift" markers and parse nothing: B[0] with both
    # directions, then B[1][1] and the bad B[1][2]
    assert len(calls) == 2 + 2
    # a public read gives the document's values back as they are
    T = serialize.ttr_from_json(_with_block(texts["ttr"], "B", 1, 1, "2 2\n0 inf\n0 0"))
    assert np.isinf(T.b(1, 2)[0, 1])


def test_validating_read_names_the_bad_block(texts):
    cases = [
        ("system", lambda p: p.update(d=0), "d must be >= 1"),
        ("relation", lambda p: p.update(tail=float("nan")), "tail must be finite"),
        ("relation", lambda p: p.update(tail=10**400), "tail must be finite, got inf"),
        ("system", lambda p: p["blocks"][2].pop(), "degree 2 has 2 blocks, expected 3"),
        ("system", lambda p: p["blocks"][2].__setitem__(0, "2 1\n0\n0"),
         r"block \(2, 0\) has shape \(2, 1\), expected \(3, 1\)"),
        ("relation", lambda p: p["M"].__setitem__(3, "4 3\n0 0 0\n0 inf 0\n0 0 0\n0 0 0"),
         r"M\[3\] has a non-finite entry"),
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


@pytest.mark.parametrize("kind", sorted(READERS))
@pytest.mark.parametrize("d", [2.9, 2.5, 2.0, "2", True, None, [2]])
def test_readers_refuse_a_dimension_that_is_no_json_integer(texts, kind, d):
    payload = json.loads(texts[kind])
    payload["d"] = d
    text = json.dumps(payload)
    for read in (READERS[kind], lambda t: _checked(kind, t)):
        with pytest.raises(ValueError, match=re.escape(f"d must be an integer, got {d!r}")):
            read(text)


@pytest.mark.parametrize("tail", [None, {}, [1], True, "1e5"])
def test_readers_refuse_a_tail_that_is_no_json_number(texts, tail):
    payload = json.loads(texts["relation"])
    payload["tail"] = tail
    text = json.dumps(payload)
    for read in (serialize.relation_from_json, lambda t: _checked("relation", t)):
        with pytest.raises(ValueError, match=re.escape(f"tail must be a number, got {tail!r}")):
            read(text)


def test_a_tail_past_the_floats_reads_as_infinite(texts):
    payload = json.loads(texts["relation"])
    for tail, want in ((10**400, math.inf), (-10**400, -math.inf), (7, 7.0)):
        payload["tail"] = tail
        assert serialize.relation_from_json(json.dumps(payload)).tail == want


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(READERS)), data=st.data())
def test_any_json_value_in_one_field_is_read_or_refused_with_value_error(texts, kind, data):
    payload = json.loads(texts[kind])
    field = data.draw(st.sampled_from(sorted(payload) + ["tail"]))
    payload[field] = data.draw(_JSON)
    text = json.dumps(payload)
    for read in (READERS[kind], lambda t: _checked(kind, t)):
        try:
            read(text)
        except ValueError:
            pass


@pytest.mark.parametrize("d", [12, 20])
def test_a_system_whose_d_is_changed_is_refused_before_its_identity_blocks(texts, d):
    # at d = 20 the degree-4 identity alone would be 8855 x 8855 floats
    payload = json.loads(texts["system"])
    payload["d"] = d
    text = json.dumps(payload)
    for read in (serialize.system_from_json, lambda t: _checked("system", t)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"block \(1, 0\) has"):
                read(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_public_readers_keep_shapes_and_values(texts):
    payload = json.loads(texts["relation"])
    payload["M"][2] = "3 1\n0.5\nnan\n0"
    rel = serialize.relation_from_json(json.dumps(payload))
    assert rel.m(2).shape == (3, 1) and np.isnan(rel.m(2)[1, 0])
    with pytest.raises(ValueError, match=r"M\[2\] has shape \(3, 1\), expected \(3, 2\)"):
        _checked("relation", json.dumps(payload))
    payload = json.loads(texts["system"])
    payload["blocks"][2].pop()
    with pytest.raises(ValueError, match="degree 2 has 2 blocks, expected 3"):
        serialize.system_from_json(json.dumps(payload))


# -- structural blocks as markers ---------------------------------------------


def _source(name: str, mu: float, N: int):
    """A system, recurrence or relation of the kind `name` for the disk
    weight with parameter mu through degree N (disk(-0.5) for
    "disk-neg-ttr", the orthonormal symmetrized Chebyshev recurrence of
    kind 2 for "orthonormal-ttr"), and whether its structural slots (A, or
    a system's diagonal) hold the exact structural blocks."""
    u = moments.disk_functional(mu)
    P, H = gram_schmidt_monic(u, N)
    orthonormal = orthonormalize(P, H)

    def disk_neg_ttr():
        v = moments.disk_functional(-0.5)
        Pv, Hv = gram_schmidt_monic(v, N)
        return compute_ttr(Pv, v, Hv)

    return {
        "monic-ttr": lambda: (compute_ttr(P, u, H), True),
        "orthonormal-ttr": lambda: (families.symmetrized_chebyshev_ttr(2, N)[0], False),
        "disk-neg-ttr": lambda: (disk_neg_ttr(), True),
        "counterexample-ttr": lambda: (linrel.counterexample(N + 1)[0], True),
        "counterexample-relation": lambda: (linrel.counterexample(N + 1)[1], False),
        "monic-system": lambda: (P, True),
        "generated-system": lambda: (generate_from_ttr(compute_ttr(P, u, H))[0], True),
        "to-monic-system": lambda: (orthonormal.to_monic(), True),
        "orthonormal-system": lambda: (orthonormal, False),
    }[name]()


def _structural_slots(payload: dict) -> list:
    """(row degree, container, key) of every slot that may hold a marker."""
    if payload["kind"] == "three_term":
        return [(n, row, i) for n, row in enumerate(payload["A"]) for i in range(len(row))]
    if payload["kind"] == "polynomial_system":
        return [(n, row, n) for n, row in enumerate(payload["blocks"])]
    return []


def _same(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["monic-ttr", "orthonormal-ttr", "disk-neg-ttr", "counterexample-ttr",
                             "counterexample-relation", "monic-system", "generated-system",
                             "to-monic-system", "orthonormal-system"]),
       mu=st.sampled_from([0.0, 0.5, 1.5]), N=st.integers(1, 4))
def test_write_then_read_is_bit_identical_with_or_without_markers(name, mu, N):
    obj, structural = _source(name, mu, N)
    kind = ("system" if isinstance(obj, PolySystem)
            else "ttr" if isinstance(obj, ThreeTermData) else "relation")
    text = {"system": serialize.system_to_json, "ttr": serialize.ttr_to_json,
            "relation": serialize.relation_to_json}[kind](obj)
    back = READERS[kind](text)
    assert (back.d, back.N) == (obj.d, obj.N)
    if kind == "ttr":
        assert [len(part) for part in (back.A, back.B, back.C)] == [
            len(part) for part in (obj.A, obj.B, obj.C)]
    else:
        assert (back.label, getattr(back, "monic", None)) == (obj.label,
                                                               getattr(obj, "monic", None))
    pairs = list(zip(_arrays(obj), _arrays(back), strict=True))
    assert pairs and all(_same(np.asarray(a, dtype=float), b) for a, b in pairs)
    # markers exactly where the block is structural (an orthonormal disk
    # system's degree-0 block is [[1.0]], the identity); the same envelope
    # with every marker written out as matrix text reads to the same arrays
    payload = json.loads(text)
    slots = _structural_slots(payload)
    assert all((row[k] in ("shift", "identity")) == structural
               for n, row, k in slots if structural or n > 0)
    for n, row, k in slots:
        if row[k] in ("shift", "identity"):
            row[k] = format_matrix(back.A[n][k] if kind == "ttr" else back.blocks[n][k])
    plain = READERS[kind](json.dumps(payload))
    assert all(_same(a, b) for a, b in zip(_arrays(back), _arrays(plain), strict=True))


@pytest.mark.parametrize("block, n, i, word, where", [
    ("B", 1, 0, "shift", "B[1][1]"), ("C", 2, 1, "identity", "C[2][2]"),
    ("A", 0, 1, "identity", "A[0][2]"), ("A", 1, 0, "shfit", "A[1][1]"),
    ("blocks", 2, 0, "identity", "block (2, 0)"), ("blocks", 1, 1, "shift", "block (1, 1)"),
    ("M", 2, None, "shift", "M[2]"),
])
def test_readers_refuse_a_marker_out_of_place(texts, block, n, i, word, where):
    kind = "system" if block == "blocks" else "relation" if block == "M" else "ttr"
    text = _with_block(texts[kind], block, n, i, word)
    for read in (READERS[kind], lambda t: _checked(kind, t)):
        with pytest.raises(ValueError, match=f"^{re.escape(where)}[ :].*{word!r}"):
            read(text)


@pytest.mark.parametrize("kind, field, value, got", [
    ("three_term", "C", 5, "int"),
    ("three_term", "B", None, "null"),
    ("polynomial_system", "blocks", {"0": "identity"}, "dict"),
    ("linear_relation", "M", "M", "str"),
])
def test_a_block_list_that_is_not_a_list_is_refused_naming_it(kind, field, value, got):
    u = moments.cube_jacobi_functional((0.5, 0.0), (0.0, 0.5))
    P, H = gram_schmidt_monic(u, 2)
    text = {"three_term": lambda: serialize.ttr_to_json(compute_ttr(P, u, H)),
            "polynomial_system": lambda: serialize.system_to_json(P),
            "linear_relation": lambda: serialize.relation_to_json(
                linrel.compute_relation(P, P, u, H))}[kind]()
    payload = json.loads(text)
    payload[field] = value
    reader = {"three_term": serialize.ttr_from_json,
              "polynomial_system": serialize.system_from_json,
              "linear_relation": serialize.relation_from_json}[kind]
    with pytest.raises(ValueError, match=f"^field {field} must be a list, got {got}$"):
        reader(json.dumps(payload))
    with pytest.raises(ValueError, match=f"^field {field} in x.json must be a list"):
        serialize._read(json.dumps(payload), kind, checked=True, source="x.json")
