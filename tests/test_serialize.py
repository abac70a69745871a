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
