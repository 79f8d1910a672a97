"""BitVector unit and property tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.trace.bitvector import BitVector

small_sets = st.sets(st.integers(min_value=0, max_value=200), max_size=30)


def test_empty():
    bv = BitVector()
    assert not bv
    assert len(bv) == 0
    assert list(bv) == []
    assert 5 not in bv


def test_set_test_clear():
    bv = BitVector()
    bv.set(3)
    assert bv.test(3)
    assert 3 in bv
    bv.clear(3)
    assert not bv.test(3)


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        BitVector().set(-1)


def test_constructor_from_iterable():
    bv = BitVector([1, 5, 9])
    assert list(bv) == [1, 5, 9]
    assert len(bv) == 3


def test_union_intersection():
    a = BitVector([1, 2, 3])
    b = BitVector([3, 4])
    assert list(a.union(b)) == [1, 2, 3, 4]
    assert list(a.intersection(b)) == [3]
    assert a.intersects(b)
    assert not a.intersects(BitVector([9]))


def test_equality_and_hash():
    assert BitVector([1, 2]) == BitVector([2, 1])
    assert hash(BitVector([7])) == hash(BitVector([7]))
    assert BitVector([1]) != BitVector([2])


def test_copy_independent():
    a = BitVector([1])
    b = a.copy()
    b.set(2)
    assert 2 not in a


def test_hex_roundtrip():
    a = BitVector([0, 63, 64, 199])
    assert BitVector.from_hex(a.to_hex()) == a
    assert BitVector.from_hex("") == BitVector()


def test_repr_truncates():
    text = repr(BitVector(range(20)))
    assert "..." in text


@given(small_sets, small_sets)
def test_union_matches_set_union(xs, ys):
    assert set(BitVector(xs).union(BitVector(ys))) == xs | ys


@given(small_sets, small_sets)
def test_intersection_matches_set_intersection(xs, ys):
    a, b = BitVector(xs), BitVector(ys)
    assert set(a.intersection(b)) == xs & ys
    assert a.intersects(b) == bool(xs & ys)


@given(small_sets)
def test_len_is_cardinality(xs):
    assert len(BitVector(xs)) == len(xs)


@given(small_sets)
def test_iteration_sorted(xs):
    assert list(BitVector(xs)) == sorted(xs)


@given(small_sets)
def test_hex_roundtrip_property(xs):
    bv = BitVector(xs)
    assert BitVector.from_hex(bv.to_hex()) == bv


@given(st.lists(small_sets, max_size=5))
def test_union_of_matches_set_union(sets):
    assert set(BitVector.union_of(BitVector(xs) for xs in sets)) == \
        set().union(*sets)
