"""Event model tests: conflicts and data-involvement rules."""

import pytest

from repro.machine.operations import OperationKind, SyncRole
from repro.trace.bitvector import BitVector
from repro.trace.events import (
    ComputationEvent,
    EventId,
    SyncEvent,
    conflicting_locations,
    involves_data,
)


def comp(proc, pos, reads=(), writes=()):
    return ComputationEvent(
        eid=EventId(proc, pos),
        reads=BitVector(reads),
        writes=BitVector(writes),
    )


def sync(proc, pos, addr, kind=OperationKind.WRITE, role=SyncRole.RELEASE, value=0):
    return SyncEvent(
        eid=EventId(proc, pos), addr=addr, op_kind=kind, role=role, value=value
    )


class TestEventId:
    def test_ordering(self):
        assert EventId(0, 1) < EventId(0, 2)
        assert EventId(0, 9) < EventId(1, 0)

    def test_repr(self):
        assert repr(EventId(2, 3)) == "P2.E3"

    def test_hashable(self):
        assert EventId(1, 1) in {EventId(1, 1)}

    def test_descriptor_init_matches_setattr_init(self):
        # The reference construction: every slot set through
        # object.__setattr__, past the immutability guard.
        def reference(proc, pos):
            eid = object.__new__(EventId)
            object.__setattr__(eid, "proc", proc)
            object.__setattr__(eid, "pos", pos)
            object.__setattr__(eid, "_hash", hash((proc, pos)))
            return eid

        pairs = [(0, 0), (0, 1), (1, 0), (3, 7), (2, 2**40), (7, -1)]
        for proc, pos in pairs:
            built, ref = EventId(proc, pos), reference(proc, pos)
            assert (built.proc, built.pos) == (ref.proc, ref.pos)
            assert built == ref and hash(built) == hash(ref)
            assert hash(built) == hash((proc, pos))
            assert repr(built) == repr(ref)
        built = sorted(EventId(p, q) for p, q in pairs)
        assert built == sorted(reference(p, q) for p, q in pairs)
        for a, b in zip(built, built[1:]):
            assert a < b and a <= b and b > a and b >= a

    def test_immutable(self):
        eid = EventId(1, 2)
        for name in ("proc", "pos", "_hash", "other"):
            with pytest.raises(AttributeError):
                setattr(eid, name, 5)
        assert (eid.proc, eid.pos, hash(eid)) == (1, 2, hash((1, 2)))


class TestComputationEvent:
    def test_record_accumulates(self):
        e = comp(0, 0)
        e.record(OperationKind.READ, 3, seq=0)
        e.record(OperationKind.WRITE, 5, seq=1)
        e.record(OperationKind.READ, 3, seq=2)
        assert list(e.reads) == [3]
        assert list(e.writes) == [5]
        assert e.op_count == 3
        assert e.op_seqs == [0, 1, 2]

    def test_accessed_union(self):
        e = comp(0, 0, reads=[1], writes=[2])
        assert set(e.accessed) == {1, 2}

    def test_kind_flags(self):
        assert comp(0, 0).is_computation
        assert not comp(0, 0).is_sync


class TestConflicts:
    def test_comp_comp_write_write(self):
        assert conflicting_locations(comp(0, 0, writes=[4]),
                                     comp(1, 0, writes=[4])) == [4]

    def test_comp_comp_write_read(self):
        assert conflicting_locations(comp(0, 0, writes=[4]),
                                     comp(1, 0, reads=[4])) == [4]

    def test_comp_comp_read_read_no_conflict(self):
        assert conflicting_locations(comp(0, 0, reads=[4]),
                                     comp(1, 0, reads=[4])) == []

    def test_comp_comp_disjoint(self):
        assert conflicting_locations(comp(0, 0, writes=[1]),
                                     comp(1, 0, writes=[2])) == []

    def test_multiple_locations_sorted(self):
        a = comp(0, 0, writes=[5, 2])
        b = comp(1, 0, reads=[2], writes=[5])
        assert conflicting_locations(a, b) == [2, 5]

    def test_sync_write_vs_comp_read(self):
        s = sync(0, 0, addr=7, kind=OperationKind.WRITE)
        assert conflicting_locations(s, comp(1, 0, reads=[7])) == [7]
        assert conflicting_locations(comp(1, 0, reads=[7]), s) == [7]

    def test_sync_read_vs_comp_read_no_conflict(self):
        s = sync(0, 0, addr=7, kind=OperationKind.READ, role=SyncRole.ACQUIRE)
        assert conflicting_locations(s, comp(1, 0, reads=[7])) == []

    def test_sync_read_vs_comp_write(self):
        s = sync(0, 0, addr=7, kind=OperationKind.READ, role=SyncRole.ACQUIRE)
        assert conflicting_locations(s, comp(1, 0, writes=[7])) == [7]

    def test_sync_sync_same_addr(self):
        a = sync(0, 0, addr=3)
        b = sync(1, 0, addr=3)
        assert conflicting_locations(a, b) == [3]

    def test_sync_sync_reads_no_conflict(self):
        a = sync(0, 0, addr=3, kind=OperationKind.READ, role=SyncRole.ACQUIRE)
        b = sync(1, 0, addr=3, kind=OperationKind.READ, role=SyncRole.ACQUIRE)
        assert conflicting_locations(a, b) == []

    def test_sync_sync_different_addr(self):
        assert conflicting_locations(sync(0, 0, addr=3), sync(1, 0, addr=4)) == []


class TestInvolvesData:
    def test_comp_pairs_are_data(self):
        assert involves_data(comp(0, 0), comp(1, 0))
        assert involves_data(sync(0, 0, 1), comp(1, 0))
        assert involves_data(comp(0, 0), sync(1, 0, 1))

    def test_sync_sync_not_data(self):
        assert not involves_data(sync(0, 0, 1), sync(1, 0, 1))


class TestLabels:
    def test_sync_label(self):
        s = sync(0, 0, addr=3, value=0)
        assert "Release" in s.label("s")
        assert "s" in s.label("s")

    def test_comp_label(self):
        e = comp(0, 0, reads=[1], writes=[2])
        text = e.label(lambda a: f"v{a}")
        assert "v1" in text and "v2" in text
