"""Events: the granularity at which races are detected (section 4.1).

The execution of each processor is viewed as a sequence of events —
either a single synchronization operation (a *synchronization event*) or
a maximal run of consecutively executed data operations (a *computation
event*).  A computation event carries only its READ and WRITE location
sets; the individual operations are deliberately not part of what the
detector consumes (that is the whole point of the event abstraction),
but their global sequence numbers are retained for ground-truth
verification against the simulator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from ..machine.operations import OperationKind, SyncRole
from .bitvector import BitVector


class EventId:
    """Identifies an event by processor and position in that
    processor's event sequence.

    Hand-written (not a dataclass) with a cached hash: race detection
    hashes millions of these in its hot loop.  ``__init__`` fills the
    slots through their descriptors' ``__set__`` (bound once, below),
    which is cheaper than ``object.__setattr__`` and bypasses the
    immutability guard the same way.
    """

    __slots__ = ("proc", "pos", "_hash")

    def __init__(self, proc: int, pos: int) -> None:
        _set_proc(self, proc)
        _set_pos(self, pos)
        _set_hash(self, hash((proc, pos)))

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("EventId is immutable")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if isinstance(other, EventId):
            return self.proc == other.proc and self.pos == other.pos
        return NotImplemented

    def __lt__(self, other: "EventId") -> bool:
        return (self.proc, self.pos) < (other.proc, other.pos)

    def __le__(self, other: "EventId") -> bool:
        return (self.proc, self.pos) <= (other.proc, other.pos)

    def __gt__(self, other: "EventId") -> bool:
        return (self.proc, self.pos) > (other.proc, other.pos)

    def __ge__(self, other: "EventId") -> bool:
        return (self.proc, self.pos) >= (other.proc, other.pos)

    def __repr__(self) -> str:
        return f"P{self.proc}.E{self.pos}"


_set_proc = EventId.proc.__set__
_set_pos = EventId.pos.__set__
_set_hash = EventId._hash.__set__


class EventKind(enum.Enum):
    SYNC = "sync"
    COMPUTATION = "computation"


@dataclass
class Event:
    """Common base for the two event kinds."""

    eid: EventId

    @property
    def is_sync(self) -> bool:
        return isinstance(self, SyncEvent)

    @property
    def is_computation(self) -> bool:
        return isinstance(self, ComputationEvent)


@dataclass
class SyncEvent(Event):
    """A single synchronization operation.

    ``order_pos`` is this event's index in the per-location sync order
    of the trace — part (2) of the instrumentation of section 4.1, the
    information from which so1 is reconstructed post-mortem.
    """

    addr: int = 0
    op_kind: OperationKind = OperationKind.READ
    role: SyncRole = SyncRole.NONE
    value: int = 0
    order_pos: int = -1
    seq: int = -1  # simulator ground truth; not used by the detector

    @property
    def reads_addr(self) -> bool:
        return self.op_kind is OperationKind.READ

    @property
    def writes_addr(self) -> bool:
        return self.op_kind is OperationKind.WRITE

    def label(self, addr_name: Optional[str] = None) -> str:
        name = addr_name if addr_name is not None else str(self.addr)
        verb = {
            SyncRole.ACQUIRE: "Acquire",
            SyncRole.RELEASE: "Release",
            SyncRole.SYNC_ONLY: "SyncWrite",
            SyncRole.NONE: "Sync",
        }[self.role]
        return f"{verb}({name})={self.value}"


@dataclass
class ComputationEvent(Event):
    """A maximal run of consecutive data operations by one processor,
    summarized by READ and WRITE bit-vectors."""

    reads: BitVector = field(default_factory=BitVector)
    writes: BitVector = field(default_factory=BitVector)
    op_seqs: List[int] = field(default_factory=list)  # ground truth only
    op_count: int = 0

    def record(self, kind: OperationKind, addr: int, seq: int) -> None:
        if kind is OperationKind.READ:
            self.reads.set(addr)
        else:
            self.writes.set(addr)
        self.op_seqs.append(seq)
        self.op_count += 1

    @property
    def accessed(self) -> BitVector:
        return self.reads.union(self.writes)

    def label(self, name_of=None, max_names: int = 4) -> str:
        name_of = name_of or str

        def render(bv: BitVector) -> str:
            names = [name_of(a) for a in bv]
            if len(names) > max_names:
                extra = len(names) - max_names
                names = names[:max_names] + [f"+{extra} more"]
            return ",".join(names)

        return f"Comp(R={{{render(self.reads)}}} W={{{render(self.writes)}}})"


def conflicting_locations(a: Event, b: Event) -> List[int]:
    """Locations on which *a* and *b* conflict (common location, at
    least one side writes it) — the event-level lift of the conflict
    definition in section 2.1."""
    if isinstance(a, SyncEvent) and isinstance(b, SyncEvent):
        if a.addr != b.addr:
            return []
        if a.writes_addr or b.writes_addr:
            return [a.addr]
        return []
    if isinstance(a, SyncEvent):
        return _sync_vs_comp(a, b)  # type: ignore[arg-type]
    if isinstance(b, SyncEvent):
        return _sync_vs_comp(b, a)  # type: ignore[arg-type]
    assert isinstance(a, ComputationEvent) and isinstance(b, ComputationEvent)
    ww = a.writes.intersection(b.writes)
    wr = a.writes.intersection(b.reads)
    rw = a.reads.intersection(b.writes)
    return sorted(set(ww) | set(wr) | set(rw))


def _sync_vs_comp(sync: SyncEvent, comp: ComputationEvent) -> List[int]:
    if sync.writes_addr:
        if comp.reads.test(sync.addr) or comp.writes.test(sync.addr):
            return [sync.addr]
    else:
        if comp.writes.test(sync.addr):
            return [sync.addr]
    return []


def involves_data(a: Event, b: Event) -> bool:
    """True iff at least one side is a data (computation) event — the
    "at least one of x or y is a data operation" clause of Definition
    2.4."""
    return a.is_computation or b.is_computation
