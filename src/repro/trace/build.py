"""Building a post-mortem trace from a simulated execution.

This is the reproduction's stand-in for the compiler-inserted
instrumentation of section 4.1.  It records exactly the three things the
paper's trace files contain:

1. the execution order of events issued by the same processor,
2. the relative execution order of synchronization events involving the
   same location, and
3. the READ and WRITE sets of each computation event.

Crucially it does *not* record staleness, observed-writer identities, or
anything else a real tracing facility could not know — the detector sees
only what the paper's detector sees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple,
)

from .. import obs
from ..machine.operations import MemoryOperation
from ..machine.program import SymbolTable
from ..machine.simulator import ExecutionResult
from .bitvector import BitVector
from .events import ComputationEvent, Event, EventId, SyncEvent


#: ``(is_computation, locations read, locations written)`` of an event
_Accesses = Tuple[bool, Iterable[int], Iterable[int]]


def _event_accesses(event: Event) -> _Accesses:
    if isinstance(event, SyncEvent):
        addr = (event.addr,)
        return (False, (), addr) if event.writes_addr else (False, addr, ())
    return True, event.reads, event.writes


class TraceError(ValueError):
    """A trace that cannot be analyzed: a malformed or wrong-version
    file in any of the three formats, or a structurally invalid trace.
    Every trace reader raises a subclass, never a raw decode error."""


@dataclass
class Trace:
    """A complete post-mortem trace of one execution."""

    processor_count: int
    memory_size: int
    events: List[List[Event]]
    sync_order: Dict[int, List[EventId]]
    symbols: Optional[SymbolTable] = None
    model_name: str = "unknown"

    # ------------------------------------------------------------------
    def event(self, eid: EventId) -> Event:
        return self.events[eid.proc][eid.pos]

    def accesses(self, eid: EventId) -> _Accesses:
        """``(is_computation, locations read, locations written)`` of
        one event: what a race sweep needs to know about it."""
        return _event_accesses(self.events[eid.proc][eid.pos])

    def accesses_by_row(self) -> Callable[[int], _Accesses]:
        """:meth:`accesses` by processor-major row (``offset[proc] +
        pos``), as the row-walking race sweep reads it."""
        events = self.all_events()
        return lambda row: _event_accesses(events[row])

    def data_locations(self) -> FrozenSet[int]:
        """Every location some computation event reads or writes: the
        data half of a race sweep (:func:`repro.core.races.find_races`)."""
        return frozenset(BitVector.union_of(
            vector
            for proc_events in self.events
            for event in proc_events
            if isinstance(event, ComputationEvent)
            for vector in (event.reads, event.writes)
        ))

    def all_events(self) -> List[Event]:
        return [event for proc_events in self.events for event in proc_events]

    @property
    def event_count(self) -> int:
        return sum(len(proc_events) for proc_events in self.events)

    def computation_events(self) -> List[ComputationEvent]:
        return [e for e in self.all_events() if isinstance(e, ComputationEvent)]

    def sync_events(self) -> List[SyncEvent]:
        return [e for e in self.all_events() if isinstance(e, SyncEvent)]

    def addr_name(self, addr: int) -> str:
        if self.symbols is not None:
            return self.symbols.name_of(addr)
        return f"@{addr}"

    def label(self, eid: EventId) -> str:
        event = self.event(eid)
        if isinstance(event, SyncEvent):
            return f"{eid}: {event.label(self.addr_name(event.addr))}"
        assert isinstance(event, ComputationEvent)
        return f"{eid}: {event.label(self.addr_name)}"


@dataclass
class TraceBuilder:
    """Segments per-processor operation streams into events."""

    processor_count: int
    memory_size: int
    symbols: Optional[SymbolTable] = None
    model_name: str = "unknown"
    _events: List[List[Event]] = field(default_factory=list)
    _open: List[Optional[ComputationEvent]] = field(default_factory=list)
    _sync_order: Dict[int, List[EventId]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._events = [[] for _ in range(self.processor_count)]
        self._open = [None] * self.processor_count

    def add_operation(self, op: MemoryOperation) -> None:
        """Feed one operation, in global execution order."""
        if op.is_sync:
            self._close_computation(op.proc)
            eid = EventId(op.proc, len(self._events[op.proc]))
            order = self._sync_order.setdefault(op.addr, [])
            event = SyncEvent(
                eid=eid,
                addr=op.addr,
                op_kind=op.kind,
                role=op.role,
                value=op.value,
                order_pos=len(order),
                seq=op.seq,
            )
            order.append(eid)
            self._events[op.proc].append(event)
            return
        current = self._open[op.proc]
        if current is None:
            eid = EventId(op.proc, len(self._events[op.proc]))
            current = ComputationEvent(eid=eid)
            self._open[op.proc] = current
            self._events[op.proc].append(current)
        current.record(op.kind, op.addr, op.seq)

    def _close_computation(self, proc: int) -> None:
        self._open[proc] = None

    def finish(self) -> Trace:
        return Trace(
            processor_count=self.processor_count,
            memory_size=self.memory_size,
            events=self._events,
            sync_order=self._sync_order,
            symbols=self.symbols,
            model_name=self.model_name,
        )


def build_trace(result: ExecutionResult) -> Trace:
    """Instrument a simulated execution into a post-mortem trace."""
    with obs.span("trace.build") as sp:
        memory_size = 1
        if result.symbols is not None:
            memory_size = max(result.symbols.size, 1)
        elif result.operations:
            memory_size = max(op.addr for op in result.operations) + 1
        builder = TraceBuilder(
            processor_count=result.processor_count,
            memory_size=memory_size,
            symbols=result.symbols,
            model_name=result.model_name,
        )
        for op in result.operations:
            builder.add_operation(op)
        trace = builder.finish()
        if sp.enabled:
            sp.add("operations", len(result.operations))
            sp.add("events", trace.event_count)
            # every data operation merges its address into an open
            # computation event's READ or WRITE bit-vector
            sp.add(
                "bitvector_merges",
                sum(e.op_count for e in trace.computation_events()),
            )
    return trace


def event_of_op(trace: Trace, op_seq: int) -> Optional[EventId]:
    """Ground-truth mapping: which event contains operation *op_seq*."""
    for proc_events in trace.events:
        for event in proc_events:
            if isinstance(event, SyncEvent) and event.seq == op_seq:
                return event.eid
            if isinstance(event, ComputationEvent) and op_seq in event.op_seqs:
                return event.eid
    return None
