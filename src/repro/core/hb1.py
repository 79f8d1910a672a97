"""The happens-before-1 relation over events (Definitions 2.1–2.3).

hb1 is the irreflexive transitive closure of program order (po) and
synchronization-order-1 (so1).  po is immediate from each processor's
event sequence.  so1 must be *reconstructed* from the trace: the trace
records only the relative order of synchronization events per location
(section 4.1), so a release write is paired with a subsequent acquire
read of the same location when the acquire is the next sync read and
returns the release's value (Definition 2.1(3): "s2 returns the value
written by s1").

po is implicit in ``(proc, pos)``, so construction pairs only so1; the
event graph is built on first read (G', DOT export, explanations), and
its closure only by ``explain``'s provenance check, never by detection:
every detector reads hb1 through the clocks of
:class:`~repro.core.hb1_vc.VectorClockHB1`.
On a columnar trace so1 is paired on processor-major rows, straight
from the file's integer sync order, and :attr:`~HappensBefore1.so1_edges`
builds its event pairs on first read.

On a weak execution the synchronization operations themselves need not
be sequentially consistent, so hb1 may contain cycles (section 3.1);
everything downstream tolerates that: the clocks are computed over the
SCC condensation, and partitioning works on SCCs anyway.
"""

from __future__ import annotations

from itertools import accumulate
from typing import List, Optional, Tuple

from .. import obs
from ..graph import DiGraph, TransitiveClosure, is_acyclic
from ..machine.operations import SyncRole
from ..trace.build import Trace
from ..trace.columnar import _ROLE_CODE as _COLUMN_ROLE_CODE
from ..trace.events import EventId, SyncEvent

_COL_ACQUIRE = _COLUMN_ROLE_CODE[SyncRole.ACQUIRE]
_COL_RELEASE = _COLUMN_ROLE_CODE[SyncRole.RELEASE]


class HappensBefore1:
    """The hb1 relation of a trace, with cached reachability.

    Edges are po (consecutive events of one processor, implicit) and
    so1 (paired release -> acquire, listed in :attr:`so1_edges`).
    ``ordered(a, b)`` answers "a hb1 b" via a bitset transitive closure
    over :attr:`graph`; both are built on first read.  Detection asks
    :class:`~repro.core.hb1_vc.VectorClockHB1` instead; the closure
    serves ``explain``'s provenance check and the tests' oracle.
    """

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self._so1_edges: Optional[List[Tuple[EventId, EventId]]] = []
        #: so1 as (row, row) pairs, when paired on a columnar trace
        self._so1_rows: Optional[List[Tuple[int, int]]] = None
        self._graph: Optional[DiGraph] = None
        self._closure: Optional[TransitiveClosure] = None
        with obs.span("hb1.build") as sp:
            self._build()
            #: one po edge per event but each processor's first
            self.po_edges = trace.event_count - sum(
                1 for proc_events in trace.events if len(proc_events))
            if sp.enabled:
                sp.add("events", trace.event_count)
                sp.add("po_edges", self.po_edges)
                sp.add("so1_edges", len(self._so1_edges if self._so1_rows
                                        is None else self._so1_rows))

    # ------------------------------------------------------------------
    def _build(self) -> None:
        # so1 pairing reads sync payloads.  On a columnar trace the base
        # pairing rule runs straight off the role/kind/value columns —
        # but only when ``_pair_location`` is not overridden, so
        # subclasses that change the rule (SHB's rf edges) keep their
        # object-path semantics.
        columns = getattr(self.trace, "columns", None)
        if (
            columns is not None
            and type(self)._pair_location is HappensBefore1._pair_location
        ):
            self._so1_edges, self._so1_rows = None, []
            for pairs in self.trace.sync_pairs.values():
                self._pair_location_columnar(pairs, columns)
        else:
            for addr, order in self.trace.sync_order.items():
                self._pair_location(addr, order)

    @property
    def so1_edges(self) -> List[Tuple[EventId, EventId]]:
        """The paired release -> acquire event pairs."""
        if self._so1_edges is None:
            proc, pos = self.trace.columns.proc, self.trace.columns.pos
            self._so1_edges = [(EventId(proc[s], pos[s]),
                                EventId(proc[d], pos[d]))
                               for s, d in self._so1_rows]
        return self._so1_edges

    @so1_edges.setter
    def so1_edges(self, edges: List[Tuple[EventId, EventId]]) -> None:
        self._so1_edges, self._so1_rows = edges, None

    def _pair_location(self, addr: int, order: List[EventId]) -> None:
        last_sync_write: Optional[SyncEvent] = None
        for eid in order:
            event = self.trace.event(eid)
            assert isinstance(event, SyncEvent)
            if event.writes_addr:
                last_sync_write = event
                continue
            # A sync read: pairs iff it is an acquire, the most recent
            # sync write to the location is a release, and the values
            # match (Definition 2.1).
            if (
                event.role is SyncRole.ACQUIRE
                and last_sync_write is not None
                and last_sync_write.role is SyncRole.RELEASE
                and last_sync_write.value == event.value
                and last_sync_write.eid.proc != event.eid.proc
            ):
                self.so1_edges.append((last_sync_write.eid, event.eid))

    def _pair_location_columnar(self, pairs: Tuple[int, ...],
                                columns) -> None:
        """Definition 2.1 pairing straight off the columns, for one
        location's flat ``(proc, pos, ...)`` sync order — identical
        decisions to :meth:`_pair_location`, zero event objects."""
        kind, role, value = columns.kind, columns.role, columns.value
        offsets = columns.proc_offsets
        last_write = last_proc = -1
        for i in range(0, len(pairs), 2):
            proc = pairs[i]
            row = offsets[proc] + pairs[i + 1]
            if kind[row]:  # sync write
                last_write, last_proc = row, proc
                continue
            if (
                role[row] == _COL_ACQUIRE
                and last_write >= 0
                and role[last_write] == _COL_RELEASE
                and value[last_write] == value[row]
                and last_proc != proc
            ):
                self._so1_rows.append((last_write, row))

    def cross_edges(self) -> List[Tuple[EventId, EventId]]:
        """The edges beyond po: so1 here; subclasses add or drop some."""
        return self.so1_edges

    def cross_rows(self) -> List[Tuple[int, int]]:
        """:meth:`cross_edges` as processor-major ``(row, row)`` pairs,
        what the vector-clock sweep reads."""
        if (self._so1_rows is not None
                and type(self).cross_edges is HappensBefore1.cross_edges):
            return self._so1_rows
        offsets = [0, *accumulate(map(len, self.trace.events))]
        return [(offsets[src.proc] + src.pos, offsets[dst.proc] + dst.pos)
                for src, dst in self.cross_edges()]

    # ------------------------------------------------------------------
    @property
    def graph(self) -> DiGraph:
        """The relation as an event graph: each processor's events
        chained by po, then :meth:`cross_edges`."""
        if self._graph is None:
            with obs.span("hb1.graph"):
                self._graph = graph = DiGraph()
                for proc, proc_events in enumerate(self.trace.events):
                    chain = [EventId(proc, pos)
                             for pos in range(len(proc_events))]
                    graph.add_nodes(chain)
                    graph.add_edges(zip(chain, chain[1:]))
                graph.add_edges(self.cross_edges())
        return self._graph

    @property
    def closure(self) -> TransitiveClosure:
        if self._closure is None:
            with obs.span("hb1.closure"):
                self._closure = TransitiveClosure(self.graph)
        return self._closure

    def ordered(self, a: EventId, b: EventId) -> bool:
        """True iff ``a hb1 b``."""
        return self.closure.ordered(a, b)

    def unordered(self, a: EventId, b: EventId) -> bool:
        """True iff neither ``a hb1 b`` nor ``b hb1 a`` — the condition
        under which conflicting events race (Definition 2.4)."""
        return not self.closure.comparable(a, b)

    def is_partial_order(self) -> bool:
        """True when hb1 is acyclic — guaranteed for SC executions,
        possibly false for weak ones (section 3.1)."""
        return is_acyclic(self.graph)
