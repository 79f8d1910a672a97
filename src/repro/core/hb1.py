"""The happens-before-1 relation over events (Definitions 2.1–2.3).

hb1 is the irreflexive transitive closure of program order (po) and
synchronization-order-1 (so1).  po is immediate from each processor's
event sequence.  so1 must be *reconstructed* from the trace: the trace
records only the relative order of synchronization events per location
(section 4.1), so a release write is paired with a subsequent acquire
read of the same location when the acquire is the next sync read and
returns the release's value (Definition 2.1(3): "s2 returns the value
written by s1").

po is implicit in ``(proc, pos)``, so construction pairs only so1.  On
a columnar trace so1 is paired on processor-major rows, straight from
the file's integer sync order, and :attr:`~HappensBefore1.so1_edges`
builds its event pairs on first read.

Every ordering query is answered by event vector clocks, computed once
on first read, as real post-mortem tools do: component ``q`` of an
event's clock counts processor q's events in its hb1 past (itself
included), so ``a hb1 b`` iff ``clock(b)[a.proc] > a.pos`` with
``a != b``.  That is O(V·P) space and answers queries in O(1).

The clock sweep builds no graph.  Events are numbered by
processor-major *row* (``offset[proc] + pos``), po is implicit, and a
FIFO Kahn merge over rows, releasing each event's successors in row
order, linearizes po ∪ the relation's cross-processor row edges
(:meth:`~HappensBefore1.cross_rows`) exactly as
:func:`~repro.graph.topological_sort` orders the event graph.  Each
clock, a plain list, copies its po predecessor's, joins each cross
predecessor it has not yet seen (a seen one's clock is already below
it) and sets its own component to ``pos + 1``; the sweep notes the rows
whose join raised a foreign component.  :meth:`HappensBefore1.walk`
cuts the linearization into one row list per location half, each run
headed by the clocks the frontier race sweep of :mod:`repro.core.races`
recomputes its bound from; the post-mortem and trace-fed streaming
detectors both sweep those rows.

On a weak execution the synchronization operations themselves need not
be sequentially consistent, so hb1 may contain cycles (section 3.1).
The merge then stalls, and the rows it held back are clocked over
their SCC condensation, one clock per SCC (:attr:`HappensBefore1.cyclic`
says so).  An event's hb1 past on one processor is a po-prefix, cycles
or not, so the same test decides every query; and in the sweep order a
later event is hb1-before an earlier one only inside one SCC, whose
events are ordered both ways and never race.

The event graph (:attr:`HappensBefore1.graph`) is built only when a
DOT export reads it, and no query needs its transitive closure.
Subclasses change the edges (the predictive SHB and WCP relations of
:mod:`repro.core.predictive`) and inherit the clocks.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .. import obs
from ..graph import DiGraph
from ..graph.scc import strongly_connected_components
from ..machine.operations import SyncRole
from ..trace.build import Trace
from ..trace.columnar import _ROLE_CODE as _COLUMN_ROLE_CODE, _TAG_COMP
from ..trace.events import EventId, SyncEvent

_COL_ACQUIRE = _COLUMN_ROLE_CODE[SyncRole.ACQUIRE]
_COL_RELEASE = _COLUMN_ROLE_CODE[SyncRole.RELEASE]

#: a run of rows, headed by every processor's latest clock when the
#: frontier bound must be recomputed before its first row, else None
_Run = Tuple[Optional[List[List[int]]], List[int]]
#: The location halves a race sweep can be restricted to (see
#: :mod:`repro.core.races`).
HALVES = ("data", "sync")


class HappensBefore1:
    """The hb1 relation of a trace, with its event vector clocks.

    Edges are po (consecutive events of one processor, implicit) and
    so1 (paired release -> acquire, listed in :attr:`so1_edges`).
    ``ordered(a, b)`` answers "a hb1 b" with the O(1) epoch test on
    the clocks, cyclic relations included; the clocks are computed on
    first read, and :attr:`graph` is built only when read.
    """

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self._so1_edges: Optional[List[Tuple[EventId, EventId]]] = []
        #: so1 as (row, row) pairs, when paired on a columnar trace
        self._so1_rows: Optional[List[Tuple[int, int]]] = None
        self._graph: Optional[DiGraph] = None
        #: the rows in the order they were clocked; None until clocked
        self._rows: Optional[List[int]] = None
        self._walks: Dict[Optional[str], List[_Run]] = {}
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

    # ------------------------------------------------------------------
    # the clocks, computed once, on first read
    def _clock(self) -> None:
        if self._rows is None:
            with obs.span("hb1.vc_sweep") as sp:
                joins = self._sweep(self.cross_rows())
                if sp.enabled:
                    sp.add("events", len(self._rows))
                    sp.add("clock_joins", joins)

    def _sweep(self, edges: List[Tuple[int, int]]) -> int:
        """Kahn merge over rows, clocking each event as it is released,
        then any rows a cycle held back over their SCC condensation;
        returns the clock joins made (one per predecessor)."""
        counts = [len(proc_events) for proc_events in self.trace.events]
        nproc, total = len(counts), sum(counts)
        #: row of each processor's first event
        self._offsets = offsets = [0, *accumulate(counts)][:-1]
        self._proc_of = proc_of = []
        self._pos_of = pos_of = []
        for proc, count in enumerate(counts):
            proc_of += [proc] * count
            pos_of += range(count)
        # one past each processor's last row: no po successor there
        ends = {offset + count
                for offset, count in zip(offsets, counts) if count}
        in_deg = list(map(bool, pos_of))  # the po predecessor counts 1
        succ: Dict[int, List[int]] = {}
        pred: Dict[int, List[int]] = {}
        for s, d in edges:
            succ.setdefault(s, []).append(d)
            pred.setdefault(d, []).append(s)
            in_deg[d] += 1
        for row, released in succ.items():  # with po's, in row order
            if row + 1 not in ends:
                released.append(row + 1)
            released.sort()
        # The release order is the FIFO queue itself: rows are appended
        # as their last predecessor is released and read back in turn.
        # Only a processor's first row can start with no predecessor.
        rows = [offset for offset, count in zip(offsets, counts)
                if count and not in_deg[offset]]
        release = rows.append
        self._row_clocks = clocks = [[]] * total
        #: rows whose join raised a foreign clock component
        self._raised = raised = set()
        zero = [0] * nproc
        for row in rows:
            pos = pos_of[row]
            clock = clocks[row - 1][:] if pos else zero[:]
            joined = pred.get(row)
            if joined is not None:
                for other in joined:
                    # a predecessor already seen adds nothing: its
                    # clock is below this one (the epoch test)
                    if clock[proc_of[other]] <= pos_of[other]:
                        clock = list(map(max, clock, clocks[other]))
                        raised.add(row)
            clock[proc_of[row]] = pos + 1
            clocks[row] = clock
            released = succ.get(row)
            if released is None:
                if row + 1 in ends:
                    continue
                released = (row + 1,)
            for nxt in released:
                in_deg[nxt] -= 1
                if not in_deg[nxt]:
                    release(nxt)
        self._cyclic = len(rows) != total
        if self._cyclic:
            rows += self._clock_condensation(succ, pred, ends)
        self._rows = rows
        # one join per predecessor: every po one, every cross edge
        return total - len(ends) + len(edges)

    def _clock_condensation(self, succ: Dict[int, List[int]],
                            pred: Dict[int, List[int]],
                            ends: Set[int]) -> List[int]:
        """Clock the rows the merge held back, one SCC at a time in
        Tarjan's reverse emission order, a topological order of the
        condensation; returns them in that order, each SCC's ascending.
        The members of an SCC are hb1-before one another: one clock."""
        proc_of, pos_of = self._proc_of, self._pos_of
        clocks = self._row_clocks
        # every successor of a held row is held: the released rows are
        # down-closed
        held = [row for row, clock in enumerate(clocks) if not clock]

        def successors(row: int):  # po's included, as in the merge
            return succ.get(row) or (() if row + 1 in ends else (row + 1,))

        order: List[int] = []
        for component in reversed(
                strongly_connected_components(held, successors)):
            component.sort()
            clock = [0] * len(self._offsets)
            for row in component:
                joined = pred.get(row, [])
                for other in [row - 1, *joined] if pos_of[row] else joined:
                    if clocks[other]:  # a member of this SCC has none yet
                        clock = list(map(max, clock, clocks[other]))
            for row in component:
                proc = proc_of[row]
                clock[proc] = max(clock[proc], pos_of[row] + 1)
                clocks[row] = clock
            order += component
        # recomputing the frontier bound where no foreign component
        # moved changes nothing, so every held row counts as raised
        self._raised.update(order)
        return order

    @property
    def row_clocks(self) -> List[List[int]]:
        """Each processor-major row's vector clock (do not mutate)."""
        self._clock()
        return self._row_clocks

    @property
    def proc_of(self) -> List[int]:
        """Each row's processor."""
        self._clock()
        return self._proc_of

    @property
    def pos_of(self) -> List[int]:
        """Each row's position on its processor."""
        self._clock()
        return self._pos_of

    @property
    def cyclic(self) -> bool:
        """True when the relation has a cycle (section 3.1): then no
        order of the events is a linearization of it."""
        self._clock()
        return self._cyclic

    def walk(self, half: Optional[str] = None) -> List[_Run]:
        """The rows of one location half (``"data"``, ``"sync"``, or
        every row for ``None``; see :mod:`repro.core.races`), in sweep
        order, cut into runs ``(latest, rows)``.

        A run starts where some event since the half's previous row,
        the other half's rows included, had its join raise a foreign
        clock component; ``latest`` is then every processor's latest
        clock at the run's first row.  Both halves are cut in one pass
        over the linearization, so together they visit each row once.
        """
        if half not in self._walks:
            self._clock()
            if half is None:
                half_of = [None] * len(self._rows)
            else:
                trace, data = self.trace, self.trace.data_locations()
                columns = getattr(trace, "columns", None)
                if columns is not None:
                    tag, addr = columns.tag, columns.addr
                    half_of = [HALVES[tag[row] != _TAG_COMP
                                      and addr[row] not in data]
                               for row in range(len(self._rows))]
                else:
                    half_of = [HALVES[isinstance(event, SyncEvent)
                                      and event.addr not in data]
                               for event in trace.all_events()]
            runs = {name: [(None, [])] for name in set(half_of)}
            latest = [[0] * len(self._offsets)] * len(self._offsets)
            owing: Set[Optional[str]] = set()
            proc_of, clocks = self._proc_of, self._row_clocks
            for row in self._rows:
                latest[proc_of[row]] = clocks[row]
                if row in self._raised:
                    owing = set(runs)
                name = half_of[row]
                if name in owing:
                    owing.discard(name)
                    runs[name].append((latest[:], [row]))
                else:
                    runs[name][-1][1].append(row)
            self._walks.update(runs)
        return self._walks.get(half, [])

    def positions(self) -> Iterator[Tuple[int, int, int, List[int]]]:
        """``(row, proc, pos, clock)`` of every event, in the order the
        clocks were swept in (a linearization of hb1; do not mutate the
        clocks)."""
        proc_of, pos_of, clocks = self.proc_of, self.pos_of, self.row_clocks
        for row in self._rows:
            yield row, proc_of[row], pos_of[row], clocks[row]

    @property
    def order(self) -> List[EventId]:
        """Every event, in the order the clocks were swept in."""
        return [EventId(proc, pos) for _, proc, pos, _ in self.positions()]

    def clocks(self) -> Iterator[Tuple[EventId, List[int]]]:
        """Every event with its vector clock, in :attr:`order` (do not
        mutate the clocks)."""
        return ((EventId(proc, pos), clock)
                for _, proc, pos, clock in self.positions())

    def row_of(self, eid: EventId) -> int:
        """The event's processor-major row."""
        self._clock()
        return self._offsets[eid.proc] + eid.pos

    def clock_of(self, eid: EventId) -> List[int]:
        """The event's vector clock (do not mutate)."""
        return self.row_clocks[self._offsets[eid.proc] + eid.pos]

    def ordered(self, a: EventId, b: EventId) -> bool:
        """True iff ``a hb1 b`` — the O(1) epoch test: b has seen a's
        own component (a's clock then flows into b's pointwise, so the
        full comparison is redundant)."""
        if a == b:
            return False
        return self.clock_of(b)[a.proc] >= a.pos + 1

    def unordered(self, a: EventId, b: EventId) -> bool:
        """True iff neither ``a hb1 b`` nor ``b hb1 a`` — the condition
        under which conflicting events race (Definition 2.4)."""
        return not self.ordered(a, b) and not self.ordered(b, a)
