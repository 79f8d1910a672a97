"""The happens-before-1 relation as event vector clocks.

:class:`~repro.core.hb1.HappensBefore1` pairs so1 and answers ordering
queries with a transitive closure over the event graph.  Race
detection instead assigns each event a vector clock in one linear
pass, as real post-mortem tools do: component ``q`` of an event's
clock counts processor q's events in its hb1 past (itself included),
so ``a hb1 b`` iff ``clock(b)[a.proc] > a.pos`` with ``a != b``.  That
is O(V·P) space instead of O(V²/64) and answers queries in O(1).

The pass builds no graph.  Events are numbered by processor-major
*row* (``offset[proc] + pos``), po is implicit, and a FIFO Kahn merge
over rows, releasing each event's successors in row order, linearizes
po ∪ the relation's cross-processor row edges
(:meth:`~repro.core.hb1.HappensBefore1.cross_rows`) exactly as
:func:`~repro.graph.topological_sort` orders the event graph.  Each
clock, a plain list, copies its po predecessor's, joins each cross
predecessor it has not yet seen (a seen one's clock is already below
it) and sets its own component to ``pos + 1``; the sweep notes the rows
whose join raised a foreign component.  :meth:`VectorClockHB1.walk`
cuts the linearization into one row list per location half, each run
headed by the clocks the frontier race sweep of :mod:`repro.core.races`
recomputes its bound from; the post-mortem and trace-fed streaming
detectors both sweep those rows.

On a weak machine so1, and so hb1, may contain cycles (section 3.1).
The merge then stalls, and the rows it held back are clocked over
their SCC condensation, one clock per SCC (:attr:`VectorClockHB1.cyclic`
says so).  An event's hb1 past on one processor is a po-prefix, cycles
or not, so the same test decides every query; and in the sweep order a
later event is hb1-before an earlier one only inside one SCC, whose
events are ordered both ways and never race.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .. import obs
from ..graph.scc import strongly_connected_components
from ..trace.build import Trace
from ..trace.columnar import _TAG_COMP
from ..trace.events import EventId, SyncEvent
from .hb1 import HappensBefore1

#: canonical cross-processor event pairs -> their conflict locations
_Pairs = Dict[Tuple[EventId, EventId], Tuple[int, ...]]
#: a run of rows, headed by every processor's latest clock when the
#: frontier bound must be recomputed before its first row, else None
_Run = Tuple[Optional[List[List[int]]], List[int]]
#: The location halves a race sweep can be restricted to (see
#: :mod:`repro.core.races`).
HALVES = ("data", "sync")


class VectorClockHB1:
    """Event vector clocks computed in one positional sweep.

    Exposes the same ``ordered`` / ``unordered`` query interface as
    :class:`HappensBefore1`, with the same answers, cyclic relations
    included.  Pass a prebuilt ``base`` relation to reuse its edges
    instead of re-pairing so1 — including a *subclassed* relation (the
    predictive SHB/WCP backends pass their modified edge sets through
    here to reuse the same sweep).

    With ``track_variables=True`` the sweep additionally maintains
    per-variable last-write / last-read *epoch* state in topological
    order: for every location, the most recent write event and the
    reads issued since it.  The resulting :attr:`adjacent_conflicts`
    set — each event paired with the latest conflicting accesses it
    supersedes — is exactly the candidate set a streaming per-variable
    detector checks, and is what makes the SHB backend's multi-race
    reports *sound* (Mathur et al. 2018 prove predictability only for
    races detected against the last write / reads-since-last-write).
    """

    def __init__(
        self,
        trace: Trace,
        base: Optional[HappensBefore1] = None,
        track_variables: bool = False,
    ) -> None:
        self.trace = trace
        if base is None:
            base = HappensBefore1(trace)
        self._adjacent: Optional[_Pairs] = None
        self._walks: Dict[Optional[str], List[_Run]] = {}
        with obs.span("hb1.vc_sweep") as sp:
            joins = self._sweep(base.cross_rows())
            if track_variables:
                self._adjacent = self._sweep_variables(self.order)
            if sp.enabled:
                sp.add("events", len(self._rows))
                sp.add("clock_joins", joins)
                if track_variables:
                    sp.add("adjacent_pairs", len(self._adjacent))

    def _sweep(self, edges: List[Tuple[int, int]]) -> int:
        """Kahn merge over rows, clocking each event as it is released,
        then any rows a cycle held back over their SCC condensation;
        returns the clock joins made (one per predecessor)."""
        counts = [len(proc_events) for proc_events in self.trace.events]
        nproc, total = len(counts), sum(counts)
        #: row of each processor's first event
        self._offsets = offsets = [0, *accumulate(counts)][:-1]
        #: each row's processor and position
        self.proc_of: List[int] = []
        self.pos_of: List[int] = []
        for proc, count in enumerate(counts):
            self.proc_of += [proc] * count
            self.pos_of += range(count)
        proc_of, pos_of = self.proc_of, self.pos_of
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
        #: each row's vector clock (do not mutate)
        self.row_clocks = clocks = [[]] * total
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
        proc_of, pos_of, clocks = self.proc_of, self.pos_of, self.row_clocks
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
    def cyclic(self) -> bool:
        """True when the relation has a cycle (section 3.1): then no
        order of the events is a linearization of it."""
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
            for row in self._rows:
                latest[self.proc_of[row]] = self.row_clocks[row]
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

    def _sweep_variables(self, order: List[EventId]) -> _Pairs:
        """Per-variable last-write/last-read epoch tracking.

        One pass over the same topological order the clocks were swept
        in: for each location, remember the latest write and the reads
        issued since it, and record every *adjacent* cross-processor
        conflict (an access paired with the latest conflicting accesses
        it supersedes, canonical ``a < b``).  Same-processor pairs are
        po-ordered and skipped.
        """
        last_write: Dict[int, EventId] = {}
        readers_since: Dict[int, List[EventId]] = {}
        pairs: Dict[Tuple[EventId, EventId], List[int]] = {}

        def note(x: EventId, y: EventId, addr: int) -> None:
            if x.proc == y.proc:
                return
            key = (x, y) if x < y else (y, x)
            pairs.setdefault(key, []).append(addr)

        for eid in order:
            _, reads, writes = self.trace.accesses(eid)
            for addr in reads:
                w = last_write.get(addr)
                if w is not None:
                    note(w, eid, addr)
                readers_since.setdefault(addr, []).append(eid)
            for addr in writes:
                w = last_write.get(addr)
                if w is not None:
                    note(w, eid, addr)
                for r in readers_since.get(addr, ()):
                    if r != eid:
                        note(r, eid, addr)
                last_write[addr] = eid
                readers_since[addr] = []
        return {
            key: tuple(sorted(set(addrs))) for key, addrs in pairs.items()
        }

    # ------------------------------------------------------------------
    @property
    def adjacent_conflicts(self) -> Optional[_Pairs]:
        """Adjacent conflicting cross-processor pairs from the
        per-variable last-write/last-read sweep (canonical ``(a, b)``
        with ``a < b`` mapped to conflict locations), or ``None`` when
        the sweep ran without ``track_variables``."""
        return self._adjacent

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
        return not self.ordered(a, b) and not self.ordered(b, a)
