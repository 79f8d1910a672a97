"""An alternative happens-before-1 backend using vector clocks.

The default :class:`~repro.core.hb1.HappensBefore1` answers ordering
queries with a transitive closure over the event graph.  Real
post-mortem tools more often assign each event a vector clock in one
linear pass: ``a hb1 b`` iff ``clock(a) <= clock(b)`` pointwise with
``a != b`` (per-processor components count events issued).  That is
O(V·P) space instead of O(V²/64) and answers queries in O(P).

The pass builds no graph.  Events are numbered by processor-major
*row* (``offset[proc] + pos``), po is implicit, and a FIFO Kahn merge
over rows, releasing each event's successors in row order, linearizes
po ∪ the relation's cross-processor edges exactly as
:func:`~repro.graph.topological_sort` orders the event graph.  Each
clock, a plain list, joins the event's predecessors' and sets its own
component to ``pos + 1``; :meth:`VectorClockHB1.positions` hands both,
in that order, to the frontier race sweep of :mod:`repro.core.races`.

Vector clocks require an *acyclic* hb1 — true for every execution our
simulator produces (its sync operations are sequentially consistent)
but not guaranteed by the paper for arbitrary weak machines (§3.1).
When the merge stalls on a cycle ``VectorClockHB1`` raises
:class:`CyclicHB1Error`; callers that must handle arbitrary traces use
the closure backend.  The two backends are differentially tested for
equality on every acyclic trace.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, Iterator, List, Optional, Tuple

from .. import obs
from ..trace.build import Trace
from ..trace.events import EventId
from .hb1 import HappensBefore1

#: canonical cross-processor event pairs -> their conflict locations
_Pairs = Dict[Tuple[EventId, EventId], Tuple[int, ...]]


class CyclicHB1Error(ValueError):
    """hb1 has a cycle; vector clocks cannot represent it."""


class VectorClockHB1:
    """Event vector clocks computed in one positional sweep.

    Exposes the same ``ordered`` / ``unordered`` query interface as
    :class:`HappensBefore1` so the two are interchangeable for race
    detection on acyclic traces.  Pass a prebuilt ``base`` relation to
    reuse its edges instead of re-pairing so1 — including a
    *subclassed* relation (the predictive SHB/WCP backends pass their
    modified edge sets through here to reuse the same sweep).

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
        with obs.span("hb1.vc_sweep") as sp:
            joins = self._sweep(base.cross_edges())
            if track_variables:
                self._adjacent = self._sweep_variables(self.order)
            if sp.enabled:
                sp.add("events", len(self._rows))
                sp.add("clock_joins", joins)
                if track_variables:
                    sp.add("adjacent_pairs", len(self._adjacent))

    def _sweep(self, edges: List[Tuple[EventId, EventId]]) -> int:
        """Kahn merge over rows, clocking each event as it is released;
        returns the clock joins made (one per predecessor)."""
        counts = [len(proc_events) for proc_events in self.trace.events]
        nproc, total = len(counts), sum(counts)
        #: row of each processor's first event
        self._offsets = offsets = [0, *accumulate(counts)][:-1]
        proc_of = [proc for proc, count in enumerate(counts)
                   for _ in range(count)]
        pos_of = [pos for count in counts for pos in range(count)]
        # one past each processor's last row: no po successor there
        ends = {offset + count
                for offset, count in zip(offsets, counts) if count}
        in_deg = [int(pos > 0) for pos in pos_of]
        succ: Dict[int, List[int]] = {}
        pred: Dict[int, List[int]] = {}
        for src, dst in edges:
            s = offsets[src.proc] + src.pos
            d = offsets[dst.proc] + dst.pos
            succ.setdefault(s, []).append(d)
            pred.setdefault(d, []).append(s)
            in_deg[d] += 1
        for row, released in succ.items():  # with po's, in row order
            if row + 1 not in ends:
                released.append(row + 1)
            released.sort()
        # The release order is the FIFO queue itself: rows are appended
        # as their last predecessor is released and read back in turn.
        rows = [row for row in range(total) if not in_deg[row]]
        clocks: List[List[int]] = [[]] * total
        joins = total - len(ends)  # every po predecessor
        for row in rows:
            pos = pos_of[row]
            clock = clocks[row - 1][:] if pos else [0] * nproc
            joined = pred.get(row, ())
            for other in joined:
                clock = list(map(max, clock, clocks[other]))
            joins += len(joined)
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
                    rows.append(nxt)
        if len(rows) != total:
            raise CyclicHB1Error(
                "hb1 contains a cycle (weak sync ordering, section "
                "3.1); use the transitive-closure backend"
            )
        self._rows, self._clocks = rows, clocks
        self._proc_of, self._pos_of = proc_of, pos_of
        return joins

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
        proc_of, pos_of, clocks = self._proc_of, self._pos_of, self._clocks
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
        return self._clocks[self._offsets[eid.proc] + eid.pos]

    def ordered(self, a: EventId, b: EventId) -> bool:
        """True iff ``a hb1 b`` — the O(1) epoch test: b has seen a's
        own component (a's clock then flows into b's pointwise, so the
        full comparison is redundant)."""
        if a == b:
            return False
        return self.clock_of(b)[a.proc] >= a.pos + 1

    def unordered(self, a: EventId, b: EventId) -> bool:
        return not self.ordered(a, b) and not self.ordered(b, a)
