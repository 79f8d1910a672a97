"""An alternative happens-before-1 backend using vector clocks.

The default :class:`~repro.core.hb1.HappensBefore1` answers ordering
queries with a transitive closure over the event graph.  Real
post-mortem tools more often assign each event a vector clock in one
topological sweep: ``a hb1 b`` iff ``clock(a) <= clock(b)`` pointwise
with ``a != b`` (per-processor components count events issued).  That
is O(V·P) space instead of O(V²/64) and answers queries in O(P).

The clocks live in a V×P ``int64`` numpy matrix (one row per event in
topological order) when numpy is available: each event's row is the
``np.maximum`` join of its predecessors' rows — one vectorized call per
edge instead of a Python component loop.  Without numpy the clocks are
plain per-event lists.  Either way :meth:`VectorClockHB1.clocks` hands
the events and their clocks, in that topological order, to the
frontier race sweep of :mod:`repro.core.races`.

Vector clocks require an *acyclic* hb1 — true for every execution our
simulator produces (its sync operations are sequentially consistent)
but not guaranteed by the paper for arbitrary weak machines (§3.1).
``VectorClockHB1`` therefore refuses cyclic inputs with
:class:`CyclicHB1Error`; callers that must handle arbitrary traces use
the closure backend.  The two backends are differentially tested for
equality on every acyclic trace.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from .. import obs
from ..graph import CycleError, topological_sort
from ..trace.build import Trace
from ..trace.events import EventId
from .hb1 import HappensBefore1

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is a declared dependency
    _np = None


class CyclicHB1Error(ValueError):
    """hb1 has a cycle; vector clocks cannot represent it."""


class VectorClockHB1:
    """Event vector clocks computed in one topological sweep.

    Exposes the same ``ordered`` / ``unordered`` query interface as
    :class:`HappensBefore1` so the two are interchangeable for race
    detection on acyclic traces.  Pass a prebuilt ``base`` relation to
    reuse its graph instead of rebuilding po/so1 edges — including a
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
        self.graph = base.graph
        self.po_edges = base.po_edges
        self.so1_edges = base.so1_edges

        nproc = trace.processor_count
        self._clocks: Dict[EventId, List[int]] = {}
        self._matrix = None
        self._row_of: Dict[EventId, int] = {}
        self._adjacent: Optional[
            Dict[Tuple[EventId, EventId], Tuple[int, ...]]
        ] = None
        with obs.span("hb1.vc_sweep") as sp:
            try:
                order = topological_sort(self.graph)
            except CycleError as exc:
                raise CyclicHB1Error(
                    "hb1 contains a cycle (weak sync ordering, section "
                    "3.1); use the transitive-closure backend"
                ) from exc
            #: every event, in the topological order the clocks were
            #: swept in (a linearization of hb1)
            self.order: List[EventId] = order
            if _np is not None:
                joins = self._sweep_matrix(order, nproc)
            else:  # pragma: no cover - exercised via forced fallback tests
                joins = self._sweep_python(order, nproc)
            if track_variables:
                self._adjacent = self._sweep_variables(order)
            if sp.enabled:
                sp.add("events", len(order))
                sp.add("clock_joins", joins)
                if track_variables:
                    sp.add("adjacent_pairs", len(self._adjacent))

    def _sweep_matrix(self, order: List[EventId], nproc: int) -> int:
        """Clock matrix sweep: row i is event order[i]'s vector clock."""
        row_of = self._row_of
        for i, eid in enumerate(order):
            row_of[eid] = i
        matrix = _np.zeros((max(len(order), 1), nproc), dtype=_np.int64)
        if order:
            # Own components set vectorized up front: a same-processor
            # predecessor's own component is always smaller (pos' < pos),
            # so the maximum joins below can never overwrite them.
            procs = _np.fromiter(
                (e.proc for e in order), dtype=_np.intp, count=len(order)
            )
            poss = _np.fromiter(
                (e.pos for e in order), dtype=_np.int64, count=len(order)
            )
            matrix[_np.arange(len(order)), procs] = poss + 1
        predecessors = self.graph.predecessors
        maximum = _np.maximum
        joins = 0
        for i, eid in enumerate(order):
            row = matrix[i]
            for pred in predecessors(eid):
                maximum(row, matrix[row_of[pred]], out=row)
                joins += 1
        self._matrix = matrix
        return joins

    def _sweep_python(self, order: List[EventId], nproc: int) -> int:
        joins = 0
        for eid in order:
            clock = [0] * nproc
            for pred in self.graph.predecessors(eid):
                pred_clock = self._clocks[pred]
                for i in range(nproc):
                    if pred_clock[i] > clock[i]:
                        clock[i] = pred_clock[i]
                joins += 1
            clock[eid.proc] = eid.pos + 1  # this event's own position
            self._clocks[eid] = clock
        return joins

    def _sweep_variables(
        self, order: List[EventId]
    ) -> Dict[Tuple[EventId, EventId], Tuple[int, ...]]:
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
    def clock_matrix(self):
        """The V×P int64 clock matrix, row i the clock of
        ``order[i]`` (None when numpy is unavailable)."""
        return self._matrix

    @property
    def adjacent_conflicts(
        self,
    ) -> Optional[Dict[Tuple[EventId, EventId], Tuple[int, ...]]]:
        """Adjacent conflicting cross-processor pairs from the
        per-variable last-write/last-read sweep (canonical ``(a, b)``
        with ``a < b`` mapped to conflict locations), or ``None`` when
        the sweep ran without ``track_variables``."""
        return self._adjacent

    def clocks(self) -> Iterator[Tuple[EventId, List[int]]]:
        """Every event with its vector clock, in :attr:`order` (do not
        mutate the clocks)."""
        if self._matrix is not None:
            return zip(self.order, map(_np.ndarray.tolist, self._matrix))
        return ((eid, self._clocks[eid]) for eid in self.order)

    def clock_of(self, eid: EventId) -> List[int]:
        """The event's vector clock (do not mutate)."""
        if self._matrix is not None:
            return self._matrix[self._row_of[eid]].tolist()
        return self._clocks[eid]

    def ordered(self, a: EventId, b: EventId) -> bool:
        """True iff ``a hb1 b`` — the O(1) epoch test: b has seen a's
        own component (a's clock then flows into b's pointwise, so the
        full comparison is redundant)."""
        if a == b:
            return False
        if self._matrix is not None:
            return bool(self._matrix[self._row_of[b], a.proc] >= a.pos + 1)
        return self._clocks[b][a.proc] >= self._clocks[a][a.proc]

    def unordered(self, a: EventId, b: EventId) -> bool:
        return not self.ordered(a, b) and not self.ordered(b, a)

    def is_partial_order(self) -> bool:
        return True  # construction rejected cyclic inputs
