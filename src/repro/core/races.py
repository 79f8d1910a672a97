"""Event-level race detection (Definition 2.4 lifted to events, §4.1).

A race is a pair of events that conflict on some location and are not
ordered by hb1.  It is a *data* race when at least one side is a
computation (data) event; a race between two synchronization events is
detected but flagged, since Definition 2.4 excludes it from data races.

On an acyclic hb1 the race set comes from one :class:`FrontierSweep`
over the vector-clock backend's topological order: each access is
tested only against the per-location accesses some other processor has
not yet seen, not against every earlier conflicting access.  It walks
integer rows (:meth:`~repro.core.hb1_vc.VectorClockHB1.walk`), reading
access sets by row (:meth:`Trace.accesses_by_row`), and builds event
ids only for race endpoints.  The streaming detector drives the same
kernel.  A cyclic hb1 (section 3.1) has no such order and falls back to
closure queries over every conflicting cross-processor pair.

Either sweep can run over one *half* of the locations: the data half
(every location some computation event reads or writes) or the sync
half (every other location).  A race with a computation event conflicts
only on data locations, and a synchronization event touches exactly one
location, so no race spans the halves: their race sets are disjoint,
their sorted union is the full sweep's, and their tested-pair counts
add up to its count.  Every data race lies in the data half, so a
race-free verdict needs only that half (Definition 2.4, Theorem 4.1).
A half's frontier sweep visits only its own rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .. import obs
from ..trace.build import Trace
from ..trace.events import EventId
from .hb1 import HappensBefore1
from .hb1_vc import HALVES, VectorClockHB1


@dataclass(frozen=True)
class EventRace:
    """An unordered conflicting event pair ``<a, b>`` (a < b canonically).

    ``locations`` lists every location the pair conflicts on; a single
    event-level race may stand for many lower-level operation races
    (section 4.1 of the paper).
    """

    a: EventId
    b: EventId
    locations: Tuple[int, ...]
    is_data_race: bool

    @property
    def events(self) -> Tuple[EventId, EventId]:
        return (self.a, self.b)

    @property
    def signature(self) -> str:
        """Stable text key for one race (``P0.E3~P1.E2``) — how the CLI
        names a race across runs of the same trace."""
        return f"{self.a}~{self.b}"

    def involves(self, eid: EventId) -> bool:
        return eid == self.a or eid == self.b

    def describe(self, trace: Optional[Trace] = None, max_names: int = 6) -> str:
        if trace is None:
            names = [str(addr) for addr in self.locations]
        else:
            names = [trace.addr_name(addr) for addr in self.locations]
        if len(names) > max_names:
            extra = len(names) - max_names
            names = names[:max_names] + [f"+{extra} more"]
        locs = ",".join(names)
        kind = "data race" if self.is_data_race else "sync race"
        return f"<{self.a}, {self.b}> on {{{locs}}} ({kind})"


def _accesses_by_location(
    trace: Trace,
) -> Tuple[Dict[int, List[EventId]], Dict[int, List[EventId]]]:
    """Index events by the locations they read and write."""
    readers: Dict[int, List[EventId]] = {}
    writers: Dict[int, List[EventId]] = {}
    for proc, proc_events in enumerate(trace.events):
        for pos in range(len(proc_events)):
            eid = EventId(proc, pos)
            _, reads, writes = trace.accesses(eid)
            for addr in reads:
                readers.setdefault(addr, []).append(eid)
            for addr in writes:
                writers.setdefault(addr, []).append(eid)
    return readers, writers


# (proc, pos, is_computation) of one remembered access
_Access = Tuple[int, int, bool]


class FrontierSweep:
    """The per-location frontier race sweep, shared by the post-mortem
    (:func:`find_races`) and online (:mod:`repro.core.streaming`)
    detectors.

    Events are fed in a linearization of hb1 — every event after all
    events hb1-before it — each with its vector clock.  In such an
    order the later event ``b`` of a pair can never be hb1-before the
    earlier ``a``, so the single epoch test ``clock_b[a.proc] <
    a.pos+1`` decides unorderedness exactly.  Per location the sweep
    remembers only the writers and readers some other processor has
    not yet seen: an access ``(q, pos)`` is dropped once every other
    processor's latest clock has component ``>= pos+1``, because every
    later event is then hb1-after it and no new race can involve it.

    ``clock[p]`` is the clock of processor p's latest event.  Callers
    bring it up to date and call :meth:`recompute_min` before scanning
    an event when some clock has gained a foreign component (a
    synchronization join) since the last recompute.
    """

    def __init__(self, processor_count: int) -> None:
        self.nproc = processor_count
        self.clock = [[0] * processor_count for _ in range(processor_count)]
        # addr -> accesses not yet seen by every processor
        self.writers: Dict[int, List[_Access]] = {}
        self.readers: Dict[int, List[_Access]] = {}
        # min over r != q of clock[r][q]; entries below it are settled
        self.global_min: List[float] = [
            float("inf") if processor_count == 1 else 0
        ] * processor_count
        # canonical (a, b) eid tuples -> (locations, is_data_race)
        self.races: Dict[
            Tuple[Tuple[int, int], Tuple[int, int]], Tuple[Set[int], bool]
        ] = {}
        self.retained = 0
        self.retained_peak = 0
        self.pruned = 0
        self.tested = 0

    def recompute_min(self) -> None:
        clock = self.clock
        if self.nproc > 1:
            self.global_min = [min([c[q] for c in clock[:q] + clock[q + 1:]])
                               for q in range(self.nproc)]

    def _scan_list(self, index: Dict[int, List[_Access]], addr: int,
                   proc: int, pos: int, is_comp: bool,
                   clock: List[int]) -> None:
        entries = index.get(addr)
        if not entries:
            return
        gm = self.global_min
        keep = []
        tested = 0
        for entry in entries:
            q, qpos, q_comp = entry
            if gm[q] > qpos:
                # every other processor has seen (q, qpos): hb1-ordered
                # before all current and future events, drop it
                continue
            keep.append(entry)
            if q == proc:
                continue  # same-processor pairs are po-ordered
            tested += 1
            if clock[q] <= qpos:
                a, b = (q, qpos), (proc, pos)
                if b < a:
                    a, b = b, a
                race = self.races.get((a, b))
                if race is None:
                    self.races[(a, b)] = ({addr}, q_comp or is_comp)
                else:
                    race[0].add(addr)
        self.tested += tested
        dropped = len(entries) - len(keep)
        if dropped:
            self.pruned += dropped
            self.retained -= dropped
            index[addr] = keep

    def access(self, proc: int, pos: int, is_comp: bool,
               reads: Iterable[int], writes: Iterable[int],
               clock: List[int]) -> None:
        """Race-scan one event against the frontier, then remember it.
        Writer×writer and writer×reader pairs only."""
        # both sets are walked twice (scan, then remember) — a one-shot
        # iterator (e.g. a columnar bitset decoder) must be materialized,
        # and through its iterator: tuple() of a BitVector would first
        # count its bits for a length hint
        if type(reads) is not tuple:
            reads = tuple(iter(reads))
        if type(writes) is not tuple:
            writes = tuple(iter(writes))
        for addr in writes:
            self._scan_list(self.writers, addr, proc, pos, is_comp, clock)
            self._scan_list(self.readers, addr, proc, pos, is_comp, clock)
        for addr in reads:
            self._scan_list(self.writers, addr, proc, pos, is_comp, clock)
        entry = (proc, pos, is_comp)
        for addr in writes:
            self.writers.setdefault(addr, []).append(entry)
        for addr in reads:
            self.readers.setdefault(addr, []).append(entry)
        self.retained += len(writes) + len(reads)
        if self.retained > self.retained_peak:
            self.retained_peak = self.retained

    def finish(self) -> List[EventRace]:
        """The races found so far, sorted by ``(a, b)``; each endpoint's
        event id is built once."""
        ids: Dict[Tuple[int, int], EventId] = {}
        races = []
        for (a, b), (locations, is_data) in sorted(self.races.items()):
            eid_a = ids.get(a) or ids.setdefault(a, EventId(*a))
            eid_b = ids.get(b) or ids.setdefault(b, EventId(*b))
            races.append(EventRace(eid_a, eid_b, tuple(sorted(locations)),
                                   is_data))
        return races


def find_races(trace: Trace, hb: Optional[HappensBefore1] = None,
               half: Optional[str] = None) -> List[EventRace]:
    """All races of *trace*: conflicting, hb1-unordered event pairs.

    Returns races sorted by (a, b) for determinism.  Pass a prebuilt
    :class:`HappensBefore1` to avoid rebuilding the relation (races are
    then decided by closure queries, which also works on a cyclic
    hb1); pass a :class:`~repro.core.hb1_vc.VectorClockHB1` to run the
    :class:`FrontierSweep` over its topological order and clocks
    instead.  The two are differentially tested to report identical
    races.  With *half* (``"data"`` or ``"sync"``) only the races on
    that half's locations are swept.
    """
    if half is not None and half not in HALVES:
        raise ValueError(f"unknown location half {half!r}")
    hb = hb or HappensBefore1(trace)
    with obs.span("races.find") as _sp:
        if isinstance(hb, VectorClockHB1):
            sweep = FrontierSweep(trace.processor_count)
            visited = _find_races_frontier(trace, hb, sweep, half)
            races, tested = sweep.finish(), sweep.tested
        else:
            races, tested = _find_races(trace, hb, half)
            visited = 0
        if _sp.enabled:
            # pairs_tested counts the ordering queries actually made
            _sp.add("pairs_tested", tested)
            _sp.add("pairs_reported", len(races))
            _sp.add("data_races", sum(1 for r in races if r.is_data_race))
            _sp.add("rows_visited", visited)
    return races


def _find_races_frontier(trace: Trace, vc: VectorClockHB1,
                         sweep: FrontierSweep,
                         half: Optional[str] = None) -> int:
    """Feed the rows of one location half (every row for ``None``) to
    *sweep* in hb1 order; returns the rows visited."""
    accesses = trace.accesses_by_row()
    access, proc_of, pos_of = sweep.access, vc.proc_of, vc.pos_of
    clocks = vc.row_clocks
    visited = 0
    for latest, rows in vc.walk(half):
        if latest is not None:
            # The frontier bound is settled only where a scan reads it;
            # its value there, and so every pruning and test, is the
            # full sweep's.
            sweep.clock = latest
            sweep.recompute_min()
        for row in rows:
            is_comp, reads, writes = accesses(row)
            access(proc_of[row], pos_of[row], is_comp, reads, writes,
                   clocks[row])
        visited += len(rows)
    return visited


def _find_races(
    trace: Trace, hb: HappensBefore1, half: Optional[str] = None
) -> Tuple[List[EventRace], int]:
    """Closure-query sweep over every conflicting cross-processor pair:
    the fallback for a cyclic hb1 (section 3.1), where no topological
    order, and so no frontier sweep, exists."""
    readers, writers = _accesses_by_location(trace)
    if half:
        data = trace.data_locations()
        want_data = half == "data"
        writers = {addr: events for addr, events in writers.items()
                   if (addr in data) == want_data}

    # Hot path: for each location, every writer x (writer or reader)
    # pair is a conflict; a pair is a race iff hb1-unordered.  Ordered
    # pairs are remembered so multi-location conflicts don't re-query.
    closure = hb.closure
    index_of = closure.index_of
    ordered_index = closure.ordered_index
    dense: Dict[EventId, int] = {}

    def didx(eid: EventId) -> int:
        i = dense.get(eid)
        if i is None:
            i = index_of(eid)
            dense[eid] = i
        return i

    racing: Dict[Tuple[EventId, EventId], List[int]] = {}
    settled_ordered: Set[Tuple[EventId, EventId]] = set()

    def note(x: EventId, y: EventId, addr: int) -> None:
        key = (x, y) if x < y else (y, x)
        bucket = racing.get(key)
        if bucket is not None:
            bucket.append(addr)
            return
        if key in settled_ordered:
            return
        i, j = didx(key[0]), didx(key[1])
        if ordered_index(i, j) or ordered_index(j, i):
            settled_ordered.add(key)
        else:
            racing[key] = [addr]

    for addr, writer_list in writers.items():
        reader_list = readers.get(addr, [])
        for i, w in enumerate(writer_list):
            # same-processor events are always po-ordered: skip them
            for other in writer_list[i + 1:]:
                if other.proc != w.proc:
                    note(w, other, addr)
            for r in reader_list:
                if r.proc != w.proc:
                    note(w, r, addr)

    races = [
        EventRace(
            a=a,
            b=b,
            locations=tuple(sorted(set(locations))),
            is_data_race=trace.accesses(a)[0] or trace.accesses(b)[0],
        )
        for (a, b), locations in racing.items()
    ]
    races.sort(key=lambda race: (race.a, race.b))
    # each distinct conflicting pair is queried once
    return races, len(racing) + len(settled_ordered)


def data_races(races: List[EventRace]) -> List[EventRace]:
    """Filter to data races (Definition 2.4)."""
    return [race for race in races if race.is_data_race]
