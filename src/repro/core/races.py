"""Event-level race detection (Definition 2.4 lifted to events, §4.1).

A race is a pair of events that conflict on some location and are not
ordered by hb1.  It is a *data* race when at least one side is a
computation (data) event; a race between two synchronization events is
detected but flagged, since Definition 2.4 excludes it from data races.

The race set comes from one :class:`FrontierSweep` over the order hb1
clocked its events in, a topological order of hb1's SCC condensation
(on an acyclic hb1, of hb1 itself): each access is tested only against
the per-location accesses some other processor has not yet seen, not
against every earlier conflicting access.  It walks integer rows
(:meth:`~repro.core.hb1.HappensBefore1.walk`),
reading access sets by row (:meth:`Trace.accesses_by_row`), and builds
event ids only for race endpoints.  The streaming detector drives the
same kernel.

The sweep can run over one *half* of the locations: the data half
(every location some computation event reads or writes) or the sync
half (every other location).  A race with a computation event conflicts
only on data locations, and a synchronization event touches exactly one
location, so no race spans the halves: their race sets are disjoint,
their sorted union is the full sweep's, and their tested-pair counts
add up to its count.  Every data race lies in the data half, so a
race-free verdict needs only that half (Definition 2.4, Theorem 4.1).
A half's sweep visits only its own rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .. import obs
from ..trace.build import Trace
from ..trace.events import EventId
from .hb1 import HALVES, HappensBefore1


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


# (proc, pos, is_computation) of one remembered access
_Access = Tuple[int, int, bool]


class FrontierSweep:
    """The per-location frontier race sweep, shared by the post-mortem
    (:func:`find_races`) and online (:mod:`repro.core.streaming`)
    detectors.

    Events are fed in a linearization of hb1's SCC condensation — every
    event after all events hb1-before it but the members of its own
    SCC — each with its vector clock.  In such an order the later event
    ``b`` of a pair is hb1-before the earlier ``a`` only when both share
    an SCC, and then ``a`` is hb1-before ``b`` too, so the single epoch
    test ``clock_b[a.proc] < a.pos+1`` decides unorderedness exactly.  Per location the sweep
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

    def run(self, trace: Trace, hb: HappensBefore1,
            half: Optional[str] = None) -> int:
        """Feed the rows of one location half (every row for ``None``)
        in the order *hb* clocked them; returns the rows visited."""
        accesses = trace.accesses_by_row()
        access, proc_of, pos_of = self.access, hb.proc_of, hb.pos_of
        clocks = hb.row_clocks
        visited = 0
        for latest, rows in hb.walk(half):
            if latest is not None:
                # The frontier bound is settled only where a scan reads
                # it; its value there, and so every pruning and test, is
                # the full sweep's.
                self.clock = latest
                self.recompute_min()
            for row in rows:
                is_comp, reads, writes = accesses(row)
                access(proc_of[row], pos_of[row], is_comp, reads, writes,
                       clocks[row])
            visited += len(rows)
        return visited


def find_races(trace: Trace, hb: Optional[HappensBefore1] = None,
               half: Optional[str] = None) -> List[EventRace]:
    """All races of *trace*: conflicting, hb1-unordered event pairs.

    Returns races sorted by (a, b) for determinism.  Pass a prebuilt
    :class:`HappensBefore1` (or subclass) to reuse its clocks.  With
    *half* (``"data"`` or ``"sync"``) only the races on that half's
    locations are swept.
    """
    if half is not None and half not in HALVES:
        raise ValueError(f"unknown location half {half!r}")
    if hb is None:
        hb = HappensBefore1(trace)
    hb.row_clocks  # clock first: hb1.vc_sweep is not race-sweep time
    with obs.span("races.find") as _sp:
        sweep = FrontierSweep(trace.processor_count)
        visited = sweep.run(trace, hb, half)
        races = sweep.finish()
        if _sp.enabled:
            # pairs_tested counts the epoch tests actually made
            _sp.add("pairs_tested", sweep.tested)
            _sp.add("pairs_reported", len(races))
            _sp.add("data_races", sum(1 for r in races if r.is_data_race))
            _sp.add("rows_visited", visited)
    return races


def data_races(races: List[EventRace]) -> List[EventRace]:
    """Filter to data races (Definition 2.4)."""
    return [race for race in races if race.is_data_race]
