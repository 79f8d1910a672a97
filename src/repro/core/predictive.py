"""Predictive race detection backends: SHB and WCP.

The paper's hb1 detector reports races *observed* unordered in the one
execution at hand, and its multi-race guarantee is partition-shaped:
each first partition holds at least one real race (Theorem 4.2), so a
hunted trace yields roughly one actionable verdict.  Two later lines of
work extend what a single trace can certify, and both bolt directly
onto this repo's event/vector-clock machinery:

* **SHB** — "What Happens-After the First Race?" (Mathur, Kini,
  Viswanathan 2018, see PAPERS.md).  Augment happens-before with
  reads-from edges and re-detect per variable against the last write /
  reads-since-last-write: every race found that way is individually
  *schedulable* (some valid reordering exhibits it), so reporting can
  soundly continue past the first race.  :class:`SHBDetector` keeps the
  hb1 race set and partition analysis bit-identical to the postmortem
  baseline and adds the per-race soundness classification on top — the
  differential guarantee is ``shb.races == hb1.races`` with first
  partitions unchanged, plus ``sound_races`` certified individually.

* **WCP** — "Dynamic Race Prediction in Linear Time" (Kini, Mathur,
  Viswanathan 2017, see PAPERS.md).  Weaken happens-before: a release
  orders a later acquire of the same location only when the two
  critical sections conflict on data.  Orderings that existed only
  because two independent critical sections shared a lock disappear,
  and conflicting accesses they separated become *predicted* races —
  races of a reordering of the observed execution.  The adaptation to
  this trace format is deliberately conservative (critical-section
  windows are widened to the whole processor prefix/suffix when the
  bracketing acquire/release is missing, and any shared access — sync
  or data — on another location counts as a conflict), so an edge is
  only dropped when the sections demonstrably touch disjoint data.
  WCP's soundness guarantee covers the *first* race it reports; later
  predicted races are candidates, and the report labels them so.

Both relations subclass :class:`~repro.core.hb1.HappensBefore1` and
change only its edges, so the clocks, cyclic relations included, and
the frontier race sweep are shared, not duplicated.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate
from typing import Dict, List, Set, Tuple

from .. import obs
from ..trace.build import Trace
from ..machine.operations import SyncRole
from ..trace.events import EventId, SyncEvent
from .hb1 import HappensBefore1
from .races import EventRace, find_races
from .report import RaceReport


class ScheduleHappensBefore(HappensBefore1):
    """hb1 plus reads-from edges — the SHB relation of Mathur et al.

    hb1 pairs a release with a later acquire (Definition 2.1); SHB
    additionally orders every synchronization read after the most
    recent value-matched synchronization write of its location
    (role-agnostic), approximating the reads-from relation with exactly
    the information the trace records (per-location sync order plus
    values, section 4.1).  The extra edges only strengthen the order,
    so SHB-unordered pairs are a subset of hb1-unordered pairs — which
    is why the SHB backend *classifies* the hb1 race set instead of
    shrinking it.
    """

    def __init__(self, trace: Trace) -> None:
        self.rf_edges: List[Tuple[EventId, EventId]] = []
        super().__init__(trace)

    def _pair_location(self, addr: int, order: List[EventId]) -> None:
        paired = len(self.so1_edges)
        super()._pair_location(addr, order)
        so1 = set(self.so1_edges[paired:])
        writes: List[SyncEvent] = []
        for eid in order:
            event = self.trace.event(eid)
            assert isinstance(event, SyncEvent)
            if event.writes_addr:
                writes.append(event)
                continue
            for w in reversed(writes):
                if w.value != event.value:
                    continue
                if (
                    w.eid.proc != event.eid.proc
                    and (w.eid, event.eid) not in so1
                ):
                    self.rf_edges.append((w.eid, event.eid))
                break

    def cross_edges(self) -> List[Tuple[EventId, EventId]]:
        return self.so1_edges + self.rf_edges


class WeakCausallyPrecedes(HappensBefore1):
    """hb1 with non-conflicting critical-section orderings removed.

    A release->acquire so1 edge survives only when the two critical
    sections it connects conflict on some location other than the lock
    itself.  The releaser's section spans from its opening acquire (or
    the processor's start, when the release is not bracketed — e.g. a
    producer's flag release) through the release; the acquirer's spans
    from the acquire through its closing release (or the processor's
    end).  Sync accesses to other locations count as accesses.  Both
    widenings and the sync-access rule are conservative: when in doubt
    the edge is *kept*, so WCP's order only weakens where the sections
    demonstrably touch disjoint data.
    """

    def __init__(self, trace: Trace) -> None:
        super().__init__(trace)
        self.dropped_so1_edges: List[Tuple[EventId, EventId]] = []
        with obs.span("wcp.filter") as sp:
            sections = _CriticalSections(trace)
            kept: List[Tuple[EventId, EventId]] = []
            for rel, acq in self.so1_edges:
                if sections.conflict(rel, acq):
                    kept.append((rel, acq))
                else:
                    self.dropped_so1_edges.append((rel, acq))
            self.so1_edges = kept
            if sp.enabled:
                sp.add("so1_kept", len(kept))
                sp.add("so1_dropped", len(self.dropped_so1_edges))


#: an access window's (computation reads, computation writes, sync
#: reads, sync writes) as location bitsets
_Masks = Tuple[int, int, int, int]


def _or(a: _Masks, b: _Masks) -> _Masks:
    return a[0] | b[0], a[1] | b[1], a[2] | b[2], a[3] | b[3]


def _bits(locations) -> int:
    mask = 0
    for addr in locations:
        mask |= 1 << addr
    return mask


class _CriticalSections:
    """The access windows :class:`WeakCausallyPrecedes` compares, found
    in O(log n) per so1 edge, so the filter is linear in the trace.

    A lock's bracketing acquire or release is found by bisecting the
    processor's positions of that lock's acquires or releases.  A window
    that reaches the processor's first or last event is read off running
    prefix or suffix masks; a bracketed one, a critical section, is
    scanned.  The lock's own sync accesses leave a window, and a
    computation access to the lock's location stays, so the sync masks
    are kept apart from the computation masks and only they lose the
    lock's bit.
    """

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        #: (proc, addr) -> positions of the acquires / releases of addr
        self.acquires: Dict[Tuple[int, int], List[int]] = {}
        self.releases: Dict[Tuple[int, int], List[int]] = {}
        #: per processor, each event's masks
        self.masks: List[List[_Masks]] = []
        for proc, proc_events in enumerate(trace.events):
            masks = []
            for pos, event in enumerate(proc_events):
                if isinstance(event, SyncEvent):
                    bit = 1 << event.addr
                    masks.append((0, 0, 0, bit) if event.writes_addr
                                 else (0, 0, bit, 0))
                    if event.role is SyncRole.ACQUIRE:
                        self.acquires.setdefault(
                            (proc, event.addr), []).append(pos)
                    elif event.role is SyncRole.RELEASE:
                        self.releases.setdefault(
                            (proc, event.addr), []).append(pos)
                else:
                    masks.append((_bits(event.reads), _bits(event.writes),
                                  0, 0))
            self.masks.append(masks)
        self.prefix = [list(accumulate(masks, _or)) for masks in self.masks]
        self.suffix = [list(accumulate(masks[::-1], _or))[::-1]
                       for masks in self.masks]

    def _window(self, proc: int, lo: int, hi: int) -> _Masks:
        """The masks of events ``lo..hi`` of *proc*, inclusive."""
        if lo == 0:
            return self.prefix[proc][hi]
        if hi == len(self.masks[proc]) - 1:
            return self.suffix[proc][lo]
        return reduce(_or, self.masks[proc][lo:hi + 1])

    def conflict(self, rel: EventId, acq: EventId) -> bool:
        """True when the releaser's section, from its opening acquire of
        the lock (or its first event) through *rel*, and the acquirer's,
        from *acq* through its closing release (or its last event),
        conflict on some location other than the lock's sync accesses."""
        lock = self.trace.event(rel).addr
        opening = self.acquires.get((rel.proc, lock), ())
        i = bisect_left(opening, rel.pos)
        lo = opening[i - 1] if i else 0
        closing = self.releases.get((acq.proc, lock), ())
        j = bisect_right(closing, acq.pos)
        hi = closing[j] if j < len(closing) else len(
            self.masks[acq.proc]) - 1
        keep = ~(1 << lock)
        cr1, cw1, sr1, sw1 = self._window(rel.proc, lo, rel.pos)
        cr2, cw2, sr2, sw2 = self._window(acq.proc, acq.pos, hi)
        r1, w1 = cr1 | sr1 & keep, cw1 | sw1 & keep
        r2, w2 = cr2 | sr2 & keep, cw2 | sw2 & keep
        return bool(w1 & (r2 | w2)) or bool((r1 | w1) & w2)


def adjacent_conflicts(trace: Trace,
                       order: List[EventId]) -> Set[Tuple[EventId, EventId]]:
    """Per-variable last-write/last-read epoch tracking over *order*.

    For each location, remember the latest write and the reads issued
    since it, and collect every *adjacent* cross-processor conflict: an
    access paired with the latest conflicting accesses it supersedes,
    canonical ``(a, b)`` with ``a < b``.  Same-processor pairs are
    po-ordered and skipped.  Run over a linearization of SHB, this is
    the candidate set Mathur et al. 2018 prove predictable.
    """
    last_write: Dict[int, EventId] = {}
    readers_since: Dict[int, List[EventId]] = {}
    pairs: Set[Tuple[EventId, EventId]] = set()

    def note(x: EventId, y: EventId) -> None:
        if x.proc != y.proc:
            pairs.add((x, y) if x < y else (y, x))

    for eid in order:
        _, reads, writes = trace.accesses(eid)
        for addr in reads:
            w = last_write.get(addr)
            if w is not None:
                note(w, eid)
            readers_since.setdefault(addr, []).append(eid)
        for addr in writes:
            w = last_write.get(addr)
            if w is not None:
                note(w, eid)
            for r in readers_since.get(addr, ()):
                if r != eid:
                    note(r, eid)
            last_write[addr] = eid
            readers_since[addr] = []
    return pairs


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------

@dataclass
class SHBReport(RaceReport):
    """The postmortem report plus SHB per-race soundness.

    ``races`` and the partition analysis are identical to the hb1
    baseline (the differential guarantee); ``sound_races`` is the
    subset each of which SHB certifies *individually* schedulable —
    detected against the per-variable last-write/last-read state and
    SHB-unordered (the two conditions of Mathur et al.'s soundness
    theorem).
    """

    kind = "shb"

    sound_races: List[EventRace] = field(default_factory=list)
    rf_edge_count: int = 0

    @property
    def reported_races(self) -> List[EventRace]:
        """First-partition data races, then further sound data races:
        everything with an individual or partition-level guarantee."""
        reported = [
            race for p in self.first_partitions for race in p.data_races
        ]
        seen = {(race.a, race.b) for race in reported}
        for race in self.sound_races:
            if race.is_data_race and (race.a, race.b) not in seen:
                reported.append(race)
                seen.add((race.a, race.b))
        return reported

    @property
    def certified_race_count(self) -> int:
        """Each sound data race is certified individually; a first
        partition with no sound race still guarantees one (Theorem
        4.2), so it contributes one."""
        sound = {
            (race.a, race.b)
            for race in self.sound_races
            if race.is_data_race
        }
        uncovered = sum(
            1 for p in self.first_partitions
            if not any((race.a, race.b) in sound for race in p.data_races)
        )
        return len(sound) + uncovered

    def format(self) -> str:
        lines = [super().format()]
        if self.race_free:
            return lines[0]
        sound = [race for race in self.sound_races if race.is_data_race]
        lines.append("")
        lines.append(
            f"SHB analysis ({self.rf_edge_count} reads-from edge(s)): "
            f"{len(sound)} of {len(self.data_races)} data race(s) "
            f"individually certified schedulable."
        )
        for race in sound:
            lines.append(f"  {race.describe(self.trace)} [sound]")
        return "\n".join(lines)

    def to_json(self) -> Dict:
        payload = super().to_json()
        race_index = {race: i for i, race in enumerate(self.races)}
        payload["sound_races"] = [
            race_index[race] for race in self.sound_races
        ]
        payload["rf_edges"] = self.rf_edge_count
        return payload

    @classmethod
    def _fields_from_json(cls, payload: Dict,
                          races: List[EventRace]) -> Dict:
        return {
            "sound_races": [races[i] for i in payload.get("sound_races", [])],
            "rf_edge_count": payload.get("rf_edges", 0),
        }


@dataclass
class WCPReport(RaceReport):
    """The postmortem report plus WCP-predicted races.

    ``races`` is the observed hb1 race set *plus* the predicted ones
    (conflicting pairs unordered once non-conflicting critical-section
    edges are dropped), so the WCP race set structurally contains the
    hb1 set.  The partition analysis covers the observed races only —
    first partitions match the baseline.  Predicted races are races of
    a *reordering* of this execution; WCP's soundness theorem covers
    the first of them, so they are surfaced as predictions, not
    individually certified.
    """

    kind = "wcp"

    predicted_races: List[EventRace] = field(default_factory=list)
    dropped_so1: int = 0

    @property
    def observed_races(self) -> List[EventRace]:
        predicted = {(race.a, race.b) for race in self.predicted_races}
        return [
            race for race in self.races
            if (race.a, race.b) not in predicted
        ]

    @property
    def reported_races(self) -> List[EventRace]:
        reported = [
            race for p in self.first_partitions for race in p.data_races
        ]
        seen = {(race.a, race.b) for race in reported}
        for race in self.predicted_races:
            if race.is_data_race and (race.a, race.b) not in seen:
                reported.append(race)
                seen.add((race.a, race.b))
        return reported

    @property
    def certified_race_count(self) -> int:
        """One per observed first partition (Theorem 4.2), plus one for
        the predictions when they are all this report has: WCP's
        soundness theorem covers the *first* WCP race, so a trace whose
        only races are predicted still certifies exactly one real race
        in some reordering."""
        certified = len(self.first_partitions)
        if certified == 0 and any(
            race.is_data_race for race in self.predicted_races
        ):
            certified = 1
        return certified

    def format(self) -> str:
        lines = [super().format()]
        predicted = [r for r in self.predicted_races if r.is_data_race]
        if not predicted and not self.dropped_so1:
            return lines[0]
        lines.append("")
        lines.append(
            f"WCP analysis: dropped {self.dropped_so1} non-conflicting "
            f"critical-section edge(s); {len(predicted)} predicted data "
            f"race(s) in reorderings of this execution."
        )
        for race in predicted:
            lines.append(f"  {race.describe(self.trace)} [predicted]")
        if predicted:
            lines.append(
                "  (prediction soundness covers the first predicted race; "
                "verify others by replay)"
            )
        return "\n".join(lines)

    def to_json(self) -> Dict:
        payload = super().to_json()
        race_index = {race: i for i, race in enumerate(self.races)}
        payload["predicted_races"] = [
            race_index[race] for race in self.predicted_races
        ]
        payload["dropped_so1"] = self.dropped_so1
        return payload

    @classmethod
    def _fields_from_json(cls, payload: Dict,
                          races: List[EventRace]) -> Dict:
        return {
            "predicted_races": [
                races[i] for i in payload.get("predicted_races", [])
            ],
            "dropped_so1": payload.get("dropped_so1", 0),
        }


# ----------------------------------------------------------------------
# detectors
# ----------------------------------------------------------------------

def _baseline(trace: Trace):
    """The postmortem pipeline's hb1 + races (shared by both predictive
    detectors so their observed layer, and with it the partition
    analysis their reports derive, is bit-identical to the baseline)."""
    hb = HappensBefore1(trace)
    return hb, find_races(trace, hb)


class SHBDetector:
    """Stateless SHB analysis pipeline; one ``analyze`` call per trace."""

    def analyze(self, trace: Trace) -> SHBReport:
        with obs.span("detect.shb") as sp:
            hb, races = _baseline(trace)
            shb = ScheduleHappensBefore(trace)
            sound: List[EventRace] = []
            adjacent: Set[Tuple[EventId, EventId]] = set()
            # The soundness argument needs a linearization of SHB, and
            # a cyclic relation has none: then nothing is certified
            # individually and the baseline stands alone.
            if not shb.cyclic:
                adjacent = adjacent_conflicts(trace, shb.order)
                sound = [
                    race for race in races
                    if race.is_data_race
                    and (race.a, race.b) in adjacent
                    and shb.unordered(race.a, race.b)
                ]
            if sp.enabled:
                sp.add("rf_edges", len(shb.rf_edges))
                sp.add("adjacent_pairs", len(adjacent))
                sp.add("sound_races", len(sound))
            return SHBReport(
                trace=trace,
                hb=hb,
                races=races,
                sound_races=sound,
                rf_edge_count=len(shb.rf_edges),
            )


class WCPDetector:
    """Stateless WCP analysis pipeline; one ``analyze`` call per trace."""

    def analyze(self, trace: Trace) -> WCPReport:
        with obs.span("detect.wcp") as sp:
            hb, observed = _baseline(trace)
            wcp = WeakCausallyPrecedes(trace)
            predicted: List[EventRace] = []
            if wcp.dropped_so1_edges:
                observed_pairs = {race.events for race in observed}
                predicted = [race for race in find_races(trace, wcp)
                             if race.events not in observed_pairs]
            combined = sorted(observed + predicted, key=lambda r: r.events)
            if sp.enabled:
                sp.add("so1_dropped", len(wcp.dropped_so1_edges))
                sp.add("predicted_races", len(predicted))
            return WCPReport(
                trace=trace,
                hb=hb,
                races=combined,
                predicted_races=predicted,
                dropped_so1=len(wcp.dropped_so1_edges),
            )
