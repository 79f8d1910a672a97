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

Both backends run their modified edge sets through the *same*
:class:`~repro.core.hb1_vc.VectorClockHB1` sweep (the relation object
is passed as ``base``), so the clocks, cyclic relations included, and
the frontier race sweep are shared, not duplicated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from .. import obs
from ..trace.build import Trace
from ..machine.operations import SyncRole
from ..trace.events import EventId, SyncEvent
from .hb1 import HappensBefore1
from .hb1_vc import VectorClockHB1
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
            kept: List[Tuple[EventId, EventId]] = []
            for rel, acq in self.so1_edges:
                if self._sections_conflict(rel, acq):
                    kept.append((rel, acq))
                else:
                    self.dropped_so1_edges.append((rel, acq))
            self.so1_edges = kept
            if sp.enabled:
                sp.add("so1_kept", len(kept))
                sp.add("so1_dropped", len(self.dropped_so1_edges))

    # ------------------------------------------------------------------
    def _sections_conflict(self, rel: EventId, acq: EventId) -> bool:
        lock_addr = self.trace.event(rel).addr
        rel_lo = 0
        for pos in range(rel.pos - 1, -1, -1):
            event = self.trace.events[rel.proc][pos]
            if (
                isinstance(event, SyncEvent)
                and event.addr == lock_addr
                and event.role is SyncRole.ACQUIRE
            ):
                rel_lo = pos
                break
        acq_hi = len(self.trace.events[acq.proc]) - 1
        for pos in range(acq.pos + 1, acq_hi + 1):
            event = self.trace.events[acq.proc][pos]
            if (
                isinstance(event, SyncEvent)
                and event.addr == lock_addr
                and event.role is SyncRole.RELEASE
            ):
                acq_hi = pos
                break
        r1, w1 = self._window_accesses(rel.proc, rel_lo, rel.pos, lock_addr)
        r2, w2 = self._window_accesses(acq.proc, acq.pos, acq_hi, lock_addr)
        return bool(w1 & (r2 | w2)) or bool((r1 | w1) & w2)

    def _window_accesses(
        self, proc: int, lo: int, hi: int, lock_addr: int
    ) -> Tuple[Set[int], Set[int]]:
        reads: Set[int] = set()
        writes: Set[int] = set()
        for event in self.trace.events[proc][lo:hi + 1]:
            if isinstance(event, SyncEvent):
                if event.addr == lock_addr:
                    continue
                (writes if event.writes_addr else reads).add(event.addr)
            else:
                reads.update(event.reads)
                writes.update(event.writes)
        return reads, writes


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
            shb_vc = VectorClockHB1(trace, base=shb, track_variables=True)
            # The soundness argument needs a linearization of SHB, and
            # a cyclic relation has none: then nothing is certified
            # individually and the baseline stands alone.
            if not shb_vc.cyclic:
                adjacent = shb_vc.adjacent_conflicts
                sound = [
                    race for race in races
                    if race.is_data_race
                    and (race.a, race.b) in adjacent
                    and shb_vc.unordered(race.a, race.b)
                ]
            if sp.enabled:
                sp.add("rf_edges", len(shb.rf_edges))
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
