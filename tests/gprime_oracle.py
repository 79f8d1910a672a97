"""The full augmented graph G' (section 4.2): the tests' oracle.

G' is the hb1 event graph plus, for each race, a doubly directed edge
between the two events involved.  For races <A,B> and <C,D>, a G' path
runs from A (or B) to C (or D) iff <A,B> affects <C,D> (Definition
3.3): G' reachability *is* the affects relation.

The detector never builds G'; it reads the partitions and their order
off a skeleton over the race endpoints (:mod:`repro.core.partitions`).
This module builds G' in full, condenses it and closes the condensation
transitively, exactly as the partition code once did, so the skeleton
can be compared against it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Set

from repro.core.hb1 import HappensBefore1
from repro.core.races import EventRace
from repro.graph import (
    DiGraph,
    TransitiveClosure,
    condensation,
    reachable_from_any,
)
from repro.trace.events import EventId


def build_augmented_graph(
    hb: HappensBefore1, races: Iterable[EventRace]
) -> DiGraph:
    """hb1 plus a doubly directed edge per race.

    All races participate, sync-sync races included, because the
    affects relation (Definition 3.3(3)) chains through races
    generally, not only data races.
    """
    gprime = hb.graph.copy()
    for race in races:
        gprime.add_edge(race.a, race.b)
        gprime.add_edge(race.b, race.a)
    return gprime


# ----------------------------------------------------------------------
# the affects relation (Definition 3.3) as G' reachability
# ----------------------------------------------------------------------

def affected_events(gprime: DiGraph, race: EventRace) -> Set[EventId]:
    """Every event affected by *race*: its own endpoints plus all
    G'-reachable events."""
    return reachable_from_any(gprime, [race.a, race.b])


def race_affects_event(gprime: DiGraph, race: EventRace,
                       event: EventId) -> bool:
    """<race.a, race.b> A event (Definition 3.3)."""
    return event in affected_events(gprime, race)


def race_affects_race(gprime: DiGraph, race: EventRace,
                      other: EventRace) -> bool:
    """<x,y> A <x',y'> iff the first race affects x' or y'."""
    affected = affected_events(gprime, race)
    return other.a in affected or other.b in affected


class AffectsIndex:
    """Batch affects queries over one G' via a shared transitive closure.

    ``unaffected_races`` identifies the races affected by no *other*
    race: intuitively the execution's first data races, the set
    Condition 3.4(2) guarantees to lie in a sequentially consistent
    prefix.
    """

    def __init__(self, gprime: DiGraph, races: Iterable[EventRace]) -> None:
        self.gprime = gprime
        self.races = list(races)
        self._closure = TransitiveClosure(gprime)

    def affects(self, race: EventRace, other: EventRace) -> bool:
        """True iff *race* affects *other* (a race trivially affects
        itself via clause (1), so pass distinct races)."""
        return any(src == dst or self._closure.ordered(src, dst)
                   for src in (race.a, race.b) for dst in (other.a, other.b))

    def unaffected_races(self) -> List[EventRace]:
        """Races not affected by any *other* race.  Two races on one G'
        cycle affect each other and so are never unaffected; that is why
        section 4.2 reports whole first partitions instead."""
        return [race for race in self.races
                if not any(other is not race and self.affects(other, race)
                           for other in self.races)]


# ----------------------------------------------------------------------
# the partitions of section 4.2, straight off G'
# ----------------------------------------------------------------------

class OraclePartition(NamedTuple):
    """One partition, named by its race set, so that two analyses that
    number their partitions differently compare equal."""

    races: FrozenSet[EventRace]
    is_first: bool
    events: FrozenSet[EventId]
    #: the race sets of the data partitions ordered before / after it
    preceding: FrozenSet[FrozenSet[EventRace]]
    following: FrozenSet[FrozenSet[EventRace]]


def oracle_partitions(hb: HappensBefore1,
                      races: List[EventRace]) -> Set[OraclePartition]:
    """Definition 4.1 on the full G': races partitioned by SCC, ordered
    by reachability between SCCs in a transitive closure of the
    condensation."""
    gprime = build_augmented_graph(hb, races)
    cond = condensation(gprime)
    closure = TransitiveClosure(cond.dag)
    by_component: Dict[int, List[EventRace]] = {}
    for race in races:
        ci = cond.index_of[race.a]
        assert ci == cond.index_of[race.b], "race endpoints share an SCC"
        by_component.setdefault(ci, []).append(race)
    data = {ci for ci, group in by_component.items()
            if any(race.is_data_race for race in group)}

    def names(cis) -> FrozenSet[FrozenSet[EventRace]]:
        return frozenset(frozenset(by_component[ci]) for ci in cis)

    return {
        OraclePartition(
            races=frozenset(group),
            is_first=not any(closure.ordered(d, ci) for d in data - {ci}),
            events=frozenset(cond.components[ci]),
            preceding=names(d for d in data - {ci} if closure.ordered(d, ci)),
            following=names(d for d in data - {ci} if closure.ordered(ci, d)),
        )
        for ci, group in by_component.items()
    }


def skeleton_partitions(analysis) -> Set[OraclePartition]:
    """A :class:`~repro.core.partitions.PartitionAnalysis` in the
    oracle's terms."""
    def names(partitions) -> FrozenSet[FrozenSet[EventRace]]:
        return frozenset(frozenset(p.races) for p in partitions)

    return {
        OraclePartition(
            races=frozenset(p.races),
            is_first=p.is_first,
            events=frozenset(p.events),
            preceding=names(analysis.preceding_data_partitions(p)),
            following=names(analysis.following_data_partitions(p)),
        )
        for p in analysis.partitions
    }
