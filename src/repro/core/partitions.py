"""Race partitioning and first-partition identification (section 4.2).

Because G' may contain cycles, individual "first races" are not well
defined; the paper instead partitions races by the strongly connected
components of G' and orders partitions by G'-reachability (Definition
4.1).  A partition is *first* if no other partition containing at least
one data race is ordered before it.  Theorem 4.1: there are no first
partitions containing data races iff the execution exhibited no data
races.  Theorem 4.2: each first partition containing data races holds
at least one race belonging to a sequentially consistent prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from .. import obs
from ..graph import Condensation, DiGraph, TransitiveClosure, condensation
from ..trace.build import Trace
from ..trace.events import EventId
from .augmented import build_augmented_graph
from .hb1 import HappensBefore1
from .races import EventRace


@dataclass
class RacePartition:
    """The races whose events fall in one SCC of G'."""

    component_index: int
    races: List[EventRace]
    events: Set[EventId] = field(default_factory=set)
    is_first: bool = False

    @property
    def has_data_race(self) -> bool:
        return any(race.is_data_race for race in self.races)

    @property
    def data_races(self) -> List[EventRace]:
        return [race for race in self.races if race.is_data_race]

    def describe(self, trace: Optional[Trace] = None) -> str:
        tag = "first" if self.is_first else "non-first"
        lines = [f"Partition #{self.component_index} ({tag}):"]
        for race in self.races:
            lines.append(f"  {race.describe(trace)}")
        return "\n".join(lines)


@dataclass
class PartitionAnalysis:
    """Everything section 4.2 computes for one execution's races."""

    gprime: DiGraph
    cond: Condensation
    partitions: List[RacePartition]

    def __post_init__(self) -> None:
        # Plain attributes, not dataclass fields: neither the closure
        # cache nor the race index belongs in __init__/repr/eq.
        self._closure_cache: Optional[TransitiveClosure] = None
        # Each race lies in exactly one partition (the doubly directed
        # race edge puts both endpoints in one SCC), so a prebuilt
        # index answers partition_of in O(1) instead of scanning every
        # partition's race list.
        self._race_to_partition: Dict[EventRace, RacePartition] = {
            race: partition
            for partition in self.partitions
            for race in partition.races
        }
        #: partitions containing at least one data race — the only ones
        #: the Definition 4.1 ordering ever consults
        self.data_partitions: List[RacePartition] = [
            p for p in self.partitions if p.has_data_race
        ]

    @property
    def first_partitions(self) -> List[RacePartition]:
        return [p for p in self.partitions if p.is_first]

    @property
    def first_races(self) -> List[EventRace]:
        return [race for p in self.first_partitions for race in p.races]

    @property
    def non_first_partitions(self) -> List[RacePartition]:
        return [p for p in self.partitions if not p.is_first]

    def partition_of(self, race: EventRace) -> RacePartition:
        partition = self._race_to_partition.get(race)
        if partition is None:
            raise KeyError(f"race {race} not in any partition")
        return partition

    def preceding_data_partitions(
        self, partition: RacePartition
    ) -> List[RacePartition]:
        """The data-race partitions ordered before *partition* by
        Definition 4.1 (empty iff *partition* is first)."""
        return [
            p for p in self.data_partitions
            if p is not partition and self.precedes(p, partition)
        ]

    def following_data_partitions(
        self, partition: RacePartition
    ) -> List[RacePartition]:
        """The data-race partitions *partition* is ordered before."""
        return [
            p for p in self.data_partitions
            if p is not partition and self.precedes(partition, p)
        ]

    def precedes(self, p1: RacePartition, p2: RacePartition) -> bool:
        """Definition 4.1: Part1 P Part2 iff a G' path leads from an
        event of Part1 to an event of Part2."""
        if p1.component_index == p2.component_index:
            return False
        return self._dag_closure().ordered(p1.component_index, p2.component_index)

    def _dag_closure(self) -> TransitiveClosure:
        if self._closure_cache is None:
            self._closure_cache = TransitiveClosure(self.cond.dag)
        return self._closure_cache


def partition_races(
    trace: Trace,
    hb: HappensBefore1,
    races: List[EventRace],
    gprime: Optional[DiGraph] = None,
) -> PartitionAnalysis:
    """Partition *races* by SCC of G' and mark the first partitions.

    The doubly directed race edge makes both endpoints of a race
    mutually reachable, so each race lies in exactly one SCC.
    """
    with obs.span("races.partition") as _sp:
        analysis = _partition_races(trace, hb, races, gprime)
        if _sp.enabled:
            _sp.add("sccs", len(analysis.cond.components))
            _sp.add("partitions", len(analysis.partitions))
            _sp.add("first_partitions", len(analysis.first_partitions))
            if analysis.cond.components:
                _sp.add(
                    "largest_scc",
                    max(len(c) for c in analysis.cond.components),
                )
    return analysis


def _partition_races(
    trace: Trace,
    hb: HappensBefore1,
    races: List[EventRace],
    gprime: Optional[DiGraph] = None,
) -> PartitionAnalysis:
    gprime = gprime or build_augmented_graph(hb, races)
    cond = condensation(gprime)

    by_component: Dict[int, RacePartition] = {}
    for race in races:
        ci = cond.index_of[race.a]
        assert ci == cond.index_of[race.b], "race endpoints must share an SCC"
        partition = by_component.get(ci)
        if partition is None:
            partition = RacePartition(
                component_index=ci,
                races=[],
                events=set(cond.components[ci]),
            )
            by_component[ci] = partition
        partition.races.append(race)

    partitions = sorted(by_component.values(), key=lambda p: p.component_index)
    analysis = PartitionAnalysis(gprime=gprime, cond=cond, partitions=partitions)

    # A partition is first iff no *other* partition containing at least
    # one data race precedes it (Definition 4.1 and the paragraph after).
    for partition in partitions:
        preceded = any(
            other is not partition and analysis.precedes(other, partition)
            for other in analysis.data_partitions
        )
        partition.is_first = not preceded
    return analysis
