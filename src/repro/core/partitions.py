"""Race partitioning and first-partition identification (section 4.2).

Because G' (hb1 plus a doubly directed edge per race) may contain
cycles, individual "first races" are not well defined; the paper
instead partitions races by the strongly connected components of G'
and orders partitions by G'-reachability (Definition 4.1).  A partition
is *first* if no other partition containing at least one data race is
ordered before it.  Theorem 4.1: there are no first partitions
containing data races iff the execution exhibited no data races.
Theorem 4.2: each first partition containing data races holds at least
one race belonging to a sequentially consistent prefix.

G' itself is never built.  Its partitions and their order are read off
a *skeleton* over the race endpoints, whose edges come from the clocks
the detector swept.  Out of each endpoint e go an edge to each of its
race partners, one to the next endpoint on e's processor, and, on every
processor q, one to the earliest endpoint on q whose clock covers e
(``e hb1* f``).  Along po the clocks only grow, so the endpoints of q
that cover e are a suffix of q's, and that edge plus q's next-endpoint
edges reach all of them.

A G' path between two endpoints splits at its race edges into hb1
segments that start and end at endpoints, and the skeleton reaches the
end of each segment from its start.  So endpoints are mutually
reachable in the skeleton iff they are in G': each skeleton SCC holds
exactly the races of one G' SCC, there is one SCC per partition, and
the skeleton's condensation orders two partitions iff G' does.  The
same split shows that an event f lies in a partition's G' SCC iff
``u hb1* f hb1* v`` for endpoints u, v of the partition: one interval
of positions per processor (:attr:`RacePartition.events`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from .. import obs
from ..graph.scc import strongly_connected_components
from ..trace.build import Trace
from ..trace.events import EventId
from .hb1 import HappensBefore1
from .lazy import LazyField
from .races import EventRace


def _first_covering(clocks: List[List[int]], lo: int, hi: int, proc: int,
                    pos: int) -> int:
    """The first of ``clocks[lo:hi]``, one processor's in po order, that
    covers position *pos* of *proc* (*hi* if none does)."""
    while lo < hi:
        mid = (lo + hi) // 2
        if clocks[mid][proc] > pos:
            hi = mid
        else:
            lo = mid + 1
    return lo


@dataclass
class RacePartition:
    """The races whose events fall in one SCC of G', numbered
    (``component_index``) in the order of their earliest race."""

    component_index: int
    races: List[EventRace]
    #: every event of the SCC, interior hb1 events included
    events: Set[EventId] = LazyField("_scc_events")
    is_first: bool = False
    hb: Optional[HappensBefore1] = field(
        default=None, repr=False, compare=False)

    @property
    def has_data_race(self) -> bool:
        return any(race.is_data_race for race in self.races)

    @property
    def data_races(self) -> List[EventRace]:
        return [race for race in self.races if race.is_data_race]

    def _scc_events(self) -> Set[EventId]:
        """On each processor, the po-suffix of events whose clock covers
        an endpoint, cut to the po-prefix some endpoint's clock covers."""
        hb = self.hb
        least: Dict[int, int] = {}  # processor -> least endpoint position
        bound = [0] * len(hb.trace.events)
        for eid in {e for race in self.races for e in race.events}:
            least[eid.proc] = min(least.get(eid.proc, eid.pos), eid.pos)
            bound = list(map(max, bound, hb.clock_of(eid)))
        events: Set[EventId] = set()
        for q, proc_events in enumerate(hb.trace.events):
            first = hb.row_of(EventId(q, 0))
            start = min(_first_covering(hb.row_clocks, first,
                                        first + len(proc_events), p, pos)
                        for p, pos in least.items()) - first
            events.update(EventId(q, pos) for pos in range(start, bound[q]))
        return events

    def describe(self, trace: Optional[Trace] = None) -> str:
        tag = "first" if self.is_first else "non-first"
        lines = [f"Partition #{self.component_index} ({tag}):"]
        for race in self.races:
            lines.append(f"  {race.describe(trace)}")
        return "\n".join(lines)


class PartitionAnalysis:
    """Everything section 4.2 computes for one execution's races: its
    partitions and the Definition 4.1 order between them."""

    def __init__(self, hb: HappensBefore1, races: List[EventRace]) -> None:
        clocks, proc_of, pos_of = hb.row_clocks, hb.proc_of, hb.pos_of
        # endpoint row -> the skeleton edges out of it
        skeleton: Dict[int, List[int]] = {}
        for race in races:
            a, b = hb.row_of(race.a), hb.row_of(race.b)
            skeleton.setdefault(a, []).append(b)
            skeleton.setdefault(b, []).append(a)
        endpoints = sorted(skeleton)
        # per processor, its endpoint rows in po order and their clocks
        ends: List[List[int]] = [[] for _ in hb.trace.events]
        for row in endpoints:
            ends[proc_of[row]].append(row)
        end_clocks = [[clocks[row] for row in rows] for rows in ends]
        for own in ends:
            for i, row in enumerate(own):
                out = skeleton[row]
                out += own[i + 1:i + 2]
                proc, pos = proc_of[row], pos_of[row]
                for rows, rows_clocks in zip(ends, end_clocks):
                    j = _first_covering(rows_clocks, 0, len(rows), proc, pos)
                    out += rows[j:j + 1]
        components = strongly_connected_components(
            endpoints, skeleton.__getitem__)

        comp_of = {row: ci for ci, comp in enumerate(components)
                   for row in comp}
        number: Dict[int, int] = {}  # Tarjan component -> partition
        self.partitions: List[RacePartition] = []
        # Each race lies in exactly one partition (the doubly directed
        # race edge puts both endpoints in one SCC).
        self._race_to_partition: Dict[EventRace, RacePartition] = {}
        for race in races:
            ci = comp_of[hb.row_of(race.a)]
            if ci not in number:
                number[ci] = len(self.partitions)
                self.partitions.append(RacePartition(number[ci], [], hb=hb))
            partition = self.partitions[number[ci]]
            partition.races.append(race)
            self._race_to_partition[race] = partition
        #: partitions containing at least one data race — the only ones
        #: the Definition 4.1 ordering ever consults
        self.data_partitions: List[RacePartition] = [
            p for p in self.partitions if p.has_data_race
        ]
        #: per partition, the partitions one skeleton edge leads to/from
        self._after: List[Set[int]] = [set() for _ in self.partitions]
        self._before: List[Set[int]] = [set() for _ in self.partitions]
        # Tarjan emits sinks first: reversed, a topological order, so
        # whether a data partition precedes one is settled on reaching it.
        preceded = set()
        taints = {p.component_index for p in self.data_partitions}
        for ci in reversed(range(len(components))):
            here = number[ci]
            for row in components[ci]:
                for there in {number[comp_of[nxt]]
                              for nxt in skeleton[row]} - {here}:
                    self._after[here].add(there)
                    self._before[there].add(here)
                    if here in taints or here in preceded:
                        preceded.add(there)
        # A partition is first iff no *other* partition containing at
        # least one data race precedes it (Definition 4.1 and the
        # paragraph after).
        for partition in self.partitions:
            partition.is_first = partition.component_index not in preceded

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
        reach = self._reach(partition, self._before)
        return [p for p in self.data_partitions if p.component_index in reach]

    def following_data_partitions(
        self, partition: RacePartition
    ) -> List[RacePartition]:
        """The data-race partitions *partition* is ordered before."""
        reach = self._reach(partition, self._after)
        return [p for p in self.data_partitions if p.component_index in reach]

    def precedes(self, p1: RacePartition, p2: RacePartition) -> bool:
        """Definition 4.1: Part1 P Part2 iff a G' path leads from an
        event of Part1 to an event of Part2."""
        return p2.component_index in self._reach(p1, self._after)

    @staticmethod
    def _reach(partition: RacePartition, edges: List[Set[int]]) -> Set[int]:
        """The partitions *edges* lead to from *partition*; the
        condensation is a DAG, so never *partition* itself."""
        seen: Set[int] = set()
        stack = [partition.component_index]
        while stack:
            for nxt in edges[stack.pop()] - seen:
                seen.add(nxt)
                stack.append(nxt)
        return seen


def partition_races(
    trace: Trace,
    hb: HappensBefore1,
    races: List[EventRace],
) -> PartitionAnalysis:
    """Partition *races*, the races of *trace* under *hb*, by SCC of G'
    and mark the first partitions."""
    with obs.span("races.partition") as _sp:
        analysis = PartitionAnalysis(hb, races)
        if _sp.enabled:
            # one skeleton component per partition
            _sp.add("sccs", len(analysis.partitions))
            _sp.add("partitions", len(analysis.partitions))
            _sp.add("first_partitions", len(analysis.first_partitions))
    return analysis
