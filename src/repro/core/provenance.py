"""Race provenance: the evidence behind every reported race (§4.1–4.2).

A race report is only actionable when the programmer can see *why*
each race was reported — and why suppressed races were not.  For one
:class:`~repro.core.report.RaceReport` this module assembles, per data
race:

* the **non-ordering witness** (Definition 2.4): the pair conflicts,
  and hb1 orders it in *neither* direction.  Non-ordering is a
  universal claim ("no path exists"), so the witness is checked two
  independent ways — a breadth-first search over the relation's own
  edges, po plus its cross rows (one per distinct endpoint, shared by
  its races), and the vector clocks the detector swept with
  (``report.hb``) — and recorded only when both agree (``verified``);

* its **SCC / partition** in the augmented graph G′ (hb1 plus doubly
  directed race edges): which partition the pair fell into, how many
  events and races share it;

* the **Definition 4.1 ordering evidence**: the data-race partitions
  that G′-reach this partition (none ⇔ the partition is first,
  Theorem 4.1) and the ones it reaches, read off the partition
  skeleton (:mod:`repro.core.partitions`).  For a reported race the
  preceding list is empty; for a suppressed race it names the earlier
  partitions whose races may have caused this one.

:func:`explain_races` is the entry point; ``weakraces explain`` and
:func:`repro.api.explain` wrap it.  (The sibling
:mod:`repro.core.explain` answers a different question — the *affects*
chain showing how suppressed races may be artifacts.)  A witness that
fails verification
raises :class:`ProvenanceError` — that would mean the detector
reported a pair its own ordering relation calls ordered.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..trace.events import EventId
from .races import EventRace
from .report import RaceReport


class ProvenanceError(RuntimeError):
    """A provenance check failed: the report's races and its hb1
    relation disagree (one of them is wrong)."""


def _bfs_reachable(successors: Callable[[int], Iterable[int]],
                   sources: Iterable[int]) -> Dict[int, Optional[int]]:
    """Every node a plain BFS reaches from *sources*, in the order it
    reached them, each mapped to the node it was reached from (a source
    to None)."""
    parents: Dict[int, Optional[int]] = dict.fromkeys(sources)
    queue = deque(parents)
    while queue:
        node = queue.popleft()
        for succ in successors(node):
            if succ not in parents:
                parents[succ] = node
                queue.append(succ)
    return parents


def _hb1_successors(hb) -> Callable[[int], List[int]]:
    """Each row's successors under *hb*'s own edges, po and
    :meth:`~repro.core.hb1.HappensBefore1.cross_rows` — deliberately
    independent of the vector clocks they are used to cross-check."""
    counts = [len(events) for events in hb.trace.events]
    last = {end - 1 for end, count in zip(accumulate(counts), counts)
            if count}
    cross: Dict[int, List[int]] = {}
    for src, dst in hb.cross_rows():
        cross.setdefault(src, []).append(dst)

    def successors(row: int) -> List[int]:
        out = cross.get(row, [])
        return out if row in last else [row + 1, *out]
    return successors


@dataclass(frozen=True)
class NonOrderingWitness:
    """Evidence that hb1 orders a conflicting pair in neither direction.

    ``a_reaches_b``/``b_reaches_a`` are the BFS answers over the
    relation's own edges (both must be False for a race); ``verified`` records
    that the detector's vector clocks gave the same answers.
    """

    a: EventId
    b: EventId
    a_reaches_b: bool
    b_reaches_a: bool
    verified: bool

    @property
    def holds(self) -> bool:
        return not self.a_reaches_b and not self.b_reaches_a

    def describe(self) -> str:
        check = "verified against vector clocks" if self.verified \
            else "VECTOR CLOCKS DISAGREE"
        return (
            f"no hb1 path {self.a} -> {self.b}, "
            f"no hb1 path {self.b} -> {self.a} ({check})"
        )


@dataclass
class RaceProvenance:
    """Why one data race was reported (or suppressed)."""

    race: EventRace
    witness: NonOrderingWitness
    component_index: int  # the partition (SCC of G') of both endpoints
    component_size: int  # events in that SCC
    partition_races: int  # races sharing the partition
    is_first: bool
    reported: bool  # first partition *and* a data race
    preceding: List[int]  # data partitions that G'-reach this one
    following: List[int]  # data partitions this one G'-reaches

    @property
    def signature(self) -> str:
        return self.race.signature

    def describe(self, trace=None) -> str:
        lines = [f"race {self.race.describe(trace)}"]
        lines.append(f"  witness: {self.witness.describe()}")
        lines.append(
            f"  partition: #{self.component_index} "
            f"({self.component_size} event(s), "
            f"{self.partition_races} race(s))"
        )
        if self.is_first:
            lines.append(
                "  ordering (Def 4.1): no data-race partition reaches "
                "this one in G' => FIRST partition; some race here "
                "occurs in a sequentially consistent execution "
                "(Theorem 4.2)"
            )
        else:
            preceded = ", ".join(f"#{i}" for i in self.preceding)
            lines.append(
                f"  ordering (Def 4.1): preceded in G' by data-race "
                f"partition(s) {preceded} => suppressed (may be an "
                f"artifact of the earlier races)"
            )
        if self.following:
            reaches = ", ".join(f"#{i}" for i in self.following)
            lines.append(f"  reaches data-race partition(s) {reaches}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "race": {
                "a": [self.race.a.proc, self.race.a.pos],
                "b": [self.race.b.proc, self.race.b.pos],
                "signature": self.signature,
                "locations": list(self.race.locations),
                "is_data_race": self.race.is_data_race,
            },
            "witness": {
                "a_reaches_b": self.witness.a_reaches_b,
                "b_reaches_a": self.witness.b_reaches_a,
                "holds": self.witness.holds,
                "verified": self.witness.verified,
            },
            "partition": {
                "component_index": self.component_index,
                "component_size": self.component_size,
                "races": self.partition_races,
                "is_first": self.is_first,
            },
            "reported": self.reported,
            "preceding_data_partitions": self.preceding,
            "following_data_partitions": self.following,
        }


@dataclass
class ProvenanceReport:
    """Provenance for every data race of one analyzed execution."""

    report: RaceReport
    provenances: List[RaceProvenance]

    @property
    def all_verified(self) -> bool:
        return all(p.witness.verified for p in self.provenances)

    @property
    def reported(self) -> List[RaceProvenance]:
        return [p for p in self.provenances if p.reported]

    @property
    def suppressed(self) -> List[RaceProvenance]:
        return [p for p in self.provenances if not p.reported]

    def format(self) -> str:
        trace = self.report.trace
        lines = [
            f"Race provenance ({trace.model_name} execution, "
            f"{trace.event_count} events)",
            "=" * 70,
        ]
        if not self.provenances:
            lines.append("No data races detected — nothing to explain.")
            lines.append(
                "By Condition 3.4(1) the execution was sequentially "
                "consistent."
            )
            return "\n".join(lines)
        lines.append(
            f"{len(self.provenances)} data race(s): "
            f"{len(self.reported)} reported (first partitions), "
            f"{len(self.suppressed)} suppressed"
        )
        sync = len(self.report.sync_races)
        if sync:
            lines.append(
                f"({sync} sync race(s) participate in G' but are not "
                f"data races — not explained here)"
            )
        for title, group in (("REPORTED", self.reported),
                             ("SUPPRESSED", self.suppressed)):
            for prov in group:
                lines.append("")
                lines.append(f"[{title}] " + prov.describe(trace))
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "kind": "provenance",
            "model": self.report.trace.model_name,
            "events": self.report.trace.event_count,
            "race_free": self.report.race_free,
            "all_verified": self.all_verified,
            "races": [p.to_json() for p in self.provenances],
        }

    def to_dot(self) -> str:
        """G′ as DOT with the first (reported) partitions' events
        highlighted — the picture behind the ordering evidence."""
        highlight = {
            eid
            for partition in self.report.first_partitions
            for eid in partition.events
        }
        return self.report.to_dot(highlight=highlight)

    def find(self, signature: str) -> Optional[RaceProvenance]:
        """The provenance whose race signature matches (see
        :attr:`repro.core.races.EventRace.signature`)."""
        for prov in self.provenances:
            if prov.signature == signature:
                return prov
        return None


def _race_text(race: EventRace) -> str:
    locations = ",".join(str(addr) for addr in sorted(race.locations))
    return f"{race.signature}@{locations}"


def partition_coverage_keys(report) -> Tuple[str, ...]:
    """Stable signatures of a racy report's *first-race provenance
    partitions* — the hunt's coverage alphabet.

    Each key is a BLAKE2b digest over the sorted data-race signatures
    (endpoints + conflicting locations) of one first partition, so two
    seeds whose races land in structurally identical partitions count
    as the *same* coverage unit, while a seed that reaches a new
    partition shape grows the hunt's distinct-partition gauge.  Keys
    are content-derived (no component indices, which renumber across
    traces) and sorted, so they are insensitive to partition order.

    Reports without a partition analysis (naive, streaming) degrade to
    one key per data race: the per-race coverage the detector can
    actually distinguish.  A partition analysis reads its partitions
    off a skeleton over the race endpoints, not G′ itself
    (:mod:`repro.core.partitions`), so the keys cost no event graph.
    """
    partitions = getattr(report, "first_partitions", None)
    if partitions:
        texts = [
            "|".join(sorted(
                _race_text(race)
                for race in partition.races if race.is_data_race
            ))
            for partition in partitions
        ]
    else:
        races = getattr(report, "data_races", None) or ()
        texts = [_race_text(race) for race in races]
    return tuple(sorted(
        hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()
        for text in texts if text
    ))


def explain_races(report: RaceReport,
                  include_sync: bool = False) -> ProvenanceReport:
    """Build witness-checked provenance for every data race of *report*.

    Args:
        report: a post-mortem :class:`RaceReport`.
        include_sync: also explain sync races (they live in partitions
            too, but Definition 2.4 excludes them from data races).

    Raises:
        ProvenanceError: a race's non-ordering witness failed — the BFS
            found an hb1 path between the endpoints, or the report's
            vector clocks disagreed with the BFS.
    """
    hb = report.hb
    successors = _hb1_successors(hb)
    analysis = report.analysis
    # One BFS per distinct endpoint: a trace has far fewer endpoints
    # than races.
    reachable: Dict[int, Dict[int, Optional[int]]] = {}

    def reaches(src: EventId, dst: EventId) -> bool:
        row = hb.row_of(src)
        if row not in reachable:
            reachable[row] = _bfs_reachable(successors, (row,))
        return hb.row_of(dst) in reachable[row]

    # Definition 4.1 neighbours by component: one partition may hold
    # thousands of races, and its neighbours are the same for each
    neighbours: Dict[int, Tuple[List[int], List[int]]] = {}
    provenances: List[RaceProvenance] = []
    races = report.races if include_sync else report.data_races
    for race in races:
        a, b = race.a, race.b
        a_reaches_b = reaches(a, b)
        b_reaches_a = reaches(b, a)
        clocks_say = (hb.ordered(a, b), hb.ordered(b, a))
        verified = (a_reaches_b, b_reaches_a) == clocks_say
        witness = NonOrderingWitness(
            a=a, b=b,
            a_reaches_b=a_reaches_b,
            b_reaches_a=b_reaches_a,
            verified=verified,
        )
        if not verified:
            raise ProvenanceError(
                f"witness check failed for {race.describe(report.trace)}: "
                f"BFS says ({a_reaches_b}, {b_reaches_a}), vector clocks "
                f"say {clocks_say}"
            )
        if not witness.holds:
            raise ProvenanceError(
                f"reported race {race.describe(report.trace)} is "
                f"hb1-ordered — the report is inconsistent"
            )
        partition = analysis.partition_of(race)
        ci = partition.component_index
        if ci not in neighbours:
            neighbours[ci] = (
                [p.component_index
                 for p in analysis.preceding_data_partitions(partition)],
                [p.component_index
                 for p in analysis.following_data_partitions(partition)],
            )
        preceding, following = neighbours[ci]
        provenances.append(
            RaceProvenance(
                race=race,
                witness=witness,
                component_index=partition.component_index,
                component_size=len(partition.events),
                partition_races=len(partition.races),
                is_first=partition.is_first,
                reported=partition.is_first and race.is_data_race,
                preceding=list(preceding),
                following=list(following),
            )
        )
    return ProvenanceReport(report=report, provenances=provenances)
