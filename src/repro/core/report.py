"""Race reports: what the detector hands the programmer.

On a system obeying Condition 3.4, the detector either (a) reports no
data races — and the programmer may then assume the whole execution was
sequentially consistent (Condition 3.4(1)) — or (b) reports the *first
partitions* of data races, each guaranteed to contain at least one race
that also occurs in some sequentially consistent execution of the
program (Theorem 4.2).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..graph import to_dot
from ..trace.build import Trace
from ..trace.events import ComputationEvent, EventId, SyncEvent
from .hb1 import HappensBefore1
from .lazy import LazyField
from .partitions import PartitionAnalysis, RacePartition, partition_races
from .races import EventRace, find_races

REPORT_FORMAT = 1


def _race_record(race: EventRace) -> Dict:
    return {
        "a": [race.a.proc, race.a.pos],
        "b": [race.b.proc, race.b.pos],
        "locations": list(race.locations),
        "is_data_race": race.is_data_race,
    }


def _race_from_record(record: Dict) -> EventRace:
    return EventRace(
        a=EventId(*record["a"]),
        b=EventId(*record["b"]),
        locations=tuple(record["locations"]),
        is_data_race=record["is_data_race"],
    )


@dataclass
class RaceReport:
    """The full outcome of post-mortem analysis of one trace.

    ``races`` is every race of the trace.  The post-mortem detector
    passes only ``data_half``, the races on data locations (the data
    half of :func:`~repro.core.races.find_races`), which hold every
    data race and so decide the verdict; ``races`` then adds the sync
    half, swept with ``hb``'s clocks on first read.

    ``analysis`` (G' and its race partitions, section 4.2) is built from
    ``(trace, hb, observed_races)`` on first read unless passed in.  A
    racy report builds it, and so sweeps ``races``, at construction,
    since everything that reads a racy report reads its first
    partitions; a race-free report does neither unless something asks
    (the verdict, ``format()`` and ``certified_race_count`` never do,
    by Theorem 4.1).
    """

    #: Serialized report ``kind``; subclasses (the predictive SHB/WCP
    #: reports) override it and inherit the to_json/from_json plumbing.
    kind = "postmortem"

    trace: Trace
    hb: HappensBefore1
    races: List[EventRace] = LazyField("_all_races")
    analysis: PartitionAnalysis = LazyField("_partition")
    #: the data half's races when ``races`` is not passed
    data_half: Optional[List[EventRace]] = field(
        default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.race_free:
            # Every reader of a racy report reads G'; build it now, in
            # the detector's span.
            self.analysis

    def _all_races(self) -> List[EventRace]:
        if self.data_half is None:
            return find_races(self.trace, self.hb)
        sync = find_races(self.trace, self.hb, half="sync")
        return list(heapq.merge(self.data_half, sync,
                                key=lambda race: (race.a, race.b)))

    def _partition(self) -> PartitionAnalysis:
        return partition_races(self.trace, self.hb, self.observed_races)

    # ------------------------------------------------------------------
    @property
    def observed_races(self) -> List[EventRace]:
        """The races G' partitions: every race of the execution (the
        WCP report leaves out the races it predicts)."""
        return self.races

    @property
    def data_races(self) -> List[EventRace]:
        swept = self.races if self.data_half is None else self.data_half
        return [race for race in swept if race.is_data_race]

    @property
    def sync_races(self) -> List[EventRace]:
        return [race for race in self.races if not race.is_data_race]

    @property
    def race_free(self) -> bool:
        """No data races detected."""
        return not self.data_races

    @property
    def execution_was_sequentially_consistent(self) -> bool:
        """On Condition-3.4 hardware, no data races implies the whole
        execution was sequentially consistent (clause 1)."""
        return self.race_free

    @property
    def first_partitions(self) -> List[RacePartition]:
        """The partitions to report to the programmer (section 4.2) —
        only those containing data races are actionable.  A race-free
        report has none (Theorem 4.1), so this reads G' only when racy."""
        if self.race_free:
            return []
        return [p for p in self.analysis.data_partitions if p.is_first]

    @property
    def reported_races(self) -> List[EventRace]:
        """The data races inside first partitions."""
        return [
            race for p in self.first_partitions for race in p.data_races
        ]

    @property
    def certified_race_count(self) -> int:
        """How many *distinct real races* this report certifies.

        The paper's guarantee is partition-shaped: each first data
        partition contains at least one race that also occurs in some
        sequentially consistent execution (Theorem 4.2) — one certified
        race per partition, without saying which.  Predictive backends
        override this with per-race guarantees; hunts and benchmarks
        compare detectors by this count.
        """
        return len(self.first_partitions)

    @property
    def suppressed_races(self) -> List[EventRace]:
        """Data races *not* reported: they lie in non-first partitions
        and may never occur in any sequentially consistent execution —
        reporting them would mislead the programmer (section 3.1)."""
        reported = set()
        for race in self.reported_races:
            reported.add((race.a, race.b))
        return [
            race
            for race in self.data_races
            if (race.a, race.b) not in reported
        ]

    # ------------------------------------------------------------------
    def format(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"Post-mortem data race report ({self.trace.model_name} execution, "
            f"{self.trace.event_count} events)",
            "=" * 70,
        ]
        if self.race_free:
            lines.append("No data races detected.")
            lines.append(
                "By Condition 3.4(1) the execution was sequentially consistent."
            )
            return "\n".join(lines)
        lines.append(
            f"{len(self.data_races)} data race(s) in "
            f"{len(self.analysis.data_partitions)} "
            f"partition(s); reporting {len(self.first_partitions)} first "
            f"partition(s)."
        )
        for partition in self.first_partitions:
            lines.append("")
            lines.append(
                f"First partition #{partition.component_index} "
                f"(>=1 race here occurs in a sequentially consistent execution):"
            )
            for race in partition.data_races:
                lines.append(f"  {race.describe(self.trace)}")
                lines.append(f"    {self.trace.label(race.a)}")
                lines.append(f"    {self.trace.label(race.b)}")
        suppressed = self.suppressed_races
        if suppressed:
            lines.append("")
            lines.append(
                f"{len(suppressed)} further data race(s) suppressed "
                f"(non-first partitions; possibly artifacts of the races above):"
            )
            for race in suppressed:
                lines.append(f"  {race.describe(self.trace)}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # The shared report protocol: every detector report serializes with
    # ``to_json`` and reconstructs with ``from_json`` (hunt artifacts
    # and ``weakraces ... --json`` rely on this being uniform).
    def to_json(self) -> Dict:
        """The full report as one JSON document, trace included."""
        from ..trace.tracefile import trace_to_json

        race_index = {race: i for i, race in enumerate(self.races)}
        return {
            "kind": self.kind,
            "format": REPORT_FORMAT,
            "race_free": self.race_free,
            "trace": trace_to_json(self.trace),
            "races": [_race_record(race) for race in self.races],
            "partitions": [
                {
                    "component_index": p.component_index,
                    "is_first": p.is_first,
                    "events": sorted(
                        [e.proc, e.pos] for e in p.events
                    ),
                    "races": [race_index[race] for race in p.races],
                }
                for p in self.analysis.partitions
            ],
        }

    @classmethod
    def from_json(cls, payload: Dict) -> "RaceReport":
        """Rebuild a report from :meth:`to_json` output.

        The trace and races are restored from the payload verbatim;
        hb1 is recomputed from the restored trace, and the partition
        analysis is derived from them like any report's, so the
        returned report supports the same queries as the original.
        Symbol names are not serialized — a restored report labels
        locations ``@addr``.
        """
        from ..trace.tracefile import trace_from_json

        if payload.get("kind") != cls.kind:
            raise ValueError(
                f"expected a {cls.kind} report payload, "
                f"got kind {payload.get('kind')!r}"
            )
        trace = trace_from_json(payload["trace"])
        races = [_race_from_record(r) for r in payload["races"]]
        return cls(trace=trace, hb=HappensBefore1(trace), races=races,
                   **cls._fields_from_json(payload, races))

    @classmethod
    def _fields_from_json(cls, payload: Dict,
                          races: List[EventRace]) -> Dict:
        """The subclass fields :meth:`from_json` restores (none here)."""
        return {}

    # ------------------------------------------------------------------
    def to_dot(self, include_partitions: bool = True,
               highlight: Optional[set] = None) -> str:
        """Render the augmented happens-before-1 graph G' as DOT, in the
        style of the paper's Figure 3: po/so1 edges solid, race edges
        dashed and bidirectional, partitions boxed.  *highlight* events
        (e.g. a first partition, for ``weakraces explain --dot``) are
        filled and their partition boxes drawn bold."""
        trace = self.trace
        highlight = highlight or set()
        race_pairs = set()
        for race in self.races:
            race_pairs.add((race.a, race.b))
            race_pairs.add((race.b, race.a))

        def label_of(eid: EventId) -> str:
            event = trace.event(eid)
            if isinstance(event, SyncEvent):
                return f"{eid}\\n{event.label(trace.addr_name(event.addr))}"
            assert isinstance(event, ComputationEvent)
            return f"{eid}\\n{event.label(trace.addr_name)}"

        def edge_attrs(src: EventId, dst: EventId) -> Dict[str, str]:
            if (src, dst) in race_pairs:
                return {"style": "dashed", "dir": "both", "color": "red"}
            return {}

        def node_attrs(eid: EventId) -> Dict[str, str]:
            if eid in highlight:
                return {"style": "filled", "fillcolor": "lightgoldenrod1"}
            return {}

        clusters: Optional[Dict[str, List[EventId]]] = None
        highlighted_clusters: set = set()
        if include_partitions:
            clusters = {}
            for partition in self.analysis.partitions:
                tag = "first" if partition.is_first else "non-first"
                label = f"partition {partition.component_index} ({tag})"
                clusters[label] = sorted(partition.events)
                if highlight and partition.events & highlight:
                    highlighted_clusters.add(label)

        def cluster_attrs(label: str) -> Dict[str, str]:
            if label in highlighted_clusters:
                return {"color": "red", "style": "bold"}
            return {}

        # Draw each race edge only once (dir=both renders the pair).
        drawn = self.hb.graph.copy()
        for race in self.races:
            drawn.add_edge(race.a, race.b)

        return to_dot(
            drawn,
            name="Gprime",
            label_of=label_of,
            node_attrs=node_attrs if highlight else None,
            edge_attrs=edge_attrs,
            clusters=clusters,
            cluster_attrs=cluster_attrs if highlighted_clusters else None,
        )
