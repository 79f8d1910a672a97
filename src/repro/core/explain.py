"""Explaining why a race was suppressed (or reported).

The detector's report tells the programmer *which* races to chase; this
module answers the follow-up question — "why was this other race
hidden?" — by extracting the G' path that witnesses the affects
relation (Definition 3.3): a chain of program-order steps, paired
synchronization, and earlier races leading from a first-partition event
to the suppressed race.  G' is not built: the path is a breadth-first
search over event rows along its edges.  Each hop is labelled with its
justification, turning the formalism into a readable causal story.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..trace.events import EventId
from .provenance import _bfs_reachable, _hb1_successors
from .races import EventRace
from .report import RaceReport


@dataclass(frozen=True)
class ExplanationStep:
    """One hop of the affects chain."""

    src: EventId
    dst: EventId
    kind: str  # "po" | "so1" | "race"

    def describe(self, report: RaceReport) -> str:
        arrow = {
            "po": "program order",
            "so1": "paired release->acquire",
            "race": "races with",
        }[self.kind]
        return (
            f"{report.trace.label(self.src)}\n"
            f"    --[{arrow}]--> {report.trace.label(self.dst)}"
        )


@dataclass
class RaceExplanation:
    """Why *race* was classified the way it was."""

    race: EventRace
    is_first: bool
    root_race: Optional[EventRace]
    steps: List[ExplanationStep]

    def format(self, report: RaceReport) -> str:
        lines = [f"Race {self.race.describe(report.trace)}:"]
        if self.is_first:
            lines.append(
                "  FIRST: not affected by any other race; by Theorem 4.2 "
                "its partition contains a race that occurs on SC hardware."
            )
            return "\n".join(lines)
        assert self.root_race is not None
        lines.append(
            f"  SUPPRESSED: affected by first-partition race "
            f"{self.root_race.describe(report.trace)} via:"
        )
        for step in self.steps:
            lines.append("  " + step.describe(report))
        lines.append(
            "  On sequentially consistent hardware the chain's origin "
            "could not have corrupted this code, so this race may be "
            "impossible there - fix the first race and re-run."
        )
        return "\n".join(lines)


def _classify_edge(so1: Set[Tuple[EventId, EventId]], src: EventId,
                   dst: EventId) -> str:
    # G' links events of one processor only by po; so1 and race edges
    # cross processors.
    if src.proc == dst.proc:
        return "po"
    if (src, dst) in so1:
        return "so1"
    return "race"


def explain_race(report: RaceReport, race: EventRace) -> RaceExplanation:
    """Build the affects chain for data race *race* of *report*: a
    shortest G' path to it from a reported race, found by one BFS over
    rows along po, hb1's cross rows and the race edges."""
    reported = report.reported_races
    if race in reported:
        return RaceExplanation(
            race=race, is_first=True, root_race=None, steps=[]
        )
    hb = report.hb
    roots: Dict[int, EventRace] = {}
    for root in reported:
        for eid in root.events:
            roots.setdefault(hb.row_of(eid), root)
    partners: Dict[int, List[int]] = {}
    for other in report.observed_races:
        a, b = hb.row_of(other.a), hb.row_of(other.b)
        partners.setdefault(a, []).append(b)
        partners.setdefault(b, []).append(a)
    hb1 = _hb1_successors(hb)
    parents = _bfs_reachable(
        lambda row: hb1(row) + partners.get(row, []), roots)
    # A non-first partition is preceded by a first data partition
    # (Definition 4.1), so some reported race reaches the race.
    targets = {hb.row_of(race.a), hb.row_of(race.b)}
    path = [next(row for row in parents if row in targets)]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    proc_of, pos_of = hb.proc_of, hb.pos_of
    events = [EventId(proc_of[row], pos_of[row]) for row in reversed(path)]
    so1 = set(hb.so1_edges)
    steps = [
        ExplanationStep(a, b, _classify_edge(so1, a, b))
        for a, b in zip(events, events[1:])
    ]
    return RaceExplanation(
        race=race, is_first=False, root_race=roots[path[-1]], steps=steps
    )


def explain_report(report: RaceReport) -> str:
    """Explanations for every data race in the execution."""
    sections = []
    for race in report.data_races:
        sections.append(explain_race(report, race).format(report))
    if not sections:
        return "No data races: nothing to explain."
    return "\n\n".join(sections)
