"""Explaining why a race was suppressed (or reported).

The detector's report tells the programmer *which* races to chase; this
module answers the follow-up question — "why was this other race
hidden?" — by extracting the G' path that witnesses the affects
relation (Definition 3.3): a chain of program-order steps, paired
synchronization, and earlier races leading from a first-partition event
to the suppressed race.  Each hop is labelled with its justification,
turning the formalism into a readable causal story.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from ..graph import shortest_path
from ..trace.events import EventId
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
    """Build the affects chain for *race* from the report's G'."""
    reported = {(r.a, r.b) for r in report.reported_races}
    if (race.a, race.b) in reported:
        return RaceExplanation(
            race=race, is_first=True, root_race=None, steps=[]
        )

    gprime = report.analysis.gprime
    best: Optional[Tuple[EventRace, List[EventId]]] = None
    for root in report.reported_races:
        for src in (root.a, root.b):
            for dst in (race.a, race.b):
                path = (
                    [src, dst] if src == dst
                    else shortest_path(gprime, src, dst)
                )
                if path is None:
                    continue
                if best is None or len(path) < len(best[1]):
                    best = (root, path)
    if best is None:
        # Not reachable from any reported race (e.g. an independent
        # non-first classification anomaly); report it as unexplained
        # first-like.
        return RaceExplanation(
            race=race, is_first=False, root_race=None, steps=[]
        )
    root, path = best
    so1 = set(report.hb.so1_edges)
    steps = [
        ExplanationStep(a, b, _classify_edge(so1, a, b))
        for a, b in zip(path, path[1:])
    ]
    return RaceExplanation(
        race=race, is_first=False, root_race=root, steps=steps
    )


def explain_report(report: RaceReport) -> str:
    """Explanations for every data race in the execution."""
    sections = []
    for race in report.data_races:
        sections.append(explain_race(report, race).format(report))
    if not sections:
        return "No data races: nothing to explain."
    return "\n\n".join(sections)
