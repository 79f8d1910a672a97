"""The naive baseline: report every race of the weak execution.

Section 3.1: "naively using the dynamic techniques would report all of
these data races" — including the non-sequentially-consistent ones that
could never occur on SC hardware and only confuse the programmer.  This
detector is the paper's strawman, implemented so the accuracy benches
can quantify how much the first-partition method narrows the report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .. import obs
from ..core.races import EventRace, find_races
from ..core.report import REPORT_FORMAT, _race_from_record, _race_record
from ..trace.build import Trace


@dataclass
class NaiveReport:
    """Everything the naive detector says: all data races, unfiltered."""

    trace: Trace
    races: List[EventRace]

    @property
    def data_races(self) -> List[EventRace]:
        return [race for race in self.races if race.is_data_race]

    @property
    def race_free(self) -> bool:
        return not self.data_races

    def format(self) -> str:
        lines = [
            f"Naive race report ({self.trace.model_name} execution): "
            f"{len(self.data_races)} data race(s)"
        ]
        for race in self.data_races:
            lines.append(f"  {race.describe(self.trace)}")
        return "\n".join(lines)

    # -- shared report protocol ----------------------------------------
    def to_json(self) -> Dict:
        from ..trace.tracefile import trace_to_json

        return {
            "kind": "naive",
            "format": REPORT_FORMAT,
            "race_free": self.race_free,
            "trace": trace_to_json(self.trace),
            "races": [_race_record(race) for race in self.races],
        }

    @classmethod
    def from_json(cls, payload: Dict) -> "NaiveReport":
        from ..trace.tracefile import trace_from_json

        if payload.get("kind") != "naive":
            raise ValueError(
                f"expected a naive report payload, "
                f"got kind {payload.get('kind')!r}"
            )
        return cls(
            trace=trace_from_json(payload["trace"]),
            races=[_race_from_record(r) for r in payload["races"]],
        )


class NaiveDetector:
    """Applies the SC-system dynamic technique to a weak trace verbatim."""

    def analyze(self, trace: Trace) -> NaiveReport:
        with obs.span("detect.naive"):
            return NaiveReport(trace=trace, races=find_races(trace))
