"""The post-mortem detector: the paper's end-to-end pipeline.

Given a trace (from a file or straight from a simulated execution):

1. build the happens-before-1 relation from per-processor event order
   and per-location sync order (section 4.1) and clock its events, over
   its SCC condensation where weak sync ordering made it cyclic
   (section 3.1; :mod:`repro.core.hb1`),
2. find every conflicting, hb1-unordered event pair on a data
   location -- every data race lies there, so this decides the
   verdict; the races on the other (sync-only) locations are swept
   when the partitions or ``report.races`` are first read,
3. partition races by the SCCs of the augmented graph G', order
   partitions by reachability, and mark the first partitions
   (section 4.2; :mod:`repro.core.partitions` reads them off a skeleton
   over the race endpoints, not G' itself) -- only when some race is a
   data race, or when the report's partitions are read
   (:class:`~repro.core.report.RaceReport`),
4. report only the first partitions containing data races.

On hardware obeying Condition 3.4 the report is meaningful even when
the execution was not sequentially consistent: an empty report proves
the execution *was* sequentially consistent, and each reported
partition contains at least one race that would also occur on a
sequentially consistent execution.
"""

from __future__ import annotations

from .. import obs
from ..machine.simulator import ExecutionResult
from ..trace.build import Trace, build_trace
from .hb1 import HappensBefore1
from .races import find_races
from .report import RaceReport


class PostMortemDetector:
    """Stateless analysis pipeline; one ``analyze`` call per trace."""

    def analyze(self, trace: Trace) -> RaceReport:
        """Run the full pipeline on a post-mortem trace.

        Ordering queries go through the vector clocks (frontier race
        sweep, no transitive closure built at all), on cyclic hb1
        relations too.
        """
        with obs.span("detect.postmortem"):
            hb = HappensBefore1(trace)
            # The data half decides the verdict; a racy report sweeps
            # the sync half here too, when it partitions (RaceReport).
            data_half = find_races(trace, hb, half="data")
            return RaceReport(trace=trace, hb=hb, data_half=data_half)

    def analyze_execution(self, result: ExecutionResult) -> RaceReport:
        """Instrument a simulated execution and analyze it."""
        return self.analyze(build_trace(result))
