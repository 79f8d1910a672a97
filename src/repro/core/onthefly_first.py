"""On-the-fly *first-race* location — the paper's stated future work.

Section 5 closes: "Future work includes investigating how our method
might be employed on-the-fly to locate the first data races."  This
module is that prototype.  It extends the streaming detector with an
online approximation of the affects relation (Definition 3.3):

* when a race is detected, each endpoint seeds *contamination* for its
  processor from the endpoint's clock tick onward;
* contamination propagates exactly like happens-before: an operation is
  contaminated iff its processor's vector clock has absorbed any seed
  (so release/acquire pairing carries contamination across processors,
  mirroring the hb1 clauses of Definition 3.3);
* a detected race is reported as *first* iff neither endpoint was
  already contaminated — i.e. it is not (known to be) affected by any
  earlier race.

The approximation is one-sided by construction of the streaming order:
races are observed at their second endpoint, so a seed is always
planted no later than any operation it could affect; what can be missed
is chaining through races whose own endpoints were evicted from the
bounded history.  The benchmark ``bench_onthefly_first`` compares the
prototype's first set against the post-mortem first partitions.
"""

from __future__ import annotations

from typing import List, Optional

from ..machine.operations import MemoryOperation
from .onthefly import OnTheFlyDetector, OnTheFlyRace, _Access
from .vector_clock import VectorClock


class FirstRaceOnTheFlyDetector(OnTheFlyDetector):
    """Streaming detector that classifies races as first / non-first."""

    def __init__(
        self,
        processor_count: int,
        reader_history: int = 4,
        writer_history: int = 1,
    ) -> None:
        super().__init__(processor_count, reader_history, writer_history)
        # earliest contaminated tick per processor (None = clean)
        self._thresholds: List[Optional[int]] = [None] * processor_count
        self.first_races: List[OnTheFlyRace] = []
        self.non_first_races: List[OnTheFlyRace] = []

    # ------------------------------------------------------------------
    def _contaminated(self, clock: VectorClock) -> bool:
        """Has *clock* absorbed any contamination seed?"""
        for proc, threshold in enumerate(self._thresholds):
            if threshold is not None and clock[proc] >= threshold:
                return True
        return False

    def _seed(self, proc: int, tick: int) -> None:
        current = self._thresholds[proc]
        if current is None or tick < current:
            self._thresholds[proc] = tick

    # ------------------------------------------------------------------
    def _on_race(self, race: OnTheFlyRace, access: _Access,
                 op: MemoryOperation) -> None:
        current_clock = self.clocks[op.proc]
        affected = (
            self._contaminated(access.clock)
            or self._contaminated(current_clock)
        )
        if affected:
            self.non_first_races.append(race)
        else:
            self.first_races.append(race)
        # Both endpoints now contaminate everything that happens after
        # them (Definition 3.3 clauses (2) and (3) via transitivity of
        # the clock propagation).
        self._seed(access.proc, access.tick)
        self._seed(op.proc, current_clock[op.proc])
