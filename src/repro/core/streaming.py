"""Online streaming race detection: no trace, bounded state.

The post-mortem pipeline materializes the whole trace, builds hb1, and
sweeps every conflicting pair.  This module detects the *same* races
online, in the style of set-based online predictive analysis (Roemer &
Bond 2019): events are consumed one at a time in any linearization of
program order and the per-location synchronization-order chains, and
the detector keeps only

* one O(P) vector clock per processor (the clock of that processor's
  latest event),
* per synchronization location, the most recent sync write (role,
  value, writer, clock snapshot) — exactly what Definition 2.1 pairing
  needs,
* per data location, the remembered reader/writer accesses that some
  processor has *not yet seen*, pruned exactly: an access ``(q, pos)``
  is dropped the moment every other processor's clock has component
  ``>= pos+1``, because from then on every future event is hb1-after it
  and no new race can involve it (the
  :class:`~repro.core.races.FrontierSweep` kernel, which post-mortem
  detection drives too),

for O(P·V + races) state independent of stream length.  The reported
race set is byte-identical to ``find_races`` on the materialized trace
(differentially tested across the workload corpus): in a linearization
of po ∪ sync chains the later event of a pair can never be hb1-before
the earlier one, so the single epoch test ``clock_b[a.proc] < a.pos+1``
decides unorderedness exactly.

Computation events are segmented incrementally from the operation
stream (a sync operation closes the open computation, as in
:class:`~repro.trace.build.TraceBuilder`) and race-scanned at *close*
time, when their READ/WRITE sets are complete; their clock is the open
clock, which cannot change in between (only data operations intervene).

When the detector is handed a finished :class:`Trace` instead of a
live stream, it clocks the trace's
:class:`~repro.core.hb1.HappensBefore1`, as post-mortem detection
does, and feeds the rows in the order they were clocked, every
location at once, to the same frontier kernel; it then holds one clock
per event, not O(P·V) state.  A cyclic hb1 (possible on weak
executions, section 3.1) is clocked over its SCC condensation, so the
race-set guarantee holds on every trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .. import obs
from ..machine.operations import MemoryOperation, OperationKind, SyncRole
from ..trace.build import Trace
from .hb1 import HappensBefore1
from .races import EventRace, FrontierSweep
from .report import REPORT_FORMAT, _race_from_record, _race_record


class _StreamEngine(FrontierSweep):
    """The O(P·V) online front end of the frontier sweep: it adds the
    per-location sync pairing state and keeps each processor's clock
    current as operations arrive."""

    def __init__(self, processor_count: int) -> None:
        # self.clock[p] is updated in place: the po predecessor's clock
        # is exactly the previous value
        super().__init__(processor_count)
        # addr -> (is_release, value, writer proc, clock snapshot)
        self.last_sync_write: Dict[int, Tuple[bool, int, int, Tuple[int, ...]]] = {}
        self.event_count = 0

    # ------------------------------------------------------------------
    def process_sync(self, proc: int, pos: int, addr: int, is_write: bool,
                     role: SyncRole, value: int) -> None:
        clock = self.clock[proc]
        joined = False
        if not is_write and role is SyncRole.ACQUIRE:
            last = self.last_sync_write.get(addr)
            # Definition 2.1(3): pairs iff the most recent sync write to
            # the location is a release by another processor writing the
            # value this acquire returns
            if (
                last is not None
                and last[0]
                and last[1] == value
                and last[2] != proc
            ):
                snapshot = last[3]
                for i in range(self.nproc):
                    if snapshot[i] > clock[i]:
                        clock[i] = snapshot[i]
                        joined = True
        clock[proc] = pos + 1
        if joined and self.nproc > 1:
            self.recompute_min()
        if is_write:
            self.access(proc, pos, False, (), (addr,), clock)
            self.last_sync_write[addr] = (
                role is SyncRole.RELEASE, value, proc, tuple(clock),
            )
        else:
            self.access(proc, pos, False, (addr,), (), clock)
        self.event_count += 1

    def open_comp(self, proc: int, pos: int) -> None:
        """A computation event starts: claim its own clock component now
        so later releases on this processor carry it."""
        self.clock[proc][proc] = pos + 1

    def close_comp(self, proc: int, pos: int,
                   reads: Iterable[int], writes: Iterable[int]) -> None:
        """The computation's READ/WRITE sets are complete: scan it with
        its open-time clock (unchanged in between — only data operations
        intervene) and remember it."""
        self.access(proc, pos, True, reads, writes, self.clock[proc])
        self.event_count += 1


@dataclass
class StreamingReport:
    """What online detection can report: the race set plus stream
    statistics — no trace, no hb1 graph, no partitions (those need the
    whole trace, which streaming deliberately never holds)."""

    kind = "streaming"

    processor_count: int
    model_name: str
    races: List[EventRace]
    event_count: int
    operation_count: int = 0
    retained_peak: int = 0
    pruned_entries: int = 0

    @property
    def data_races(self) -> List[EventRace]:
        return [race for race in self.races if race.is_data_race]

    @property
    def sync_races(self) -> List[EventRace]:
        return [race for race in self.races if not race.is_data_race]

    @property
    def race_free(self) -> bool:
        return not self.data_races

    @property
    def reported_races(self) -> List[EventRace]:
        return self.data_races

    @property
    def certified_race_count(self) -> int:
        """Streaming keeps no partition structure, so only the paper's
        set-level guarantee applies (Theorem 4.2 read at the level of
        the whole report): when any data race is reported, at least one
        reported race occurs in some sequentially consistent execution.
        One certified race for a racy report, zero for a clean one."""
        return 1 if self.data_races else 0

    # ------------------------------------------------------------------
    def format(self) -> str:
        lines = [
            f"Streaming data race report ({self.model_name} execution, "
            f"{self.event_count} events online)",
            "=" * 70,
        ]
        if self.race_free:
            lines.append("No data races detected.")
            lines.append(
                "By Condition 3.4(1) the execution was sequentially "
                "consistent."
            )
        else:
            lines.append(
                f"{len(self.data_races)} data race(s) detected online "
                f"(>=1 occurs in a sequentially consistent execution):"
            )
            for race in self.data_races:
                lines.append(f"  {race.describe()}")
            if self.sync_races:
                lines.append(
                    f"{len(self.sync_races)} sync-sync race(s) noted "
                    f"(not data races per Definition 2.4)."
                )
        lines.append(
            f"[retained peak {self.retained_peak} access(es), "
            f"{self.pruned_entries} pruned]"
        )
        return "\n".join(lines)

    def to_json(self) -> Dict:
        return {
            "kind": self.kind,
            "format": REPORT_FORMAT,
            "race_free": self.race_free,
            "processor_count": self.processor_count,
            "model_name": self.model_name,
            "event_count": self.event_count,
            "operation_count": self.operation_count,
            "retained_peak": self.retained_peak,
            "pruned_entries": self.pruned_entries,
            "races": [_race_record(race) for race in self.races],
        }

    @classmethod
    def from_json(cls, payload: Dict) -> "StreamingReport":
        if payload.get("kind") != cls.kind:
            raise ValueError(
                f"expected a {cls.kind} report payload, "
                f"got kind {payload.get('kind')!r}"
            )
        return cls(
            processor_count=payload["processor_count"],
            model_name=payload["model_name"],
            races=[_race_from_record(r) for r in payload["races"]],
            event_count=payload["event_count"],
            operation_count=payload.get("operation_count", 0),
            retained_peak=payload.get("retained_peak", 0),
            pruned_entries=payload.get("pruned_entries", 0),
        )


class StreamingDetector:
    """Consume events online and report the exact hb1 race set."""

    # ------------------------------------------------------------------
    def analyze_operations(
        self,
        operations: Iterable[MemoryOperation],
        *,
        processor_count: int,
        model_name: str = "unknown",
    ) -> StreamingReport:
        """Consume a memory-operation stream in emission order (which
        linearizes po and the per-location sync chains by construction),
        segmenting computation events incrementally."""
        with obs.span("detect.streaming") as sp:
            engine = _StreamEngine(processor_count)
            # per-proc open computation: [pos, reads, writes]
            open_comp: List[Optional[list]] = [None] * processor_count
            next_pos = [0] * processor_count
            nops = 0
            for op in operations:
                nops += 1
                p = op.proc
                if op.is_sync:
                    current = open_comp[p]
                    if current is not None:
                        engine.close_comp(p, *current)
                        open_comp[p] = None
                    pos = next_pos[p]
                    next_pos[p] += 1
                    engine.process_sync(
                        p, pos, op.addr,
                        op.kind is OperationKind.WRITE, op.role, op.value,
                    )
                else:
                    current = open_comp[p]
                    if current is None:
                        pos = next_pos[p]
                        next_pos[p] += 1
                        current = [pos, set(), set()]
                        open_comp[p] = current
                        engine.open_comp(p, pos)
                    if op.kind is OperationKind.READ:
                        current[1].add(op.addr)
                    else:
                        current[2].add(op.addr)
            for p in range(processor_count):
                current = open_comp[p]
                if current is not None:
                    engine.close_comp(p, *current)
            races = engine.finish()
            if sp.enabled:
                sp.add("operations", nops)
                sp.add("events", engine.event_count)
                sp.add("retained_peak", engine.retained_peak)
                sp.add("pruned_entries", engine.pruned)
                sp.add("races", len(races))
        return StreamingReport(
            processor_count=processor_count,
            model_name=model_name,
            races=races,
            event_count=engine.event_count,
            operation_count=nops,
            retained_peak=engine.retained_peak,
            pruned_entries=engine.pruned,
        )

    def analyze_execution(self, result) -> StreamingReport:
        return self.analyze_operations(
            result.operations,
            processor_count=result.processor_count,
            model_name=result.model_name,
        )

    # ------------------------------------------------------------------
    def analyze(self, trace: Trace) -> StreamingReport:
        """Stream a finished trace: its events in the order its
        :class:`HappensBefore1` clocked them, through the frontier
        kernel."""
        with obs.span("detect.streaming") as sp:
            sweep = FrontierSweep(trace.processor_count)
            sweep.run(trace, HappensBefore1(trace))
            races = sweep.finish()
            if sp.enabled:
                sp.add("events", trace.event_count)
                sp.add("retained_peak", sweep.retained_peak)
                sp.add("pruned_entries", sweep.pruned)
                sp.add("races", len(races))
        return StreamingReport(
            processor_count=trace.processor_count,
            model_name=trace.model_name,
            races=races,
            event_count=trace.event_count,
            retained_peak=sweep.retained_peak,
            pruned_entries=sweep.pruned,
        )
