"""Deterministic execution record and replay.

The paper argues (sections 1 and 5) that once races are detected, the
sequentially consistent prefix lets ordinary debugging tools be applied
to the part of the execution containing the first bugs.  The tool every
race debugger leans on is *replay*: re-running the exact execution that
exhibited the race.  This module captures the two sources of
nondeterminism in the simulator — scheduler picks and voluntary write
propagation — and replays them, reproducing the operation stream
bit-for-bit (same schedule + same deliveries + deterministic processors
=> same execution).

Recordings serialize to JSON so an execution captured in production can
be replayed in a later debugging session, alongside its trace file.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from ..ioutil import atomic_write_text
from .memory import MemorySystem
from .models.base import MemoryModel
from .program import Program
from .propagation import PropagationPolicy, RandomPropagation
from .scheduler import RandomScheduler, Scheduler
from .simulator import ExecutionResult, Simulator


class ReplayError(RuntimeError):
    """The recording does not match the program/model being replayed."""


@dataclass
class ExecutionRecording:
    """Everything needed to reproduce one simulated execution."""

    model_name: str
    schedule: List[int] = field(default_factory=list)
    deliveries: List[List[Tuple[int, int]]] = field(default_factory=list)

    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """The recording as plain JSON-able data (the on-disk
        schema)."""
        return {
            "format": 1,
            "model": self.model_name,
            "schedule": self.schedule,
            "deliveries": [
                [[seq, reader] for seq, reader in step]
                for step in self.deliveries
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ExecutionRecording":
        if payload.get("format") != 1:
            raise ReplayError(f"unsupported recording format {payload.get('format')!r}")
        return cls(
            model_name=payload["model"],
            schedule=list(payload["schedule"]),
            deliveries=[
                [(seq, reader) for seq, reader in step]
                for step in payload["deliveries"]
            ],
        )

    def save(self, path: Union[str, Path]) -> None:
        # Atomic so a crash mid-save never tears a replay artifact.
        atomic_write_text(path, json.dumps(self.to_payload()))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ExecutionRecording":
        return cls.from_payload(
            json.loads(Path(path).read_text(encoding="utf-8"))
        )


class _RecordingScheduler(Scheduler):
    def __init__(self, inner: Scheduler, recording: ExecutionRecording) -> None:
        self.inner = inner
        self.recording = recording

    def pick(self, runnable: Sequence[int], rng: random.Random) -> int:
        pid = self.inner.pick(runnable, rng)
        self.recording.schedule.append(pid)
        return pid


class _RecordingPropagation(PropagationPolicy):
    """Wraps a policy; captures this step's deliveries by draining the
    memory system's voluntary-delivery log after the inner step —
    O(deliveries) per step, where the old snapshot-diff was
    O(pending x readers).  Flushes happen inside processor steps, never
    here, so the drained log is exactly the voluntary deliveries.

    The drained entries are sorted by ``(seq, reader)``, which is the
    order the diff-based recorder emitted (increasing pending seq, then
    sorted readers), keeping recording files byte-identical across the
    two implementations."""

    def __init__(
        self, inner: PropagationPolicy, recording: ExecutionRecording
    ) -> None:
        self.inner = inner
        self.recording = recording
        self._armed = False

    def step(self, memory: MemorySystem, rng: random.Random) -> None:
        if not self._armed:
            memory.enable_delivery_log()
            self._armed = True
        self.inner.step(memory, rng)
        delivered = memory.drain_deliveries()
        delivered.sort()
        self.recording.deliveries.append(delivered)


class _ReplayScheduler(Scheduler):
    def __init__(self, schedule: List[int]) -> None:
        self.schedule = schedule
        self._pos = 0

    def pick(self, runnable: Sequence[int], rng: random.Random) -> int:
        if self._pos >= len(self.schedule):
            raise ReplayError(
                f"recording exhausted after {self._pos} steps but the "
                f"execution is still running (program/model mismatch?)"
            )
        pid = self.schedule[self._pos]
        self._pos += 1
        if pid not in runnable:
            raise ReplayError(
                f"step {self._pos - 1}: recorded pick P{pid} is not "
                f"runnable (program/model mismatch?)"
            )
        return pid


class _ReplayPropagation(PropagationPolicy):
    def __init__(self, deliveries: List[List[Tuple[int, int]]]) -> None:
        self.deliveries = deliveries
        self._pos = 0

    def step(self, memory: MemorySystem, rng: random.Random) -> None:
        if self._pos >= len(self.deliveries):
            raise ReplayError("recording exhausted mid-replay")
        step = self.deliveries[self._pos]
        self._pos += 1
        if not step:
            return
        by_seq = {pw.seq: pw for pw in memory.pending_writes()}
        for seq, reader in step:
            pw = by_seq.get(seq)
            if pw is None or reader not in pw.remaining:
                raise ReplayError(
                    f"recorded delivery (write seq {seq} -> P{reader}) "
                    f"is not pending (program/model mismatch?)"
                )
            memory.propagate(pw, reader)


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------

def record_execution(
    program: Program,
    model: MemoryModel,
    scheduler: Optional[Scheduler] = None,
    propagation: Optional[PropagationPolicy] = None,
    seed: Optional[int] = 0,
    max_steps: int = 200_000,
) -> Tuple[ExecutionResult, ExecutionRecording]:
    """Run *program* while capturing every nondeterministic choice."""
    recording = ExecutionRecording(model_name=model.name)
    sim = Simulator(
        program,
        model,
        scheduler=_RecordingScheduler(scheduler or RandomScheduler(), recording),
        propagation=_RecordingPropagation(
            propagation or RandomPropagation(), recording
        ),
        seed=seed,
    )
    result = sim.run(max_steps=max_steps)
    return result, recording


def replay_execution(
    program: Program,
    model: MemoryModel,
    recording: ExecutionRecording,
    max_steps: int = 200_000,
) -> ExecutionResult:
    """Reproduce a recorded execution exactly.

    Raises :class:`ReplayError` when the recording does not fit the
    supplied program/model (e.g. the source was edited).
    """
    if model.name != recording.model_name:
        raise ReplayError(
            f"recording was made on {recording.model_name!r}, "
            f"replaying on {model.name!r}"
        )
    sim = Simulator(
        program,
        model,
        scheduler=_ReplayScheduler(recording.schedule),
        propagation=_ReplayPropagation(recording.deliveries),
        seed=0,
    )
    return sim.run(max_steps=min(max_steps, len(recording.schedule)))


def verify_recording(
    program: Program,
    model: MemoryModel,
    recording: ExecutionRecording,
    expected: ExecutionResult,
    max_steps: int = 200_000,
) -> bool:
    """True iff *recording* replays to exactly *expected*.

    A recording is only useful as a debugging artifact if replaying it
    reproduces the execution it was captured from; callers that hand a
    recording to a user (e.g. the race hunt) should verify it first
    rather than advertise a replay that will diverge or fail.
    """
    try:
        replayed = replay_execution(program, model, recording, max_steps=max_steps)
    except ReplayError:
        return False
    return executions_equal(expected, replayed)


def executions_equal(a: ExecutionResult, b: ExecutionResult) -> bool:
    """True iff *b* reproduces *a*: the same operations (every field,
    program points included), final memory, raw SCP cuts, registers,
    per-processor stats, step count and buffer traffic.  The seed and
    the delivery-log count record how a run was driven, not what it
    did, so a replay may differ in them."""
    return all(getattr(a, name) == getattr(b, name) for name in (
        "operations", "final_memory", "raw_scp_cuts", "registers", "stats",
        "completed", "steps", "flush_count", "propagated_writes"))
