"""Recording equivalence properties for the delivery-log recorder.

`_RecordingPropagation` used to infer each step's voluntary deliveries
by snapshotting and diffing every pending write's remaining-reader set
around the inner policy step — O(pending x readers) per step and the
hunt's single hottest function.  It now drains the memory system's
O(deliveries) log instead.  The change is only safe if

* wrapping an execution in the recorder never perturbs it: a recorded
  run and a bare run with the same seed must produce identical
  operation streams (the recorder consumes no RNG and delivers
  nothing itself) on every model.  This is also the premise of the
  hunt's record on demand: tries run bare, and only the winning try
  is re-simulated under the recorder; and
* the recordings it produces are *byte-identical* to the old diff
  format — existing recording files must replay against the new code
  and vice versa, so the deliveries must come out in the exact order
  the diff emitted (increasing pending seq, then sorted readers).

The old diff-based recorder is reimplemented here verbatim as the
reference implementation.
"""

import json
import random
from typing import List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.models import ALL_MODEL_NAMES, make_model
from repro.machine.memory import MemorySystem
from repro.machine.propagation import (
    EagerPropagation,
    HoldbackPropagation,
    HomeDirectoryPropagation,
    PropagationPolicy,
    RandomPropagation,
    StoreBufferPropagation,
    StubbornPropagation,
)
from repro.machine.replay import (
    ExecutionRecording,
    _RecordingScheduler,
    executions_equal,
    record_execution,
    replay_execution,
)
from repro.machine.scheduler import RandomScheduler
from repro.machine.simulator import Simulator, run_program
from repro.programs import (
    buggy_workqueue_program,
    producer_consumer_program,
    racy_counter_program,
    single_race_program,
)

from tests.properties.test_prop_machine import random_racy_program


class _DiffRecordingPropagation(PropagationPolicy):
    """The old snapshot-diff recorder, kept as the reference."""

    def __init__(self, inner: PropagationPolicy, recording: ExecutionRecording):
        self.inner = inner
        self.recording = recording

    def step(self, memory: MemorySystem, rng: random.Random) -> None:
        before = {
            pw.seq: set(pw.remaining) for pw in memory.pending_writes()
        }
        self.inner.step(memory, rng)
        after = {
            pw.seq: set(pw.remaining) for pw in memory.pending_writes()
        }
        delivered: List[Tuple[int, int]] = []
        for seq, readers in before.items():
            now = after.get(seq, set())
            for reader in sorted(readers - now):
                delivered.append((seq, reader))
        self.recording.deliveries.append(delivered)


def _record_with_diff(program, model, policy, seed, max_steps=50_000):
    recording = ExecutionRecording(model_name=model.name)
    sim = Simulator(
        program,
        model,
        scheduler=_RecordingScheduler(RandomScheduler(), recording),
        propagation=_DiffRecordingPropagation(policy, recording),
        seed=seed,
    )
    return sim.run(max_steps=max_steps), recording


PROGRAMS = [
    ("racy-counter", lambda: racy_counter_program(2, 2)),
    ("workqueue-buggy", buggy_workqueue_program),
    ("producer-consumer", lambda: producer_consumer_program(3)),
    ("single-race", single_race_program),
]

POLICIES = [
    ("random-0.2", lambda: RandomPropagation(0.2)),
    ("random-0.5", lambda: RandomPropagation(0.5)),
    ("stubborn", StubbornPropagation),
    ("eager", EagerPropagation),
    ("holdback", lambda: HoldbackPropagation({0})),
    ("ring", lambda: HomeDirectoryPropagation.ring(2)),
    ("store-buffer", lambda: StoreBufferPropagation(0.3)),
]


@given(
    seed=st.integers(0, 500),
    program_index=st.integers(0, len(PROGRAMS) - 1),
    policy_index=st.integers(0, len(POLICIES) - 1),
    model=st.sampled_from(ALL_MODEL_NAMES),
)
@settings(max_examples=60, deadline=None)
def test_recording_wrapper_does_not_perturb_execution(
    seed, program_index, policy_index, model
):
    """Recorded run == bare run with the same seed, operation for
    operation (the recorder is a pure observer)."""
    _, build = PROGRAMS[program_index]
    _, policy = POLICIES[policy_index]
    program = build()
    bare = run_program(
        program, make_model(model), propagation=policy(), seed=seed
    )
    recorded, _recording = record_execution(
        program, make_model(model), propagation=policy(), seed=seed
    )
    assert executions_equal(bare, recorded)


@given(
    seed=st.integers(0, 500),
    program_index=st.integers(0, len(PROGRAMS) - 1),
    policy_index=st.integers(0, len(POLICIES) - 1),
    model=st.sampled_from(["SC", "WO", "RCsc"]),
)
@settings(max_examples=60, deadline=None)
def test_delivery_log_matches_diff_format(
    seed, program_index, policy_index, model
):
    """The delivery-log recorder emits exactly the old diff-based
    recorder's schedule and per-step deliveries, and its recording
    replays to the original execution."""
    _, build = PROGRAMS[program_index]
    _, policy = POLICIES[policy_index]
    program = build()
    old_result, old_recording = _record_with_diff(
        program, make_model(model), policy(), seed
    )
    new_result, new_recording = record_execution(
        program, make_model(model), propagation=policy(), seed=seed,
        max_steps=50_000,
    )
    assert executions_equal(old_result, new_result)
    assert new_recording.schedule == old_recording.schedule
    assert [
        [tuple(d) for d in step] for step in new_recording.deliveries
    ] == [
        [tuple(d) for d in step] for step in old_recording.deliveries
    ]
    replayed = replay_execution(program, make_model(model), new_recording)
    assert executions_equal(new_result, replayed)
    # and the old-format recording replays against the new code
    replayed_old = replay_execution(program, make_model(model), old_recording)
    assert executions_equal(old_result, replayed_old)


@given(seed=st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_delivery_log_matches_diff_format_random_programs(seed):
    """Same byte-format equivalence over generated programs."""
    program = random_racy_program(seed % 300, race_prob=0.3)
    policy = RandomPropagation(0.3)
    old_result, old_recording = _record_with_diff(
        program, make_model("WO"), policy, seed
    )
    new_result, new_recording = record_execution(
        program, make_model("WO"), propagation=RandomPropagation(0.3),
        seed=seed, max_steps=50_000,
    )
    assert executions_equal(old_result, new_result)
    assert new_recording.schedule == old_recording.schedule
    assert new_recording.deliveries == old_recording.deliveries


def test_recording_files_byte_identical(tmp_path):
    """The serialized artifacts agree byte for byte: a recording file
    written before this change is indistinguishable from one written
    after it."""
    program = buggy_workqueue_program()
    saw_deliveries = False
    for seed in range(6):
        old_result, old_recording = _record_with_diff(
            program, make_model("WO"), RandomPropagation(0.2), seed
        )
        _, new_recording = record_execution(
            program, make_model("WO"), propagation=RandomPropagation(0.2),
            seed=seed,
        )
        old_path = tmp_path / f"old-{seed}.json"
        new_path = tmp_path / f"new-{seed}.json"
        old_recording.save(old_path)
        new_recording.save(new_path)
        assert old_path.read_bytes() == new_path.read_bytes()
        saw_deliveries = saw_deliveries or any(
            step for step in json.loads(new_path.read_text())["deliveries"]
        )
    # the comparison must not be vacuous: at least one recording holds
    # actual voluntary deliveries
    assert saw_deliveries
