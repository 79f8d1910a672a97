"""Record/replay tests."""

import dataclasses

import pytest

from repro.machine.models import make_model
from repro.machine.propagation import RandomPropagation, StubbornPropagation
from repro.machine.replay import (
    ExecutionRecording,
    ReplayError,
    executions_equal,
    record_execution,
    replay_execution,
    verify_recording,
)
from repro.programs.figure1 import figure1a_program, figure1b_program
from repro.programs.kernels import locked_counter_program
from repro.programs.workqueue import buggy_workqueue_program


def test_replay_reproduces_execution_exactly():
    program = buggy_workqueue_program()
    model = make_model("WO")
    original, recording = record_execution(program, model, seed=17)
    replayed = replay_execution(program, make_model("WO"), recording)
    assert executions_equal(original, replayed)
    assert replayed.stale_reads == original.stale_reads


def test_replay_preserves_stale_reads_and_cuts():
    program = buggy_workqueue_program()
    original, recording = record_execution(
        program, make_model("RCsc"), seed=23,
        propagation=RandomPropagation(0.2),
    )
    replayed = replay_execution(program, make_model("RCsc"), recording)
    assert [op.seq for op in replayed.stale_reads] == \
           [op.seq for op in original.stale_reads]
    assert replayed.raw_scp_cuts == original.raw_scp_cuts


def test_replay_many_seeds():
    program = locked_counter_program(3, 2)
    for seed in range(6):
        original, recording = record_execution(
            program, make_model("WO"), seed=seed
        )
        replayed = replay_execution(program, make_model("WO"), recording)
        assert executions_equal(original, replayed), seed


def test_recording_roundtrips_through_file(tmp_path):
    program = figure1b_program()
    original, recording = record_execution(program, make_model("DRF1"), seed=5)
    path = tmp_path / "exec.replay"
    recording.save(path)
    loaded = ExecutionRecording.load(path)
    replayed = replay_execution(program, make_model("DRF1"), loaded)
    assert executions_equal(original, replayed)


def test_model_mismatch_rejected():
    program = figure1a_program()
    _, recording = record_execution(program, make_model("WO"), seed=0)
    with pytest.raises(ReplayError, match="replaying on"):
        replay_execution(program, make_model("SC"), recording)


def test_program_mismatch_detected():
    _, recording = record_execution(
        buggy_workqueue_program(), make_model("WO"), seed=3
    )
    with pytest.raises(ReplayError):
        replay_execution(figure1a_program(), make_model("WO"), recording)


def test_bad_format_rejected(tmp_path):
    path = tmp_path / "bad.replay"
    path.write_text('{"format": 99}')
    with pytest.raises(ReplayError, match="unsupported"):
        ExecutionRecording.load(path)


def test_recording_captures_stubborn_deliveries_as_empty():
    program = figure1a_program()
    _, recording = record_execution(
        program, make_model("WO"), seed=0,
        propagation=StubbornPropagation(),
    )
    assert all(step == [] for step in recording.deliveries)


def test_recording_is_picklable():
    """Recordings cross process boundaries in the parallel hunt engine;
    a pickle round-trip must preserve them exactly."""
    import pickle
    program = buggy_workqueue_program()
    original, recording = record_execution(program, make_model("WO"), seed=7)
    clone = pickle.loads(pickle.dumps(recording))
    assert clone == recording
    assert clone is not recording
    replayed = replay_execution(program, make_model("WO"), clone)
    assert executions_equal(original, replayed)


def test_verify_recording_accepts_faithful_recording():
    program = buggy_workqueue_program()
    original, recording = record_execution(program, make_model("WO"), seed=11)
    assert verify_recording(program, make_model("WO"), recording, original)


def test_verify_recording_rejects_corrupted_recording():
    program = buggy_workqueue_program()
    original, recording = record_execution(program, make_model("WO"), seed=11)
    corrupted = ExecutionRecording(
        model_name=recording.model_name,
        schedule=recording.schedule[: len(recording.schedule) // 2],
        deliveries=recording.deliveries[: len(recording.deliveries) // 2],
    )
    assert not verify_recording(program, make_model("WO"), corrupted, original)


@pytest.mark.parametrize("tamper", ["instr_index", "registers"])
def test_verify_recording_rejects_a_different_execution(tamper):
    """The winner check compares the whole execution, not only the
    operations' values: a program point or a register that differs
    from the replay fails it."""
    program = buggy_workqueue_program()
    original, recording = record_execution(program, make_model("WO"), seed=11)
    if tamper == "instr_index":
        op = original.operations[3]
        original.operations[3] = dataclasses.replace(
            op, instr_index=op.instr_index + 1)
    else:
        original.registers[1] = dict(original.registers[1], extra=1)
    assert not verify_recording(program, make_model("WO"), recording, original)


def test_verify_recording_rejects_wrong_model():
    program = buggy_workqueue_program()
    original, recording = record_execution(program, make_model("WO"), seed=11)
    assert not verify_recording(program, make_model("SC"), recording, original)


def test_replayed_analysis_identical():
    from repro.core.detector import PostMortemDetector
    program = buggy_workqueue_program()
    original, recording = record_execution(program, make_model("WO"), seed=41)
    replayed = replay_execution(program, make_model("WO"), recording)
    det = PostMortemDetector()
    assert det.analyze_execution(original).format() == \
           det.analyze_execution(replayed).format()
