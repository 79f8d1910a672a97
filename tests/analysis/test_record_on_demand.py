"""Record on demand: hunt tries run unrecorded, and only the winning
try is re-simulated under :func:`~repro.machine.replay.record_execution`.

The guard counts recording simulations exactly, across fork workers
too (the counter lives in shared memory), so a regression that records
per try fails here rather than hiding in benchmark noise.
"""

import multiprocessing
import threading

import pytest

from repro.analysis import parallel
from repro.analysis.hunting import hunt_races, policies_by_name
from repro.machine.models import make_model
from repro.machine.propagation import EagerPropagation, StubbornPropagation
from repro.machine.replay import record_execution
from repro.programs import store_buffering_program
from repro.programs.kernels import locked_counter_program
from repro.programs.workqueue import buggy_workqueue_program


def _wo():
    return make_model("WO")


@pytest.fixture
def record_calls(monkeypatch):
    """Count every record_execution the hunt engine makes, in the
    parent and in forked workers alike."""
    calls = multiprocessing.get_context("fork").Value("i", 0)

    def counting(*args, **kwargs):
        with calls.get_lock():
            calls.value += 1
        return record_execution(*args, **kwargs)

    monkeypatch.setattr(parallel, "record_execution", counting)
    return calls


@pytest.mark.parametrize("options", [
    dict(jobs=1),
    dict(jobs=2),
    dict(jobs=1, stop_at_first=True),
    dict(jobs=2, stop_at_first=True),
], ids=["serial", "pool", "serial-stop", "pool-stop"])
def test_racy_hunt_records_exactly_once(record_calls, options):
    program = buggy_workqueue_program()
    result = hunt_races(program, _wo, tries=12, **options)
    assert result.found and result.recording_verified is True
    assert record_calls.value == 1
    # The on-demand recording is the one a direct recording of the
    # winning job makes.
    (_, factory), = policies_by_name([result.policy],
                                     program.processor_count)
    _, direct = record_execution(program, _wo(), seed=result.seed,
                                 propagation=factory())
    assert result.recording.schedule == direct.schedule
    assert result.recording.deliveries == direct.deliveries


def test_resumed_hunt_records_exactly_once(record_calls, tmp_path):
    program = buggy_workqueue_program()
    full = hunt_races(program, _wo, tries=12)
    path = tmp_path / "hunt.ckpt"
    cancel = threading.Event()
    settled = []

    def cancel_after_four(outcome):
        settled.append(outcome)
        if len(settled) == 4:
            cancel.set()

    partial = hunt_races(program, _wo, tries=12, checkpoint=path,
                         checkpoint_interval=1, cancel=cancel,
                         on_outcome=cancel_after_four)
    assert partial.interrupted and partial.tries < 12
    record_calls.value = 0
    resumed = hunt_races(program, _wo, tries=12, checkpoint=path,
                         resume=True)
    assert resumed.resumed_jobs == partial.tries
    assert record_calls.value == 1
    assert resumed.stats() == full.stats()
    assert resumed.recording.to_payload() == full.recording.to_payload()


def test_clean_hunt_never_records(record_calls):
    for jobs in (1, 2):
        result = hunt_races(locked_counter_program(2, 2), _wo, tries=6,
                            jobs=jobs)
        assert not result.found and result.recording is None
    assert record_calls.value == 0


def test_divergent_resimulation_fails_verification():
    """A policy factory whose instances share state breaks the
    determinism premise: the winner's re-simulation (the fourth
    instance) runs eager where its try ran stubborn.  The digest check
    catches it, and the merged statistics are untouched."""
    made = []

    def drifting():
        made.append(None)
        return StubbornPropagation() if len(made) <= 3 else EagerPropagation()

    program = store_buffering_program()
    drifted = hunt_races(program, _wo, tries=3,
                         policies=[("stubborn", drifting)])
    steady = hunt_races(program, _wo, tries=3,
                        policies=[("stubborn", StubbornPropagation)])
    assert len(made) == 4  # three tries, one re-simulation
    assert steady.recording_verified is True
    assert drifted.recording_verified is False
    assert "WARNING: recording failed replay verification" \
        in drifted.summary()
    stats = drifted.stats()
    expected = steady.stats()
    del stats["recording_verified"], expected["recording_verified"]
    assert stats == expected
