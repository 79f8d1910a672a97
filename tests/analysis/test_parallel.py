"""Parallel hunt-engine tests: job planning, serial/parallel result
parity, deterministic merging, early stop, and failure isolation."""

import random
import time

import pytest

from repro.analysis.hunting import HuntConfig, hunt_races
from repro.analysis.parallel import (
    HuntJob,
    JobOutcome,
    merge_outcomes,
    plan_jobs,
    run_hunt,
)
from repro.machine.models import make_model
from repro.machine.propagation import PropagationPolicy, StubbornPropagation
from repro.programs.figure1 import figure1a_program
from repro.programs.kernels import locked_counter_program, racy_counter_program
from repro.programs.workqueue import buggy_workqueue_program


def _wo():
    return make_model("WO")


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------

def test_plan_is_seed_major():
    plan = plan_jobs(7, ["a", "b", "c"])
    assert [(j.seed, j.policy_name) for j in plan] == [
        (0, "a"), (0, "b"), (0, "c"),
        (1, "a"), (1, "b"), (1, "c"),
        (2, "a"),
    ]
    assert [j.index for j in plan] == list(range(7))


def test_plan_rejects_empty_policies():
    with pytest.raises(ValueError):
        plan_jobs(4, [])


# ----------------------------------------------------------------------
# serial/parallel parity (the engine's core guarantee)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("jobs", [2, 3, 5])
def test_parallel_stats_identical_to_serial(jobs):
    serial = hunt_races(racy_counter_program(), _wo, tries=12, jobs=1)
    parallel = hunt_races(racy_counter_program(), _wo, tries=12, jobs=jobs)
    assert parallel.stats() == serial.stats()
    assert parallel.summary() == serial.summary()


def test_parallel_parity_on_clean_program():
    serial = hunt_races(locked_counter_program(2, 2), _wo, tries=6, jobs=1)
    parallel = hunt_races(locked_counter_program(2, 2), _wo, tries=6, jobs=2)
    assert parallel.stats() == serial.stats()
    assert not parallel.found


def test_parallel_stop_at_first_matches_serial():
    serial = hunt_races(
        buggy_workqueue_program(), _wo, tries=30, jobs=1, stop_at_first=True
    )
    parallel = hunt_races(
        buggy_workqueue_program(), _wo, tries=30, jobs=4, stop_at_first=True
    )
    assert serial.found and parallel.found
    assert parallel.stats() == serial.stats()
    assert parallel.tries == serial.tries < 30


def test_parallel_reconstructs_first_racy_execution():
    """Workers ship neither recordings nor executions; the parent must
    rebuild the racy execution by re-simulating the winning job and
    end up with the same report."""
    serial = hunt_races(buggy_workqueue_program(), _wo, tries=9, jobs=1)
    parallel = hunt_races(buggy_workqueue_program(), _wo, tries=9, jobs=3)
    assert parallel.first_racy is not None
    assert parallel.first_report is not None
    assert parallel.recording_verified is True
    assert parallel.first_report.format() == serial.first_report.format()
    assert len(parallel.first_racy.operations) == \
           len(serial.first_racy.operations)


# ----------------------------------------------------------------------
# deterministic merge
# ----------------------------------------------------------------------

def _clean_outcomes(tries, policies):
    return [
        JobOutcome(job=job, status="clean", completed=True, operations=5)
        for job in plan_jobs(tries, policies)
    ]


def _merge(program, outcomes, stop_at_first):
    config = HuntConfig(tries=len(outcomes), max_steps=1000,
                        policies=[("stubborn", StubbornPropagation)],
                        stop_at_first=stop_at_first)
    return merge_outcomes(program, _wo, config, outcomes, model_name="WO")


def test_merge_is_independent_of_outcome_order():
    program = locked_counter_program(2, 2)
    outcomes = _clean_outcomes(9, ["stubborn"])
    baseline = _merge(program, outcomes, stop_at_first=False)
    for seed in range(5):
        shuffled = list(outcomes)
        random.Random(seed).shuffle(shuffled)
        merged = _merge(program, shuffled, stop_at_first=False)
        assert merged.stats() == baseline.stats()


def test_merge_discards_overrun_beyond_first_racy():
    """With stop_at_first, workers may complete jobs past the first
    racy index before the broadcast reaches them; the merge must drop
    those so the result matches the serial prefix."""
    program = figure1a_program()
    outcomes = _clean_outcomes(6, ["stubborn"])
    outcomes[2] = JobOutcome(job=outcomes[2].job, status="racy")
    outcomes[4] = JobOutcome(job=outcomes[4].job, status="skipped")
    merged = _merge(program, outcomes, stop_at_first=True)
    assert merged.tries == 3
    assert merged.racy_runs == 1 and merged.clean_runs == 2
    # without the stop flag everything completed is counted
    merged_all = _merge(program, outcomes, stop_at_first=False)
    assert merged_all.tries == 5  # the skipped job is never counted


# ----------------------------------------------------------------------
# failure isolation
# ----------------------------------------------------------------------

class _ExplodingPropagation(PropagationPolicy):
    def step(self, memory, rng):
        raise RuntimeError("boom")


class _SleepyPropagation(PropagationPolicy):
    def step(self, memory, rng):
        time.sleep(5.0)


_MIXED = [
    ("boom", _ExplodingPropagation),
    ("stubborn", StubbornPropagation),
]


@pytest.mark.parametrize("jobs", [1, 2])
def test_crashing_policy_recorded_not_fatal(jobs):
    result = hunt_races(
        racy_counter_program(), _wo, tries=6, policies=_MIXED, jobs=jobs
    )
    assert result.tries == 6
    assert len(result.failures) == 3
    assert all(f.policy == "boom" for f in result.failures)
    assert all("RuntimeError: boom" in f.error for f in result.failures)
    # the healthy policy still hunted normally
    assert result.per_policy["stubborn"][1] == 3
    assert "boom" not in result.per_policy
    assert "FAILED seed=0 policy=boom" in result.summary()


def test_crash_parity_between_serial_and_parallel():
    serial = hunt_races(
        racy_counter_program(), _wo, tries=6, policies=_MIXED, jobs=1
    )
    parallel = hunt_races(
        racy_counter_program(), _wo, tries=6, policies=_MIXED, jobs=2
    )
    assert parallel.stats() == serial.stats()


def test_job_timeout_recorded_as_failure():
    result = hunt_races(
        racy_counter_program(), _wo, tries=1,
        policies=[("sleepy", _SleepyPropagation)],
        jobs=1, job_timeout=0.2,
    )
    assert result.tries == 1
    assert len(result.failures) == 1
    assert "JobTimeout" in result.failures[0].error
    assert not result.found


def test_step_bound_runs_flagged():
    result = hunt_races(
        racy_counter_program(), _wo, tries=3,
        policies=[("stubborn", StubbornPropagation)],
        max_steps=5,
    )
    assert result.step_bound_runs == 3
    assert "hit the step bound" in result.summary()


def test_run_hunt_validation():
    with pytest.raises(ValueError):
        run_hunt(racy_counter_program(), _wo, HuntConfig(
            tries=0, policies=[("stubborn", StubbornPropagation)],
        ))
    with pytest.raises(ValueError):
        run_hunt(racy_counter_program(), _wo,
                 HuntConfig(tries=3, policies=[]))


def test_jobs_capped_at_job_count():
    result = hunt_races(racy_counter_program(), _wo, tries=2, jobs=16)
    assert result.jobs <= 2
