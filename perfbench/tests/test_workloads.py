"""Seed handling and output checks of the benchmark's workloads."""

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro import (
    WorkQueueParams,
    buggy_workqueue_program,
    producer_consumer_program,
)

import run
from workloads import WORKLOADS, HuntOutput, Summary, stages, work_counts

BENCH = Path(run.__file__).resolve().parent


def shape(program):
    return tuple(len(thread) for thread in program.threads)


def test_seed_zero_gives_the_defaults():
    assert WORKLOADS["hunt-workqueue"].inputs(0) == WorkQueueParams()
    assert WORKLOADS["hunt-prodcons"].inputs(0) == 64
    assert WORKLOADS["analyze-pingpong"].inputs(0) == (128, 0)


@pytest.mark.parametrize("seed", [1, 2, 17, 12345])
def test_other_seeds_give_a_same_shaped_input(seed):
    wq = WORKLOADS["hunt-workqueue"]
    params = wq.inputs(seed)
    assert params == wq.inputs(seed)  # the same seed, the same input
    assert (params.region_len, params.work_len, params.enqueued_addr) == (
        100, 100, 100)
    assert shape(buggy_workqueue_program(params)) == shape(
        buggy_workqueue_program(WorkQueueParams()))

    items = WORKLOADS["hunt-prodcons"].inputs(seed)
    assert 63 <= items <= 65
    assert len(shape(producer_consumer_program(items))) == 2

    assert WORKLOADS["analyze-pingpong"].inputs(seed) == (128, seed)


def test_seeds_vary_the_inputs():
    wq = WORKLOADS["hunt-workqueue"]
    assert len({wq.inputs(seed) for seed in range(1, 11)}) > 1
    pc = WORKLOADS["hunt-prodcons"]
    assert len({pc.inputs(seed) for seed in range(1, 11)}) > 1


def test_pingpong_seeds_simulate_same_shaped_traces(tmp_path):
    workload = WORKLOADS["analyze-pingpong"]
    (tmp_path / "0").mkdir()
    (tmp_path / "3").mkdir()
    base = workload.setup(0, str(tmp_path / "0"))
    other = workload.setup(3, str(tmp_path / "3"))
    assert base.events == 1401
    assert other.execution.processor_count == 2
    assert abs(other.events - base.events) < 0.1 * base.events
    assert other.execution.operations != base.execution.operations


def hunt_output(**changes):
    fields = dict(tries=600, racy=600, clean=0, errors=0, cache_hits=595,
                  fingerprints=frozenset("abcde"), robust=0,
                  interrupted=False)
    fields.update(changes)
    return HuntOutput(**fields)


def test_hunt_checks_pass_the_expected_output_and_count_corruption():
    wq = WORKLOADS["hunt-workqueue"]
    assert wq.check(0, None, hunt_output()) == (0, [])
    assert wq.check(5, None, hunt_output(cache_hits=590)) == (0, [])
    # a clean try on the unguarded queue
    bad, problems = wq.check(3, None, hunt_output(racy=599, clean=1))
    assert bad == 1 and problems
    # an errored try
    assert wq.check(3, None, hunt_output(racy=598, errors=2))[0] == 2
    # a seed-0 pin broken with every verdict right fails the whole hunt
    assert wq.check(0, None, hunt_output(cache_hits=594))[0] == 600
    # more hits than repeated traces is impossible
    assert wq.check(4, None, hunt_output(cache_hits=596))[0] == 600

    pc = WORKLOADS["hunt-prodcons"]
    good = hunt_output(tries=150, racy=0, clean=150, cache_hits=49,
                       fingerprints=frozenset(range(100)), robust=150)
    assert pc.check(0, None, good) == (0, [])
    bad, _ = pc.check(2, None, hunt_output(
        tries=150, racy=0, clean=150, cache_hits=50,
        fingerprints=frozenset(range(100)), robust=148))
    assert bad == 2


def agg(total, **counters):
    return {"total_sec": total, "counters": counters}


def test_stage_self_time_subtracts_direct_children_only():
    folded = stages({
        "hunt.job": agg(10.0, executions=3),
        "hunt.job/simulate": agg(6.0, steps=40),
        "hunt.job/detect.postmortem": agg(3.0),
        "hunt.job/detect.postmortem/races.find": agg(1.5, pairs_tested=7),
        "hunt.job/detect.postmortem/hb1.build": agg(0.5),
        "simulate": agg(2.0, steps=2),
    })
    assert folded["hunt.job"].self_time == pytest.approx(1.0)
    assert folded["detect.postmortem"].self_time == pytest.approx(1.0)
    # one name on two paths is folded into one stage
    assert folded["simulate"].total == pytest.approx(8.0)
    assert folded["simulate"].counters == {"steps": 42}
    counts = work_counts(folded)
    assert counts["machine.steps"] == 42 and counts["core.pairs_tested"] == 7
    assert counts["core.sccs"] == 0  # never emitted


def hunt_profile(steps=40, pairs=7):
    return {"hunt.job": agg(1.0),
            "hunt.job/simulate": agg(0.5, steps=steps, operations=20),
            "hunt.job/trace.build": agg(0.1, events=9),
            "hunt.job/detect.postmortem/races.find": agg(
                0.1, pairs_tested=pairs)}


def replay_of(output, **changes):
    replay = {"counts": work_counts(stages(hunt_profile())),
              "racy": output.racy, "robust": output.robust,
              "fingerprints": output.fingerprints,
              "cache_hits": output.cache_hits}
    replay.update(changes)
    return replay


def test_fidelity_compares_every_work_count():
    wq = WORKLOADS["hunt-workqueue"]
    output = hunt_output(stages=hunt_profile())
    assert wq.fidelity(output, replay_of(output)) == []
    assert wq.fidelity(output, replay_of(output, racy=599))
    assert wq.fidelity(output, replay_of(output, cache_hits=596))
    assert wq.fidelity(hunt_output(stages=hunt_profile(steps=41)),
                       replay_of(output))
    assert wq.fidelity(hunt_output(stages=hunt_profile(pairs=8)),
                       replay_of(output))

    pc = WORKLOADS["hunt-prodcons"]
    # On the pool a fingerprint analyzed twice adds core work, not steps.
    twice = hunt_output(cache_hits=594, stages=hunt_profile(pairs=9))
    assert pc.fidelity(twice, replay_of(twice, cache_hits=595)) == []
    assert pc.fidelity(hunt_output(cache_hits=594, stages=hunt_profile(
        steps=41, pairs=9)), replay_of(twice, cache_hits=595))
    assert pc.fidelity(hunt_output(stages=hunt_profile(pairs=9)),
                       replay_of(output))


def summary(**changes):
    fields = dict(races=633, data_races=0, first_partitions=255,
                  postmortem_digest="a" * 64, stream_digest="a" * 64,
                  retained_peak=16, robust=True, seconds=(1.0, 0.1, 0.2))
    fields.update(changes)
    return Summary(**fields)


def test_single_trace_checks():
    analyze = WORKLOADS["analyze-pingpong"]
    assert analyze.check(0, None, summary()) == (0, [])
    assert analyze.check(4, None, summary(races=600)) == (0, [])
    assert analyze.check(0, None, summary(races=632))[0] == 1
    assert analyze.check(4, None, summary(data_races=1))[0] == 1
    assert analyze.check(4, None, summary(stream_digest="b" * 64))[0] == 1
    assert analyze.check(4, None, summary(robust=False))[0] == 1


class _Corrupting:
    """A workload whose every output is replaced by a corrupted one."""

    def __init__(self, workload, corrupt):
        self.workload = workload
        self.corrupt = corrupt

    def __getattr__(self, name):
        return getattr(self.workload, name)

    def summarize(self, output):
        return self.corrupt(self.workload.summarize(output))


@pytest.mark.parametrize("corrupt", [
    lambda s: replace(s, robust=False),
    lambda s: replace(s, stream_digest="0" * 64),
    lambda s: replace(s, data_races=1),
])
def test_corrupted_outputs_are_counted_as_failed(tmp_path, corrupt):
    workload = WORKLOADS["analyze-pingpong"]
    state = workload.setup(0, str(tmp_path))
    _, attempted, failed, problems, _ = run.measure(
        workload, 0, state, seconds=0.0)
    assert attempted == 1 and failed == 0 and not problems
    _, attempted, failed, problems, _ = run.measure(
        _Corrupting(workload, corrupt), 0, state, seconds=0.0)
    assert attempted == 1 and failed == 1 and problems


def test_refuses_to_run_without_the_repository(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for source in BENCH.glob("*.py"):
        (copy / source.name).write_text(source.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hunt-workqueue",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
