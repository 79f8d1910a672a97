"""Progress-callback and telemetry-hook tests for the hunt engine:
the serial and parallel runners must report identical (done, total,
racy) streams to subscribers, the early-stop broadcast must shorten
the stream, and the observer hooks (on_outcome, metrics) must see
every completed job."""

import pytest

from repro.analysis.hunting import HuntConfig, hunt_races
from repro.analysis.parallel import run_hunt
from repro.machine.models import make_model
from repro.machine.propagation import PropagationPolicy, StubbornPropagation
from repro.obs import metrics
from repro.programs.kernels import racy_counter_program
from repro.programs.workqueue import buggy_workqueue_program


def _wo():
    return make_model("WO")


class _ExplodingPropagation(PropagationPolicy):
    def step(self, memory, rng):
        raise RuntimeError("boom")


# ----------------------------------------------------------------------
# progress callback: serial and parallel paths
# ----------------------------------------------------------------------

@pytest.mark.parametrize("jobs", [1, 2])
def test_progress_called_once_per_job(jobs):
    calls = []
    result = hunt_races(
        racy_counter_program(), _wo, tries=8, jobs=jobs,
        progress=lambda done, total, racy: calls.append(
            (done, total, racy)
        ),
    )
    assert len(calls) == result.tries == 8
    assert [c[0] for c in calls] == list(range(1, 9))  # done advances by 1
    assert all(c[1] == 8 for c in calls)  # total is constant
    racy_stream = [c[2] for c in calls]
    assert racy_stream == sorted(racy_stream)  # racy tally is monotonic
    assert racy_stream[-1] == result.racy_runs


def test_progress_stops_with_early_stop_serial():
    calls = []
    result = hunt_races(
        buggy_workqueue_program(), _wo, tries=30, jobs=1,
        stop_at_first=True,
        progress=lambda done, total, racy: calls.append((done, racy)),
    )
    assert result.found
    # the serial loop breaks right after the first racy job
    assert len(calls) == result.tries < 30
    assert calls[-1][1] == 1


def test_progress_early_stop_broadcast_parallel():
    """Workers may overrun past the first racy index before the
    broadcast lands, but skipped jobs never reach the callback's job
    count beyond the planned total, and the merged result still equals
    the serial prefix."""
    calls = []
    result = hunt_races(
        buggy_workqueue_program(), _wo, tries=30, jobs=4,
        stop_at_first=True,
        progress=lambda done, total, racy: calls.append((done, total)),
    )
    assert result.found
    serial = hunt_races(
        buggy_workqueue_program(), _wo, tries=30, jobs=1,
        stop_at_first=True,
    )
    assert result.stats() == serial.stats()
    # every planned job reports exactly once (skipped ones included)
    assert [c[0] for c in calls] == list(range(1, len(calls) + 1))
    assert all(total == 30 for _, total in calls)


# ----------------------------------------------------------------------
# on_outcome observer
# ----------------------------------------------------------------------

@pytest.mark.parametrize("jobs", [1, 2])
def test_on_outcome_sees_every_job(jobs):
    seen = []
    result = hunt_races(
        racy_counter_program(), _wo, tries=6, jobs=jobs,
        on_outcome=seen.append,
    )
    assert len(seen) == result.tries == 6
    assert sorted(o.job.index for o in seen) == list(range(6))
    assert all(o.status in ("racy", "clean") for o in seen)
    assert all(o.duration >= 0 for o in seen)
    by_status = {"racy": 0, "clean": 0}
    for outcome in seen:
        by_status[outcome.status] += 1
    assert by_status["racy"] == result.racy_runs
    assert by_status["clean"] == result.clean_runs


def test_on_outcome_ordering_relative_to_progress_serial():
    """The observer fires before the progress callback for the same
    job, so a progress-driven UI can read what the observer recorded."""
    order = []
    hunt_races(
        racy_counter_program(), _wo, tries=3, jobs=1,
        on_outcome=lambda outcome: order.append(("outcome",
                                                 outcome.job.index)),
        progress=lambda done, total, racy: order.append(("progress",
                                                         done - 1)),
    )
    assert order == [
        ("outcome", 0), ("progress", 0),
        ("outcome", 1), ("progress", 1),
        ("outcome", 2), ("progress", 2),
    ]


def test_on_outcome_carries_error_and_traceback_serial():
    seen = []
    result = hunt_races(
        racy_counter_program(), _wo, tries=2,
        policies=[("boom", _ExplodingPropagation)],
        jobs=1, on_outcome=seen.append, retry_backoff=0.001,
    )
    # The observer sees the superseded first attempts (status
    # "retried") and the settled failures; boom fails identically on
    # the retry, so each job is classified deterministic after one
    # retry rather than burning through max_retries.
    assert [o.status for o in seen].count("error") == 2
    assert [o.status for o in seen].count("retried") == 2
    assert all(o.status in ("error", "retried") for o in seen)
    assert all("RuntimeError: boom" in o.error for o in seen)
    assert all("RuntimeError: boom" in o.traceback for o in seen)
    assert len(result.failures) == 2
    assert all(f.kind == "deterministic" for f in result.failures)
    assert all(f.retries == 1 for f in result.failures)


def test_on_outcome_errors_without_retries():
    seen = []
    result = hunt_races(
        racy_counter_program(), _wo, tries=2,
        policies=[("boom", _ExplodingPropagation)],
        jobs=1, on_outcome=seen.append, max_retries=0,
    )
    assert all(o.status == "error" for o in seen)
    assert len(seen) == 2
    assert all(f.kind == "unretried" and f.retries == 0
               for f in result.failures)


# ----------------------------------------------------------------------
# metrics registry folding
# ----------------------------------------------------------------------

@pytest.mark.parametrize("jobs", [1, 2])
def test_metrics_param_populates_hunt_family(jobs):
    reg = metrics.MetricsRegistry()
    result = hunt_races(
        racy_counter_program(), _wo, tries=8, jobs=jobs, metrics=reg,
    )
    tries = reg.get("hunt_tries_total")
    assert tries.total() == 8
    # counters split by status match the merged result
    racy = sum(
        entry["value"] for entry in tries.series()
        if entry["labels"]["status"] == "racy"
    )
    assert racy == result.racy_runs
    assert reg.get("hunt_job_duration_seconds").count() == 8
    assert reg.get("hunt_done").value() == 8
    assert reg.get("hunt_total").value() == 8
    assert reg.get("hunt_racy").value() == result.racy_runs
    assert reg.get("hunt_elapsed_seconds").value() > 0
    throughput = reg.get("hunt_throughput")
    assert throughput.latest() is not None
    assert throughput.latest()[1] > 0


def test_active_registry_collected_without_param():
    with metrics.collect() as reg:
        hunt_races(racy_counter_program(), _wo, tries=4, jobs=1)
    assert reg.get("hunt_tries_total").total() == 4


def test_no_registry_no_metrics():
    assert metrics.active() is None
    result = hunt_races(racy_counter_program(), _wo, tries=2, jobs=1)
    assert result.tries == 2  # and nothing blew up with telemetry off


def test_cache_hits_counter_matches_result():
    reg = metrics.MetricsRegistry()
    result = hunt_races(
        buggy_workqueue_program(), _wo, tries=8, jobs=1, metrics=reg,
    )
    hits = reg.get("hunt_trace_cache_hits_total")
    if result.trace_cache_hits:
        assert hits.total() == result.trace_cache_hits
    else:
        assert hits is None  # counter only created on the first hit


def test_metrics_and_on_outcome_compose():
    reg = metrics.MetricsRegistry()
    seen = []
    hunt_races(
        racy_counter_program(), _wo, tries=4, jobs=1,
        metrics=reg, on_outcome=seen.append,
    )
    assert len(seen) == 4
    assert reg.get("hunt_tries_total").total() == 4


# ----------------------------------------------------------------------
# failure tracebacks (engine side of the --json surfacing)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("jobs", [1, 2])
def test_failures_carry_tracebacks_but_stats_do_not(jobs):
    result = hunt_races(
        racy_counter_program(), _wo, tries=4,
        policies=[("boom", _ExplodingPropagation),
                  ("stubborn", StubbornPropagation)],
        jobs=jobs,
    )
    assert len(result.failures) == 2
    for failure in result.failures:
        assert "RuntimeError: boom" in failure.traceback
        assert "Traceback (most recent call last)" in failure.traceback
    # stats() stays a deterministic function of the job set (the
    # retry classification is a function of the error texts, so kind
    # and retry counts qualify; tracebacks do not)
    for entry in result.stats()["failures"]:
        assert set(entry) == {"seed", "policy", "error", "kind",
                              "retries"}
    # ... while the JSON view surfaces the tracebacks
    for entry in result.to_json()["failures"]:
        assert "RuntimeError: boom" in entry["traceback"]


def test_run_hunt_observer_not_built_when_unused():
    """No registry and no on_outcome: run_hunt must not pay for an
    observer closure (the disabled-overhead contract)."""
    result = run_hunt(
        racy_counter_program(), _wo,
        HuntConfig(tries=2, policies=[("stubborn", StubbornPropagation)]),
    )
    assert result.tries == 2
