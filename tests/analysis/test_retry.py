"""Retry-layer tests: transient vs deterministic classification,
backoff determinism, observer/metrics visibility of retried attempts,
and the merged result's invariance under retries."""

import pytest

from repro import faults
from repro.analysis.hunting import HuntConfig, hunt_races
from repro.analysis.parallel import _retry_job, plan_jobs, run_hunt
from repro.faults import FaultPlan
from repro.machine.models import make_model
from repro.machine.propagation import PropagationPolicy, StubbornPropagation
from repro.obs import metrics
from repro.programs.kernels import racy_counter_program


def _wo():
    return make_model("WO")


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


class _FlakyOnce(PropagationPolicy):
    """Crashes every execution of the seed it is constructed into
    exactly once per process — driven through faults instead; kept
    here as documentation of the shape under test."""


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------

@pytest.mark.parametrize("jobs", [1, 2])
def test_transient_crash_recovers_invisibly_in_stats(jobs):
    clean = hunt_races(racy_counter_program(), _wo, tries=12, jobs=jobs)
    # each job crashes exactly once; the retry succeeds with a fresh
    # (different) run, so the error never repeats and never settles
    faults.install(FaultPlan(crash={3: 1, 7: 1}))
    recovered = hunt_races(racy_counter_program(), _wo, tries=12,
                           jobs=jobs, retry_backoff=0.001)
    assert not recovered.failures
    assert recovered.stats() == clean.stats()
    assert recovered.retried_runs == 2
    assert recovered.to_json()["retried_runs"] == 2


def test_deterministic_crash_stops_after_identical_failure():
    faults.install(FaultPlan(crash={2: 99}))
    result = hunt_races(racy_counter_program(), _wo, tries=6, jobs=1,
                        max_retries=5, retry_backoff=0.001)
    assert len(result.failures) == 1
    failure = result.failures[0]
    assert failure.kind == "deterministic"
    # classified after ONE retry reproduced the error, not max_retries
    assert failure.retries == 1
    assert "InjectedCrash" in failure.error


def test_max_retries_zero_settles_immediately():
    faults.install(FaultPlan(crash={2: 99}))
    seen = []
    result = hunt_races(racy_counter_program(), _wo, tries=6, jobs=1,
                        max_retries=0, on_outcome=seen.append)
    assert len(result.failures) == 1
    assert result.failures[0].kind == "unretried"
    assert result.failures[0].retries == 0
    assert all(o.status != "retried" for o in seen)


def test_summary_shows_retry_provenance():
    faults.install(FaultPlan(crash={2: 99}))
    result = hunt_races(racy_counter_program(), _wo, tries=6, jobs=1,
                        retry_backoff=0.001)
    assert "[deterministic after 2 attempts]" in result.summary()


def test_unretried_failure_keeps_historical_summary_line():
    faults.install(FaultPlan(crash={2: 99}))
    result = hunt_races(racy_counter_program(), _wo, tries=6, jobs=1,
                        max_retries=0)
    line = [l for l in result.summary().splitlines() if "FAILED" in l][0]
    assert "[" not in line  # no suffix when nothing was retried


# ----------------------------------------------------------------------
# observer / metrics visibility
# ----------------------------------------------------------------------

def test_retried_attempts_visible_to_observer_and_metrics():
    faults.install(FaultPlan(crash={3: 1}))
    reg = metrics.MetricsRegistry()
    seen = []
    result = hunt_races(racy_counter_program(), _wo, tries=12, jobs=1,
                        retry_backoff=0.001, metrics=reg,
                        on_outcome=seen.append)
    retried = [o for o in seen if o.status == "retried"]
    assert len(retried) == 1
    assert retried[0].job.index == 3
    assert "InjectedCrash" in retried[0].error
    tries = reg.get("hunt_tries_total")
    by_status = {}
    for entry in tries.series():
        status = entry["labels"]["status"]
        by_status[status] = by_status.get(status, 0) + entry["value"]
    assert by_status.get("retried") == 1
    # settled outcomes still account for every planned job
    assert by_status.get("racy", 0) + by_status.get("clean", 0) == 12
    assert not result.failures


def test_progress_not_advanced_by_retried_attempts():
    faults.install(FaultPlan(crash={3: 2}))
    calls = []
    hunt_races(racy_counter_program(), _wo, tries=8, jobs=1,
               retry_backoff=0.001,
               progress=lambda done, total, racy: calls.append(done))
    # done advances once per settled job, never past the planned total
    assert calls == list(range(1, 9))


# ----------------------------------------------------------------------
# backoff determinism
# ----------------------------------------------------------------------

def test_retry_backoff_deterministic_and_exponential():
    job = plan_jobs(10, ["stubborn", "ring"])[5]
    first = _retry_job(job, 0.05)
    again = _retry_job(job, 0.05)
    assert first == again  # pure function of (job, attempt)
    assert first.attempt == 1
    second = _retry_job(first, 0.05)
    assert second.attempt == 2
    # exponential shape with bounded jitter: base * 2^(n-1) * [0.5, 1.5)
    assert 0.025 <= first.delay < 0.075
    assert 0.05 <= second.delay < 0.15
    # jitter differs between attempts (seeded by attempt number)
    assert first.delay * 2 != second.delay


def test_retry_preserves_job_identity():
    job = plan_jobs(4, ["stubborn"])[2]
    retry = _retry_job(job, 0.01)
    assert (retry.index, retry.seed, retry.policy_index,
            retry.policy_name) == (job.index, job.seed,
                                   job.policy_index, job.policy_name)


# ----------------------------------------------------------------------
# engine parameter validation
# ----------------------------------------------------------------------

def test_run_hunt_rejects_bad_recovery_params():
    program = racy_counter_program()
    policies = [("stubborn", StubbornPropagation)]
    with pytest.raises(ValueError, match="max_retries"):
        run_hunt(program, _wo, HuntConfig(tries=2, policies=policies,
                                          max_retries=-1))
    with pytest.raises(ValueError, match="checkpoint_interval"):
        run_hunt(program, _wo, HuntConfig(tries=2, policies=policies,
                                          checkpoint_interval=0))
    with pytest.raises(ValueError, match="resume requires"):
        run_hunt(program, _wo, HuntConfig(tries=2, policies=policies,
                                          resume=True))
    with pytest.raises(ValueError, match="job_timeout"):
        run_hunt(program, _wo, HuntConfig(tries=2, policies=policies,
                                          job_timeout=0))
