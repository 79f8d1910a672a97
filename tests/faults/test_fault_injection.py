"""Fault plans driven through the real hunt engine, in-process:
crashes and hangs in serial and forked-pool workers, and env-var
activation crossing the fork boundary."""

import json

import pytest

from repro import faults
from repro.analysis.hunting import hunt_races
from repro.faults import ENV_VAR, FaultPlan
from repro.machine.models import make_model
from repro.programs.kernels import racy_counter_program


def _wo():
    return make_model("WO")


@pytest.fixture(autouse=True)
def _clean_faults(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    faults.clear()
    yield
    faults.clear()


# ----------------------------------------------------------------------
# crashes through the engine
# ----------------------------------------------------------------------

@pytest.mark.parametrize("jobs", [1, 2])
def test_persistent_crash_surfaces_as_deterministic_failure(jobs):
    faults.install(FaultPlan(crash={2: 99}))
    result = hunt_races(racy_counter_program(), _wo, tries=8, jobs=jobs,
                        retry_backoff=0.001)
    assert result.tries == 8
    assert len(result.failures) == 1
    assert result.failures[0].kind == "deterministic"
    assert "InjectedCrash" in result.failures[0].error
    # the other 7 jobs were unaffected
    assert result.racy_runs + result.clean_runs == 7


def test_crash_result_identical_serial_vs_parallel():
    results = []
    for jobs in (1, 2):
        faults.install(FaultPlan(crash={2: 99, 5: 1}))
        results.append(hunt_races(racy_counter_program(), _wo, tries=8,
                                  jobs=jobs, retry_backoff=0.001))
        faults.clear()
    assert results[0].stats() == results[1].stats()
    # job 2 retries once before settling deterministic; job 5's single
    # retry succeeds — two retried attempts either way
    assert results[0].retried_runs == results[1].retried_runs == 2


# ----------------------------------------------------------------------
# hangs through the engine (bounded by job_timeout)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("jobs", [1, 2])
def test_hang_is_bounded_by_job_timeout(jobs):
    faults.install(FaultPlan(hang={0: 99}, hang_seconds=30.0))
    result = hunt_races(racy_counter_program(), _wo, tries=4, jobs=jobs,
                        job_timeout=0.2, max_retries=0)
    assert len(result.failures) == 1
    assert "JobTimeout" in result.failures[0].error
    assert result.racy_runs + result.clean_runs == 3


# ----------------------------------------------------------------------
# env activation crosses the fork boundary
# ----------------------------------------------------------------------

def test_env_plan_reaches_forked_workers(monkeypatch):
    monkeypatch.setenv(ENV_VAR, json.dumps({"crash": {"3": 1}}))
    result = hunt_races(racy_counter_program(), _wo, tries=8, jobs=2,
                        retry_backoff=0.001)
    assert not result.failures
    assert result.retried_runs == 1


def test_env_plan_file_reaches_forked_workers(monkeypatch, tmp_path):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps({"crash": {"3": 99}}))
    monkeypatch.setenv(ENV_VAR, str(plan_file))
    result = hunt_races(racy_counter_program(), _wo, tries=8, jobs=2,
                        retry_backoff=0.001)
    assert len(result.failures) == 1
    assert result.failures[0].kind == "deterministic"


def test_fault_free_plan_changes_nothing():
    baseline = hunt_races(racy_counter_program(), _wo, tries=6, jobs=1)
    faults.install(FaultPlan())
    with_plan = hunt_races(racy_counter_program(), _wo, tries=6, jobs=1)
    assert with_plan.stats() == baseline.stats()
    assert with_plan.retried_runs == 0
