"""Fault-plan unit tests: parsing/validation, the env activation hook,
and the deterministic injection points."""

import json

import pytest

from repro import faults
from repro.faults import (
    ENV_VAR,
    FaultPlan,
    FaultPlanError,
    InjectedCrash,
    active_plan,
    append_garbage,
    tear_file,
)


@pytest.fixture(autouse=True)
def _clean_faults(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    faults.clear()
    yield
    faults.clear()


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------

def test_from_json_full_plan():
    plan = FaultPlan.from_json({
        "crash": {"3": 1}, "hang": {"5": 2}, "hang_seconds": 0.5,
        "kill_parent_after": 7,
    })
    assert plan.crash == {3: 1}
    assert plan.hang == {5: 2}
    assert plan.hang_seconds == 0.5
    assert plan.kill_parent_after == 7


def test_from_json_rejects_unknown_keys():
    with pytest.raises(FaultPlanError, match="unknown fault plan key"):
        FaultPlan.from_json({"crashes": {"0": 1}})


def test_from_json_rejects_non_object():
    with pytest.raises(FaultPlanError, match="must be a JSON object"):
        FaultPlan.from_json([1, 2])


def test_from_json_rejects_bad_index_map():
    with pytest.raises(FaultPlanError, match="must map job index"):
        FaultPlan.from_json({"crash": [0, 1]})
    with pytest.raises(FaultPlanError, match="bad 'crash' entry"):
        FaultPlan.from_json({"crash": {"zero": 1}})


def test_from_json_rejects_nonpositive_kill():
    with pytest.raises(FaultPlanError, match="kill_parent_after"):
        FaultPlan.from_json({"kill_parent_after": 0})


# ----------------------------------------------------------------------
# activation
# ----------------------------------------------------------------------

def test_no_plan_by_default():
    assert active_plan() is None


def test_install_wins_over_env(monkeypatch):
    monkeypatch.setenv(ENV_VAR, json.dumps({"crash": {"0": 1}}))
    installed = FaultPlan(crash={9: 1})
    faults.install(installed)
    assert active_plan() is installed


def test_env_inline_json(monkeypatch):
    monkeypatch.setenv(ENV_VAR, json.dumps({"crash": {"2": 1}}))
    plan = active_plan()
    assert plan is not None and plan.crash == {2: 1}
    # parsed once per distinct value (cached)
    assert active_plan() is plan


def test_env_file_path(monkeypatch, tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"hang": {"1": 1}, "hang_seconds": 0.1}))
    monkeypatch.setenv(ENV_VAR, str(path))
    plan = active_plan()
    assert plan is not None and plan.hang == {1: 1}


def test_env_bad_json_raises(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "{torn")
    with pytest.raises(FaultPlanError, match="invalid JSON"):
        active_plan()


def test_env_missing_file_raises(monkeypatch, tmp_path):
    monkeypatch.setenv(ENV_VAR, str(tmp_path / "nope.json"))
    with pytest.raises(FaultPlanError, match="unreadable"):
        active_plan()


# ----------------------------------------------------------------------
# injection points
# ----------------------------------------------------------------------

def test_crash_fires_while_attempt_below_count():
    plan = FaultPlan(crash={4: 2})
    with pytest.raises(InjectedCrash):
        plan.on_job_start(4, 0)
    with pytest.raises(InjectedCrash):
        plan.on_job_start(4, 1)
    plan.on_job_start(4, 2)  # third attempt succeeds
    plan.on_job_start(5, 0)  # other jobs untouched


def test_crash_message_is_attempt_independent():
    """Identical messages across attempts are what lets the retry
    layer classify an always-crashing job as deterministic."""
    plan = FaultPlan(crash={4: 9})
    messages = set()
    for attempt in range(3):
        with pytest.raises(InjectedCrash) as exc_info:
            plan.on_job_start(4, attempt)
        messages.add(str(exc_info.value))
    assert len(messages) == 1


# ----------------------------------------------------------------------
# torn-artifact helpers
# ----------------------------------------------------------------------

def test_tear_file_drops_tail_bytes(tmp_path):
    path = tmp_path / "f.json"
    path.write_text("0123456789")
    tear_file(path, drop_bytes=4)
    assert path.read_text() == "012345"
    tear_file(path, drop_bytes=100)  # never goes negative
    assert path.read_text() == ""


def test_append_garbage_is_undecodable(tmp_path):
    path = tmp_path / "f.jsonl"
    path.write_text('{"ok": true}\n')
    append_garbage(path)
    lines = path.read_bytes().splitlines()
    with pytest.raises(Exception):
        json.loads(lines[-1])
