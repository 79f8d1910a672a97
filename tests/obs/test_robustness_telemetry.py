"""Robustness verdicts through the observability stack.

A verified hunt must fold `hunt_robust_tries_total{model,verdict}`
parent-side, surface `robustness_by_verdict` on `/status`, write the
per-try `robust` key into the events log (still schema-valid), and
light up the verdict line in `weakraces top` — from both sources.
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.analysis.hunting import hunt_races
from repro.machine.models import make_model
from repro.obs.events import HuntEventLog, read_events, validate_events
from repro.obs.metrics import MetricsRegistry
from repro.obs.server import TelemetryServer
from repro.obs.top import (
    TopSnapshot,
    render_top,
    snapshot_from_events,
    snapshot_from_http,
)
from repro.programs.litmus import store_buffering_program


def _tso():
    return make_model("TSO")


@pytest.fixture
def verified_hunt(tmp_path):
    """One verified TSO store-buffering hunt with the full observer
    stack attached: registry fold + events log."""
    registry = MetricsRegistry()
    path = tmp_path / "hunt.jsonl"
    log = HuntEventLog(path, meta={"workload": "store-buffering",
                                   "model": "TSO", "tries": 16,
                                   "jobs": 1, "policies": "default"})
    result = hunt_races(
        store_buffering_program(), _tso, tries=16, jobs=1,
        verify_robustness=True, metrics=registry,
        on_outcome=log.on_outcome,
    )
    log.write_summary({"tries": result.tries})
    log.close()
    return result, registry, path


def test_metrics_fold_by_verdict(verified_hunt):
    result, registry, _ = verified_hunt
    counter = registry.get("hunt_robust_tries_total")
    by_verdict = {}
    for entry in counter.series():
        assert entry["labels"]["model"] == "TSO"
        by_verdict[entry["labels"]["verdict"]] = entry["value"]
    assert by_verdict.get("robust", 0) == result.robust_tries
    assert by_verdict.get("non-robust", 0) == result.non_robust_tries
    assert sum(by_verdict.values()) == result.verified_tries


def test_status_snapshot_carries_breakdown(verified_hunt):
    result, registry, _ = verified_hunt
    status = TopSnapshot.from_registry(registry, {"hunt_id": "cafe"}).to_json()
    assert status["robustness_by_verdict"] == {
        "robust": result.robust_tries,
        "non-robust": result.non_robust_tries,
    }


def test_status_endpoint_serves_breakdown(verified_hunt):
    _, registry, _ = verified_hunt
    server = TelemetryServer(registry, info={"hunt_id": "cafe"})
    url = server.start()
    try:
        with urllib.request.urlopen(f"{url}/status", timeout=5) as resp:
            status = json.loads(resp.read())
        assert status["robustness_by_verdict"]
        snap = snapshot_from_http(url)
        assert snap.robust_by_verdict == status["robustness_by_verdict"]
    finally:
        server.stop()


def test_events_carry_robust_key(verified_hunt):
    result, _, path = verified_hunt
    assert validate_events(path) == []
    tries = read_events(path)["tries"]
    assert len(tries) == result.tries
    assert all("robust" in r for r in tries)
    assert sum(1 for r in tries if r["robust"] is False) == \
        result.non_robust_tries


def test_unverified_hunt_events_have_no_robust_key(tmp_path):
    path = tmp_path / "hunt.jsonl"
    log = HuntEventLog(path, meta={})
    hunt_races(store_buffering_program(), _tso, tries=4, jobs=1,
               on_outcome=log.on_outcome)
    log.close()
    tries = read_events(path)["tries"]
    assert all("robust" not in r for r in tries)


def test_top_snapshot_from_events(verified_hunt):
    result, _, path = verified_hunt
    snap = snapshot_from_events(path)
    assert snap.robust_by_verdict == {
        "robust": result.robust_tries,
        "non-robust": result.non_robust_tries,
    }


def test_top_render_verdict_line(verified_hunt):
    result, _, path = verified_hunt
    frame = render_top(snapshot_from_events(path))
    assert "robustness:" in frame
    assert ("SOUNDNESS DEGRADED" in frame) == \
        (result.non_robust_tries > 0)


def test_top_render_sc_justified():
    snap = TopSnapshot(source="x", robust_by_verdict={"robust": 5.0})
    frame = render_top(snap)
    assert "sc-justified" in frame
    assert "5 robust, 0 non-robust of 5 verified" in frame


def test_top_render_no_line_when_unverified():
    assert "robustness:" not in render_top(TopSnapshot(source="x"))
