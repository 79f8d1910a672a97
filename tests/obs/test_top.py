"""Dashboard tests: the pure render layer (sparkline, frame text),
snapshots built from an events log and from a live telemetry server,
and the run_top loop's exit behavior — driven with injected streams
and a server on an ephemeral port."""

import io
import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.server import TelemetryServer
from repro.obs.top import (
    TopError,
    TopSnapshot,
    render_top,
    run_top,
    snapshot_from_events,
    snapshot_from_http,
    sparkline,
)

META = {
    "t": "meta", "schema": 1, "kind": "hunt",
    "workload": "workqueue-buggy", "model": "WO", "tries": 4,
    "jobs": 1, "policies": "default",
    "hunt_id": "feedface01020304", "detector": "shb",
}


def _try(index, status, policy="ring", duration=0.02, **extra):
    record = {
        "t": "try", "index": index, "seed": index, "policy": policy,
        "status": status, "duration_sec": duration, "cache_hit": False,
        "fingerprint": f"fp{index}", "races": int(status == "racy"),
        "operations": 40, "completed": True, "error": "",
        "attempt": 0, "retries": 0, "detector": "shb",
        "certified": int(status == "racy"),
    }
    record.update(extra)
    return record


def _write_log(path, records):
    path.write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in records),
        encoding="utf-8",
    )


@pytest.fixture
def events_log(tmp_path):
    path = tmp_path / "hunt.jsonl"
    _write_log(path, [
        META,
        _try(0, "racy", policy="ring", partitions=["p1", "p2"]),
        _try(1, "clean", policy="stubborn", duration=0.3),
        _try(2, "racy", policy="ring", cache_hit=True, fingerprint="fp0"),
        _try(3, "error", policy="stubborn", failure_kind="deterministic"),
        {"t": "summary", "tries": 4, "elapsed_sec": 2.0,
         "hunt_id": "feedface01020304"},
    ])
    return path


# ----------------------------------------------------------------------
# sparkline
# ----------------------------------------------------------------------

def test_sparkline_scales_linearly():
    assert sparkline([]) == ""
    assert sparkline([0, 0]) == "▁▁"
    line = sparkline([0, 1, 4, 8])
    assert len(line) == 4
    assert line[0] == "▁"
    assert line[-1] == "█"
    # monotone counts render monotone glyphs
    assert sorted(line) == list(line)


# ----------------------------------------------------------------------
# events-log snapshots
# ----------------------------------------------------------------------

def test_snapshot_from_events(events_log):
    snap = snapshot_from_events(str(events_log))
    assert snap.hunt_id == "feedface01020304"
    assert snap.info["workload"] == "workqueue-buggy"
    assert snap.done == snap.ran == 4
    assert snap.total == 4
    assert snap.racy == 2
    assert snap.finished  # the summary record landed
    assert snap.elapsed_sec == 2.0
    assert snap.per_policy["ring"]["racy"] == 2
    assert snap.per_detector["shb"]["certified"] == 2
    assert snap.failures_by_kind == {"deterministic": 1}
    assert snap.cache_hits == 1
    # fp0 appears twice (a cache hit repeats it), fp1 → 2 distinct; the
    # error try's fp3 is no coverage, exactly as the live fold counts it
    assert snap.coverage_fingerprints == 2
    assert snap.coverage_partitions == 2
    assert snap.duration_quantiles["count"] == 4
    assert sum(count for _, count in snap.duration_buckets) == 4


def test_snapshot_from_events_missing_file(tmp_path):
    with pytest.raises(TopError):
        snapshot_from_events(str(tmp_path / "nope.jsonl"))


def test_snapshot_from_unfinished_log(tmp_path):
    path = tmp_path / "open.jsonl"
    _write_log(path, [META, _try(0, "racy")])
    snap = snapshot_from_events(str(path))
    assert not snap.finished
    assert snap.done == 1
    assert snap.total == 4  # meta's planned tries, not tries so far


# ----------------------------------------------------------------------
# http snapshots (against a real server)
# ----------------------------------------------------------------------

def test_snapshot_from_http():
    registry = MetricsRegistry()
    tries = registry.counter(
        "hunt_tries_total", labels=("policy", "status", "detector"),
    )
    tries.inc(5, policy="ring", status="racy", detector="wcp")
    # skipped jobs resolve (progress) but never ran (per-policy cells)
    tries.inc(2, policy="ring", status="skipped", detector="wcp")
    registry.counter(
        "hunt_certified_races_total", labels=("detector",),
    ).inc(3, detector="wcp")
    registry.gauge("hunt_done").set(7)
    registry.gauge("hunt_total").set(10)
    registry.gauge("hunt_racy").set(5)
    registry.gauge("hunt_coverage_fingerprints").set(4)
    registry.gauge("hunt_coverage_provenance_partitions").set(2)
    registry.histogram(
        "hunt_job_duration_seconds", buckets=(0.01, 0.1),
    ).observe(0.05)
    server = TelemetryServer(registry, info={
        "hunt_id": "0011223344556677", "workload": "iriw", "model": "TSO",
    })
    url = server.start()
    try:
        snap = snapshot_from_http(url)
    finally:
        server.stop()
    assert snap.hunt_id == "0011223344556677"
    assert snap.done == 7
    assert snap.ran == 5
    assert snap.total == 10
    assert snap.racy == 5
    assert snap.per_policy == {"ring": {"tries": 5, "racy": 5}}
    assert snap.per_detector == {
        "wcp": {"tries": 5, "racy": 5, "certified": 3},
    }
    assert snap.coverage_fingerprints == 4
    assert snap.coverage_partitions == 2
    # non-cumulative bucket counts, carried on /status itself
    counts = dict(snap.duration_buckets)
    assert counts == {"0.01": 0.0, "0.1": 1.0, "+Inf": 0.0}


def test_snapshot_from_http_connection_refused():
    with pytest.raises(TopError):
        snapshot_from_http("http://127.0.0.1:1", timeout=0.5)


# ----------------------------------------------------------------------
# render (pure)
# ----------------------------------------------------------------------

def test_render_top_frame(events_log):
    frame = render_top(snapshot_from_events(str(events_log)))
    assert "workqueue-buggy WO shb" in frame
    assert "[hunt feedface01020304]" in frame
    assert "4/4 (100%)" in frame
    assert "racy 2 (50%)" in frame
    assert "2 fingerprint(s), 2 provenance partition(s)" in frame
    assert "ring" in frame and "2/2 racy" in frame
    assert "shb" in frame and "2 certified" in frame
    assert "failures: 1 deterministic" in frame
    assert "job duration" in frame
    assert "(finished)" in frame


def test_render_top_empty_snapshot():
    frame = render_top(TopSnapshot(source="x"))
    assert "weakraces top — hunt" in frame
    assert "0/0" in frame
    assert "rate -" in frame


# ----------------------------------------------------------------------
# run loop
# ----------------------------------------------------------------------

def test_run_top_once_from_events(events_log, capsys):
    out = io.StringIO()
    assert run_top(events_path=str(events_log), once=True, stream=out) == 0
    assert "weakraces top" in out.getvalue()
    # one frame, no ANSI cursor control in --once mode
    assert "\x1b[" not in out.getvalue()


def test_run_top_requires_exactly_one_source(capsys):
    assert run_top() == 2
    assert run_top(attach="x", events_path="y") == 2
    assert "exactly one" in capsys.readouterr().err


def test_run_top_bad_source_exits_2(tmp_path, capsys):
    assert run_top(events_path=str(tmp_path / "nope.jsonl"), once=True) == 2
    assert "top:" in capsys.readouterr().err


def test_run_top_loops_until_finished(events_log):
    out = io.StringIO()
    sleeps = []
    status = run_top(
        events_path=str(events_log), interval=0.5,
        stream=out, sleep=sleeps.append,
    )
    # the log carries a summary record → first frame already "finished"
    assert status == 0
    assert sleeps == []
    assert "hunt finished" in out.getvalue()
    assert "\x1b[H" in out.getvalue()  # the repaint loop homes the cursor
