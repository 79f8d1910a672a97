"""Event-log tests: writer round-trip, schema validation (including
unknown-version rejection), the tail/summarize views, and the live
HuntEventLog fed by a real hunt."""

import json

import pytest

from repro.analysis.hunting import hunt_races
from repro.machine.models import make_model
from repro.obs.events import (
    EVENTS_FORMAT,
    EventLogWriter,
    HuntEventLog,
    check_events,
    format_try,
    read_events,
    validate_events,
)
from repro.obs.top import TopSnapshot, render_summary
from repro.programs.workqueue import buggy_workqueue_program


def _wo():
    return make_model("WO")


def _try_record(**overrides):
    record = {
        "t": "try", "index": 0, "seed": 0, "policy": "stubborn",
        "status": "clean", "duration_sec": 0.004, "cache_hit": False,
        "fingerprint": "", "races": 0, "operations": 40,
        "completed": True, "error": "",
    }
    record.update(overrides)
    return record


def _summarize(loaded):
    """The ``weakraces events`` text view of a loaded log."""
    return render_summary(TopSnapshot.from_events(loaded), loaded)


def _write_lines(path, records):
    path.write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    )


# ----------------------------------------------------------------------
# writer round-trip
# ----------------------------------------------------------------------

def test_writer_emits_meta_header_immediately(tmp_path):
    path = tmp_path / "log.jsonl"
    writer = EventLogWriter(path, kind="hunt", meta={"workload": "wq"})
    # even before close the header is flushed — an interrupted run
    # leaves an identifiable prefix
    first = json.loads(path.read_text().splitlines()[0])
    assert first == {
        "t": "meta", "schema": EVENTS_FORMAT, "kind": "hunt",
        "workload": "wq",
    }
    writer.close()
    assert validate_events(path) == []


def test_writer_context_manager_closes(tmp_path):
    path = tmp_path / "log.jsonl"
    with EventLogWriter(path, kind="hunt") as writer:
        writer.write(_try_record())
    assert writer._fh.closed
    loaded = read_events(path)
    assert len(loaded["tries"]) == 1
    assert loaded["meta"]["schema"] == EVENTS_FORMAT


def test_read_events_sorts_records_by_type(tmp_path):
    path = tmp_path / "log.jsonl"
    with EventLogWriter(path, kind="hunt") as writer:
        writer.write(_try_record(index=0))
        writer.write(_try_record(index=1, status="racy", races=2))
        writer.write({"t": "stage", "path": "hunt.job", "count": 2,
                      "total_sec": 0.01, "min_sec": 0.004,
                      "max_sec": 0.006, "counters": {}})
        writer.write({"t": "summary", "tries": 2, "elapsed_sec": 0.01})
    loaded = read_events(path)
    assert [t["index"] for t in loaded["tries"]] == [0, 1]
    assert loaded["stages"][0]["path"] == "hunt.job"
    assert loaded["summary"]["tries"] == 2


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

def test_validate_accepts_current_schema(tmp_path):
    path = tmp_path / "log.jsonl"
    _write_lines(path, [
        {"t": "meta", "schema": EVENTS_FORMAT, "kind": "hunt"},
        _try_record(),
    ])
    assert validate_events(path) == []


def test_validate_accepts_schema_1(tmp_path):
    # schema 1 differs only in that a try's ``races`` counted sync races
    path = tmp_path / "log.jsonl"
    _write_lines(path, [
        {"t": "meta", "schema": 1, "kind": "hunt"},
        _try_record(),
    ])
    assert validate_events(path) == []


@pytest.mark.parametrize("schema,fragment", [
    (EVENTS_FORMAT + 1, "unknown schema version"),
    (0, "unknown schema version"),
    ("1", "not an integer"),
    (True, "not an integer"),
    (1.0, "not an integer"),
    (None, "not an integer"),
])
def test_validate_rejects_bad_schema_versions(tmp_path, schema, fragment):
    path = tmp_path / "log.jsonl"
    _write_lines(path, [{"t": "meta", "schema": schema, "kind": "hunt"}])
    problems = validate_events(path)
    assert len(problems) == 1
    assert fragment in problems[0]


def test_validate_rejects_structural_problems(tmp_path):
    path = tmp_path / "log.jsonl"
    _write_lines(path, [
        {"t": "meta", "schema": EVENTS_FORMAT, "kind": "hunt"},
        {"t": "try", "index": 0},  # missing keys
        _try_record(status="exploded"),
        _try_record(duration_sec=-1.0),
        {"t": "meta", "schema": EVENTS_FORMAT},  # duplicate meta
        {"t": "banana"},
    ])
    problems = validate_events(path)
    assert any("try missing" in p for p in problems)
    assert any("unknown try status 'exploded'" in p for p in problems)
    assert any("negative try duration" in p for p in problems)
    assert any("duplicate meta" in p for p in problems)
    assert any("unknown record type 'banana'" in p for p in problems)


def test_validate_rejects_missing_meta_and_empty(tmp_path):
    path = tmp_path / "log.jsonl"
    _write_lines(path, [_try_record()])
    assert validate_events(path) == ["first record is not a meta record"]
    path.write_text("")
    assert validate_events(path) == ["empty event log"]
    assert validate_events(tmp_path / "missing.jsonl")[0].startswith(
        "unreadable"
    )


# ----------------------------------------------------------------------
# crash tolerance: the tail-write case versus mid-file garbage
# ----------------------------------------------------------------------

def test_truncated_final_line_is_a_warning_not_a_problem(tmp_path):
    """A process killed mid-append leaves a torn last line; every
    complete record before it is still good, so validation warns
    instead of failing."""
    path = tmp_path / "log.jsonl"
    _write_lines(path, [
        {"t": "meta", "schema": EVENTS_FORMAT, "kind": "hunt"},
        _try_record(index=0),
        _try_record(index=1),
    ])
    with path.open("rb+") as fh:
        fh.truncate(path.stat().st_size - 9)  # tear the tail
    problems, warnings = check_events(path)
    assert problems == []
    assert len(warnings) == 1
    assert "truncated final record" in warnings[0]
    # the historical interface stays problems-only
    assert validate_events(path) == []
    # and the reader still loads the intact prefix
    loaded = read_events(path)
    assert [t["index"] for t in loaded["tries"]] == [0]


def test_mid_file_garbage_is_still_a_problem(tmp_path):
    path = tmp_path / "log.jsonl"
    _write_lines(path, [
        {"t": "meta", "schema": EVENTS_FORMAT, "kind": "hunt"},
        _try_record(index=0),
    ])
    with path.open("a", encoding="utf-8") as fh:
        fh.write("{garbage\n")
        fh.write(json.dumps(_try_record(index=1)) + "\n")
    problems, warnings = check_events(path)
    assert warnings == []
    assert len(problems) == 1
    assert "invalid JSON" in problems[0]
    assert validate_events(path) == problems


def test_lone_torn_line_is_tolerated(tmp_path):
    # even the meta record can fall to a tail-write crash; the file
    # carries no usable data, but it's a warning, not corruption
    path = tmp_path / "log.jsonl"
    path.write_text("{not json\n")
    problems, warnings = check_events(path)
    assert problems == []
    assert len(warnings) == 1


def test_retried_status_validates_and_summarizes(tmp_path):
    path = tmp_path / "log.jsonl"
    _write_lines(path, [
        {"t": "meta", "schema": EVENTS_FORMAT, "kind": "hunt"},
        _try_record(index=3, status="retried", attempt=0,
                    error="InjectedCrash: boom"),
        _try_record(index=3, status="clean", attempt=1, retries=1),
        _try_record(index=4),
    ])
    assert validate_events(path) == []
    text = _summarize(read_events(path))
    # superseded attempts are excluded from the racy-rate stats
    assert "2 tries" in text
    assert "1 retried attempt(s)" in text


def test_format_try_shows_retry_attempt():
    line = format_try(_try_record(status="retried", attempt=1,
                                  error="InjectedCrash: boom"))
    assert "retried" in line
    assert "attempt 2" in line


# ----------------------------------------------------------------------
# views
# ----------------------------------------------------------------------

def test_format_try_flags():
    line = format_try(_try_record(
        index=7, status="racy", races=3, cache_hit=True,
        fingerprint="abcdef0123456789", completed=False,
    ))
    assert "#7" in line
    assert "racy" in line
    assert "races=3" in line
    assert "fp=abcdef012345" in line  # truncated to 12 chars
    assert "cache" in line and "step-bound" in line


def test_format_try_error():
    line = format_try(_try_record(
        status="error", error="RuntimeError: boom",
    ))
    assert "RuntimeError: boom" in line


def test_summarize_events(tmp_path):
    path = tmp_path / "log.jsonl"
    _write_lines(path, [
        {"t": "meta", "schema": EVENTS_FORMAT, "kind": "hunt",
         "workload": "wq", "model": "WO", "jobs": 2},
        _try_record(index=0, status="racy", races=1),
        _try_record(index=1, status="clean", cache_hit=True),
        _try_record(index=2, policy="lazy", status="racy"),
        _try_record(index=3, status="skipped"),
        {"t": "stage", "path": "hunt.job", "count": 3,
         "total_sec": 0.012, "min_sec": 0.004, "max_sec": 0.004,
         "counters": {}},
        {"t": "summary", "tries": 3, "elapsed_sec": 0.05,
         "executions_per_sec": 60.0},
    ])
    assert validate_events(path) == []
    text = _summarize(read_events(path))
    assert "workload=wq model=WO jobs=2" in text
    assert "3 tries (1 clean, 2 racy), 1 skipped by early stop" in text
    assert "trace cache: 1/3 hits (33%)" in text
    assert "stubborn: 1/2 racy" in text
    assert "lazy: 1/1 racy" in text
    assert "hunt.job: n=3" in text
    assert "60.0 exec/s" in text


def test_summarize_empty_log():
    text = _summarize({"meta": {}, "tries": [], "stages": [],
                      "summary": None})
    assert "0 tries (none)" in text


def test_summarize_events_per_detector_breakdown(tmp_path):
    path = tmp_path / "log.jsonl"
    _write_lines(path, [
        {"t": "meta", "schema": EVENTS_FORMAT, "kind": "hunt",
         "workload": "wq", "detector": "postmortem"},
        _try_record(index=0, status="racy", races=1,
                    detector="shb", certified=2),
        _try_record(index=1, status="clean", detector="shb"),
        # no per-record detector: falls back to the meta record's
        _try_record(index=2, status="racy", races=1, certified=1),
    ])
    assert validate_events(path) == []
    text = _summarize(read_events(path))
    assert "detectors:" in text
    assert "shb: 1/2 racy, 2 certified race(s)" in text
    assert "postmortem: 1/1 racy, 1 certified race(s)" in text


def test_summary_data_aggregates(tmp_path):
    path = tmp_path / "log.jsonl"
    _write_lines(path, [
        {"t": "meta", "schema": EVENTS_FORMAT, "kind": "hunt",
         "detector": "wcp"},
        _try_record(index=0, status="racy", races=1, certified=1,
                    cache_hit=True),
        _try_record(index=1, status="clean", policy="lazy"),
        _try_record(index=2, status="error",
                    failure_kind="deterministic"),
        _try_record(index=3, status="error"),  # no kind → unretried
        _try_record(index=4, status="retried"),
        _try_record(index=5, status="skipped"),
    ])
    data = TopSnapshot.from_events(read_events(path)).breakdown()
    assert data["tries"] == 4
    assert data["skipped"] == 1
    assert data["retried"] == 1
    assert data["by_status"] == {"racy": 1, "clean": 1, "error": 2}
    assert data["per_policy"]["stubborn"]["tries"] == 3
    assert data["per_policy"]["lazy"] == {"tries": 1, "racy": 0}
    assert data["per_detector"]["wcp"] == {
        "tries": 4, "racy": 1, "certified": 1,
    }
    assert data["failures_by_kind"] == {"deterministic": 1, "unretried": 1}
    assert data["cache_hits"] == 1


def test_summary_data_no_detector_anywhere():
    data = TopSnapshot.from_events({"meta": {"t": "meta"}, "tries": [
        _try_record(index=0, status="racy"),
    ], "stages": [], "summary": None}).breakdown()
    assert data["per_detector"] == {}


# ----------------------------------------------------------------------
# HuntEventLog fed by the real engine
# ----------------------------------------------------------------------

def test_hunt_event_log_end_to_end(tmp_path):
    path = tmp_path / "hunt.jsonl"
    log = HuntEventLog(path, meta={"workload": "workqueue-buggy",
                                   "model": "WO", "jobs": 1})
    result = hunt_races(
        buggy_workqueue_program(), _wo, tries=6, jobs=1,
        on_outcome=log.on_outcome,
    )
    log.write_stages(result.stage_profile)  # no-op: profiling off
    log.write_summary({"tries": result.tries,
                       "racy_runs": result.racy_runs,
                       "elapsed_sec": round(result.elapsed, 6)})
    log.close()
    assert validate_events(path) == []
    loaded = read_events(path)
    assert log.tries == result.tries == 6
    assert len(loaded["tries"]) == 6
    # every try record mirrors one job outcome
    statuses = [t["status"] for t in loaded["tries"]]
    assert statuses.count("racy") == result.racy_runs
    assert statuses.count("clean") == result.clean_runs
    assert sorted(t["index"] for t in loaded["tries"]) == list(range(6))
    cache_hits = sum(1 for t in loaded["tries"] if t["cache_hit"])
    assert cache_hits == result.trace_cache_hits
    assert all(t["duration_sec"] >= 0 for t in loaded["tries"])
    assert all(t["fingerprint"] for t in loaded["tries"])  # cache on
    assert loaded["summary"]["tries"] == 6
    assert loaded["stages"] == []


def test_hunt_event_log_enriched_try_fields(tmp_path):
    from repro.obs.metrics import MetricsRegistry

    path = tmp_path / "hunt.jsonl"
    log = HuntEventLog(path, meta={"detector": "shb"}, detector="shb")
    hunt_races(
        buggy_workqueue_program(), _wo, tries=4, jobs=1,
        on_outcome=log.on_outcome, detector="shb",
        metrics=MetricsRegistry(),  # collection on → partition keys flow
    )
    log.close()
    assert validate_events(path) == []
    tries = read_events(path)["tries"]
    assert all(t["detector"] == "shb" for t in tries)
    racy = [t for t in tries if t["status"] == "racy"]
    assert racy and all(t["certified"] >= 1 for t in racy)
    # the first analysis of each distinct trace carries its partition
    # coverage keys; cache hits repeat the fingerprint without them
    keyed = [t for t in racy if t.get("partitions")]
    assert keyed and all(
        not t["cache_hit"] for t in keyed
    )


def test_hunt_event_log_records_stage_aggregates(tmp_path):
    from repro import obs

    path = tmp_path / "hunt.jsonl"
    log = HuntEventLog(path)
    profiler = obs.Profiler()
    with profiler.activate():
        result = hunt_races(
            buggy_workqueue_program(), _wo, tries=2, jobs=1,
            on_outcome=log.on_outcome,
        )
    assert result.stage_profile
    log.write_stages(result.stage_profile)
    log.close()
    assert validate_events(path) == []
    stages = read_events(path)["stages"]
    assert any(s["path"] == "hunt.job" for s in stages)
    for stage in stages:
        assert stage["count"] >= 1
        assert "peak_rss_kb" not in stage  # dropped from the schema
