"""CLI tests (in-process via main())."""

import pytest

from repro.cli import main
from repro.obs.events import EVENTS_FORMAT


def test_models_lists_all(capsys):
    assert main(["models"]) == 0
    out = capsys.readouterr().out
    for name in ("SC", "WO", "RCsc", "DRF0", "DRF1"):
        assert name in out


def test_run_clean_workload_exit_zero(capsys):
    code = main(["run", "locked-counter", "--model", "WO", "--seed", "1"])
    assert code == 0
    assert "No data races detected" in capsys.readouterr().out


def test_run_racy_workload_exit_one(capsys):
    code = main(["run", "figure1a", "--model", "SC"])
    assert code == 1
    assert "First partition" in capsys.readouterr().out


def test_run_figure2(capsys):
    code = main(["run", "figure2", "--model", "WO"])
    assert code == 1
    out = capsys.readouterr().out
    assert "Q" in out
    assert "suppressed" in out


def test_run_with_naive_baseline(capsys):
    main(["run", "figure2", "--model", "WO", "--naive"])
    out = capsys.readouterr().out
    assert "Naive race report" in out


def test_run_writes_dot(tmp_path, capsys):
    dot = tmp_path / "g.dot"
    main(["run", "figure1a", "--dot", str(dot)])
    assert dot.exists()
    assert dot.read_text().startswith("digraph")


def test_trace_then_analyze(tmp_path, capsys):
    trace_path = tmp_path / "wq.trace"
    assert main(["trace", "figure2", str(trace_path), "--model", "WO"]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    code = main(["analyze", str(trace_path)])
    assert code == 1
    assert "First partition" in capsys.readouterr().out


def test_check_condition_34(capsys):
    assert main(["check", "figure2", "--model", "WO"]) == 0
    out = capsys.readouterr().out
    assert "clause1=ok" in out
    assert "clause2=ok" in out


def test_check_clean_program(capsys):
    assert main(["check", "producer-consumer", "--model", "RCsc"]) == 0


def test_unknown_workload_rejected():
    with pytest.raises(SystemExit):
        main(["run", "not-a-workload"])


def test_unknown_model_rejected():
    with pytest.raises(SystemExit):
        main(["run", "figure1a", "--model", "XC"])


def test_static_command(capsys):
    code = main(["static", "racy-counter"])
    assert code == 1
    assert "potential data race" in capsys.readouterr().out


def test_static_clean_command(capsys):
    code = main(["static", "locked-counter"])
    assert code == 0
    assert "statically data-race-free" in capsys.readouterr().out


def test_drf_check_command(capsys):
    assert main(["drf-check", "figure1b"]) == 0
    assert "data-race-free" in capsys.readouterr().out
    assert main(["drf-check", "single-race"]) == 1
    out = capsys.readouterr().out
    assert "NOT data-race-free" in out
    assert "witness" in out


def test_drf_check_limit(capsys):
    code = main(["drf-check", "locked-counter", "--max-states", "5"])
    assert code == 2
    assert "incomplete" in capsys.readouterr().err


def test_disasm_and_run_file(tmp_path, capsys):
    assert main(["disasm", "figure1b"]) == 0
    text = capsys.readouterr().out
    assert ".thread" in text
    source = tmp_path / "prog.rasm"
    source.write_text(text)
    assert main(["run-file", str(source), "--model", "WO"]) == 0
    assert "No data races" in capsys.readouterr().out


def test_run_file_syntax_error(tmp_path, capsys):
    source = tmp_path / "bad.rasm"
    source.write_text(".thread\n    bogus %r\n")
    assert main(["run-file", str(source)]) == 2
    assert "unknown mnemonic" in capsys.readouterr().err


def test_record_then_replay(tmp_path, capsys):
    rec = tmp_path / "run.replay"
    code = main(["record", "racy-counter", str(rec),
                 "--model", "RCsc", "--seed", "5"])
    assert code == 1  # races found
    first = capsys.readouterr().out
    assert "recorded" in first
    code = main(["replay", "racy-counter", str(rec)])
    assert code == 1
    second = capsys.readouterr().out
    assert "replayed" in second
    # same report both times
    assert first.split("=" * 70)[1] == second.split("=" * 70)[1]


def test_replay_wrong_workload_fails(tmp_path, capsys):
    rec = tmp_path / "run.replay"
    main(["record", "figure1a", str(rec)])
    capsys.readouterr()
    code = main(["replay", "producer-consumer", str(rec)])
    assert code == 2
    assert "replay failed" in capsys.readouterr().err


def test_run_explain_flag(capsys):
    code = main(["run", "figure2", "--explain"])
    assert code == 1
    out = capsys.readouterr().out
    assert "SUPPRESSED" in out
    assert "affects" in out or "-->" in out


def test_analyze_rejects_corrupt_trace(tmp_path, capsys):
    import json
    trace_path = tmp_path / "t.trace"
    main(["trace", "figure1a", str(trace_path)])
    capsys.readouterr()
    # corrupt: give an event an out-of-range bit
    lines = trace_path.read_text().splitlines()
    for i, line in enumerate(lines):
        record = json.loads(line)
        if record.get("t") == "comp":
            record["reads"] = format(1 << 500, "x")
            lines[i] = json.dumps(record)
            break
    trace_path.write_text("\n".join(lines) + "\n")
    assert main(["analyze", str(trace_path)]) == 2
    assert "invalid trace" in capsys.readouterr().err


def test_timeline_command(capsys):
    assert main(["timeline", "figure2", "--rows", "8"]) == 0
    out = capsys.readouterr().out
    assert "*stale*" in out
    assert "end of SCP" in out
    assert out.splitlines()[0].split() == ["P0", "P1", "P2"]


def test_outcomes_command(capsys):
    code = main(["outcomes", "store-buffering", "--model", "SC",
                 "--vars", "critical[0]", "critical[1]"])
    assert code == 0
    out = capsys.readouterr().out
    assert "3 outcome(s)" in out
    code = main(["outcomes", "store-buffering", "--model", "WO",
                 "--vars", "critical[0]", "critical[1]"])
    assert code == 0
    out = capsys.readouterr().out
    assert "4 outcome(s)" in out
    assert "critical[0]=1, critical[1]=1" in out


def test_outcomes_limit(capsys):
    code = main(["outcomes", "queue", "--model", "WO",
                 "--max-states", "50"])
    assert code == 2
    assert "incomplete" in capsys.readouterr().err


def test_new_workloads_run(capsys):
    assert main(["run", "cas-counter", "--model", "RCsc"]) == 0
    assert main(["run", "iriw", "--model", "WO"]) == 1  # racy


# ----------------------------------------------------------------------
# weakraces explain
# ----------------------------------------------------------------------

def test_explain_racy_workload(capsys):
    code = main(["explain", "workqueue-buggy", "--model", "WO",
                 "--seed", "0"])
    assert code == 1  # races found, like run
    out = capsys.readouterr().out
    assert "Race provenance" in out
    assert "[REPORTED]" in out
    assert "verified against vector clocks" in out
    assert "FIRST partition" in out


def test_explain_clean_workload(capsys):
    code = main(["explain", "locked-counter", "--model", "WO"])
    assert code == 0
    assert "nothing to explain" in capsys.readouterr().out


def test_explain_json(capsys):
    import json
    code = main(["explain", "figure2", "--model", "WO", "--json"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "provenance"
    assert doc["all_verified"] is True
    assert any(r["reported"] for r in doc["races"])
    assert any(not r["reported"] for r in doc["races"])  # suppressed


def test_explain_single_race_by_signature(capsys):
    import json
    main(["explain", "workqueue-buggy", "--seed", "0", "--json"])
    doc = json.loads(capsys.readouterr().out)
    signature = doc["races"][0]["race"]["signature"]
    code = main(["explain", "workqueue-buggy", "--seed", "0",
                 "--race", signature])
    assert code == 1
    out = capsys.readouterr().out
    assert "witness:" in out
    assert "Race provenance" not in out  # single-race view, not the report


def test_explain_unknown_signature_exit_2(capsys):
    code = main(["explain", "workqueue-buggy", "--seed", "0",
                 "--race", "P9.E9~P9.E8"])
    assert code == 2
    err = capsys.readouterr().err
    assert "no race 'P9.E9~P9.E8'" in err
    assert "known:" in err


def test_explain_writes_dot(tmp_path, capsys):
    dot = tmp_path / "gprime.dot"
    code = main(["explain", "workqueue-buggy", "--seed", "0",
                 "--dot", str(dot)])
    assert code == 1
    text = dot.read_text()
    assert text.startswith("digraph")
    assert "lightgoldenrod1" in text  # first-partition highlight
    assert f"DOT graph written to {dot}" in capsys.readouterr().out


# ----------------------------------------------------------------------
# weakraces hunt --events / --live and weakraces events
# ----------------------------------------------------------------------

def test_hunt_writes_event_log_then_events_summarizes(tmp_path, capsys):
    log = tmp_path / "hunt-events.jsonl"
    code = main(["hunt", "workqueue-buggy", "--tries", "6",
                 "--events", str(log)])
    assert code == 1  # racy workload
    captured = capsys.readouterr()
    assert f"hunt events written to {log}" in captured.err
    assert log.exists()
    code = main(["events", str(log)])
    assert code == 0
    out = capsys.readouterr().out
    assert "hunt event log" in out
    assert "workload=workqueue-buggy" in out
    assert "6 tries" in out
    assert "run total" in out


def test_events_tail_and_json(tmp_path, capsys):
    import json
    log = tmp_path / "hunt-events.jsonl"
    main(["hunt", "racy-counter", "--tries", "5", "--events", str(log)])
    capsys.readouterr()
    code = main(["events", str(log), "--tail", "3"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert all(line.startswith("#") for line in lines)
    code = main(["events", str(log), "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["meta"]["schema"] == EVENTS_FORMAT
    assert len(doc["tries"]) == 5
    assert doc["summary"]["tries"] == 5


def test_events_rejects_invalid_log(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"t": "meta", "schema": 99, "kind": "hunt"}\n')
    code = main(["events", str(bad)])
    assert code == 2
    assert "unknown schema version 99" in capsys.readouterr().err


def test_hunt_live_status_line(capsys):
    code = main(["hunt", "racy-counter", "--tries", "4", "--live"])
    assert code == 1
    err = capsys.readouterr().err
    assert "hunt 4/4" in err  # final repaint from finish()
    assert "jobs/s" in err


def test_events_json_carries_breakdown(tmp_path, capsys):
    import json
    log = tmp_path / "hunt-events.jsonl"
    main(["hunt", "workqueue-buggy", "--tries", "5", "--detector", "shb",
          "--events", str(log)])
    capsys.readouterr()
    assert main(["events", str(log)]) == 0
    assert "detectors:" in capsys.readouterr().out
    assert main(["events", str(log), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    breakdown = doc["breakdown"]
    assert breakdown["tries"] == 5
    assert "shb" in breakdown["per_detector"]
    assert breakdown["per_detector"]["shb"]["tries"] == 5


def test_hunt_serve_prints_url_and_correlates_hunt_id(tmp_path, capsys):
    import json
    log = tmp_path / "hunt-events.jsonl"
    code = main(["hunt", "workqueue-buggy", "--tries", "5", "--json",
                 "--serve", "127.0.0.1:0", "--events", str(log)])
    assert code == 1
    captured = capsys.readouterr()
    assert "telemetry serving on http://127.0.0.1:" in captured.err
    assert "/metrics /status /healthz" in captured.err
    result = json.loads(captured.out)
    meta = json.loads(log.read_text().splitlines()[0])
    summary = json.loads(log.read_text().splitlines()[-1])
    assert result["hunt_id"]
    assert meta["hunt_id"] == result["hunt_id"]
    assert summary["hunt_id"] == result["hunt_id"]


def test_hunt_serve_rejects_bad_address(capsys):
    code = main(["hunt", "racy-counter", "--tries", "2",
                 "--serve", "9099"])
    assert code == 2
    assert "--serve expects HOST:PORT" in capsys.readouterr().err


@pytest.mark.parametrize("flags, options", [
    (["--tries", "0"], {"tries": 0}),
    (["--jobs", "0"], {"jobs": 0}),
    (["--timeout", "0"], {"job_timeout": 0}),
    (["--max-retries", "-1"], {"max_retries": -1}),
    (["--checkpoint-interval", "0"], {"checkpoint_interval": 0}),
    (["--batch-size", "0"], {"batch_size": 0}),
    (["--resume"], {"resume": True}),
])
def test_hunt_rejects_what_hunt_config_rejects(flags, options, capsys):
    """The CLI owns no validation of its own: each bad value exits 2
    with exactly the library's HuntConfig message."""
    from repro.analysis.hunting import HuntConfig
    with pytest.raises(ValueError) as excinfo:
        HuntConfig(**options)
    code = main(["hunt", "racy-counter", *flags])
    assert code == 2
    assert f"hunt: {excinfo.value}" in capsys.readouterr().err


def test_hunt_profile_meta_carries_hunt_id(tmp_path, capsys):
    import json
    profile = tmp_path / "hunt.profile.jsonl"
    out = tmp_path / "result.json"
    code = main(["hunt", "racy-counter", "--tries", "3", "--json",
                 "--profile", str(profile)])
    assert code == 1
    captured = capsys.readouterr()
    result = json.loads(captured.out)
    header = json.loads(profile.read_text().splitlines()[0])
    assert header["t"] == "meta"
    assert header["command"] == "hunt"
    assert header["hunt_id"] == result["hunt_id"]
    del out


def test_top_once_from_events(tmp_path, capsys):
    log = tmp_path / "hunt-events.jsonl"
    main(["hunt", "workqueue-buggy", "--tries", "5", "--events", str(log)])
    capsys.readouterr()
    code = main(["top", "--events", str(log), "--once"])
    assert code == 0
    out = capsys.readouterr().out
    assert "weakraces top — workqueue-buggy" in out
    assert "5/5 (100%)" in out
    assert "job duration" in out


def test_top_bad_source_exits_2(tmp_path, capsys):
    code = main(["top", "--events", str(tmp_path / "nope.jsonl"),
                 "--once"])
    assert code == 2
    assert "top:" in capsys.readouterr().err


_HUNT6 = ("hunt", "racy-counter", "--tries", "6")


@pytest.mark.parametrize("argv", [
    ("trace", "figure2", "{missing}/x.jsonl"),
    ("run", "figure2", "--dot", "{missing}/x.dot"),
    ("run", "figure2", "--profile", "{missing}/p"),
    (*_HUNT6, "--events", "{missing}/e.jsonl"),
    (*_HUNT6, "--save-recording", "{missing}/r.replay"),
    (*_HUNT6, "--profile", "{missing}/p"),
    (*_HUNT6, "--checkpoint", "{missing}/c.ckpt"),
], ids=["trace", "run-dot", "run-profile", "hunt-events",
        "hunt-save-recording", "hunt-profile", "hunt-checkpoint"])
def test_unwritable_output_exits_2(argv, tmp_path, capsys):
    """An output file in a directory that does not exist is an input
    error: one stderr line naming the command and status 2, never a
    traceback with the "races found" status 1."""
    missing = tmp_path / "no-such-dir"
    code = main([arg.format(missing=missing) for arg in argv])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{argv[0]}: ")
    assert "No such file or directory" in err
    assert "Traceback" not in err


def test_unwritable_checkpoint_fails_before_any_try(tmp_path, capsys):
    """The checkpoint directory is probed when the hunt starts, so the
    event log records the hunt but not one try."""
    import json
    events = tmp_path / "events.jsonl"
    code = main([*_HUNT6, "--checkpoint", str(tmp_path / "no-such-dir/c"),
                 "--events", str(events)])
    assert code == 2
    assert "No such file or directory" in capsys.readouterr().err
    records = [json.loads(line) for line in events.read_text().splitlines()]
    assert [r["t"] for r in records] == ["meta"]


def test_hunt_worker_failures_exit_3(monkeypatch, capsys):
    import json
    from repro.analysis import hunting
    from repro.machine.propagation import PropagationPolicy

    class _Exploding(PropagationPolicy):
        def step(self, memory, rng):
            raise RuntimeError("boom")

    real_registry = hunting.policy_registry

    def registry(processor_count):
        out = real_registry(processor_count)
        out["boom"] = _Exploding
        return out

    monkeypatch.setattr(hunting, "policy_registry", registry)
    code = main(["hunt", "racy-counter", "--tries", "2",
                 "--policies", "boom", "--json"])
    assert code == 3  # worker crashes trump found/not-found
    captured = capsys.readouterr()
    assert "2 job(s) crashed or timed out" in captured.err
    doc = json.loads(captured.out)
    assert len(doc["failures"]) == 2
    # satellite: --json surfaces the worker tracebacks
    for failure in doc["failures"]:
        assert "RuntimeError: boom" in failure["traceback"]


# ----------------------------------------------------------------------
# --detector on run / analyze / hunt
# ----------------------------------------------------------------------

def test_run_detector_shb(capsys):
    code = main(["run", "racy-counter", "--seed", "3",
                 "--detector", "shb"])
    assert code == 1
    out = capsys.readouterr().out
    assert "SHB analysis" in out
    assert "[sound]" in out


def test_run_detector_wcp_predicts_lock_shadow(capsys):
    # seed 1 hides the unguarded race from hb1; WCP predicts it
    code = main(["run", "lock-shadow", "--seed", "1",
                 "--detector", "wcp"])
    assert code == 1
    out = capsys.readouterr().out
    assert "[predicted]" in out


def test_run_detector_json_kind(capsys):
    import json
    main(["run", "racy-counter", "--detector", "wcp", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "wcp"
    assert "predicted_races" in doc


def test_run_graph_flags_rejected_for_graphless_detectors(
        tmp_path, capsys):
    code = main(["run", "racy-counter", "--detector", "onthefly",
                 "--dot", str(tmp_path / "g.dot")])
    assert code == 2
    assert "--dot" in capsys.readouterr().err
    assert not (tmp_path / "g.dot").exists()


def test_analyze_detector_shb(tmp_path, capsys):
    trace_path = tmp_path / "racy.trace"
    main(["trace", "racy-counter", str(trace_path), "--seed", "3"])
    capsys.readouterr()
    code = main(["analyze", str(trace_path), "--detector", "shb"])
    assert code == 1
    assert "SHB analysis" in capsys.readouterr().out


def test_hunt_detector_flag(capsys):
    import json
    code = main(["hunt", "lock-shadow", "--detector", "wcp",
                 "--tries", "6", "--json"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["detector"] == "wcp"
    assert doc["racy_runs"] == 6
    assert doc["certified_races"] >= 6


def test_hunt_detector_summary_note(capsys):
    code = main(["hunt", "racy-counter", "--detector", "shb",
                 "--tries", "4"])
    assert code == 1
    assert "detector=shb" in capsys.readouterr().out


def test_check_robustness_flag(capsys):
    code = main(["check", "store-buffering", "--model", "TSO",
                 "--seed", "3", "--robustness"])
    out = capsys.readouterr().out
    assert "Robustness verdict" in out
    assert "NON-ROBUST" in out
    assert "--fr-->" in out
    assert "SC prefix" in out
    # exit status still reflects Condition 3.4, which holds here
    assert code == 0


def test_check_robustness_json_round_trips(capsys):
    import json
    from repro.api import report_from_json
    from repro.core.robustness import RobustnessReport
    assert main(["check", "store-buffering", "--model", "TSO",
                 "--seed", "3", "--robustness", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    report = report_from_json(doc["robustness"])
    assert isinstance(report, RobustnessReport)
    assert not report.robust
    assert len(report.cycle) == 4


def test_check_without_robustness_flag_omits_verdict(capsys):
    import json
    assert main(["check", "store-buffering", "--model", "TSO",
                 "--seed", "3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "robustness" not in doc


def test_hunt_verify_robustness_json(capsys):
    import json
    code = main(["hunt", "store-buffering", "--model", "TSO",
                 "--tries", "16", "--verify-robustness", "--json"])
    assert code in (0, 1)
    doc = json.loads(capsys.readouterr().out)
    rob = doc["robustness"]
    assert rob["verified_tries"] == 16
    assert rob["non_robust"] >= 1
    assert rob["soundness"] == "degraded"
    assert rob["first_non_robust"]["kind"] == "robustness"


def test_hunt_verify_robustness_summary(capsys):
    main(["hunt", "store-buffering", "--model", "TSO",
          "--tries", "16", "--verify-robustness"])
    out = capsys.readouterr().out
    assert "robustness:" in out
    assert "SOUNDNESS DEGRADED" in out


def test_hunt_verify_robustness_events_summary(tmp_path, capsys):
    import json
    path = tmp_path / "hunt.jsonl"
    main(["hunt", "store-buffering", "--model", "TSO",
          "--tries", "8", "--verify-robustness",
          "--events", str(path)])
    records = [json.loads(line) for line in path.read_text().splitlines()]
    summary = [r for r in records if r["t"] == "summary"][0]
    assert summary["verified_tries"] == 8
    assert summary["soundness"] in ("sc-justified", "degraded")
    tries = [r for r in records if r["t"] == "try"]
    assert all("robust" in r for r in tries)
