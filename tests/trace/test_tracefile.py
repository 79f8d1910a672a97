"""Trace-file serialization tests."""

import json

import pytest

from repro.machine.models import make_model
from repro.machine.simulator import run_program
from repro.programs.figure1 import figure1b_program
from repro.programs.workqueue import run_figure2
from repro.trace.build import build_trace
from repro.trace.events import ComputationEvent, SyncEvent
from repro import load_trace
from repro.trace.tracefile import TraceFormatError, write_trace


@pytest.fixture
def trace():
    result = run_program(figure1b_program(), make_model("WO"), seed=2)
    return build_trace(result)


def _assert_traces_equal(a, b):
    assert a.processor_count == b.processor_count
    assert a.memory_size == b.memory_size
    assert a.model_name == b.model_name
    assert len(a.events) == len(b.events)
    for pa, pb in zip(a.events, b.events):
        assert len(pa) == len(pb)
        for ea, eb in zip(pa, pb):
            assert type(ea) is type(eb)
            assert ea.eid == eb.eid
            if isinstance(ea, SyncEvent):
                assert (ea.addr, ea.op_kind, ea.role, ea.value, ea.order_pos) == \
                       (eb.addr, eb.op_kind, eb.role, eb.value, eb.order_pos)
            else:
                assert ea.reads == eb.reads
                assert ea.writes == eb.writes
                assert ea.op_seqs == eb.op_seqs
    assert a.sync_order == b.sync_order


def test_roundtrip(trace, tmp_path):
    path = tmp_path / "t.trace"
    write_trace(trace, path)
    _assert_traces_equal(trace, load_trace(path))


def test_roundtrip_figure2(tmp_path):
    trace = build_trace(run_figure2(make_model("WO")))
    path = tmp_path / "f2.trace"
    write_trace(trace, path)
    _assert_traces_equal(trace, load_trace(path))


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.trace"
    path.write_text("")
    with pytest.raises(TraceFormatError):
        load_trace(path)


def test_bad_version_rejected(tmp_path, trace):
    path = tmp_path / "bad.trace"
    write_trace(trace, path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["format"] = 99
    lines[0] = json.dumps(header)
    path.write_text("\n".join(lines))
    with pytest.raises(TraceFormatError):
        load_trace(path)


def test_out_of_order_event_rejected(tmp_path, trace):
    path = tmp_path / "ooo.trace"
    write_trace(trace, path)
    lines = path.read_text().splitlines()
    # Find two event lines of the same processor and swap them.
    event_lines = [
        (i, json.loads(line)) for i, line in enumerate(lines[1:], start=1)
        if json.loads(line).get("t") in ("sync", "comp")
    ]
    same_proc = {}
    swap = None
    for i, record in event_lines:
        key = record["proc"]
        if key in same_proc:
            swap = (same_proc[key], i)
            break
        same_proc[key] = i
    assert swap is not None
    a, b = swap
    lines[a], lines[b] = lines[b], lines[a]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError):
        load_trace(path)


def test_unknown_record_type_rejected(tmp_path, trace):
    path = tmp_path / "unk.trace"
    write_trace(trace, path)
    with path.open("a") as fh:
        fh.write(json.dumps({"t": "mystery", "proc": 0, "pos": 99}) + "\n")
    with pytest.raises(TraceFormatError):
        load_trace(path)


def test_detection_identical_from_file(tmp_path):
    """The detector must produce the same verdict from a reloaded trace
    as from the in-memory one (symbols aside)."""
    from repro.core.detector import PostMortemDetector
    trace = build_trace(run_figure2(make_model("WO")))
    path = tmp_path / "f2.trace"
    write_trace(trace, path)
    loaded = load_trace(path)
    det = PostMortemDetector()
    r1, r2 = det.analyze(trace), det.analyze(loaded)
    assert [(r.a, r.b, r.locations) for r in r1.races] == \
           [(r.a, r.b, r.locations) for r in r2.races]
    assert len(r1.first_partitions) == len(r2.first_partitions)


def test_accepts_str_and_path(trace, tmp_path):
    path = tmp_path / "p.trace"
    write_trace(trace, str(path))
    load_trace(str(path))
