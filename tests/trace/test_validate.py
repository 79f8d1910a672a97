"""Trace validation tests."""

import pytest

from repro.machine.models import make_model
from repro.machine.operations import OperationKind, SyncRole
from repro.machine.simulator import run_program
from repro.programs.figure1 import figure1b_program
from repro.programs.workqueue import run_figure2
from repro.trace.bitvector import BitVector
from repro.trace.build import build_trace
from repro.trace.events import ComputationEvent, EventId, SyncEvent
from repro.trace.validate import (
    InvalidTraceError,
    require_valid_trace,
    validate_trace,
)


def _good_trace():
    return build_trace(run_figure2(make_model("WO")))


def test_simulator_traces_valid():
    assert validate_trace(_good_trace()) == []
    for seed in range(3):
        result = run_program(figure1b_program(), make_model("RCsc"), seed=seed)
        assert validate_trace(build_trace(result)) == []


def test_require_valid_returns_trace():
    trace = _good_trace()
    assert require_valid_trace(trace) is trace


def test_wrong_event_id_position():
    trace = _good_trace()
    event = trace.events[0][0]
    trace.events[0][0] = ComputationEvent(
        eid=EventId(0, 99), reads=event.reads, writes=event.writes,
    )
    problems = validate_trace(trace)
    assert any("carries id" in p for p in problems)


def test_out_of_range_sync_address():
    trace = _good_trace()
    trace.events[0].append(SyncEvent(
        eid=EventId(0, len(trace.events[0])),
        addr=trace.memory_size + 5,
        op_kind=OperationKind.WRITE, role=SyncRole.RELEASE,
        value=0, order_pos=0,
    ))
    problems = validate_trace(trace)
    assert any("outside memory" in p for p in problems)


def test_out_of_range_bitvector():
    trace = _good_trace()
    trace.events[0].append(ComputationEvent(
        eid=EventId(0, len(trace.events[0])),
        reads=BitVector([trace.memory_size + 1]),
    ))
    problems = validate_trace(trace)
    assert any("outside memory" in p for p in problems)


def test_empty_computation_event():
    trace = _good_trace()
    trace.events[1].append(
        ComputationEvent(eid=EventId(1, len(trace.events[1])))
    )
    problems = validate_trace(trace)
    assert any("empty computation" in p for p in problems)


def test_sync_order_wrong_position():
    trace = _good_trace()
    addr = next(iter(trace.sync_order))
    order = trace.sync_order[addr]
    if len(order) >= 2:
        order[0], order[1] = order[1], order[0]
    problems = validate_trace(trace)
    assert any("order_pos" in p for p in problems)


def test_sync_event_missing_from_order():
    trace = _good_trace()
    addr = next(iter(trace.sync_order))
    trace.sync_order[addr] = trace.sync_order[addr][:-1]
    problems = validate_trace(trace)
    assert any("missing from sync order" in p for p in problems)


def test_sync_order_references_nonexistent_event():
    trace = _good_trace()
    addr = next(iter(trace.sync_order))
    trace.sync_order[addr] = trace.sync_order[addr] + [EventId(0, 999)]
    problems = validate_trace(trace)
    assert any("not a sync event" in p for p in problems)


def test_processor_count_mismatch():
    trace = _good_trace()
    trace.processor_count += 1
    problems = validate_trace(trace)
    assert any("event streams" in p for p in problems)


def test_require_valid_raises_with_details():
    trace = _good_trace()
    trace.processor_count += 1
    with pytest.raises(InvalidTraceError, match="event streams"):
        require_valid_trace(trace)


def test_roundtripped_files_stay_valid(tmp_path):
    from repro import load_trace
    from repro.trace.binfile import write_binary_trace
    from repro.trace.tracefile import write_trace
    trace = _good_trace()
    j = tmp_path / "t.jsonl"
    b = tmp_path / "t.bin"
    write_trace(trace, j)
    write_binary_trace(trace, b)
    assert validate_trace(load_trace(j)) == []
    assert validate_trace(load_trace(b)) == []
