"""Columnar trace format tests: roundtrip fidelity, zero-copy
laziness, malformed-input rejection, and the big-endian column path."""

import struct
import sys
from unittest import mock

import pytest

from repro.machine.models import make_model
from repro.machine.program import ProgramBuilder
from repro.machine.simulator import run_program
from repro.programs.figure1 import figure1b_program
from repro.programs.workqueue import run_figure2
from repro.trace import columnar as columnar_mod
from repro.trace.build import Trace, build_trace
from repro.trace.columnar import (
    ColumnarTrace,
    ColumnarTraceError,
    from_columnar,
    open_columnar,
    to_columnar,
)
from repro.trace.events import SyncEvent
from repro.trace.fingerprint import trace_fingerprint
from repro.trace.validate import validate_trace


@pytest.fixture
def trace():
    return build_trace(run_figure2(make_model("WO")))


def _assert_equivalent(a, b):
    assert a.processor_count == b.processor_count
    assert a.memory_size == b.memory_size
    assert a.model_name == b.model_name
    assert a.event_count == b.event_count
    for pa, pb in zip(a.events, b.events):
        assert len(pa) == len(pb)
        for ea, eb in zip(pa, pb):
            assert type(ea) is type(eb)
            assert ea.eid == eb.eid
            if isinstance(ea, SyncEvent):
                assert (ea.addr, ea.op_kind, ea.role, ea.value,
                        ea.order_pos) == \
                       (eb.addr, eb.op_kind, eb.role, eb.value, eb.order_pos)
            else:
                assert ea.reads == eb.reads
                assert ea.writes == eb.writes
                assert ea.op_count == eb.op_count
    assert a.sync_order == b.sync_order


def test_roundtrip_materialized(trace, tmp_path):
    path = tmp_path / "t.wrct"
    to_columnar(trace, path)
    _assert_equivalent(trace, from_columnar(path))


def test_roundtrip_lazy(trace, tmp_path):
    path = tmp_path / "t.wrct"
    to_columnar(trace, path)
    with open_columnar(path) as lazy:
        assert isinstance(lazy, ColumnarTrace)
        assert isinstance(lazy, Trace)
        _assert_equivalent(trace, lazy)


def test_roundtrip_simple(tmp_path):
    result = run_program(figure1b_program(), make_model("RCsc"), seed=4)
    trace = build_trace(result)
    path = tmp_path / "s.wrct"
    to_columnar(trace, path)
    _assert_equivalent(trace, from_columnar(path))


def test_negative_values_roundtrip(tmp_path):
    b = ProgramBuilder()
    f = b.var("f")
    with b.thread() as t:
        t.release_write(f, -12345)
    trace = build_trace(run_program(b.build(), make_model("SC"), seed=0))
    path = tmp_path / "n.wrct"
    to_columnar(trace, path)
    with open_columnar(path) as lazy:
        assert lazy.events[0][0].value == -12345
        assert int(lazy.columns.value[0]) == -12345


def test_columns_expose_raw_arrays(trace, tmp_path):
    path = tmp_path / "t.wrct"
    to_columnar(trace, path)
    with open_columnar(path) as lazy:
        cols = lazy.columns
        assert cols.event_total == trace.event_count
        assert sum(cols.proc_counts) == trace.event_count
        # columns agree with the materialized objects, row by row
        for proc, proc_events in enumerate(trace.events):
            for pos, event in enumerate(proc_events):
                row = cols.row_of(proc, pos)
                assert int(cols.proc[row]) == proc
                assert int(cols.pos[row]) == pos
                if isinstance(event, SyncEvent):
                    assert not cols.is_comp(row)
                    assert int(cols.addr[row]) == event.addr
                else:
                    assert cols.is_comp(row)
                    assert sorted(cols.event_reads(row)) == \
                        sorted(event.reads)
                    assert sorted(cols.event_writes(row)) == \
                        sorted(event.writes)


def test_event_view_is_lazy_and_cached(trace, tmp_path):
    path = tmp_path / "t.wrct"
    to_columnar(trace, path)
    with open_columnar(path) as lazy:
        first = lazy.events[0][0]
        assert lazy.events[0][0] is first  # cached, not rebuilt
        assert len(lazy.events) == trace.processor_count
        assert lazy.events[0][-1].eid == trace.events[0][-1].eid


def test_smaller_than_json(trace, tmp_path):
    from repro.trace.tracefile import write_trace
    col_path = tmp_path / "t.wrct"
    json_path = tmp_path / "t.jsonl"
    to_columnar(trace, col_path)
    write_trace(trace, json_path)
    assert col_path.stat().st_size < json_path.stat().st_size / 2


def test_big_endian_tuple_columns(trace, tmp_path):
    """A big-endian host cannot cast the little-endian file natively,
    so its columns are decoded tuples; both forms read the same trace."""
    path = tmp_path / "t.wrct"
    to_columnar(trace, path)
    with open_columnar(path) as lazy:
        assert isinstance(lazy.columns.tag, memoryview) == (
            sys.byteorder == "little")
        _assert_equivalent(trace, lazy)
        views = {name: list(getattr(lazy.columns, name))
                 for name, _, _ in columnar_mod._COLUMNS}
    with mock.patch.object(columnar_mod.sys, "byteorder", "big"):
        with open_columnar(path) as lazy:
            assert isinstance(lazy.columns.tag, tuple)
            _assert_equivalent(trace, lazy)
            for name, column in views.items():
                assert list(getattr(lazy.columns, name)) == column, name


def test_data_locations_decoded_once(trace, tmp_path):
    """The columns are read-only, so the data-location set is decoded
    from the bit-vector pool on the first call only."""
    path = tmp_path / "t.wrct"
    to_columnar(trace, path)
    with open_columnar(path) as lazy:
        first = lazy.data_locations()
        assert first == trace.data_locations()
        with mock.patch.object(columnar_mod.TraceColumns, "_pool_int",
                               side_effect=AssertionError("pool decoded")):
            assert lazy.data_locations() is first


def test_close_unmaps_the_file(trace, tmp_path):
    """Closing releases the column and pool views first, so the mmap
    really closes rather than staying mapped until garbage collection."""
    path = tmp_path / "t.wrct"
    to_columnar(trace, path)
    lazy = open_columnar(path)
    mm = lazy._mm
    lazy.close()
    assert mm.closed


@pytest.mark.parametrize("detector", ["postmortem", "streaming", "shb"])
def test_materialized_trace_outlives_the_close(trace, tmp_path, detector):
    """from_columnar closes the file it read; the trace it returns holds
    no view of it (sync order included) and reports what the open
    file reports."""
    from repro import detect

    path = tmp_path / "t.wrct"
    to_columnar(trace, path)
    with open_columnar(path) as lazy:
        report = detect(lazy, detector=detector)
        expected = (report.to_json(), report.format())
    loaded = from_columnar(path)
    assert not any(isinstance(v, memoryview) for v in vars(loaded).values())
    report = detect(loaded, detector=detector)
    assert (report.to_json(), report.format()) == expected


# ----------------------------------------------------------------------
# the sync order stays integers until something reads it
# ----------------------------------------------------------------------

def _unread_sync_order(self):
    raise AssertionError("sync_order built")


@pytest.mark.parametrize("detector", ["postmortem", "streaming"])
@pytest.mark.parametrize("racy", [False, True])
def test_detection_never_builds_the_sync_order(racy, detector, tmp_path):
    """so1 pairing, the clock sweep and the race sweeps read the file's
    integer (proc, pos) pairs; no EventId list is built, racy report
    (G', its so1 edges) included."""
    from repro import detect
    from repro.programs import racy_counter_program

    program = racy_counter_program(2, 2) if racy else figure1b_program()
    trace = build_trace(run_program(program, make_model("WO"), seed=1))
    path = tmp_path / "t.wrct"
    to_columnar(trace, path)
    expected = detect(trace, detector=detector)
    with open_columnar(path) as lazy:
        with mock.patch.object(ColumnarTrace, "sync_order",
                               property(_unread_sync_order)):
            report = detect(lazy, detector=detector)
            assert report.race_free != racy
            assert report.races == expected.races
            report.format()
        assert lazy._sync_order is None


def test_built_sync_order_matches_the_object_trace(trace, tmp_path):
    """Built on first read, the sync order, and everything that reads
    it, is the written trace's: fingerprint, validation, the
    materialized trace, and a columnar-to-columnar rewrite byte for
    byte."""
    path = tmp_path / "t.wrct"
    to_columnar(trace, path)
    with open_columnar(path) as lazy:
        assert lazy._sync_order is None
        assert trace_fingerprint(lazy) == trace_fingerprint(trace)
        assert lazy.sync_order == trace.sync_order
        assert lazy.sync_order is lazy.sync_order  # built once
        assert validate_trace(lazy) == validate_trace(trace) == []
    assert from_columnar(path).sync_order == trace.sync_order


def test_invalid_sync_order_validates_like_the_object_trace(trace, tmp_path):
    broken = Trace(
        processor_count=trace.processor_count,
        memory_size=trace.memory_size,
        events=trace.events,
        sync_order={addr: order[::-1]
                    for addr, order in trace.sync_order.items()},
        model_name=trace.model_name,
    )
    path = tmp_path / "t.wrct"
    to_columnar(broken, path)
    with open_columnar(path) as lazy:
        problems = validate_trace(lazy)
    assert problems and problems == validate_trace(broken)


@pytest.mark.parametrize("fmt", ["columnar", "binary", "jsonl"])
def test_convert_round_trips_byte_for_byte(trace, tmp_path, fmt):
    """``weakraces convert`` from a columnar file writes what saving the
    object trace writes, and converting back restores the file."""
    from repro import save_trace
    from repro.cli import main

    source = tmp_path / "t.wrct"
    to_columnar(trace, source)
    converted = tmp_path / f"c.{fmt}"
    assert main(["convert", str(source), str(converted), "--to", fmt]) == 0
    if fmt != "jsonl":  # the object trace's jsonl also lists op seqs
        direct = tmp_path / f"d.{fmt}"
        save_trace(trace, str(direct), format=fmt)
        assert converted.read_bytes() == direct.read_bytes()
    back = tmp_path / "back.wrct"
    assert main(["convert", str(converted), str(back),
                 "--to", "columnar"]) == 0
    assert back.read_bytes() == source.read_bytes()


# ----------------------------------------------------------------------
# malformed inputs
# ----------------------------------------------------------------------

def test_bad_magic(tmp_path):
    path = tmp_path / "bad.wrct"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ColumnarTraceError, match="magic"):
        open_columnar(path)


def test_empty_file(tmp_path):
    path = tmp_path / "empty.wrct"
    path.write_bytes(b"")
    with pytest.raises(ColumnarTraceError, match="magic"):
        open_columnar(path)


def test_bad_version(tmp_path):
    path = tmp_path / "v.wrct"
    path.write_bytes(b"WRCT" + struct.pack("<III", 99, 1, 1))
    with pytest.raises(ColumnarTraceError, match="format"):
        open_columnar(path)


def test_count_mismatch_detected(trace, tmp_path):
    path = tmp_path / "t.wrct"
    to_columnar(trace, path)
    data = bytearray(path.read_bytes())
    # header: magic(4) + version/nproc/memsize(12) + name_len(4) + name
    (name_len,) = struct.unpack_from("<I", data, 16)
    total_off = 20 + name_len
    struct.pack_into("<I", data, total_off, 10_000)
    path.write_bytes(bytes(data))
    with pytest.raises(ColumnarTraceError, match="count"):
        open_columnar(path)


def test_every_truncation_point_rejected(tmp_path):
    # a small trace keeps the exhaustive byte-by-byte sweep fast
    small = build_trace(run_program(figure1b_program(), make_model("WO"),
                                    seed=0))
    path = tmp_path / "t.wrct"
    to_columnar(small, path)
    data = path.read_bytes()
    torn = tmp_path / "torn.wrct"
    for cut in range(len(data)):
        torn.write_bytes(data[:cut])
        with pytest.raises(ColumnarTraceError):
            open_columnar(torn)


def test_trailing_garbage_rejected(trace, tmp_path):
    from repro.faults.plan import append_garbage
    path = tmp_path / "t.wrct"
    to_columnar(trace, path)
    append_garbage(path)
    with pytest.raises(ColumnarTraceError, match="trailing garbage"):
        open_columnar(path)
