"""Torn/corrupt JSON-lines trace files must surface TraceError.

A crash mid-write, a torn filesystem write, or a corrupted disk can
leave a truncated or bit-flipped ``.jsonl`` trace behind.  Whatever the
damage, the reader either loads a trace or raises
:class:`~repro.trace.TraceError` (a :class:`TraceFormatError`) — never
a raw ``JSONDecodeError``, ``UnicodeDecodeError``, ``KeyError``,
``IndexError`` or bare ``ValueError`` from the decoding internals.
"""

import json
import random

import pytest

from repro.api import load_trace
from repro.faults.plan import append_garbage
from repro.machine.models import make_model
from repro.programs.workqueue import run_figure2
from repro.trace import (
    BinaryTraceError,
    ColumnarTraceError,
    InvalidTraceError,
    TraceError,
)
from repro.trace.build import build_trace
from repro.trace.tracefile import (
    TraceFormatError,
    trace_from_json,
    trace_to_json,
    write_trace,
)

SEED = 1991


@pytest.fixture
def trace_path(tmp_path):
    path = tmp_path / "t.jsonl"
    write_trace(build_trace(run_figure2(make_model("WO"))), path)
    return path


def _loads_or_rejects(path) -> bool:
    """True when *path* loads, False when it is rejected with a
    TraceError; any other exception fails the calling test."""
    try:
        load_trace(path)
    except TraceError as exc:
        assert isinstance(exc, TraceFormatError)
        return False
    return True


def test_every_trace_error_is_a_value_error():
    for cls in (TraceFormatError, BinaryTraceError, ColumnarTraceError,
                InvalidTraceError):
        assert issubclass(cls, TraceError)
    assert issubclass(TraceError, ValueError)


def test_seeded_truncations_never_leak_raw_errors(trace_path):
    data = trace_path.read_bytes()
    rng = random.Random(SEED)
    rejected = 0
    for _ in range(300):
        trace_path.write_bytes(data[:rng.randrange(len(data))])
        rejected += not _loads_or_rejects(trace_path)
    assert rejected > 0


def test_seeded_bit_flips_never_leak_raw_errors(trace_path):
    data = trace_path.read_bytes()
    rng = random.Random(SEED)
    rejected = 0
    for _ in range(300):
        flipped = bytearray(data)
        flipped[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        trace_path.write_bytes(bytes(flipped))
        rejected += not _loads_or_rejects(trace_path)
    assert rejected > 0


def test_truncation_mid_record_names_the_file(trace_path):
    data = trace_path.read_bytes()
    trace_path.write_bytes(data[:len(data) // 2 + 3])
    with pytest.raises(TraceFormatError, match=str(trace_path)):
        load_trace(trace_path)


def test_non_utf8_bytes_rejected(trace_path):
    trace_path.write_bytes(b"\xff\xfe garbage\n")
    with pytest.raises(TraceFormatError, match="UnicodeDecodeError"):
        load_trace(trace_path)


def test_trailing_garbage_rejected(trace_path):
    append_garbage(trace_path)
    assert not _loads_or_rejects(trace_path)


@pytest.mark.parametrize("mutate", [
    lambda p: p.pop("processor_count"),
    lambda p: p["events"].append({"t": "comp", "proc": 99, "pos": 0,
                                  "reads": "", "writes": ""}),
    lambda p: p["events"][0].update(t="sync", op="no-such-op"),
    lambda p: p.update(sync_order={"x": [[0, 0]]}),
    lambda p: p.update(events=[7]),
])
def test_malformed_json_payload_rejected(mutate):
    payload = trace_to_json(build_trace(run_figure2(make_model("WO"))))
    payload = json.loads(json.dumps(payload))
    mutate(payload)
    with pytest.raises(TraceFormatError, match="malformed trace"):
        trace_from_json(payload)
