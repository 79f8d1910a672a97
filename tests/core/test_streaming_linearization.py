"""A streamed trace is one frontier sweep over the post-mortem
linearization.

``StreamingDetector.analyze(trace)`` clocks the trace's
:class:`~repro.core.hb1.HappensBefore1` and feeds its rows to the
frontier kernel.  The reference here is the kernel fed event by event
from :meth:`HappensBefore1.positions`, recomputing the frontier bound
wherever an event's foreign clock components moved.  Races, retained
peak and pruned entries must be equal on the streaming equivalence
corpus, for object and columnar traces.
"""

from __future__ import annotations

import pytest

import repro
from repro.core.hb1 import HappensBefore1
from repro.core.races import FrontierSweep
from repro.core.streaming import StreamingDetector
from repro.trace.build import build_trace
from repro.trace.columnar import open_columnar, to_columnar
from repro.trace.events import EventId

from tests.core.test_race_sweep_work import _pingpong_program
from tests.core.test_streaming_equiv import CORPUS, _execute


def _reference_stream(trace):
    """(races, retained peak, pruned entries) of the kernel fed every
    event of the vector-clock linearization in turn."""
    vc = HappensBefore1(trace)
    sweep = FrontierSweep(trace.processor_count)
    latest = sweep.clock
    for _, proc, pos, clock in vc.positions():
        prev = latest[proc]
        latest[proc] = clock
        if prev[:proc] != clock[:proc] or prev[proc + 1:] != clock[proc + 1:]:
            sweep.recompute_min()
        is_comp, reads, writes = trace.accesses(EventId(proc, pos))
        sweep.access(proc, pos, is_comp, reads, writes, clock)
    return sweep.finish(), sweep.retained_peak, sweep.pruned


def _assert_streams_like_reference(trace):
    report = StreamingDetector().analyze(trace)
    assert (report.races, report.retained_peak, report.pruned_entries) \
        == _reference_stream(trace)


@pytest.mark.parametrize("build,model", CORPUS)
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_trace_stream_equals_one_reference_sweep(build, model, seed,
                                                 tmp_path):
    trace = build_trace(_execute(build(), model, seed))
    _assert_streams_like_reference(trace)
    path = tmp_path / "t.wrct"
    to_columnar(trace, path)
    with open_columnar(path) as lazy:
        _assert_streams_like_reference(lazy)


def test_pingpong_stream_retains_sixteen_accesses_at_peak(tmp_path):
    """The analyze-pingpong benchmark trace: 128 rounds on WO, seed 0."""
    trace = build_trace(_execute(_pingpong_program(128), "WO", seed=0))
    path = tmp_path / "t.wrct"
    to_columnar(trace, path)
    with open_columnar(path) as lazy:
        report = repro.detect(lazy, detector="streaming")
    assert (report.event_count, report.retained_peak) == (1401, 16)
    _assert_streams_like_reference(trace)
