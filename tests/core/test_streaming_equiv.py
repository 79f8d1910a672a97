"""Differential guarantees for the online streaming detector.

Streaming's whole claim is exactness: the race set it reports with
O(P·V) state and no materialized trace must be *byte-identical* to the
post-mortem hb1 sweep on the same execution — across the workload
corpus, propagation policies, seeds, hypothesis-generated traces, all
three source kinds (operation stream, object trace, columnar mmap),
cyclic sync chains (held to the closure oracle), and both column forms of a columnar
trace (memoryview casts, and the big-endian hosts' decoded tuples).
"""

import json
from unittest import mock

import pytest
from hypothesis import given, settings

import repro
from repro.core.hb1 import HappensBefore1
from repro.core.races import find_races
from repro.core.streaming import StreamingDetector, StreamingReport
from repro.machine.models import make_model
from repro.machine.propagation import RandomPropagation, StubbornPropagation
from repro.machine.simulator import run_program
from repro.programs import (
    buggy_workqueue_program,
    figure1a_program,
    figure1b_program,
    iriw_program,
    lock_shadow_program,
    locked_counter_program,
    producer_consumer_program,
    racy_counter_program,
    single_race_program,
)
from repro.trace.bitvector import BitVector
from repro.trace.build import build_trace
from repro.trace.columnar import open_columnar, to_columnar
from repro.trace.events import ComputationEvent, EventId

from tests.core.test_hb1_cycles import _cyclic_trace, definition_2_4_races
from tests.properties.test_prop_traces import traces

CORPUS = [
    (lambda: racy_counter_program(3, 3), "WO"),
    (buggy_workqueue_program, "WO"),
    (figure1a_program, "SC"),
    (figure1b_program, "WO"),
    (single_race_program, "WO"),
    (locked_counter_program, "WO"),
    (producer_consumer_program, "WO"),
    (iriw_program, "WO"),
    (lock_shadow_program, "WO"),
]


def _execute(program, model="WO", seed=0, propagation=None):
    return run_program(
        program, make_model(model), seed=seed, propagation=propagation
    )


def _race_keys(races):
    return [(r.a, r.b, r.locations, r.is_data_race) for r in races]


# ----------------------------------------------------------------------
# exactness across the corpus, all source kinds
# ----------------------------------------------------------------------

@pytest.mark.parametrize("build,model", CORPUS)
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_streaming_equals_postmortem_race_set(build, model, seed):
    """Operation-stream and trace-merge streaming both report exactly
    the post-mortem race set, on every corpus execution."""
    for propagation in (None, StubbornPropagation(), RandomPropagation(0.4)):
        result = _execute(build(), model, seed, propagation)
        trace = build_trace(result)
        base = repro.detect(trace)
        online = repro.detect(result, detector="streaming")
        merged = repro.detect(trace, detector="streaming")
        assert isinstance(online, StreamingReport)
        assert _race_keys(online.races) == _race_keys(base.races)
        assert _race_keys(merged.races) == _race_keys(base.races)


@pytest.mark.parametrize("build,model", CORPUS)
@pytest.mark.parametrize("seed", [0, 7])
def test_streaming_columnar_mmap_equals_object_path(build, model, seed, tmp_path):
    """The columnar mmap path produces a byte-identical report JSON to
    the in-memory object path — races, counts, everything."""
    trace = build_trace(_execute(build(), model, seed))
    path = tmp_path / "t.wrct"
    to_columnar(trace, path)
    with open_columnar(path) as lazy:
        col_report = repro.detect(lazy, detector="streaming")
    obj_report = repro.detect(trace, detector="streaming")
    assert json.dumps(col_report.to_json(), sort_keys=True) == \
        json.dumps(obj_report.to_json(), sort_keys=True)


@pytest.mark.parametrize("build,model", CORPUS[:4])
def test_postmortem_columnar_mmap_equals_object_path(build, model, tmp_path):
    """Same byte-identity for the post-mortem pipeline itself: the
    columnar fast path changes nothing but the memory profile."""
    trace = build_trace(_execute(build(), model, seed=7))
    path = tmp_path / "t.wrct"
    to_columnar(trace, path)
    obj_json = repro.detect(trace).to_json()
    with open_columnar(path) as lazy:
        col_json = repro.detect(lazy).to_json()
    # the object trace knows ground-truth op seqs, the file does not —
    # everything the detector computed must still match exactly
    for payload in (obj_json, col_json):
        payload.pop("trace")
    assert json.dumps(col_json, sort_keys=True) == \
        json.dumps(obj_json, sort_keys=True)


@given(trace=traces())
@settings(max_examples=60, deadline=None)
def test_streaming_equals_postmortem_on_generated_traces(trace):
    base = find_races(trace, HappensBefore1(trace))
    report = StreamingDetector().analyze(trace)
    assert _race_keys(report.races) == _race_keys(base)


def test_streaming_on_both_column_paths(tmp_path):
    """The engine reads a columnar trace's columns directly, as the
    memoryview casts of a little-endian host or the decoded tuples of a
    big-endian one; both must give the post-mortem race set."""
    from repro.trace import columnar

    trace = build_trace(_execute(racy_counter_program(3, 3), seed=5))
    path = tmp_path / "t.wrct"
    to_columnar(trace, path)
    base = _race_keys(repro.detect(trace).races)
    assert _race_keys(
        repro.detect(trace, detector="streaming").races
    ) == base
    for byteorder in ("little", "big"):
        with mock.patch.object(columnar.sys, "byteorder", byteorder):
            with open_columnar(path) as lazy:
                assert _race_keys(
                    repro.detect(lazy, detector="streaming").races
                ) == base


# ----------------------------------------------------------------------
# cyclic chains: the condensation clocks keep the guarantee
# ----------------------------------------------------------------------

def test_streaming_cyclic_trace_matches_the_closure():
    trace = _cyclic_trace()
    trace.events.append([ComputationEvent(EventId(2, 0),
                                          writes=BitVector([2]))])
    trace.processor_count = 3
    report = StreamingDetector().analyze(trace)
    assert len(report.data_races) == 2
    assert _race_keys(report.races) == \
        _race_keys(definition_2_4_races(trace))


# ----------------------------------------------------------------------
# bounded state: the pruning actually prunes
# ----------------------------------------------------------------------

def test_streaming_state_is_bounded_on_synchronized_workload():
    """On a fully synchronized workload the remembered-access set must
    not track trace length: pruning reclaims accesses as soon as every
    other processor has seen them, so the peak grows only with the
    scheduler-skew window (events not yet globally seen), not with the
    number of events."""
    stats = {}
    for increments in (4, 64):
        result = _execute(locked_counter_program(3, increments))
        report = repro.detect(result, detector="streaming")
        assert report.race_free
        assert report.pruned_entries > 0
        stats[increments] = (report.retained_peak, report.event_count)
    peak_growth = stats[64][0] / stats[4][0]
    event_growth = stats[64][1] / stats[4][1]
    assert event_growth > 10
    assert peak_growth < event_growth / 4, stats


def test_streaming_report_protocol_round_trip():
    result = _execute(racy_counter_program(3, 3), seed=2)
    report = repro.detect(result, detector="streaming")
    assert not report.race_free
    assert report.certified_race_count == 1
    payload = json.loads(json.dumps(report.to_json()))
    back = repro.report_from_json(payload)
    assert isinstance(back, StreamingReport)
    assert back.to_json() == report.to_json()
    with pytest.raises(ValueError, match="streaming"):
        StreamingReport.from_json({"kind": "postmortem"})


def test_streaming_format_mentions_online_state():
    result = _execute(racy_counter_program(3, 3), seed=2)
    text = repro.detect(result, detector="streaming").format()
    assert "Streaming" in text
    assert "retained peak" in text
