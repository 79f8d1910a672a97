"""Differential tests: vector-clock frontier race sweep vs. closure.

`find_races` runs the frontier sweep over a `HappensBefore1`'s clocks.
The acceptance bar is that it reports *identical* races to Definition
2.4 applied with queries to a transitive closure of the event graph —
same pairs, same conflict locations, same data-race flags — on every
trace, cyclic hb1 relations (§3.1) included.
"""

import pytest
from hypothesis import given, settings

from repro.core.detector import PostMortemDetector
from repro.core.hb1 import HappensBefore1
from repro.core.races import find_races
from repro.core.streaming import StreamingDetector
from repro.machine.models import make_model
from repro.machine.propagation import RandomPropagation, StubbornPropagation
from repro.machine.simulator import run_program
from repro.programs import (
    buggy_workqueue_program,
    figure1a_program,
    figure1b_program,
    figure2_weak_setup,
    racy_counter_program,
    single_race_program,
)
from repro.trace.build import build_trace

from tests.core.test_hb1_cycles import _cyclic_trace, definition_2_4_races
from tests.properties.test_prop_traces import traces


def _trace_for(program, model="WO", seed=0, propagation=None):
    result = run_program(
        program, make_model(model), seed=seed, propagation=propagation
    )
    return build_trace(result)


def _assert_same_races(trace):
    hb = HappensBefore1(trace)
    closure_races = definition_2_4_races(trace, hb)
    batched_races = find_races(trace, hb)
    assert batched_races == closure_races
    return closure_races


@pytest.mark.parametrize("build,model", [
    (lambda: racy_counter_program(3, 3), "WO"),
    (buggy_workqueue_program, "WO"),
    (figure1a_program, "SC"),
    (figure1b_program, "WO"),
    (single_race_program, "WO"),
])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_batched_sweep_matches_closure_on_executions(build, model, seed):
    for propagation in (None, StubbornPropagation(), RandomPropagation(0.4)):
        trace = _trace_for(build(), model, seed, propagation)
        _assert_same_races(trace)


def test_batched_sweep_finds_known_race():
    races = _assert_same_races(_trace_for(single_race_program()))
    assert any(r.is_data_race for r in races)


def test_batched_sweep_matches_closure_on_figure2():
    """The paper's Figure 2b reordering, reproduced deterministically."""
    result = figure2_weak_setup(make_model("WO")).run()
    races = _assert_same_races(build_trace(result))
    assert any(r.is_data_race for r in races)


@given(trace=traces())
@settings(max_examples=80, deadline=None)
def test_batched_sweep_matches_closure_on_generated_traces(trace):
    _assert_same_races(trace)


def test_detector_clocks_a_cyclic_trace(event_closures):
    """The end-to-end pipeline clocks a cyclic hb1 (hand-crafted
    weak-sync trace) over its SCC condensation, builds no closure, and
    reports the races Definition 2.4 gives with closure queries."""
    trace = _cyclic_trace()
    report = PostMortemDetector().analyze(trace)
    assert report.hb.cyclic
    races = report.races
    assert event_closures == []
    assert races == _assert_same_races(trace)


def test_detector_uses_vector_clocks_on_acyclic_traces(event_closures):
    """On acyclic traces neither the pipeline nor streaming from the
    trace builds a closure: the frontier sweep answers every ordering
    query from the clocks."""
    trace = _trace_for(racy_counter_program(2, 2))
    report = PostMortemDetector().analyze(trace)
    races = report.races
    assert StreamingDetector().analyze(trace).races == races
    assert event_closures == []
    assert races == definition_2_4_races(trace)
