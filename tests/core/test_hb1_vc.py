"""Tests of hb1's vector clocks, including differential equivalence
with a transitive closure of the relation's event graph."""

from repro.core.hb1 import HappensBefore1
from repro.core.races import find_races
from repro.graph import TransitiveClosure
from repro.machine.models import make_model
from repro.machine.simulator import run_program
from repro.programs.figure1 import figure1b_program
from repro.programs.random_programs import random_racy_program
from repro.programs.workqueue import run_figure2
from repro.trace.build import build_trace

from tests.core.test_hb1_cycles import _cyclic_trace, definition_2_4_races


def _assert_backends_agree(trace):
    vc = HappensBefore1(trace)
    closure = TransitiveClosure(vc.graph)
    events = [e.eid for e in trace.all_events()]
    for a in events:
        for b in events:
            if a == b:
                continue
            assert closure.ordered(a, b) == vc.ordered(a, b), (a, b)


def test_agrees_on_figure1b():
    result = run_program(figure1b_program(), make_model("WO"), seed=2)
    _assert_backends_agree(build_trace(result))


def test_agrees_on_figure2(figure2_trace):
    _assert_backends_agree(figure2_trace)


def test_agrees_on_random_programs():
    for seed in range(6):
        prog = random_racy_program(seed, race_prob=0.5)
        result = run_program(prog, make_model("RCsc"), seed=seed)
        _assert_backends_agree(build_trace(result))


def test_clock_components_monotone_per_processor(figure2_trace):
    vc = HappensBefore1(figure2_trace)
    for proc_events in figure2_trace.events:
        last = None
        for event in proc_events:
            clock = vc.clock_of(event.eid)
            if last is not None:
                assert all(x <= y for x, y in zip(last, clock))
            last = clock


def test_own_component_is_position(figure2_trace):
    vc = HappensBefore1(figure2_trace)
    for proc_events in figure2_trace.events:
        for event in proc_events:
            assert vc.clock_of(event.eid)[event.eid.proc] == event.eid.pos + 1


def test_cyclic_trace_clocked_like_the_closure():
    """A cyclic hb1 is clocked over its SCC condensation: every
    ordering query and the race set equal the closure's."""
    trace = _cyclic_trace()
    vc = HappensBefore1(trace)
    assert vc.cyclic
    _assert_backends_agree(trace)
    # the 6-event cycle is one SCC: every event has seen all of it
    assert all(clock == [3, 3] for _, clock in vc.clocks())
    assert find_races(trace, vc) == definition_2_4_races(trace) == []


def test_race_detection_same_with_either_backend(figure2_trace):
    """find_races gives the Definition 2.4 race set, closure queries
    and all, whether it builds the relation or is handed one."""
    hb = HappensBefore1(figure2_trace)
    baseline = find_races(figure2_trace)
    assert find_races(figure2_trace, hb) == baseline
    assert baseline == definition_2_4_races(figure2_trace, hb)
