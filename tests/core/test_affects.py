"""Tests for the affects relation (Definition 3.3) on G'."""

import pytest

from repro.core.hb1 import HappensBefore1
from repro.core.races import find_races
from repro.machine.models import make_model
from repro.machine.program import ProgramBuilder
from repro.machine.simulator import run_program
from repro.programs.workqueue import run_figure2
from repro.trace.build import build_trace
from tests.gprime_oracle import (
    AffectsIndex,
    affected_events,
    build_augmented_graph,
    race_affects_event,
    race_affects_race,
)


@pytest.fixture(scope="module")
def figure2_parts():
    result = run_figure2(make_model("WO"))
    trace = build_trace(result)
    hb = HappensBefore1(trace)
    races = find_races(trace, hb)
    gprime = build_augmented_graph(hb, races)
    return trace, hb, races, gprime


def test_race_affects_its_own_events(figure2_parts):
    _, _, races, gprime = figure2_parts
    race = races[0]
    assert race_affects_event(gprime, race, race.a)
    assert race_affects_event(gprime, race, race.b)


def test_race_affects_po_successors(figure2_parts):
    trace, _, races, gprime = figure2_parts
    data = [r for r in races if r.is_data_race]
    queue_race = min(data, key=lambda r: (r.a, r.b))
    # Everything later in either processor's program order is affected.
    later = trace.events[queue_race.b.proc][queue_race.b.pos + 1].eid
    assert race_affects_event(gprime, queue_race, later)


def test_first_race_affects_region_race_not_vice_versa(figure2_parts):
    trace, _, races, gprime = figure2_parts
    data = sorted((r for r in races if r.is_data_race), key=lambda r: (r.a, r.b))
    queue_race, region_race = data[0], data[-1]
    assert queue_race != region_race
    assert race_affects_race(gprime, queue_race, region_race)
    assert not race_affects_race(gprime, region_race, queue_race)


def test_affected_events_includes_endpoints(figure2_parts):
    _, _, races, gprime = figure2_parts
    race = races[0]
    out = affected_events(gprime, race)
    assert race.a in out and race.b in out


def test_affects_index_matches_pointwise(figure2_parts):
    _, _, races, gprime = figure2_parts
    index = AffectsIndex(gprime, races)
    for r1 in races:
        for r2 in races:
            if r1 is r2:
                continue
            assert index.affects(r1, r2) == race_affects_race(gprime, r1, r2)


def test_unaffected_races_are_the_firsts(figure2_parts):
    _, _, races, gprime = figure2_parts
    index = AffectsIndex(gprime, races)
    unaffected = index.unaffected_races()
    assert unaffected  # the queue race exists and nothing precedes it
    for race in unaffected:
        assert not any(
            other is not race and index.affects(other, race) for other in races
        )


def test_independent_races_do_not_affect_each_other():
    b = ProgramBuilder()
    x = b.var("x")
    y = b.var("y")
    with b.thread() as t:
        t.write(x, 1)
    with b.thread() as t:
        t.read(x)
    with b.thread() as t:
        t.write(y, 1)
    with b.thread() as t:
        t.read(y)
    result = run_program(b.build(), make_model("SC"), seed=0)
    trace = build_trace(result)
    hb = HappensBefore1(trace)
    races = find_races(trace, hb)
    assert len(races) == 2
    gprime = build_augmented_graph(hb, races)
    r1, r2 = races
    assert not race_affects_race(gprime, r1, r2)
    assert not race_affects_race(gprime, r2, r1)
    index = AffectsIndex(gprime, races)
    assert len(index.unaffected_races()) == 2
