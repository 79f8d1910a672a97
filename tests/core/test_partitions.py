"""Race partitioning and first-partition tests (section 4.2)."""

import pytest

import repro
from repro.core.detector import PostMortemDetector
from repro.core.explain import explain_report
from repro.core.hb1 import HappensBefore1
from repro.core.partitions import partition_races
from repro.core.provenance import ProvenanceError, explain_races
from repro.core.races import find_races
from repro.machine.models import make_model
from repro.machine.program import ProgramBuilder
from repro.machine.simulator import run_program
from repro.programs import (
    buggy_workqueue_program,
    locked_counter_program,
    run_figure2,
)
from repro.programs.random_programs import random_racy_program
from repro.trace.build import build_trace


def _analyze(program, model="SC", seed=0):
    result = run_program(program, make_model(model), seed=seed)
    trace = build_trace(result)
    hb = HappensBefore1(trace)
    races = find_races(trace, hb)
    return trace, races, partition_races(trace, hb, races)


def test_no_races_no_partitions():
    b = ProgramBuilder()
    x = b.var("x")
    with b.thread() as t:
        t.write(x, 1)
    trace, races, analysis = _analyze(b.build())
    assert races == []
    assert analysis.partitions == []
    assert analysis.first_partitions == []


def test_single_race_is_its_own_first_partition():
    b = ProgramBuilder()
    x = b.var("x")
    with b.thread() as t:
        t.write(x, 1)
    with b.thread() as t:
        t.read(x)
    _, races, analysis = _analyze(b.build())
    assert len(analysis.partitions) == 1
    p = analysis.partitions[0]
    assert p.is_first
    assert p.races == races
    assert p.has_data_race


def test_independent_races_both_first():
    b = ProgramBuilder()
    x, y = b.var("x"), b.var("y")
    with b.thread() as t:
        t.write(x, 1)
    with b.thread() as t:
        t.read(x)
    with b.thread() as t:
        t.write(y, 1)
    with b.thread() as t:
        t.read(y)
    _, races, analysis = _analyze(b.build())
    assert len(races) == 2
    assert len(analysis.partitions) == 2
    assert all(p.is_first for p in analysis.partitions)


def test_race_endpoints_share_scc():
    b = ProgramBuilder()
    x = b.var("x")
    with b.thread() as t:
        t.write(x, 1)
    with b.thread() as t:
        t.read(x)
    _, races, analysis = _analyze(b.build())
    race = races[0]
    assert {race.a, race.b} <= analysis.partition_of(race).events


def test_figure2_two_partitions_ordered(figure2_report):
    analysis = figure2_report.analysis
    data_partitions = [p for p in analysis.partitions if p.has_data_race]
    assert len(data_partitions) == 2
    first = [p for p in data_partitions if p.is_first]
    non_first = [p for p in data_partitions if not p.is_first]
    assert len(first) == 1
    assert len(non_first) == 1
    assert analysis.precedes(first[0], non_first[0])
    assert not analysis.precedes(non_first[0], first[0])


def test_figure2_first_partition_is_the_queue_race(figure2_report):
    trace = figure2_report.trace
    first = figure2_report.first_partitions[0]
    locations = {
        trace.addr_name(addr)
        for race in first.data_races
        for addr in race.locations
    }
    assert locations == {"Q", "QEmpty"}


def test_figure2_non_first_is_the_region_overlap(figure2_report):
    trace = figure2_report.trace
    suppressed = figure2_report.suppressed_races
    assert suppressed
    for race in suppressed:
        for addr in race.locations:
            assert trace.addr_name(addr).startswith("region[")


def test_partition_of_lookup(figure2_report):
    analysis = figure2_report.analysis
    for partition in analysis.partitions:
        for race in partition.races:
            assert analysis.partition_of(race) is partition
    with pytest.raises(KeyError):
        from repro.core.races import EventRace
        from repro.trace.events import EventId
        analysis.partition_of(
            EventRace(EventId(9, 9), EventId(9, 10), (0,), True)
        )


def test_precedes_irreflexive(figure2_report):
    analysis = figure2_report.analysis
    for p in analysis.partitions:
        assert not analysis.precedes(p, p)


def test_first_races_property(figure2_report):
    analysis = figure2_report.analysis
    first_events = {r for p in analysis.first_partitions for r in p.races}
    assert set(analysis.first_races) == first_events


def test_describe_mentions_tag(figure2_report):
    text = figure2_report.analysis.partitions[0].describe(figure2_report.trace)
    assert "Partition #" in text
    assert ("first" in text) or ("non-first" in text)


@pytest.mark.parametrize("detector", ("postmortem", "shb", "wcp"))
def test_only_dot_builds_an_event_graph(detector, event_graphs):
    """Detection, the partitions, the affects chains and the provenance
    witnesses read the clocks and rows; none builds a DiGraph,
    condensation or transitive closure over events, cyclic hb1
    included.  Only the DOT export draws G'."""
    from tests.properties.test_prop_skeleton import _cycle_then_race_trace

    sources = [run_program(program, make_model("WO"), seed=seed)
               for program, seed in ((buggy_workqueue_program(), 0),
                                     (random_racy_program(4), 4),
                                     (locked_counter_program(), 1))]
    sources += [run_figure2(make_model("WO")), _cycle_then_race_trace()]
    for source in sources:
        report = repro.detect(source, detector=detector)
        report.analysis.first_partitions
        explain_report(report)
        try:
            explain_races(report, include_sync=True)
        except ProvenanceError:  # WCP reports predicted races
            assert detector == "wcp"
        assert event_graphs == []
    report.to_dot()
    assert len(event_graphs) == 2  # hb1's graph and the drawn copy
