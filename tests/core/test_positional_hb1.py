"""The positional vector-clock sweep against a graph reference.

:class:`~repro.core.hb1.HappensBefore1` linearizes po ∪ the
relation's cross-processor edges with a Kahn merge over ``(proc, pos)``
rows, building no event graph.  The reference here builds that graph,
sorts it with :func:`~repro.graph.topological_sort` and joins each
event's predecessors pointwise.  The order, every clock and the
``clock_joins`` counter must be equal, for the hb1, SHB and WCP
relations, on object and columnar traces.  A cyclic relation has no
topological order; its clocks, computed over the SCC condensation, must
answer every ordering query as the relation's transitive closure does.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

import repro
from repro import obs
from repro.core.hb1 import HappensBefore1
from repro.core.predictive import ScheduleHappensBefore, WeakCausallyPrecedes
from repro.graph import (
    CycleError,
    DiGraph,
    TransitiveClosure,
    topological_sort,
)
from repro.machine.models import ALL_MODEL_NAMES, make_model
from repro.machine.simulator import run_program
from repro.programs import (
    locked_counter_program,
    racy_counter_program,
    run_figure2,
)
from repro.programs.random_programs import (
    random_drf_program,
    random_racy_program,
)
from repro.trace.build import build_trace
from repro.trace.columnar import open_columnar, to_columnar
from repro.trace.events import EventId

from tests.core.test_hb1_cycles import _cyclic_trace, reordered_traces
from tests.core.test_lazy_partitions import CORPUS
from tests.properties.test_prop_traces import traces

RELATIONS = (HappensBefore1, ScheduleHappensBefore, WeakCausallyPrecedes)


def _reference(relation):
    """(graph, topological order, clocks, joins) from an explicit
    event graph of po plus the relation's so1 (and rf) edges."""
    trace = relation.trace
    graph = DiGraph()
    for proc, proc_events in enumerate(trace.events):
        for pos in range(len(proc_events)):
            graph.add_node(EventId(proc, pos))
            if pos:
                graph.add_edge(EventId(proc, pos - 1), EventId(proc, pos))
    graph.add_edges(relation.so1_edges)
    graph.add_edges(getattr(relation, "rf_edges", ()))
    order = topological_sort(graph)
    clocks = {}
    joins = 0
    for eid in order:
        clock = [0] * trace.processor_count
        for pred in graph.predecessors(eid):
            clock = [max(a, b) for a, b in zip(clock, clocks[pred])]
            joins += 1
        clock[eid.proc] = eid.pos + 1
        clocks[eid] = clock
    return graph, order, clocks, joins


def _clock_joins(profiler):
    return sum(rec["counters"].get("clock_joins", 0)
               for rec in profiler.to_records()
               if rec["name"] == "hb1.vc_sweep")


def _assert_matches_reference(relation) -> bool:
    """Check one relation; True when it was acyclic."""
    trace = relation.trace
    try:
        graph, order, clocks, joins = _reference(relation)
    except CycleError:
        assert relation.cyclic
        closure = TransitiveClosure(relation.graph)
        events = list(relation.graph.nodes())
        for a in events:
            for b in events:
                if a != b:
                    assert relation.ordered(a, b) == closure.ordered(a, b), \
                        (a, b)
        # the sweep order linearizes the condensation: an edge runs
        # backwards only inside an SCC
        index = {eid: i for i, eid in enumerate(relation.order)}
        assert all(index[u] < index[v] or closure.ordered(v, u)
                   for u, v in relation.graph.edges())
        return False
    profiler = obs.Profiler()
    with profiler.activate():
        assert not relation.cyclic  # the first read clocks the events
    assert relation.order == order
    assert [clock for _, clock in relation.clocks()] == \
        [clocks[e] for e in order]
    assert all(relation.clock_of(e) == clocks[e] for e in order)
    assert _clock_joins(profiler) == joins
    # the lazily built event graph is the reference's
    assert list(relation.graph.nodes()) == list(graph.nodes())
    assert set(relation.graph.edges()) == set(graph.edges())
    return True


def _assert_all_relations(trace) -> None:
    for relation in RELATIONS:
        _assert_matches_reference(relation(trace))


@pytest.mark.parametrize("model", ALL_MODEL_NAMES)
@pytest.mark.parametrize("build", CORPUS, ids=lambda p: p.__name__)
def test_corpus_matches_reference(build, model, tmp_path):
    trace = build_trace(run_program(build(), make_model(model), seed=3))
    _assert_all_relations(trace)
    path = tmp_path / "t.wrct"
    to_columnar(trace, path)
    with open_columnar(path) as lazy:
        _assert_all_relations(lazy)


@pytest.mark.parametrize("model", ALL_MODEL_NAMES)
def test_figure2_matches_reference(model):
    _assert_all_relations(build_trace(run_figure2(make_model(model))))


@pytest.mark.parametrize("model", ALL_MODEL_NAMES)
@pytest.mark.parametrize("generate", [random_racy_program, random_drf_program],
                         ids=lambda g: g.__name__)
def test_random_programs_match_reference(generate, model):
    for seed in range(4):
        _assert_all_relations(build_trace(
            run_program(generate(seed), make_model(model), seed=seed)))


@given(trace=traces())
@settings(max_examples=100, deadline=None)
def test_generated_traces_match_reference(trace):
    _assert_all_relations(trace)


@given(trace=reordered_traces())
@settings(max_examples=150, deadline=None)
def test_reordered_traces_match_reference(trace):
    _assert_all_relations(trace)


def test_cyclic_trace_matches_the_closure():
    assert not _assert_matches_reference(HappensBefore1(_cyclic_trace()))


# ----------------------------------------------------------------------
# no event graph on the verdict path
# ----------------------------------------------------------------------

@pytest.fixture
def graphs_built(monkeypatch):
    """A list that grows by one per DiGraph constructed."""
    built = []
    init = DiGraph.__init__

    def counting_init(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(DiGraph, "__init__", counting_init)
    return built


def test_race_free_verdict_builds_no_graph(graphs_built, tmp_path):
    trace = build_trace(run_program(locked_counter_program(),
                                    make_model("WO"), seed=1))
    path = tmp_path / "t.wrct"
    to_columnar(trace, path)
    with open_columnar(path) as lazy:
        for source in (trace, lazy):
            report = repro.detect(source)
            assert report.race_free
            report.format()
    assert graphs_built == []


def test_racy_report_builds_its_graph_inside_the_detector():
    trace = build_trace(run_program(racy_counter_program(),
                                    make_model("WO"), seed=1))
    profiler = obs.Profiler()
    report = repro.detect(trace, profile=profiler)
    assert not report.race_free
    paths = [rec["path"] for rec in profiler.to_records()
             if rec["name"] in ("hb1.graph", "races.partition")]
    assert paths
    assert all(path.startswith("detect/detect.postmortem/")
               for path in paths), paths
