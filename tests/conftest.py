"""Shared fixtures: canonical programs, executions and analysis objects."""

from __future__ import annotations

import pytest

from repro.core.detector import PostMortemDetector
from repro.graph import DiGraph, TransitiveClosure
from repro.machine.models import make_model
from repro.machine.propagation import StubbornPropagation
from repro.machine.simulator import run_program
from repro.programs.figure1 import figure1a_program, figure1b_program
from repro.programs.workqueue import run_figure2
from repro.trace.build import build_trace
from repro.trace.events import EventId


@pytest.fixture(scope="session")
def detector():
    return PostMortemDetector()


@pytest.fixture(scope="session")
def fig1a_sc_result():
    """Figure 1a executed under SC (data races on x and y)."""
    return run_program(figure1a_program(), make_model("SC"), seed=1)


@pytest.fixture(scope="session")
def fig1b_wo_result():
    """Figure 1b executed under WO with stubborn propagation
    (data-race-free, must still be sequentially consistent)."""
    return run_program(
        figure1b_program(),
        make_model("WO"),
        seed=1,
        propagation=StubbornPropagation(),
    )


@pytest.fixture(scope="session")
def figure2_result():
    """The deterministic Figure 2b weak execution (WO)."""
    return run_figure2(make_model("WO"))


@pytest.fixture(scope="session")
def figure2_trace(figure2_result):
    return build_trace(figure2_result)


@pytest.fixture(scope="session")
def figure2_report(figure2_result, detector):
    return detector.analyze_execution(figure2_result)


@pytest.fixture
def event_closures(monkeypatch):
    """A list that grows by one per TransitiveClosure built over a graph
    of events.  The tests' G' oracle builds one by design; detection,
    streaming and ``explain_races`` build none."""
    built = []
    init = TransitiveClosure.__init__

    def recording_init(self, graph):
        if any(isinstance(node, EventId) for node in graph.nodes()):
            built.append(graph)
        init(self, graph)

    monkeypatch.setattr(TransitiveClosure, "__init__", recording_init)
    return built


@pytest.fixture
def event_graphs(monkeypatch, event_closures):
    """:func:`event_closures`, plus every DiGraph, once, when it gets
    its first event node (a condensation of events needs one too).
    Only a DOT export builds an event graph in ``src/``."""
    add_node = DiGraph.add_node

    def recording_add_node(self, node):
        if isinstance(node, EventId) and not any(
                graph is self for graph in event_closures):
            event_closures.append(self)
        add_node(self, node)

    monkeypatch.setattr(DiGraph, "add_node", recording_add_node)
    return event_closures
