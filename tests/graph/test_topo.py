"""Tests for topological sorting and cycle detection."""

from unittest import mock

import pytest

from repro.graph import CycleError, DiGraph, find_cycle, is_acyclic, topological_sort


def _assert_valid_topo(graph, order):
    position = {node: i for i, node in enumerate(order)}
    assert sorted(map(str, order)) == sorted(map(str, graph.nodes()))
    for src, dst in graph.edges():
        assert position[src] < position[dst]


def test_empty():
    assert topological_sort(DiGraph()) == []


def test_chain():
    g = DiGraph()
    g.add_edges([(1, 2), (2, 3)])
    assert topological_sort(g) == [1, 2, 3]


def test_diamond_valid():
    g = DiGraph()
    g.add_edges([("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    _assert_valid_topo(g, topological_sort(g))


def test_cycle_raises():
    g = DiGraph()
    g.add_edges([(1, 2), (2, 1)])
    with pytest.raises(CycleError):
        topological_sort(g)


def test_self_loop_raises():
    g = DiGraph()
    g.add_edge("a", "a")
    with pytest.raises(CycleError):
        topological_sort(g)


def test_is_acyclic():
    g = DiGraph()
    g.add_edges([(1, 2), (2, 3)])
    assert is_acyclic(g)
    g.add_edge(3, 1)
    assert not is_acyclic(g)


def test_deterministic_order():
    def build():
        g = DiGraph()
        g.add_edges([("a", "x"), ("a", "y"), ("a", "z")])
        return g

    assert topological_sort(build()) == topological_sort(build())


class TestFindCycle:
    def test_acyclic_returns_none(self):
        g = DiGraph()
        g.add_edges([(1, 2), (2, 3), (1, 3)])
        assert find_cycle(g) is None

    def test_finds_simple_cycle(self):
        g = DiGraph()
        g.add_edges([(1, 2), (2, 3), (3, 1)])
        cycle = find_cycle(g)
        assert cycle is not None
        assert cycle[0] == cycle[-1]
        for a, b in zip(cycle, cycle[1:]):
            assert g.has_edge(a, b)

    def test_finds_self_loop(self):
        g = DiGraph()
        g.add_edge("s", "s")
        cycle = find_cycle(g)
        assert cycle == ["s", "s"]

    def test_cycle_reachable_only_from_tail(self):
        g = DiGraph()
        g.add_edges([("start", "a"), ("a", "b"), ("b", "c"), ("c", "a")])
        cycle = find_cycle(g)
        assert cycle is not None
        assert set(cycle) <= {"a", "b", "c"}


# ----------------------------------------------------------------------
# the tie-break key is built once per sort, and the order is unchanged
# ----------------------------------------------------------------------

def _reference_sort(graph):
    """Kahn's algorithm with the tie-break key rebuilt for every popped
    node: the quadratic form the hoisted sort must match exactly."""
    from collections import deque

    in_deg = {node: graph.in_degree(node) for node in graph.nodes()}
    queue = deque(node for node in graph.nodes() if in_deg[node] == 0)
    order = []
    while queue:
        node = queue.popleft()
        order.append(node)
        positions = {n: i for i, n in enumerate(graph.nodes())}
        for succ in sorted(graph.successors(node), key=positions.__getitem__):
            in_deg[succ] -= 1
            if in_deg[succ] == 0:
                queue.append(succ)
    return order


def _sb_tso_order_graph(seed):
    from repro.core.robustness import build_order_graph
    from repro.machine.models import make_model
    from repro.machine.simulator import run_program
    from repro.programs.litmus import store_buffering_program

    result = run_program(store_buffering_program(), make_model("TSO"),
                         seed=seed)
    graph, _ = build_order_graph(result.operations)
    return result, graph


def test_tie_break_key_built_once_per_call():
    from repro.graph import topo

    g = DiGraph()
    g.add_nodes(range(2000))
    for i in range(1999):
        g.add_edge(i, i + 1)
        if i % 3 == 0 and i + 7 < 2000:
            g.add_edge(i, i + 7)
    calls = []
    original = topo._stable_key

    def counting(graph):
        calls.append(graph)
        return original(graph)

    with mock.patch.object(topo, "_stable_key", counting):
        order = topological_sort(g)
        assert len(calls) == 1
        topological_sort(g)
        assert len(calls) == 2
    assert order == list(range(2000))


def test_order_matches_reference_on_chain():
    g = DiGraph()
    g.add_edges([(3, 1), (1, 2), (2, 0)])
    assert topological_sort(g) == _reference_sort(g) == [3, 1, 2, 0]


def test_order_matches_reference_on_diamond():
    g = DiGraph()
    g.add_edges([("a", "c"), ("a", "b"), ("b", "d"), ("c", "d")])
    assert topological_sort(g) == _reference_sort(g) == ["a", "c", "b", "d"]


def test_order_matches_reference_on_multi_root():
    g = DiGraph()
    g.add_nodes(["r2", "r0", "r1"])
    g.add_edges([("r1", "x"), ("r0", "y"), ("r2", "x"), ("x", "z"),
                 ("y", "z"), ("r0", "x")])
    assert topological_sort(g) == _reference_sort(g) == [
        "r2", "r0", "r1", "y", "x", "z"
    ]


def test_order_matches_reference_on_tso_order_graph():
    # seed 4 is a store-buffering run whose order graph stays acyclic
    result, graph = _sb_tso_order_graph(seed=4)
    order = topological_sort(graph)
    assert order == _reference_sort(graph)
    assert sorted(order) == sorted(op.seq for op in result.operations)


def test_tso_order_graph_cycle_still_raises():
    # seed 3 gives the weak r0 = r1 = 0 outcome: po ∪ rf ∪ co ∪ fr cycles
    _, graph = _sb_tso_order_graph(seed=3)
    with pytest.raises(CycleError):
        topological_sort(graph)
