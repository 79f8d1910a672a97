"""Tests for Tarjan SCCs."""

from repro.graph import DiGraph, component_map, strongly_connected_components


def _scc_sets(graph):
    return {frozenset(c) for c in strongly_connected_components(graph)}


def test_empty():
    assert strongly_connected_components(DiGraph()) == []


def test_single_node():
    g = DiGraph()
    g.add_node("a")
    assert _scc_sets(g) == {frozenset({"a"})}


def test_two_node_cycle():
    g = DiGraph()
    g.add_edges([("a", "b"), ("b", "a")])
    assert _scc_sets(g) == {frozenset({"a", "b"})}


def test_chain_is_singletons():
    g = DiGraph()
    g.add_edges([(1, 2), (2, 3), (3, 4)])
    assert _scc_sets(g) == {frozenset({n}) for n in (1, 2, 3, 4)}


def test_classic_example():
    # Two 3-cycles connected by a bridge, plus a tail.
    g = DiGraph()
    g.add_edges([
        ("a", "b"), ("b", "c"), ("c", "a"),
        ("c", "d"),
        ("d", "e"), ("e", "f"), ("f", "d"),
        ("f", "g"),
    ])
    assert _scc_sets(g) == {
        frozenset({"a", "b", "c"}),
        frozenset({"d", "e", "f"}),
        frozenset({"g"}),
    }


def test_reverse_topological_emission_order():
    g = DiGraph()
    g.add_edges([("a", "b"), ("b", "c")])
    comps = strongly_connected_components(g)
    # Every edge between distinct components goes from later-emitted to
    # earlier-emitted.
    index = {}
    for i, comp in enumerate(comps):
        for node in comp:
            index[node] = i
    for src, dst in g.edges():
        if index[src] != index[dst]:
            assert index[src] > index[dst]


def test_self_loop_is_own_component():
    g = DiGraph()
    g.add_edge("x", "x")
    g.add_node("y")
    assert _scc_sets(g) == {frozenset({"x"}), frozenset({"y"})}


def test_component_map_consistent():
    g = DiGraph()
    g.add_edges([(1, 2), (2, 1), (2, 3)])
    mapping = component_map(g)
    assert mapping[1] == mapping[2]
    assert mapping[3] != mapping[1]


def test_large_path_no_recursion_error():
    # Iterative Tarjan must handle paths far beyond the recursion limit.
    g = DiGraph()
    n = 5000
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    comps = strongly_connected_components(g)
    assert len(comps) == n


def test_large_cycle():
    g = DiGraph()
    n = 3000
    for i in range(n):
        g.add_edge(i, (i + 1) % n)
    comps = strongly_connected_components(g)
    assert len(comps) == 1
    assert len(comps[0]) == n


def test_nodes_and_successor_function_match_the_graph():
    """Integer rows with a successor function, as the vector-clock
    sweep passes them, give the graph form's components in its order."""
    edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3), (5, 4)]
    g = DiGraph()
    g.add_nodes(range(6))
    g.add_edges(edges)
    succ = {}
    for src, dst in edges:
        succ.setdefault(src, []).append(dst)
    assert strongly_connected_components(
        range(6), lambda node: succ.get(node, ())
    ) == strongly_connected_components(g)
