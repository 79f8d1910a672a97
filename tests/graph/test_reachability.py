"""Tests for reachability and transitive closure."""

import pytest

from repro.graph import (
    DiGraph,
    TransitiveClosure,
    ancestors,
    is_reachable,
    reachable_from,
    reachable_from_any,
    transitive_closure_sets,
)


@pytest.fixture
def diamond():
    g = DiGraph()
    g.add_edges([("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    return g


def test_reachable_from(diamond):
    assert reachable_from(diamond, "a") == {"b", "c", "d"}
    assert reachable_from(diamond, "b") == {"d"}
    assert reachable_from(diamond, "d") == set()


def test_reachable_excludes_self_without_cycle(diamond):
    assert "a" not in reachable_from(diamond, "a")


def test_reachable_includes_self_on_cycle():
    g = DiGraph()
    g.add_edges([(1, 2), (2, 1)])
    assert reachable_from(g, 1) == {1, 2}


def test_is_reachable(diamond):
    assert is_reachable(diamond, "a", "d")
    assert not is_reachable(diamond, "d", "a")
    assert not is_reachable(diamond, "b", "c")


def test_is_reachable_missing_nodes():
    g = DiGraph()
    g.add_node("a")
    assert not is_reachable(g, "a", "zzz")
    assert not is_reachable(g, "zzz", "a")


def test_is_reachable_self_needs_cycle():
    g = DiGraph()
    g.add_node("a")
    assert not is_reachable(g, "a", "a")
    g.add_edge("a", "a")
    assert is_reachable(g, "a", "a")


def test_ancestors(diamond):
    assert ancestors(diamond, "d") == {"a", "b", "c"}
    assert ancestors(diamond, "a") == set()


def test_reachable_from_any(diamond):
    out = reachable_from_any(diamond, ["b", "c"])
    assert out == {"b", "c", "d"}  # sources included


class TestTransitiveClosure:
    def test_matches_bfs_on_dag(self, diamond):
        tc = TransitiveClosure(diamond)
        for src in diamond.nodes():
            assert tc.descendants(src) == reachable_from(diamond, src)

    def test_ordered(self, diamond):
        tc = TransitiveClosure(diamond)
        assert tc.ordered("a", "d")
        assert not tc.ordered("d", "a")
        assert not tc.ordered("b", "c")

    def test_comparable(self, diamond):
        tc = TransitiveClosure(diamond)
        assert tc.comparable("a", "d")
        assert tc.comparable("d", "a")
        assert not tc.comparable("b", "c")

    def test_cycle_members_reach_each_other(self):
        g = DiGraph()
        g.add_edges([(1, 2), (2, 3), (3, 1), (3, 4)])
        tc = TransitiveClosure(g)
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                assert tc.ordered(a, b)  # including self via the cycle
        assert tc.ordered(1, 4)
        assert not tc.ordered(4, 1)

    def test_self_not_ordered_without_cycle(self, diamond):
        tc = TransitiveClosure(diamond)
        assert not tc.ordered("a", "a")

    def test_self_loop(self):
        g = DiGraph()
        g.add_edge("x", "x")
        tc = TransitiveClosure(g)
        assert tc.ordered("x", "x")

    def test_matches_bfs_on_cyclic_graph(self):
        g = DiGraph()
        g.add_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3), (1, 5)])
        tc = TransitiveClosure(g)
        for src in g.nodes():
            assert tc.descendants(src) == reachable_from(g, src)


def test_transitive_closure_sets(diamond):
    sets = transitive_closure_sets(diamond)
    assert sets["a"] == {"b", "c", "d"}
    assert sets["d"] == set()


class TestLargeGraphClosure:
    """Closures of graphs with more than 1,024 nodes (rows wider than
    many machine words, with cycles) must agree with BFS."""

    def _ladder(self, n):
        g = DiGraph()
        for i in range(n - 1):
            g.add_edge(i, i + 1)
            if i % 7 == 0 and i + 10 < n:
                g.add_edge(i, i + 10)
        # a few back edges to create cycles
        for i in range(50, n, 211):
            g.add_edge(i, i - 50)
        return g

    def test_large_closure_matches_bfs(self):
        n = 1124
        g = self._ladder(n)
        tc = TransitiveClosure(g)
        import random
        rng = random.Random(0)
        for _ in range(300):
            a, b = rng.randrange(n), rng.randrange(n)
            assert tc.ordered(a, b) == is_reachable(g, a, b), (a, b)

    def test_large_closure_descendants(self):
        n = 1034
        g = self._ladder(n)
        tc = TransitiveClosure(g)
        for node in (0, 5, n - 1):
            assert tc.descendants(node) == reachable_from(g, node)
