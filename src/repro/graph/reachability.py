"""Reachability queries and transitive closure.

Two uses in the reproduction: deciding whether two events are ordered by
the happens-before-1 relation (race detection needs *unordered* pairs),
and ordering race partitions by paths in the augmented graph G'
(Definition 4.1).  For repeated queries over the same graph the bitset
transitive closure is the right tool; single queries use plain BFS.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Set

from .digraph import DiGraph


def reachable_from(graph: DiGraph, source: Hashable) -> Set[Hashable]:
    """All nodes reachable from *source* (excluding *source* itself,
    unless it lies on a cycle through itself)."""
    seen: Set[Hashable] = set()
    frontier = [source]
    while frontier:
        node = frontier.pop()
        for succ in graph.successors(node):
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return seen


def is_reachable(graph: DiGraph, source: Hashable, target: Hashable) -> bool:
    """True iff a (non-empty) path leads from *source* to *target*."""
    if source not in graph or target not in graph:
        return False
    seen: Set[Hashable] = set()
    frontier = [source]
    while frontier:
        node = frontier.pop()
        for succ in graph.successors(node):
            if succ == target:
                return True
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return False


class TransitiveClosure:
    """Bitset transitive closure with O(1) ordered-pair queries.

    Nodes are assigned dense indices; each node's descendant set is one
    Python int used as a bitset, so construction is a single
    reverse-topological sweep of whole-row ORs — Tarjan emits SCCs so
    that every edge leaving a component points at an already-finished
    one.  Cyclic graphs are handled per-SCC (weak executions can
    produce cyclic hb1 relations, see section 3.1 of the paper).
    """

    def __init__(self, graph: DiGraph) -> None:
        from .scc import strongly_connected_components

        self._index: Dict[Hashable, int] = {}
        self._nodes: List[Hashable] = []
        for node in graph.nodes():
            self._index[node] = len(self._nodes)
            self._nodes.append(node)

        index = self._index
        rows: List[int] = [0] * len(self._nodes)
        for component in strongly_connected_components(graph):
            members = [index[m] for m in component]
            cycle = (
                len(members) > 1
                or graph.has_edge(component[0], component[0])
            )
            bits = 0
            for name in component:
                for succ in graph.successors(name):
                    j = index[succ]
                    bits |= rows[j] | (1 << j)
            if cycle:
                for member in members:
                    bits |= 1 << member
            for member in members:
                rows[member] = bits
        self._rows = rows

    def ordered(self, src: Hashable, dst: Hashable) -> bool:
        """True iff ``src`` can reach ``dst`` by a non-empty path."""
        return self.ordered_index(self._index[src], self._index[dst])

    def ordered_index(self, i: int, j: int) -> bool:
        """`ordered` by dense index (see :meth:`index_of`); the hot path
        for bulk queries such as race detection."""
        return bool(self._rows[i] >> j & 1)

    def index_of(self, node: Hashable) -> int:
        """The dense index assigned to *node*."""
        return self._index[node]

    def descendants(self, node: Hashable) -> Set[Hashable]:
        """All nodes reachable from *node* by a non-empty path."""
        bits = self._rows[self._index[node]]
        nodes = self._nodes
        out: Set[Hashable] = set()
        while bits:
            low = bits & -bits
            out.add(nodes[low.bit_length() - 1])
            bits ^= low
        return out

    def comparable(self, a: Hashable, b: Hashable) -> bool:
        """True iff *a* and *b* are ordered one way or the other."""
        i, j = self._index[a], self._index[b]
        return self.ordered_index(i, j) or self.ordered_index(j, i)


def transitive_closure_sets(graph: DiGraph) -> Dict[Hashable, Set[Hashable]]:
    """Descendant sets for every node, as plain Python sets."""
    tc = TransitiveClosure(graph)
    return {node: tc.descendants(node) for node in graph.nodes()}


def ancestors(graph: DiGraph, node: Hashable) -> Set[Hashable]:
    """All nodes with a non-empty path *to* node."""
    return reachable_from(graph.reversed(), node)


def shortest_path(
    graph: DiGraph, source: Hashable, target: Hashable
) -> Optional[List[Hashable]]:
    """A minimum-edge path ``[source, ..., target]``, or None.

    BFS; a non-empty path is required, so ``source == target`` returns
    a cycle through the node if one exists, else None.
    """
    if source not in graph or target not in graph:
        return None
    parents: Dict[Hashable, Hashable] = {}
    frontier = [source]
    seen: Set[Hashable] = set()
    while frontier:
        next_frontier: List[Hashable] = []
        for node in frontier:
            for succ in graph.successors(node):
                if succ == target:
                    path = [target, node]
                    while path[-1] != source:
                        path.append(parents[path[-1]])
                    path.reverse()
                    return path
                if succ not in seen:
                    seen.add(succ)
                    parents[succ] = node
                    next_frontier.append(succ)
        frontier = next_frontier
    return None


def reachable_from_any(graph: DiGraph, sources: Iterable[Hashable]) -> Set[Hashable]:
    """Union of :func:`reachable_from` over *sources*, plus the sources."""
    seen: Set[Hashable] = set()
    frontier: List[Hashable] = []
    for source in sources:
        if source not in seen:
            seen.add(source)
            frontier.append(source)
    while frontier:
        node = frontier.pop()
        for succ in graph.successors(node):
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return seen
