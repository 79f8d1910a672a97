"""Topological ordering and cycle detection.

Used to linearize the robustness order graph (an SC witness), to test
whether an hb1 graph is a partial order (Definition 2.3), and as the
reference the positional vector-clock sweep is tested against.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, List, Optional

from .digraph import DiGraph


class CycleError(ValueError):
    """Raised when a topological sort is requested for a cyclic graph."""


def topological_sort(graph: DiGraph) -> List[Hashable]:
    """Kahn's algorithm; raises :class:`CycleError` on a cyclic graph.

    Ties are broken by node insertion order so the result is
    deterministic for a deterministically-built graph.  The tie-break
    key is built once per call; building it per popped node would make
    the sort O(V²).
    """
    key = _stable_key(graph)
    in_deg = {node: graph.in_degree(node) for node in graph.nodes()}
    queue = deque(node for node in graph.nodes() if in_deg[node] == 0)
    order: List[Hashable] = []
    while queue:
        node = queue.popleft()
        order.append(node)
        for succ in sorted(graph.successors(node), key=key):
            in_deg[succ] -= 1
            if in_deg[succ] == 0:
                queue.append(succ)
    if len(order) != graph.node_count:
        raise CycleError(
            f"graph has a cycle: sorted {len(order)} of {graph.node_count} nodes"
        )
    return order


def _stable_key(graph: DiGraph):
    positions = {node: i for i, node in enumerate(graph.nodes())}
    return positions.__getitem__


def is_acyclic(graph: DiGraph) -> bool:
    """True iff *graph* contains no directed cycle."""
    try:
        topological_sort(graph)
    except CycleError:
        return False
    return True


def find_cycle(graph: DiGraph) -> Optional[List[Hashable]]:
    """Return some directed cycle as a node list, or None if acyclic.

    The returned list ``[n0, n1, ..., nk]`` satisfies ``n0 == nk`` and
    each consecutive pair is an edge.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in graph.nodes()}
    parent = {}

    for root in graph.nodes():
        if color[root] != WHITE:
            continue
        stack = [(root, iter(graph.successors(root)))]
        color[root] = GRAY
        while stack:
            node, successors = stack[-1]
            advanced = False
            for succ in successors:
                if color[succ] == GRAY:
                    # Found a back edge node -> succ; unwind the cycle.
                    cycle = [node]
                    cur = node
                    while cur != succ:
                        cur = parent[cur]
                        cycle.append(cur)
                    cycle.reverse()
                    cycle.append(cycle[0])
                    return cycle
                if color[succ] == WHITE:
                    color[succ] = GRAY
                    parent[succ] = node
                    stack.append((succ, iter(graph.successors(succ))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return None
