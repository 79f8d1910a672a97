"""Strongly connected components (iterative Tarjan).

Section 4.2 of the paper partitions the data races of an execution using
the strongly connected components of the augmented happens-before-1 graph
G'; this module supplies that primitive.  The implementation is the
classic Tarjan algorithm rewritten with an explicit stack so that large
traces (tens of thousands of events) do not overflow CPython's recursion
limit.  The vector-clock sweep runs the same algorithm over integer
event rows when hb1 is cyclic (:mod:`repro.core.hb1`), passing the
rows and a successor function instead of a graph.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, Optional, Union

from .digraph import DiGraph


def strongly_connected_components(
    graph: Union[DiGraph, Iterable[Hashable]],
    successors: Optional[Callable[[Hashable], Iterable[Hashable]]] = None,
) -> List[List[Hashable]]:
    """Return the SCCs of *graph* in reverse topological order.

    *graph* is a :class:`DiGraph`, or, with *successors*, the nodes to
    start from; ``successors(node)`` then lists each node's successors.

    Each component is a list of nodes; Tarjan emits components so that
    every edge between distinct components goes from a later-emitted
    component to an earlier-emitted one, i.e. the returned list is a
    reverse topological order of the condensation.
    """
    if successors is None:
        graph, successors = graph.nodes(), graph.successors
    index_of: Dict[Hashable, int] = {}
    lowlink: Dict[Hashable, int] = {}
    on_stack: Dict[Hashable, bool] = {}
    stack: List[Hashable] = []
    components: List[List[Hashable]] = []
    counter = 0

    for root in graph:
        if root in index_of:
            continue
        # Explicit DFS stack of (node, iterator over successors).
        work = [(root, iter(successors(root)))]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True

        while work:
            node, pending = work[-1]
            advanced = False
            for succ in pending:
                if succ not in index_of:
                    index_of[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack[succ] = True
                    work.append((succ, iter(successors(succ))))
                    advanced = True
                    break
                if on_stack.get(succ, False):
                    lowlink[node] = min(lowlink[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component: List[Hashable] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                components.append(component)

    return components


def component_map(graph: DiGraph) -> Dict[Hashable, int]:
    """Map each node to the index of its SCC.

    Indices follow the order of :func:`strongly_connected_components`
    (reverse topological order of the condensation).
    """
    mapping: Dict[Hashable, int] = {}
    for idx, component in enumerate(strongly_connected_components(graph)):
        for node in component:
            mapping[node] = idx
    return mapping
