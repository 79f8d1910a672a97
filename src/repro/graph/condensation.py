"""Condensation of a directed graph.

The race partition order ``P`` of Definition 4.1 is reachability between
strongly connected components of the augmented graph G'.  The condensation
— one node per SCC, an edge whenever any member-to-member edge crosses
components — turns that into ordinary DAG reachability.  The detector
condenses a skeleton over the race endpoints instead of G' itself
(:mod:`repro.core.partitions`); this general form condenses the full G'
in the tests' oracle.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, NamedTuple

from .digraph import DiGraph
from .scc import strongly_connected_components


class Condensation(NamedTuple):
    """The condensation DAG of a digraph.

    Attributes:
        dag: the condensation graph; nodes are component indices.
        components: component index -> list of original nodes.
        index_of: original node -> component index.
    """

    dag: DiGraph
    components: List[List[Hashable]]
    index_of: Dict[Hashable, int]

    def component_of(self, node: Hashable) -> List[Hashable]:
        """The member list of the component containing *node*."""
        return self.components[self.index_of[node]]


def condensation(graph: DiGraph) -> Condensation:
    """Collapse each SCC of *graph* into a single node.

    The resulting DAG has an edge ``i -> j`` iff some edge of *graph*
    leads from component ``i`` into a different component ``j``.
    Component indices are in reverse topological order (Tarjan emission
    order), so ``i -> j`` in the DAG implies ``i > j``.
    """
    components = strongly_connected_components(graph)
    index_of: Dict[Hashable, int] = {}
    for idx, component in enumerate(components):
        for node in component:
            index_of[node] = idx

    dag = DiGraph()
    dag.add_nodes(range(len(components)))
    for src, dst in graph.edges():
        ci, cj = index_of[src], index_of[dst]
        if ci != cj:
            dag.add_edge(ci, cj)
    return Condensation(dag=dag, components=components, index_of=index_of)
