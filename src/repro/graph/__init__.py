"""Directed-graph substrate.

Everything the race detector needs from graph theory, implemented from
scratch: a digraph container, Tarjan SCCs, condensation, reachability /
transitive closure, topological sorting, and DOT export for regenerating
the paper's figures.
"""

from .._lazy import lazy_exports

__all__ = lazy_exports(globals(), {
    "condensation": "Condensation condensation",
    "digraph": "DiGraph",
    "dot": "to_dot",
    "reachability": "TransitiveClosure ancestors is_reachable "
                    "reachable_from reachable_from_any shortest_path "
                    "transitive_closure_sets",
    "scc": "component_map strongly_connected_components",
    "topo": "CycleError find_cycle is_acyclic topological_sort",
})
