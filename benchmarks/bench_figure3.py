"""F3 — Figure 3 of the paper: the augmented happens-before-1 graph G'
with first and non-first race partitions.

Regenerates the partition structure for the Figure 2b execution: the
first partition holds the queue races (on Q and QEmpty), the non-first
partition holds the region races, and the partition order matches the
figure's "first partition -> non-first partition" arrow.  Times the
partitioning stage (the race-endpoint skeleton, its SCCs and their
order) and, separately, drawing G' in full.
"""

from conftest import emit
from repro.core.hb1 import HappensBefore1
from repro.core.partitions import partition_races
from repro.core.races import find_races


def _gprime(hb, races):
    """G' in full: hb1's event graph plus a doubly directed edge per
    race (the detector itself never builds it)."""
    gprime = hb.graph.copy()
    for race in races:
        gprime.add_edge(race.a, race.b)
        gprime.add_edge(race.b, race.a)
    return gprime


def test_figure3_partitioning(benchmark, figure2_trace):
    hb = HappensBefore1(figure2_trace)
    races = find_races(figure2_trace, hb)

    analysis = benchmark(lambda: partition_races(figure2_trace, hb, races))

    data_partitions = [p for p in analysis.partitions if p.has_data_race]
    assert len(data_partitions) == 2
    first = next(p for p in data_partitions if p.is_first)
    non_first = next(p for p in data_partitions if not p.is_first)
    assert analysis.precedes(first, non_first)

    name = figure2_trace.addr_name
    first_locs = sorted({
        name(a) for r in first.data_races for a in r.locations
    })
    nf_locs = sorted({
        name(a) for r in non_first.data_races for a in r.locations
    })
    gprime = _gprime(hb, races)
    rows = [
        f"G': {gprime.node_count} events, "
        f"{gprime.edge_count} edges "
        f"({2 * len(races)} of them race edges)",
        f"first partition: races on {first_locs}",
        f"non-first partition: races on {nf_locs[:3]}"
        + ("..." if len(nf_locs) > 3 else ""),
        "partition order: first P non-first (Definition 4.1) - "
        "matches the figure's layout",
    ]
    emit(benchmark, "Figure 3 partitions regenerated", rows)


def test_figure3_dot_render(benchmark, figure2_trace, detector):
    """Times rendering the figure itself (DOT text generation)."""
    report = detector.analyze(figure2_trace)
    dot = benchmark(report.to_dot)
    assert "dashed" in dot and "cluster" in dot
    emit(
        benchmark,
        "Figure 3 DOT render",
        [f"{len(dot.splitlines())} DOT lines; race edges dashed, "
         f"partitions boxed (render: dot -Tpng)"],
    )


def test_figure3_augmented_graph_construction(benchmark, figure2_trace):
    hb = HappensBefore1(figure2_trace)
    races = find_races(figure2_trace, hb)
    gprime = benchmark(lambda: _gprime(hb, races))
    assert gprime.edge_count == hb.graph.edge_count + 2 * len(races)
    emit(
        benchmark,
        "G' construction",
        [f"hb1 edges={hb.graph.edge_count}, races={len(races)}, "
         f"G' edges={gprime.edge_count}"],
    )
