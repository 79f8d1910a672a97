"""A1 — ablation: what Condition 3.4 actually buys.

Three knobs the design calls out (DESIGN.md §5), each toggled off:

* **flush-at-sync** (the heart of Theorem 3.5): replaced by a broken
  model that never flushes — clause (1) of Condition 3.4 fails and the
  detector's clean report would mislead;
* **first-partition filtering**: replaced by naive reporting — precision
  collapses on weak executions;
* **doubly-directed race edges in G'**: without them the partitions
  degenerate (races stop being mutually reachable) and the partition
  order loses Theorem 4.2's guarantee.
"""

from conftest import emit
from repro.core.detector import PostMortemDetector
from repro.core.hb1 import HappensBefore1
from repro.core.partitions import partition_races
from repro.core.races import find_races
from repro.core.scp import check_condition_34
from repro.machine.models import WeakOrdering
from repro.machine.models.broken import BrokenWeakOrdering
from repro.machine.propagation import StubbornPropagation
from repro.machine.simulator import run_program
from repro.programs.figure1 import figure1b_program
from repro.programs.kernels import producer_consumer_program
from repro.programs.random_programs import random_drf_program

DET = PostMortemDetector()


def test_ablate_flush_at_sync(benchmark):
    """Compliant vs broken hardware on DRF programs."""
    programs = [figure1b_program(), producer_consumer_program(3)] + [
        random_drf_program(s) for s in range(4)
    ]

    def sweep():
        rows = []
        for model_name, model_cls in (("WO", WeakOrdering),
                                      ("BrokenWO", BrokenWeakOrdering)):
            ok = 0
            total = 0
            for i, prog in enumerate(programs):
                for seed in range(4):
                    result = run_program(
                        prog, model_cls(), seed=seed,
                        propagation=StubbornPropagation(),
                    )
                    total += 1
                    ok += check_condition_34(result).ok
            rows.append((model_name, ok, total))
        return rows

    rows = benchmark(sweep)
    table = []
    for model_name, ok, total in rows:
        table.append(f"{model_name:10s}: Condition 3.4 held on "
                     f"{ok}/{total} DRF executions")
    compliant, broken = rows
    assert compliant[1] == compliant[2]      # WO: always holds
    assert broken[1] < broken[2]             # BrokenWO: violations caught
    emit(benchmark,
         "Ablation: remove flush-at-sync (section 3.1 'first problem')",
         table)


def test_ablate_race_edges_in_gprime(benchmark, figure2_trace):
    """G' without the doubly-directed race edges: the queue race's two
    events stop being mutually reachable, so races no longer map to
    single SCCs and the affects relation is lost."""
    from repro.graph import condensation

    hb = HappensBefore1(figure2_trace)
    races = find_races(figure2_trace, hb)

    def split_races(graph):
        cond = condensation(graph)
        return sum(1 for race in races
                   if cond.index_of[race.a] != cond.index_of[race.b])

    gprime = hb.graph.copy()  # G' in full: hb1 plus the race edges
    for race in races:
        gprime.add_edge(race.a, race.b)
        gprime.add_edge(race.b, race.a)
    assert split_races(gprime) == 0  # each race lies in one SCC
    split = benchmark(lambda: split_races(hb.graph))  # no race edges
    assert split == len(races)  # every race straddles two components
    emit(
        benchmark,
        "Ablation: drop race edges from G'",
        [f"{split}/{len(races)} races straddle SCCs without their "
         f"doubly-directed edge - partitioning (Definition 4.1) "
         f"becomes ill-defined"],
    )


def test_ablate_first_partition_filter(benchmark, figure2_result,
                                       figure2_trace):
    """Naive reporting vs first-partition filtering (precision)."""
    from repro.analysis.metrics import event_race_accuracy
    from repro.analysis.naive import NaiveDetector

    def measure():
        ours = DET.analyze(figure2_trace)
        naive = NaiveDetector().analyze(figure2_trace)
        return (
            event_race_accuracy(
                figure2_result, figure2_trace, ours.reported_races
            ).precision,
            event_race_accuracy(
                figure2_result, figure2_trace, naive.data_races
            ).precision,
        )

    ours_prec, naive_prec = benchmark(measure)
    assert ours_prec == 1.0 and naive_prec < 1.0
    emit(
        benchmark,
        "Ablation: drop first-partition filtering",
        [f"first-partition precision {ours_prec:.2f} -> "
         f"naive precision {naive_prec:.2f}"],
    )
