"""T4.x — Theorems 4.1 and 4.2, verified over a workload sweep.

Theorem 4.1: no first partitions containing data races iff the
execution exhibited no data races.  Theorem 4.2: each first partition
containing data races has at least one race belonging to an SCP.
"""

from conftest import emit
from repro.analysis.metrics import op_races_in_scp
from repro.core.detector import PostMortemDetector
from repro.machine.models import make_model
from repro.machine.propagation import StubbornPropagation
from repro.machine.simulator import run_program
from repro.programs.kernels import (
    fanin_barrier_program,
    locked_counter_program,
    racy_counter_program,
)
from repro.programs.random_programs import (
    random_drf_program,
    random_racy_program,
)
from repro.programs.workqueue import buggy_workqueue_program
from repro.trace.build import build_trace, event_of_op

DET = PostMortemDetector()


def _programs():
    return (
        [("locked", locked_counter_program(2, 3), False),
         ("barrier", fanin_barrier_program(2, 2), False),
         ("racy-counter", racy_counter_program(2, 3), True),
         ("workqueue", buggy_workqueue_program(), True)]
        + [(f"drf-{s}", random_drf_program(s), False) for s in range(4)]
        + [(f"racy-{s}", random_racy_program(s, race_prob=0.6), None)
           for s in range(4)]
    )


def test_theorem_41_equivalence(benchmark):
    def sweep():
        agreements = 0
        total = 0
        for i, (name, prog, _expect_racy) in enumerate(_programs()):
            for model in ("SC", "WO", "RCsc"):
                result = run_program(prog, make_model(model), seed=i)
                report = DET.analyze_execution(result)
                total += 1
                # G' itself: report.first_partitions answers [] for a
                # race-free report by this very theorem
                assert any(
                    p.has_data_race for p in report.analysis.first_partitions
                ) == bool(report.data_races)
                agreements += 1
        return agreements, total

    agreements, total = benchmark(sweep)
    emit(
        benchmark,
        "Theorem 4.1 (first partitions <=> data races)",
        [f"{agreements}/{total} executions: equivalence held"],
    )


def test_theorem_42_scp_membership(benchmark):
    def sweep():
        partitions_checked = 0
        for i, (name, prog, _ignored) in enumerate(_programs()):
            for model in ("WO", "RCsc"):
                result = run_program(
                    prog, make_model(model), seed=i,
                    propagation=StubbornPropagation(),
                )
                trace = build_trace(result)
                report = DET.analyze(trace)
                if report.race_free:
                    continue
                sc_races, _ = op_races_in_scp(result)
                sc_pairs = set()
                for race in sc_races:
                    ea = event_of_op(trace, race.a)
                    eb = event_of_op(trace, race.b)
                    if ea and eb:
                        sc_pairs.add(frozenset((ea, eb)))
                for partition in report.first_partitions:
                    keys = {frozenset((r.a, r.b)) for r in partition.data_races}
                    assert keys & sc_pairs, (name, model)
                    partitions_checked += 1
        return partitions_checked

    checked = benchmark(sweep)
    assert checked > 0
    emit(
        benchmark,
        "Theorem 4.2 (first partitions contain an SCP race)",
        [f"{checked} first partitions checked: every one contained a "
         f"sequentially consistent data race"],
    )
