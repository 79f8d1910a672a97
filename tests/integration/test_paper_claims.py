"""The paper's claims, verified end-to-end across models and seeds.

* Theorem 3.5 / Condition 3.4: every simulated weak implementation
  preserves a sequentially consistent prefix containing (or affecting)
  every data race, and gives SC outright to data-race-free executions.
* Theorem 4.1: no first partitions with data races iff no data races.
* Theorem 4.2: every first partition containing data races has at least
  one race belonging to the SCP.
* Section 2.2: weak models outperform SC on DRF programs.
"""

import pytest

from repro.analysis.metrics import op_races_in_scp
from repro.core.detector import PostMortemDetector
from repro.core.scp import check_condition_34
from repro.machine.models import ALL_MODEL_NAMES, WEAK_MODEL_NAMES, make_model
from repro.machine.propagation import (
    EagerPropagation,
    RandomPropagation,
    StubbornPropagation,
)
from repro.machine.simulator import run_program
from repro.programs.kernels import (
    fanin_barrier_program,
    locked_counter_program,
    producer_consumer_program,
    racy_counter_program,
    region_then_lock_program,
)
from repro.programs.random_programs import random_drf_program, random_racy_program
from repro.programs.workqueue import buggy_workqueue_program, run_figure2
from repro.trace.build import build_trace, event_of_op

DET = PostMortemDetector()
PROPAGATIONS = [StubbornPropagation(), RandomPropagation(0.3), EagerPropagation()]


def _drf_programs():
    return [
        locked_counter_program(2, 3),
        producer_consumer_program(4),
        fanin_barrier_program(2, 2),
        region_then_lock_program(2, 3, 2),
    ] + [random_drf_program(seed) for seed in range(5)]


def _racy_programs():
    return [
        racy_counter_program(2, 3),
        buggy_workqueue_program(),
    ] + [random_racy_program(seed, race_prob=0.6) for seed in range(5)]


class TestCondition34Clause1:
    """DRF executions on weak hardware must be sequentially consistent."""

    @pytest.mark.parametrize("model", WEAK_MODEL_NAMES)
    def test_drf_implies_sc(self, model):
        for i, prog in enumerate(_drf_programs()):
            for prop in PROPAGATIONS:
                result = run_program(
                    prog, make_model(model), seed=i, propagation=prop
                )
                assert result.completed, (model, i)
                assert not result.stale_reads, (model, i, type(prop).__name__)
                report = check_condition_34(result)
                assert report.data_race_free, (model, i)
                assert report.clause1_ok


class TestCondition34Clause2:
    """Races outside the SCP are affected by races inside it."""

    @pytest.mark.parametrize("model", WEAK_MODEL_NAMES)
    def test_racy_executions_accounted(self, model):
        for i, prog in enumerate(_racy_programs()):
            for prop in PROPAGATIONS:
                result = run_program(
                    prog, make_model(model), seed=i, propagation=prop
                )
                assert result.completed
                report = check_condition_34(result)
                assert report.ok, (
                    model, i, type(prop).__name__, report.summary()
                )


class TestTheorem41:
    """No first partitions with data races iff no data races at all."""

    @pytest.mark.parametrize("model", ALL_MODEL_NAMES)
    def test_equivalence(self, model):
        programs = _drf_programs() + _racy_programs()
        for i, prog in enumerate(programs):
            result = run_program(prog, make_model(model), seed=100 + i)
            report = DET.analyze_execution(result)
            # G' itself, not report.first_partitions, which answers []
            # for a race-free report by this very theorem
            has_first_with_data = any(
                p.has_data_race for p in report.analysis.first_partitions)
            has_data_races = bool(report.data_races)
            assert has_first_with_data == has_data_races, (model, i)


class TestTheorem42:
    """Each first partition with data races contains >=1 SCP race."""

    @pytest.mark.parametrize("model", WEAK_MODEL_NAMES)
    def test_first_partitions_contain_scp_race(self, model):
        for i, prog in enumerate(_racy_programs()):
            result = run_program(
                prog, make_model(model), seed=i,
                propagation=StubbornPropagation(),
            )
            trace = build_trace(result)
            report = DET.analyze(trace)
            sc_races, _ = op_races_in_scp(result)
            sc_event_pairs = set()
            for race in sc_races:
                ea, eb = event_of_op(trace, race.a), event_of_op(trace, race.b)
                if ea and eb:
                    sc_event_pairs.add(frozenset((ea, eb)))
            for partition in report.first_partitions:
                keys = {frozenset((r.a, r.b)) for r in partition.data_races}
                assert keys & sc_event_pairs, (model, i, partition.describe(trace))


class TestPerformanceMotivation:
    """Section 2.2: weak models stall less than SC on DRF programs."""

    def test_weak_beats_sc_on_write_heavy_kernels(self):
        for prog in [region_then_lock_program(3, 8, 3),
                     fanin_barrier_program(3, 8)]:
            sc = run_program(prog, make_model("SC"), seed=3)
            for model in WEAK_MODEL_NAMES:
                weak = run_program(prog, make_model(model), seed=3)
                assert weak.total_stall_cycles < sc.total_stall_cycles, model

    def test_release_acquire_distinction_pays(self):
        prog = region_then_lock_program(3, 8, 3)
        wo = run_program(prog, make_model("WO"), seed=3)
        drf0 = run_program(prog, make_model("DRF0"), seed=3)
        rcsc = run_program(prog, make_model("RCsc"), seed=3)
        drf1 = run_program(prog, make_model("DRF1"), seed=3)
        assert rcsc.total_stall_cycles < wo.total_stall_cycles
        assert drf1.total_stall_cycles < drf0.total_stall_cycles


class TestFigure2EndToEnd:
    """The paper's running example, end to end on every weak model."""

    @pytest.mark.parametrize("model", WEAK_MODEL_NAMES)
    def test_detection_story(self, model):
        result = run_figure2(make_model(model))
        report = DET.analyze_execution(result)
        # Non-SC execution with races...
        assert result.stale_reads
        assert not report.race_free
        # Condition 3.4 holds, so the report is trustworthy.
        assert check_condition_34(result).ok
        if make_model(model).store_order_granularity() == "proc":
            # TSO's per-processor FIFO forbids the Figure 2b W->W
            # reordering: QEmpty cannot overtake Q, so P2 reads the
            # *old* QEmpty (stale), skips the dequeue, and the stale-Q
            # cascade never happens.
            assert all(
                result.addr_name(op.addr) == "QEmpty"
                for op in result.stale_reads
            )
            assert not report.suppressed_races
            return
        # ...the detector reports exactly the queue partition first...
        assert len(report.first_partitions) == 1
        first_locations = {
            report.trace.addr_name(a)
            for race in report.first_partitions[0].data_races
            for a in race.locations
        }
        assert first_locations == {"Q", "QEmpty"}
        # ...and suppresses the region artifact races.
        assert report.suppressed_races
