"""SCP extraction and Condition 3.4 checking tests (section 3.2)."""

from repro.core.ophb import OpHappensBefore, find_op_races
from repro.core.scp import check_condition_34, extract_scp
from repro.machine.models import make_model
from repro.machine.program import ProgramBuilder
from repro.machine.propagation import StubbornPropagation
from repro.machine.scheduler import ScriptedScheduler
from repro.machine.simulator import Simulator, run_program
from repro.programs.figure1 import figure1a_program, figure1b_program
from repro.programs.workqueue import run_figure2


def test_race_free_execution_scp_is_whole(fig1b_wo_result):
    scp = extract_scp(fig1b_wo_result)
    assert scp.is_whole_execution
    assert scp.size == len(fig1b_wo_result.operations)


def test_racy_but_benign_execution_scp_whole(fig1a_sc_result):
    # SC execution with races: everything is still in an SCP.
    scp = extract_scp(fig1a_sc_result)
    assert scp.is_whole_execution


def test_figure2_scp_cut_matches_taint(figure2_result):
    scp = extract_scp(figure2_result)
    # P1 (pid 1) is cut at its first region-work operation (local index
    # 3: after read QEmpty, read Q, Unset).
    assert scp.cuts[1] == 3
    assert scp.cuts[0] is None
    assert scp.cuts[2] is None


def test_figure2_stale_read_is_inside_scp(figure2_result):
    """The stale read(Q,37) is an operation of some SC execution (the
    value differs there, but operation identity ignores values)."""
    scp = extract_scp(figure2_result)
    stale = figure2_result.stale_reads
    assert len(stale) == 1
    assert scp.contains(stale[0])


def test_scp_is_po_prefix(figure2_result):
    scp = extract_scp(figure2_result)
    for ops in figure2_result.per_proc:
        in_flags = [scp.contains(op) for op in ops]
        # Once False, never True again (per-processor prefix).
        if False in in_flags:
            first_false = in_flags.index(False)
            assert not any(in_flags[first_false:])


def test_scp_is_hb1_closed(figure2_result):
    hb = OpHappensBefore(figure2_result.operations)
    scp = extract_scp(figure2_result, hb)
    for src, dst in hb.graph.edges():
        if dst in scp.included:
            assert src in scp.included


def test_hb1_closure_propagates_cuts():
    """If a processor's acquire pairs with a release that is outside the
    SCP, the closure must push the acquire out too."""
    b = ProgramBuilder()
    x = b.var("x")
    arr = b.array("arr", 8)
    f = b.var("f")
    done = b.var("done")
    with b.thread() as t:  # P0: races
        t.write(x, 3)
    with b.thread() as t:  # P1: stale read -> tainted address -> cut,
        v = t.read(x)      # then releases f *after* the cut
        t.write(b.at(arr, v), 1)
        t.release_write(f, 1)
    with b.thread() as t:  # P2: acquires f, pairing with a post-cut release
        t.spin_until_eq(f, 1)
        t.write(done, 1)
    sim = Simulator(
        b.build(), make_model("WO"),
        scheduler=ScriptedScheduler([0, 1, 1, 1, 2, 2, 2, 2]),
        propagation=StubbornPropagation(), seed=0,
    )
    result = sim.run()
    assert result.completed
    scp = extract_scp(result)
    # P1 cut at the tainted-address write (local index 1).
    assert scp.cuts[1] == 1
    # P2's acquire read observed P1's post-cut release: closure must cut
    # P2 no later than that acquire (local index 0).
    assert scp.cuts[2] == 0


class TestCondition34:
    def test_clause1_race_free(self, fig1b_wo_result):
        report = check_condition_34(fig1b_wo_result)
        assert report.data_race_free
        assert report.no_stale_reads
        assert report.clause1_ok
        assert report.ok

    def test_clause1_vacuous_when_racy(self, figure2_result):
        report = check_condition_34(figure2_result)
        assert not report.data_race_free
        assert report.clause1_ok  # vacuously

    def test_clause2_figure2(self, figure2_result):
        report = check_condition_34(figure2_result)
        assert report.clause2_ok
        assert report.unaccounted_races == []
        assert report.data_races_in_scp  # the queue races are in the SCP

    def test_summary_text(self, figure2_result):
        text = check_condition_34(figure2_result).summary()
        assert "clause1=ok" in text
        assert "clause2=ok" in text

    def test_sc_model_always_ok(self):
        for seed in range(5):
            result = run_program(figure1a_program(), make_model("SC"), seed=seed)
            assert check_condition_34(result).ok

    def test_all_weak_models_figure1a_stubborn(self):
        for model in ("WO", "RCsc", "DRF0", "DRF1"):
            result = run_program(
                figure1a_program(), make_model(model), seed=0,
                propagation=StubbornPropagation(),
            )
            assert check_condition_34(result).ok, model


def test_contains_accepts_ops_and_seqs(figure2_result):
    scp = extract_scp(figure2_result)
    op = figure2_result.operations[0]
    assert scp.contains(op) == scp.contains(op.seq)


# ----------------------------------------------------------------------
# degenerate inputs: zero and single-operation executions
# ----------------------------------------------------------------------

class TestDegenerateInputs:
    def _single_op_result(self, model="WO"):
        b = ProgramBuilder()
        x = b.var("x")
        with b.thread() as t:
            t.write(x, 1)
        return run_program(b.build(), make_model(model), seed=0)

    def test_close_scp_empty_operations(self):
        from repro.core.scp import close_scp
        scp = close_scp([], [])
        assert scp.size == 0
        assert scp.is_whole_execution
        assert scp.cuts == []

    def test_close_scp_pads_short_cut_list(self):
        result = run_figure2(make_model("WO"))
        from repro.core.scp import close_scp
        padded = close_scp(result.operations, [])
        assert len(padded.cuts) == result.processor_count
        assert padded.is_whole_execution

    def test_close_scp_empty_cuts_equals_no_cuts(self):
        result = run_figure2(make_model("WO"))
        from repro.core.scp import close_scp
        nones = close_scp(result.operations,
                          [None] * result.processor_count)
        empty = close_scp(result.operations, [])
        assert nones.cuts == empty.cuts
        assert nones.included == empty.included
        # with no cut there is nothing to close: the hb1 sweep agrees
        swept = close_scp(result.operations, [],
                          hb=OpHappensBefore(list(result.operations)))
        assert swept.cuts == empty.cuts
        assert swept.included == empty.included

    def test_zero_op_execution_condition_34(self):
        b = ProgramBuilder()
        b.var("x")
        with b.thread():
            pass  # a thread with no instructions
        result = run_program(b.build(), make_model("WO"), seed=0)
        assert len(result.operations) == 0
        report = check_condition_34(result)
        assert report.ok
        scp = extract_scp(result)
        assert scp.size == 0
        assert scp.is_whole_execution
        from repro.core.robustness import check_robustness
        assert check_robustness(result).robust

    def test_single_op_execution_condition_34(self):
        result = self._single_op_result()
        report = check_condition_34(result)
        assert report.ok
        scp = extract_scp(result)
        assert scp.is_whole_execution
        assert scp.size == 1

    def test_single_op_execution_robust(self):
        from repro.core.robustness import check_robustness
        result = self._single_op_result()
        report = check_robustness(result)
        assert report.robust
        assert report.witness == [result.operations[0].seq]
