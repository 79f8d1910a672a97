"""Robustness verdicts: SC justification search over po ∪ rf ∪ co ∪ fr.

Every SC execution must be robust with a witness covering all
operations; the TSO/PSO store-buffering litmus must be non-robust with
the textbook fr-carrying cycle; reports must survive the shared JSON
report protocol byte-for-byte.
"""

from __future__ import annotations

import pytest

import repro
from repro.api import check_robustness as api_check_robustness
from repro.api import report_from_json
from repro.core import robustness
from repro.core.robustness import (
    EDGE_KINDS,
    OrderEdge,
    RobustnessReport,
    build_order_graph,
    check_robustness,
    issue_order_is_witness,
)
from repro.machine.models import ALL_MODEL_NAMES, make_model
from repro.machine.operations import MemoryOperation, OperationKind, SyncRole
from repro.machine.simulator import run_program
from repro.programs.figure1 import figure1a_program
from repro.programs.kernels import (
    independent_work_program,
    locked_counter_program,
    producer_consumer_program,
    racy_counter_program,
    single_race_program,
)
from repro.programs.litmus import store_buffering_program
from repro.trace.build import build_trace

SC_CORPUS = [
    figure1a_program,
    locked_counter_program,
    racy_counter_program,
    single_race_program,
    independent_work_program,
    store_buffering_program,
]


def _sb_tso(seed: int = 3):
    """A store-buffering execution on TSO that actually reorders
    (seed 3 produces the r0=r1=0 weak outcome with one stale read)."""
    result = run_program(store_buffering_program(), make_model("TSO"),
                         seed=seed)
    assert result.stale_reads, "seed expected to produce the weak outcome"
    return result


# ----------------------------------------------------------------------
# SC executions are always robust
# ----------------------------------------------------------------------

class TestSCAlwaysRobust:
    @pytest.mark.parametrize("program", SC_CORPUS,
                             ids=lambda p: p.__name__)
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_sc_corpus_robust_with_full_witness(self, program, seed):
        result = run_program(program(), make_model("SC"), seed=seed)
        report = check_robustness(result)
        assert report.robust
        assert report.verdict == "robust"
        assert report.cycle == []
        # the witness is a permutation of every operation seq
        assert sorted(report.witness) == [
            op.seq for op in result.operations
        ]
        assert report.scp_whole
        assert report.scp_size == len(result.operations)

    def test_stale_free_weak_execution_robust(self):
        """Structural property: without stale reads there are no
        backward fr edges, so the order graph is trivially acyclic."""
        for name in ALL_MODEL_NAMES:
            result = run_program(locked_counter_program(),
                                 make_model(name), seed=1)
            if result.stale_reads:
                continue
            report = check_robustness(result)
            assert report.robust, name


# ----------------------------------------------------------------------
# store buffering under TSO/PSO is non-robust
# ----------------------------------------------------------------------

class TestStoreBufferingNonRobust:
    @pytest.mark.parametrize("model", ["TSO", "PSO"])
    def test_weak_outcome_non_robust(self, model):
        found = False
        for seed in range(16):
            result = run_program(store_buffering_program(),
                                 make_model(model), seed=seed)
            report = check_robustness(result)
            if result.stale_reads and not report.robust:
                found = True
                assert report.verdict == "non-robust"
                assert report.witness == []
                # every violating cycle must pass through fr: po, rf
                # and co all point forward in commit order
                kinds = [edge.kind for edge in report.cycle]
                assert "fr" in kinds
                assert all(kind in EDGE_KINDS for kind in kinds)
                # the cycle is closed and edge-connected
                for a, b in zip(report.cycle,
                                report.cycle[1:] + report.cycle[:1]):
                    assert a.dst == b.src
                # SC prefix is a strict prefix
                assert not report.scp_whole
                assert report.scp_size < report.operation_count
        assert found, f"no weak SB outcome found under {model} in 16 seeds"

    def test_textbook_cycle_shape(self):
        report = check_robustness(_sb_tso())
        assert not report.robust
        assert len(report.cycle) == 4
        assert sorted(e.kind for e in report.cycle) == \
            ["fr", "fr", "po", "po"]

    def test_cross_check_sc_witness_search(self):
        """The value-based SC witness search must agree: the weak SB
        outcome has no SC interleaving at all."""
        from repro.analysis.sc_checker import find_sc_witness
        result = _sb_tso()
        assert find_sc_witness(list(result.operations)) is None
        sc = run_program(store_buffering_program(), make_model("SC"),
                         seed=0)
        assert find_sc_witness(list(sc.operations)) is not None
        assert check_robustness(sc).robust


# ----------------------------------------------------------------------
# order-graph construction
# ----------------------------------------------------------------------

class TestOrderGraph:
    def test_empty_and_single(self):
        graph, labels = build_order_graph([])
        assert len(graph) == 0 and labels == {}
        result = run_program(single_race_program(), make_model("SC"),
                             seed=0)
        one = [result.operations[0]]
        graph, labels = build_order_graph(one)
        assert len(graph) == 1 and labels == {}

    def test_forward_edges_only_fr_backward(self):
        result = _sb_tso()
        graph, labels = build_order_graph(result.operations)
        for (src, dst), kind in labels.items():
            if kind != "fr":
                assert src < dst, (src, dst, kind)

    def test_labels_cover_all_edges(self):
        result = _sb_tso()
        graph, labels = build_order_graph(result.operations)
        for src in graph:
            for dst in graph.successors(src):
                assert (src, dst) in labels


# ----------------------------------------------------------------------
# the issue-order fast path on hand-built streams
# ----------------------------------------------------------------------

def _op(seq, proc, local_index, kind, addr, observed_write=None):
    """A data operation with ``stale=False``, whatever it observed."""
    return MemoryOperation(
        seq=seq, proc=proc, local_index=local_index,
        kind=OperationKind.WRITE if kind == "w" else OperationKind.READ,
        role=SyncRole.NONE, addr=addr, value=0,
        observed_write=observed_write,
    )


class TestIssueOrderFastPath:
    @pytest.fixture
    def graphs(self, monkeypatch):
        built = []
        real = robustness.build_order_graph

        def counting(operations):
            built.append(len(operations))
            return real(operations)

        monkeypatch.setattr(robustness, "build_order_graph", counting)
        return built

    def test_unmarked_out_of_date_read_takes_the_graph_path(self, graphs):
        """Store buffering with both reads seeing the initial value,
        though each location's write was issued first, and neither read
        marked stale: the check must not trust the marker."""
        ops = [
            _op(0, 0, 0, "w", 10),
            _op(1, 1, 0, "w", 11),
            _op(2, 0, 1, "r", 11),
            _op(3, 1, 1, "r", 10),
        ]
        assert not any(op.stale for op in ops)
        assert not issue_order_is_witness(ops)
        report = check_robustness(ops)
        assert graphs == [4]
        assert not report.robust
        assert sorted(e.kind for e in report.cycle) == \
            ["fr", "fr", "po", "po"]
        assert report.witness == []

    def test_out_of_date_but_robust_stream_sorts_eagerly(self, graphs):
        ops = [
            _op(0, 0, 0, "w", 10),
            _op(1, 1, 0, "w", 10),
            _op(2, 0, 1, "r", 10, observed_write=0),
        ]
        assert not issue_order_is_witness(ops)
        report = check_robustness(ops)
        assert graphs == [3]
        assert report.robust
        assert report.witness == [0, 2, 1]

    def test_seqs_must_strictly_increase(self):
        first = _op(1, 0, 0, "w", 10)
        assert issue_order_is_witness([first, _op(2, 1, 0, "r", 10, 1)])
        assert not issue_order_is_witness([first, _op(1, 1, 0, "r", 10, 1)])
        assert not issue_order_is_witness([first, _op(0, 1, 0, "w", 11)])

    def test_fast_path_defers_the_witness(self, graphs):
        ops = [
            _op(0, 0, 0, "w", 10),
            _op(1, 1, 0, "r", 10, observed_write=0),
            _op(2, 1, 1, "r", 11),
        ]
        report = check_robustness(ops)
        assert report.robust and graphs == []
        assert report.witness == [0, 1, 2]
        assert graphs == [3]
        assert RobustnessReport.from_json(report.to_json()).witness == \
            [0, 1, 2]

    def test_text_verdict_builds_no_graph(self, graphs, capsys):
        from repro.cli import main

        assert main(["check", "producer-consumer", "--model", "TSO",
                     "--robustness"]) == 0
        assert "ROBUST" in capsys.readouterr().out
        assert graphs == []

    @pytest.mark.parametrize("model", ALL_MODEL_NAMES)
    def test_deferred_witness_text_equals_sorted(self, model):
        execution = run_program(producer_consumer_program(),
                                make_model(model), seed=2)
        report = check_robustness(execution)
        text = report.format()
        report.witness  # sorted now, if it was deferred
        assert report.format() == text


# ----------------------------------------------------------------------
# report protocol
# ----------------------------------------------------------------------

class TestReportProtocol:
    @pytest.mark.parametrize("make_result", [
        lambda: run_program(locked_counter_program(), make_model("SC"),
                            seed=1),
        _sb_tso,
    ], ids=["robust", "non-robust"])
    def test_json_round_trip(self, make_result):
        report = check_robustness(make_result())
        payload = report.to_json()
        assert payload["kind"] == "robustness"
        assert payload["format"] == 1
        clone = RobustnessReport.from_json(payload)
        assert clone.to_json() == payload
        assert clone.robust == report.robust
        assert clone.cycle == report.cycle

    def test_report_from_json_dispatch(self):
        report = check_robustness(_sb_tso())
        clone = report_from_json(report.to_json())
        assert isinstance(clone, RobustnessReport)
        assert clone.to_json() == report.to_json()

    def test_from_json_rejects_wrong_kind(self):
        with pytest.raises(ValueError):
            RobustnessReport.from_json({"kind": "races"})

    def test_format_mentions_cycle_and_prefix(self):
        text = check_robustness(_sb_tso()).format()
        assert "NON-ROBUST" in text
        assert "--fr-->" in text
        assert "SC prefix" in text

    def test_summary_one_liner(self):
        robust = check_robustness(
            run_program(locked_counter_program(), make_model("SC"),
                        seed=1))
        assert "robust" in robust.summary()


# ----------------------------------------------------------------------
# API surface
# ----------------------------------------------------------------------

class TestApiSurface:
    def test_exported_at_top_level(self):
        assert repro.check_robustness is api_check_robustness
        assert repro.RobustnessReport is RobustnessReport

    def test_bare_operation_list(self):
        result = _sb_tso()
        report = check_robustness(list(result.operations))
        assert not report.robust
        assert report.model_name == ""

    def test_api_accepts_execution(self):
        report = api_check_robustness(_sb_tso())
        assert not report.robust
        assert report.model_name == "TSO"

    def test_api_rejects_trace(self):
        trace = build_trace(_sb_tso())
        with pytest.raises(TypeError, match="reads-from"):
            api_check_robustness(trace)

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            check_robustness(object())

    def test_order_edge_is_frozen(self):
        edge = OrderEdge(0, 1, "po")
        with pytest.raises(Exception):
            edge.kind = "rf"
