"""Weak-execution outcome enumeration tests (the litmus table)."""

import pytest

from repro.analysis.outcomes import OutcomeLimit, enumerate_outcomes
from repro.machine.models import make_model
from repro.machine.program import ProgramBuilder
from repro.programs.litmus import store_buffering_program
from repro.programs.figure1 import figure1a_program, figure1b_program


class TestStoreBuffering:
    def test_sc_forbids_both_enter(self):
        out = enumerate_outcomes(
            store_buffering_program(), make_model("SC"),
            interesting=["critical[0]", "critical[1]"],
        )
        assert out.values_of("critical[0]", "critical[1]") == {
            (0, 0), (0, 1), (1, 0)
        }

    @pytest.mark.parametrize("model", ["WO", "RCsc", "DRF0", "DRF1"])
    def test_weak_admits_both_enter(self, model):
        out = enumerate_outcomes(
            store_buffering_program(), make_model(model),
            interesting=["critical[0]", "critical[1]"],
        )
        assert out.values_of("critical[0]", "critical[1]") == {
            (0, 0), (0, 1), (1, 0), (1, 1)
        }

    def test_weak_explores_more_states(self):
        sc = enumerate_outcomes(store_buffering_program(), make_model("SC"))
        wo = enumerate_outcomes(store_buffering_program(), make_model("WO"))
        assert wo.states_visited > sc.states_visited


class TestMessagePassing:
    """Figure 1a is the message-passing shape: flag/data with data ops."""

    def test_sc_forbids_flag_without_data(self):
        out = enumerate_outcomes(figure1a_program(), make_model("SC"))
        # project onto what P1 read: reconstruct via register effects is
        # not possible from final memory (reads leave no trace), so this
        # test only checks the final-memory outcome is unique under SC.
        assert len(out) == 1

    def test_outcome_is_final_memory(self):
        out = enumerate_outcomes(figure1a_program(), make_model("SC"))
        assert out.values_of("x", "y") == {(1, 1)}


class TestDRFProgramsModelIndependent:
    def test_figure1b_same_outcomes_on_all_models(self):
        """The semantic content of the SC-for-DRF guarantee: a DRF
        program's outcome set does not depend on the model."""
        reference = None
        for model in ("SC", "WO", "RCsc", "DRF0", "DRF1"):
            out = enumerate_outcomes(figure1b_program(), make_model(model))
            values = out.values_of("x", "y", "s")
            if reference is None:
                reference = values
            assert values == reference, model

    def test_racy_program_outcomes_model_dependent(self):
        sc = enumerate_outcomes(
            store_buffering_program(), make_model("SC")
        ).outcomes
        wo = enumerate_outcomes(
            store_buffering_program(), make_model("WO")
        ).outcomes
        assert sc < wo  # strict superset of behaviours on weak hardware


class TestMechanics:
    def test_interesting_projection(self):
        b = ProgramBuilder()
        x = b.var("x")
        b.var("noise")
        with b.thread() as t:
            t.write(x, 1)
            t.write("noise", 7)
        out = enumerate_outcomes(b.build(), make_model("SC"),
                                 interesting=["x"])
        assert out.values_of("x") == {(1,)}
        assert len(out) == 1

    def test_array_element_projection(self):
        out = enumerate_outcomes(
            store_buffering_program(), make_model("SC"),
            interesting=["critical[0]"],
        )
        assert out.values_of("critical[0]") <= {(0,), (1,)}

    def test_state_limit(self):
        with pytest.raises(OutcomeLimit):
            enumerate_outcomes(
                store_buffering_program(), make_model("WO"), max_states=10
            )

    def test_deadlock_paths_counted(self):
        b = ProgramBuilder()
        s = b.var("s", initial=1)
        with b.thread() as t:
            t.lock(s)  # never released: all paths deadlock
        out = enumerate_outcomes(b.build(), make_model("SC"))
        assert out.deadlocked_paths >= 1
        assert len(out) == 0

    def test_single_thread_deterministic(self):
        b = ProgramBuilder()
        x = b.var("x")
        with b.thread() as t:
            t.write(x, 1)
            t.write(x, 2)
        out = enumerate_outcomes(b.build(), make_model("WO"))
        assert out.values_of("x") == {(2,)}


class TestCrossValidation:
    """The enumerator and the simulator must agree: any simulated
    execution's final memory is one of the enumerated outcomes."""

    @pytest.mark.parametrize("model", ["SC", "WO", "RCsc"])
    def test_simulated_outcomes_enumerated(self, model):
        from repro.machine.propagation import (
            EagerPropagation,
            HomeDirectoryPropagation,
            RandomPropagation,
            StubbornPropagation,
        )
        from repro.machine.simulator import run_program

        program = store_buffering_program()
        enumerated = enumerate_outcomes(program, make_model(model)).outcomes
        policies = [
            StubbornPropagation(), EagerPropagation(),
            RandomPropagation(0.3), HomeDirectoryPropagation.ring(2),
        ]
        for seed in range(8):
            for policy in policies:
                result = run_program(
                    program, make_model(model), seed=seed,
                    propagation=policy,
                )
                assert result.completed
                outcome = tuple(sorted(result.final_memory.items()))
                assert outcome in enumerated, (model, seed, type(policy))

    def test_enumerator_covers_witness_setups(self):
        from repro.programs.litmus import run_store_buffering_witness
        enumerated = enumerate_outcomes(
            store_buffering_program(), make_model("WO")
        ).outcomes
        witness = run_store_buffering_witness(make_model("WO"))
        outcome = tuple(sorted(witness.final_memory.items()))
        assert outcome in enumerated


class TestTheoryConsistency:
    """The three verification layers must agree on random programs:
    SC outcomes are a subset of weak outcomes; exhaustive-DRF programs
    have model-independent outcome sets; dynamic races imply not-DRF."""

    def test_random_program_sweep(self):
        import random as _random
        from repro.analysis.exhaustive import explore_program
        from repro.core.detector import PostMortemDetector
        from repro.machine.simulator import run_program
        from repro.programs.random_programs import (
            random_drf_program, random_racy_program,
        )

        det = PostMortemDetector()
        rng = _random.Random(42)
        for _ in range(12):
            seed = rng.randrange(5000)
            make = (random_drf_program if rng.random() < 0.4
                    else random_racy_program)
            prog = make(seed, processors=2, ops_per_thread=3, shared_vars=2)
            sc = enumerate_outcomes(prog, make_model("SC")).outcomes
            wo = enumerate_outcomes(prog, make_model("WO")).outcomes
            assert sc <= wo, seed
            verdict = explore_program(prog)
            if verdict.program_is_data_race_free:
                assert sc == wo, seed
            for run_seed in range(3):
                result = run_program(prog, make_model("SC"), seed=run_seed)
                if not det.analyze_execution(result).race_free:
                    assert not verdict.program_is_data_race_free, seed


class TestIRIWEnumeration:
    def test_sc_forbids_opposite_orders(self):
        """Exhaustive SC enumeration of IRIW: the opposite-observation
        outcome never appears (the weak side explodes combinatorially;
        its witness is tests/programs/test_litmus.py::TestIRIW)."""
        from repro.programs.litmus import iriw_program
        out = enumerate_outcomes(
            iriw_program(), make_model("SC"),
            interesting=["obs[0]", "obs[1]", "obs[2]", "obs[3]"],
        )
        values = out.values_of("obs[0]", "obs[1]", "obs[2]", "obs[3]")
        assert (1, 0, 1, 0) not in values  # r0: x=1,y=0 ; r1: y=1,x=0
        assert (1, 1, 1, 1) in values      # both saw everything: fine


class TestOutcomesUnchanged:
    # (states visited, outcome count) per model, recorded before the
    # enumerator's state copies became Processor.copy() and
    # MemorySystem.copy().
    @pytest.mark.parametrize("model,states,outcomes", [
        ("SC", 59, 3), ("WO", 318, 4), ("TSO", 262, 4), ("PSO", 318, 4),
    ])
    def test_store_buffering_search_unchanged(self, model, states, outcomes):
        out = enumerate_outcomes(store_buffering_program(), make_model(model))
        assert (out.states_visited, out.deadlocked_paths,
                len(out.outcomes)) == (states, 0, outcomes)
