"""Property-based tests of the detection stack over generated programs
and randomized executions."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detector import PostMortemDetector
from repro.core.ophb import OpHappensBefore, find_op_races
from repro.core.scp import check_condition_34, extract_scp
from repro.machine.models import ALL_MODEL_NAMES, make_model
from repro.machine.propagation import (
    EagerPropagation,
    HomeDirectoryPropagation,
    RandomPropagation,
    StubbornPropagation,
)
from repro.machine.simulator import run_program
from repro.programs.random_programs import random_drf_program, random_racy_program
from repro.trace.build import build_trace

DET = PostMortemDetector()

models = st.sampled_from(ALL_MODEL_NAMES)
seeds = st.integers(min_value=0, max_value=10_000)
# Factories, not instances: HomeDirectoryPropagation is stateful
# (arrival schedules), so each example needs a fresh policy.
propagations = st.sampled_from([
    lambda: StubbornPropagation(),
    lambda: RandomPropagation(0.2),
    lambda: RandomPropagation(0.7),
    lambda: EagerPropagation(),
    lambda: HomeDirectoryPropagation.ring(3),
])


@given(seed=seeds, model=models, prop=propagations)
@settings(max_examples=60, deadline=None)
def test_drf_programs_sc_and_race_free(seed, model, prop):
    """Condition 3.4(1) as a property: generated DRF programs never
    exhibit stale reads or data races under any weak model."""
    prog = random_drf_program(seed % 500)
    result = run_program(prog, make_model(model), seed=seed, propagation=prop())
    assert result.completed
    assert not result.stale_reads
    report = DET.analyze_execution(result)
    assert report.race_free


@given(seed=seeds, model=models, prop=propagations)
@settings(max_examples=60, deadline=None)
def test_condition_34_holds_for_racy_programs(seed, model, prop):
    prog = random_racy_program(seed % 500, race_prob=0.5)
    result = run_program(prog, make_model(model), seed=seed, propagation=prop())
    assert result.completed
    assert check_condition_34(result).ok


@given(seed=seeds, model=models)
@settings(max_examples=40, deadline=None)
def test_theorem_41_equivalence(seed, model):
    """First partitions with data races exist iff data races exist."""
    prog = random_racy_program(seed % 500, race_prob=0.4)
    result = run_program(prog, make_model(model), seed=seed)
    report = DET.analyze_execution(result)
    # Read G' itself: report.first_partitions answers [] for a
    # race-free report by this very theorem, without building G'.
    first_with_data = [p for p in report.analysis.first_partitions
                       if p.has_data_race]
    assert bool(first_with_data) == bool(report.data_races)


@given(seed=seeds, model=models, prop=propagations)
@settings(max_examples=40, deadline=None)
def test_scp_invariants(seed, model, prop):
    """SCPs are per-processor prefixes, hb1-closed, and contain no
    identity-tainted operations."""
    prog = random_racy_program(seed % 500, race_prob=0.5)
    result = run_program(prog, make_model(model), seed=seed, propagation=prop())
    hb = OpHappensBefore(result.operations)
    scp = extract_scp(result, hb)
    # prefix per processor
    for ops in result.per_proc:
        flags = [scp.contains(op) for op in ops]
        if False in flags:
            assert not any(flags[flags.index(False):])
    # hb1 closure
    for src, dst in hb.graph.edges():
        if dst in scp.included:
            assert src in scp.included


@given(seed=seeds, model=models)
@settings(max_examples=40, deadline=None)
def test_event_races_cover_op_races(seed, model):
    """Every operation-level data race maps into some event-level data
    race (the event layer may merge several, never drop one)."""
    from repro.trace.build import event_of_op
    prog = random_racy_program(seed % 500, race_prob=0.5)
    result = run_program(prog, make_model(model), seed=seed)
    trace = build_trace(result)
    report = DET.analyze(trace)
    event_pairs = {frozenset((r.a, r.b)) for r in report.data_races}
    for op_race in find_op_races(result.operations):
        if not op_race.is_data_race:
            continue
        ea = event_of_op(trace, op_race.a)
        eb = event_of_op(trace, op_race.b)
        assert ea is not None and eb is not None
        assert frozenset((ea, eb)) in event_pairs


@given(seed=seeds)
@settings(max_examples=30, deadline=None)
def test_detector_deterministic(seed):
    prog = random_racy_program(seed % 500, race_prob=0.5)
    r1 = run_program(prog, make_model("WO"), seed=seed)
    r2 = run_program(prog, make_model("WO"), seed=seed)
    assert DET.analyze_execution(r1).format() == DET.analyze_execution(r2).format()
