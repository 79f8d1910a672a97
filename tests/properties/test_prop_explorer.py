"""Program-level oracles from the exhaustive search.

The search decides Definition 2.4 exactly: a program is data-race-free
iff none of its sequentially consistent executions has a data race.
That makes it ground truth for what the weak models promise such a
program, stated of the program rather than of one execution:

* the generator's data-race-free programs are DRF;
* a DRF program's outcome set is SC's on every model (SC for DRF);
* a DRF program's simulated runs are race-free and stale-free on every
  model and propagation policy (Condition 3.4(1)).

Programs are sized like the theory-consistency sweep of
``tests/analysis/test_outcomes.py``: 2 processors, 3 operations per
thread, 2 shared variables.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.exhaustive import is_program_data_race_free
from repro.analysis.outcomes import enumerate_outcomes
from repro.core.detector import PostMortemDetector
from repro.machine.models import ALL_MODEL_NAMES, WEAK_MODEL_NAMES, make_model
from repro.machine.propagation import (
    EagerPropagation,
    HomeDirectoryPropagation,
    RandomPropagation,
    StubbornPropagation,
)
from repro.machine.simulator import run_program
from repro.programs.random_programs import random_drf_program, random_racy_program

SIZE = dict(processors=2, ops_per_thread=3, shared_vars=2)
DET = PostMortemDetector()

seeds = st.integers(min_value=0, max_value=10_000)
# Factories, not instances: HomeDirectoryPropagation is stateful.
POLICIES = (
    lambda: StubbornPropagation(),
    lambda: RandomPropagation(0.2),
    lambda: RandomPropagation(0.7),
    lambda: EagerPropagation(),
    lambda: HomeDirectoryPropagation.ring(2),
)


def _drf_program(seed, racy):
    """A generated program the search decides is DRF (else discarded);
    the racy generator's programs are DRF when no unlocked access
    conflicts."""
    make = random_racy_program if racy else random_drf_program
    program = make(seed, **SIZE)
    assume(is_program_data_race_free(program))
    return program


@given(seed=seeds)
@settings(max_examples=60, deadline=None)
def test_generated_drf_programs_are_drf(seed):
    assert is_program_data_race_free(random_drf_program(seed, **SIZE))


@given(seed=seeds, racy=st.booleans())
@settings(max_examples=25, deadline=None)
def test_drf_program_outcomes_are_sc_on_every_model(seed, racy):
    program = _drf_program(seed, racy)
    sc = enumerate_outcomes(program, make_model("SC")).outcomes
    for model in WEAK_MODEL_NAMES:
        weak = enumerate_outcomes(program, make_model(model)).outcomes
        assert weak == sc, model


@given(seed=seeds, racy=st.booleans(), run_seed=seeds)
@settings(max_examples=25, deadline=None)
def test_drf_program_runs_race_and_stale_free(seed, racy, run_seed):
    program = _drf_program(seed, racy)
    for model in ALL_MODEL_NAMES:
        for policy in POLICIES:
            result = run_program(program, make_model(model), seed=run_seed,
                                 propagation=policy())
            assert result.completed, model
            assert not result.stale_reads, model
            assert DET.analyze_execution(result).race_free, model
