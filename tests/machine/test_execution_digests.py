"""Differential corpus: every simulated execution is byte-identical to
the committed digests.

Each digest is a sha256 over every :class:`ExecutionResult` field (every
:class:`MemoryOperation` field included, registers in insertion order),
keyed by ``program|model|policy|scheduler|seed``.  The corpus runs the
kernel, figure, litmus and generated programs under all seven models x
six propagation policies x three schedulers, the two Figure 2b
set-ups, and one ``record_execution`` per (program, model), whose
recording payload is digested with its execution.

A change to the machine's internals must leave every digest unchanged.
Regenerate the fixture only when behaviour changes on purpose::

    PYTHONPATH=src python tests/machine/test_execution_digests.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.machine import (
    ALL_MODEL_NAMES,
    BurstScheduler,
    EagerPropagation,
    HoldbackPropagation,
    HomeDirectoryPropagation,
    RandomPropagation,
    RandomScheduler,
    RoundRobin,
    StoreBufferPropagation,
    StubbornPropagation,
    Simulator,
    make_model,
    record_execution,
)
from repro.programs import (
    bounded_queue_program,
    buggy_workqueue_program,
    cas_counter_program,
    cas_slot_allocator_program,
    fanin_barrier_program,
    figure1a_program,
    figure1b_program,
    figure2_numa_setup,
    figure2_weak_setup,
    fixed_workqueue_program,
    independent_work_program,
    iriw_program,
    lock_shadow_program,
    locked_counter_program,
    locked_mutual_exclusion_program,
    peterson_program,
    producer_consumer_program,
    racy_counter_program,
    random_drf_program,
    random_flagsync_program,
    random_racy_program,
    region_then_lock_program,
    single_race_program,
    store_buffering_program,
)

FIXTURE = Path(__file__).with_name("execution_digests.json")
SEED = 1
MAX_STEPS = 20_000

PROGRAMS = {
    "figure1a": figure1a_program,
    "figure1b": figure1b_program,
    "workqueue-buggy": buggy_workqueue_program,
    "workqueue-fixed": fixed_workqueue_program,
    "locked-counter": locked_counter_program,
    "racy-counter": racy_counter_program,
    "lock-shadow": lock_shadow_program,
    "producer-consumer": lambda: producer_consumer_program(items=4),
    "independent": independent_work_program,
    "single-race": single_race_program,
    "cas-counter": cas_counter_program,
    "cas-slots": cas_slot_allocator_program,
    "region-then-lock": region_then_lock_program,
    "barrier": fanin_barrier_program,
    "queue": bounded_queue_program,
    "store-buffering": store_buffering_program,
    "peterson": peterson_program,
    "iriw": iriw_program,
    "mutex": locked_mutual_exclusion_program,
    "random-drf-3": lambda: random_drf_program(3),
    "random-racy-5": lambda: random_racy_program(5),
    "random-flagsync-7": lambda: random_flagsync_program(7),
}

POLICIES = {
    "eager": lambda program: EagerPropagation(),
    "stubborn": lambda program: StubbornPropagation(),
    "random-0.2": lambda program: RandomPropagation(0.2),
    "store-buffer": lambda program: StoreBufferPropagation(),
    "ring": lambda program: HomeDirectoryPropagation.ring(
        max(program.processor_count, 2)),
    "holdback": lambda program: HoldbackPropagation([0]),
}

SCHEDULERS = {
    "random": RandomScheduler,
    "burst": BurstScheduler,
    "round-robin": RoundRobin,
}


def execution_digest(result, payload=None) -> str:
    """sha256 over every field of *result* (and a recording payload)."""
    symbols = result.symbols
    doc = {
        "model_name": result.model_name,
        "seed": result.seed,
        "operations": [
            [op.seq, op.proc, op.local_index, op.kind.value, op.role.value,
             op.addr, op.value, op.observed_write, op.stale, op.instr_index]
            for op in result.operations
        ],
        "completed": result.completed,
        "steps": result.steps,
        "final_memory": list(result.final_memory.items()),
        "stats": [[s.cycles, s.stall_cycles, s.instructions, s.operations]
                  for s in result.stats],
        "raw_scp_cuts": result.raw_scp_cuts,
        "registers": [list(regs.items()) for regs in result.registers],
        "flush_count": result.flush_count,
        "propagated_writes": result.propagated_writes,
        "symbols": None if symbols is None else [
            [name, symbols.addr_of(name)] for name in symbols.names()],
        "per_proc": [[op.seq for op in ops] for ops in result.per_proc],
        "deliveries_logged": result.deliveries_logged,
        "recording": payload,
    }
    text = json.dumps(doc, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def corpus_digests(name: str) -> dict:
    """Every digest of one program of the corpus, by key."""
    program = PROGRAMS[name]()
    digests = {}
    for m, model in enumerate(ALL_MODEL_NAMES):
        for policy, make_policy in POLICIES.items():
            for scheduler, make_scheduler in SCHEDULERS.items():
                result = Simulator(
                    program, make_model(model), scheduler=make_scheduler(),
                    propagation=make_policy(program), seed=SEED,
                ).run(max_steps=MAX_STEPS)
                key = f"{name}|{model}|{policy}|{scheduler}|{SEED}"
                digests[key] = execution_digest(result)
        # One recording per model, its policy rotating through the six.
        policy = list(POLICIES)[m % len(POLICIES)]
        result, recording = record_execution(
            program, make_model(model), propagation=POLICIES[policy](program),
            seed=SEED, max_steps=MAX_STEPS)
        key = f"{name}|{model}|{policy}|record|{SEED}"
        digests[key] = execution_digest(result, recording.to_payload())
    return digests


def figure2_digests() -> dict:
    """The scripted Figure 2b set-ups, on every model."""
    digests = {}
    for setup in (figure2_weak_setup, figure2_numa_setup):
        for model in ALL_MODEL_NAMES:
            result = setup(make_model(model)).run()
            key = f"{setup.__name__}|{model}|setup|scripted|0"
            digests[key] = execution_digest(result)
    return digests


def all_digests() -> dict:
    digests = {}
    for name in PROGRAMS:
        digests.update(corpus_digests(name))
    digests.update(figure2_digests())
    return digests


@pytest.fixture(scope="module")
def expected():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def _assert_matches(actual: dict, expected: dict) -> None:
    missing = sorted(set(actual) - set(expected))
    assert not missing, f"keys absent from the fixture: {missing[:5]}"
    differ = sorted(k for k in actual if actual[k] != expected[k])
    assert not differ, f"{len(differ)} executions diverge, e.g. {differ[:5]}"


@pytest.mark.parametrize("name", list(PROGRAMS))
def test_execution_digests(name, expected):
    _assert_matches(corpus_digests(name), expected)


def test_figure2_digests(expected):
    _assert_matches(figure2_digests(), expected)


def test_fixture_covers_exactly_the_corpus(expected):
    per_program = len(ALL_MODEL_NAMES) * (len(POLICIES) * len(SCHEDULERS) + 1)
    assert len(expected) == (len(PROGRAMS) * per_program
                             + 2 * len(ALL_MODEL_NAMES))


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    digests = all_digests()
    FIXTURE.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {len(digests)} digests to {FIXTURE}")
