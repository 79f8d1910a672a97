"""The partition skeleton against the full G' it replaces (section 4.2).

The detector reads its race partitions, their first marks and their
Definition 4.1 order off a skeleton over the race endpoints, built from
the clocks it swept (:mod:`repro.core.partitions`).  The oracle is the
full augmented graph G' of :mod:`tests.gprime_oracle`: hb1's event
graph plus a doubly directed edge per race, condensed, its condensation
closed transitively.  For every report the two must agree on each
partition's race set, ``is_first``, ``events`` and its preceding and
following data partitions, on generated programs under every model and
detector, on the figure and kernel corpora, and on generated traces,
cyclic hb1 relations included.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.machine.models import ALL_MODEL_NAMES, make_model
from repro.machine.operations import OperationKind, SyncRole
from repro.machine.simulator import run_program
from repro.programs.random_programs import (
    random_drf_program,
    random_flagsync_program,
    random_racy_program,
)
from repro.programs.workqueue import run_figure2
from repro.trace.bitvector import BitVector
from repro.trace.build import Trace
from repro.trace.events import ComputationEvent, EventId, SyncEvent
from tests.core.test_hb1_cycles import reordered_traces
from tests.core.test_lazy_partitions import CORPUS, DETECTORS
from tests.gprime_oracle import oracle_partitions, skeleton_partitions
from tests.properties.test_prop_traces import traces

GENERATORS = {
    "racy": lambda seed: random_racy_program(seed, race_prob=0.5),
    "flagsync": random_flagsync_program,
    "drf": random_drf_program,
}


def _assert_skeleton_is_gprime(source) -> None:
    for name in DETECTORS:
        report = repro.detect(source, detector=name)
        assert skeleton_partitions(report.analysis) == oracle_partitions(
            report.hb, report.observed_races), name


@given(generator=st.sampled_from(sorted(GENERATORS)),
       model=st.sampled_from(ALL_MODEL_NAMES),
       seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_generated_programs(generator, model, seed):
    program = GENERATORS[generator](seed % 500)
    _assert_skeleton_is_gprime(
        run_program(program, make_model(model), seed=seed))


@pytest.mark.parametrize("model", ALL_MODEL_NAMES)
@pytest.mark.parametrize("build", CORPUS, ids=lambda p: p.__name__)
def test_corpus(build, model):
    _assert_skeleton_is_gprime(run_program(build(), make_model(model), seed=3))


@pytest.mark.parametrize("model", ALL_MODEL_NAMES)
def test_figure2(model):
    _assert_skeleton_is_gprime(run_figure2(make_model(model)))


@given(reordered_traces())
@settings(max_examples=150, deadline=None)
def test_reordered_traces(trace):
    _assert_skeleton_is_gprime(trace)


@given(traces(mixed=True))
@settings(max_examples=150, deadline=None)
def test_mixed_traces(trace):
    _assert_skeleton_is_gprime(trace)


def _cycle_then_race_trace() -> Trace:
    """P0: acq(f2) ; comp{W x} ; comp{W y} ; rel(f1) ; comp{W z}
       P1: acq(f1) ; rel(f2)
    and P2, P3, P4 reading x, y, z.  Each release pairs with the other
    processor's acquire, so P0's first four events lie on one hb1 cycle
    and its y write is hb1-before its earlier x write.  The z race
    follows the cycle in po only, so G' orders the x/y partition before
    it: a skeleton that led each endpoint only to the earliest endpoint
    of its own processor that covers it would miss that."""
    f1, f2, x, y, z = range(5)

    def sync(eid, addr, write, order_pos):
        return SyncEvent(eid, addr=addr,
                         op_kind=OperationKind.WRITE if write
                         else OperationKind.READ,
                         role=SyncRole.RELEASE if write else SyncRole.ACQUIRE,
                         value=1, order_pos=order_pos)

    p0 = [sync(EventId(0, 0), f2, False, 1),
          ComputationEvent(EventId(0, 1), writes=BitVector([x])),
          ComputationEvent(EventId(0, 2), writes=BitVector([y])),
          sync(EventId(0, 3), f1, True, 0),
          ComputationEvent(EventId(0, 4), writes=BitVector([z]))]
    p1 = [sync(EventId(1, 0), f1, False, 1), sync(EventId(1, 1), f2, True, 0)]
    readers = [[ComputationEvent(EventId(proc, 0), reads=BitVector([addr]))]
               for proc, addr in ((2, x), (3, y), (4, z))]
    return Trace(processor_count=5, memory_size=5,
                 events=[p0, p1, *readers],
                 sync_order={f1: [p0[3].eid, p1[0].eid],
                             f2: [p1[1].eid, p0[0].eid]},
                 model_name="hand-crafted-weak")


def test_po_successor_of_a_cycle_is_ordered_after_it():
    trace = _cycle_then_race_trace()
    report = repro.detect(trace)
    assert report.hb.cyclic
    first, second = report.analysis.partitions
    assert len(first.races) == 2 and first.is_first
    assert second.races[0].a == EventId(0, 4) and not second.is_first
    assert report.analysis.precedes(first, second)
    _assert_skeleton_is_gprime(trace)
