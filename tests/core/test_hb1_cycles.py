"""Cyclic hb1 tolerance (section 3.1).

"Since in general, the synchronization operations of a weak system are
not constrained to be executed in a sequentially consistent manner, the
so1 relation and hence the hb1 relation may contain cycles and hence
not be partial orders.  Nevertheless, the current dynamic techniques
... can still be applied."

Our simulator keeps sync operations SC, so it can never produce such a
trace; these tests hand-craft one (two release/acquire pairs whose
pairings point in opposite directions across the processors) and
generate more by shuffling per-location sync orders, and check that
every pipeline stage survives and still produces a sane report.

The vector clocks of a cyclic hb1 are computed over its SCC
condensation.  :func:`definition_2_4_races` is the oracle they are held
to: Definition 2.4 applied directly, one query per conflicting
cross-processor pair to a transitive closure of the relation's event
graph.
"""

from typing import List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.detector import PostMortemDetector
from repro.core.hb1 import HALVES, HappensBefore1
from repro.core.partitions import partition_races
from repro.core.predictive import (
    SHBDetector,
    ScheduleHappensBefore,
    WCPDetector,
    WeakCausallyPrecedes,
)
from repro.core.races import EventRace, find_races
from repro.core.streaming import StreamingDetector
from repro.graph import TransitiveClosure, find_cycle, is_acyclic
from repro.machine.operations import OperationKind, SyncRole
from repro.trace.bitvector import BitVector
from repro.trace.build import Trace
from repro.trace.events import (
    ComputationEvent,
    EventId,
    SyncEvent,
    conflicting_locations,
)

from tests.properties.test_prop_traces import traces


def definition_2_4_races(trace: Trace, hb: Optional[HappensBefore1] = None,
                         half: Optional[str] = None) -> List[EventRace]:
    """Every conflicting cross-processor event pair that *hb* (the
    trace's hb1 when not passed) leaves unordered, sorted; with *half*,
    only its conflicts on that half's locations.  Orderings come from a
    transitive closure of the relation's event graph, not its clocks."""
    closure = TransitiveClosure((hb or HappensBefore1(trace)).graph)
    data = trace.data_locations()
    events = trace.all_events()
    races = []
    for i, a in enumerate(events):
        for b in events[i + 1:]:
            if a.eid.proc == b.eid.proc:
                continue
            shared = [addr for addr in conflicting_locations(a, b)
                      if half is None or (addr in data) == (half == "data")]
            if shared and not closure.comparable(a.eid, b.eid):
                races.append(EventRace(
                    *sorted((a.eid, b.eid)), tuple(shared),
                    isinstance(a, ComputationEvent)
                    or isinstance(b, ComputationEvent)))
    return sorted(races, key=lambda race: race.events)


def _cyclic_trace() -> Trace:
    """P0: acq(f2)=1 ; comp{W x} ; rel(f1)=1
       P1: acq(f1)=1 ; comp{R x} ; rel(f2)=1
    with per-location sync orders that pair each release to the *other*
    processor's earlier acquire — impossible under SC sync, cyclic hb1.
    """
    f1, f2, x = 0, 1, 2

    p0_acq = SyncEvent(EventId(0, 0), addr=f2, op_kind=OperationKind.READ,
                       role=SyncRole.ACQUIRE, value=1, order_pos=1)
    p0_comp = ComputationEvent(EventId(0, 1), writes=BitVector([x]))
    p0_rel = SyncEvent(EventId(0, 2), addr=f1, op_kind=OperationKind.WRITE,
                       role=SyncRole.RELEASE, value=1, order_pos=0)

    p1_acq = SyncEvent(EventId(1, 0), addr=f1, op_kind=OperationKind.READ,
                       role=SyncRole.ACQUIRE, value=1, order_pos=1)
    p1_comp = ComputationEvent(EventId(1, 1), reads=BitVector([x]))
    p1_rel = SyncEvent(EventId(1, 2), addr=f2, op_kind=OperationKind.WRITE,
                       role=SyncRole.RELEASE, value=1, order_pos=0)

    return Trace(
        processor_count=2,
        memory_size=3,
        events=[[p0_acq, p0_comp, p0_rel], [p1_acq, p1_comp, p1_rel]],
        sync_order={
            f1: [p0_rel.eid, p1_acq.eid],
            f2: [p1_rel.eid, p0_acq.eid],
        },
        model_name="hand-crafted-weak",
    )


@st.composite
def reordered_traces(draw):
    """Processors of acquire / computation / release blocks on two
    locks, all sync values equal, whose per-location sync orders are
    shuffled independently of po: a release may then pair with an
    acquire that po places before another release pairing back, so hb1
    is often cyclic."""
    nproc = draw(st.integers(2, 3))
    events = []
    sync_order = {}
    for proc in range(nproc):
        proc_events = []

        def sync(addr, write):
            eid = EventId(proc, len(proc_events))
            proc_events.append(SyncEvent(
                eid=eid, addr=addr,
                op_kind=OperationKind.WRITE if write else OperationKind.READ,
                role=SyncRole.RELEASE if write else SyncRole.ACQUIRE,
                value=1))
            sync_order.setdefault(addr, []).append(eid)

        for _ in range(draw(st.integers(1, 3))):
            sync(draw(st.sampled_from([3, 4])), write=False)
            if draw(st.booleans()):
                proc_events.append(ComputationEvent(
                    eid=EventId(proc, len(proc_events)),
                    reads=BitVector(draw(st.sets(st.integers(0, 2)))),
                    writes=BitVector(draw(st.sets(st.integers(0, 2))))))
            sync(draw(st.sampled_from([3, 4])), write=True)
        events.append(proc_events)
    sync_order = {addr: draw(st.permutations(order))
                  for addr, order in sync_order.items()}
    return Trace(processor_count=nproc, memory_size=5, events=events,
                 sync_order=sync_order, model_name="synthetic")


def test_hb1_is_cyclic():
    hb = HappensBefore1(_cyclic_trace())
    assert hb.cyclic
    assert find_cycle(hb.graph) is not None
    assert len(hb.so1_edges) == 2


def test_cycle_members_mutually_ordered():
    hb = HappensBefore1(_cyclic_trace())
    a = EventId(0, 1)
    b = EventId(1, 1)
    # Both directions hold through the cycle — so the pair is NOT a
    # race despite being conflicting: hb1 "orders" them both ways.
    assert hb.ordered(a, b)
    assert hb.ordered(b, a)
    assert not hb.unordered(a, b)


def test_race_detection_survives_cycle():
    trace = _cyclic_trace()
    races = find_races(trace)
    # The x accesses are hb1-comparable (via the cycle), so no race is
    # reported between them; the two release/acquire pairs conflict on
    # the flags but are ordered too.
    assert races == []


def test_partitioning_survives_cycle():
    trace = _cyclic_trace()
    hb = HappensBefore1(trace)
    races = find_races(trace, hb)
    analysis = partition_races(trace, hb, races)
    assert analysis.partitions == []
    # The whole 6-event cycle is clocked as few components.
    assert hb.cyclic
    assert len({tuple(clock) for clock in hb.row_clocks}) < 6


def test_full_detector_on_cyclic_trace():
    report = PostMortemDetector().analyze(_cyclic_trace())
    assert report.race_free
    text = report.format()
    assert "No data races" in text


def test_cyclic_trace_with_extra_race():
    """Add a third processor racing on x: the race must still surface
    even with the cycle present elsewhere in G'."""
    trace = _cyclic_trace()
    p2_comp = ComputationEvent(EventId(2, 0), writes=BitVector([2]))
    trace.events.append([p2_comp])
    trace.processor_count = 3
    report = PostMortemDetector().analyze(trace)
    assert not report.race_free
    # P2's write races with both cycle members (each pair reported).
    assert len(report.data_races) == 2
    assert len(report.first_partitions) == 1


# ----------------------------------------------------------------------
# condensation clocks against the closure oracle
# ----------------------------------------------------------------------

def _assert_matches_the_oracle(trace):
    hb = HappensBefore1(trace)
    closure = TransitiveClosure(hb.graph)
    assert hb.cyclic == (not is_acyclic(hb.graph))
    events = [event.eid for event in trace.all_events()]
    for a in events:
        for b in events:
            if a != b:
                # the epoch test, the pointwise comparison, the closure
                pointwise = all(x <= y for x, y in
                                zip(hb.clock_of(a), hb.clock_of(b)))
                assert hb.ordered(a, b) == pointwise == \
                    closure.ordered(a, b), (a, b)
    full = definition_2_4_races(trace, hb)
    assert find_races(trace, hb) == full
    for half in HALVES:
        assert find_races(trace, hb, half) == \
            definition_2_4_races(trace, hb, half), half
    assert repro.detect(trace).races == full
    assert StreamingDetector().analyze(trace).races == full
    shb = SHBDetector().analyze(trace)
    assert shb.races == full
    if not is_acyclic(ScheduleHappensBefore(trace).graph):
        assert shb.sound_races == []
    predicted = definition_2_4_races(trace, WeakCausallyPrecedes(trace))
    assert WCPDetector().analyze(trace).races == \
        sorted(set(full) | set(predicted), key=lambda race: race.events)
    return hb.cyclic


def test_cyclic_trace_matches_the_oracle():
    assert _assert_matches_the_oracle(_cyclic_trace())


def test_cyclic_trace_with_extra_race_matches_the_oracle():
    trace = _cyclic_trace()
    trace.events.append([ComputationEvent(EventId(2, 0),
                                          writes=BitVector([2]))])
    trace.processor_count = 3
    assert _assert_matches_the_oracle(trace)


@given(trace=reordered_traces())
@settings(max_examples=150, deadline=None)
def test_reordered_traces_match_the_oracle(trace):
    _assert_matches_the_oracle(trace)


@given(trace=traces(mixed=True))
@settings(max_examples=150, deadline=None)
def test_mixed_traces_match_the_oracle(trace):
    _assert_matches_the_oracle(trace)


def test_reordered_corpus_is_often_cyclic():
    """The generator the oracle is met on does reach cycles."""
    cyclic = []

    @given(trace=reordered_traces())
    @settings(max_examples=200, deadline=None, database=None,
              derandomize=True)
    def sample(trace):
        cyclic.append(HappensBefore1(trace).cyclic)

    sample()
    assert sum(cyclic) >= 5, sum(cyclic)
