"""Property tests of ``HappensBefore1.ordered``'s O(1) epoch test.

The epoch test answers ``a hb1 b`` by checking a single component —
``clock(b)[a.proc] >= clock(a)[a.proc]`` — instead of the full
pointwise comparison.  That shortcut is only sound if an event's own
component flows to exactly its hb1 successors, which is where clock
*merges* (events with several predecessors) and cross-processor so1
chains can go wrong.  These tests pit the epoch test against both the
full pointwise comparison and a transitive closure of the relation's
event graph on traces
engineered to maximize multi-predecessor merges and long so1 chains:
every sync value is 0, so every release -> acquire pair on a lock forms
an so1 edge, and acquires that also have a program-order predecessor
merge two clocks.  No property skips a cyclic relation: the sweep
clocks one over its SCC condensation, and the hand-built and shuffled
cyclic traces of :mod:`tests.core.test_hb1_cycles` meet the same
checks.

The generic-trace generator is reused from
:mod:`tests.properties.test_prop_traces`.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hb1 import HappensBefore1
from repro.graph import TransitiveClosure, is_acyclic
from repro.trace.bitvector import BitVector
from repro.trace.build import Trace
from repro.trace.events import ComputationEvent, EventId, SyncEvent
from repro.machine.operations import OperationKind, SyncRole

from tests.properties.test_prop_traces import traces

N_LOCKS = 2
N_DATA = 3


@st.composite
def sync_chain_traces(draw):
    """Traces biased toward so1 chains and multi-predecessor merges.

    Every sync value is 0 (so release/acquire values always match) and
    acquire/release events dominate, producing long cross-processor
    release -> acquire chains; computation events with multi-location
    READ/WRITE sets ride between them.
    """
    nproc = draw(st.integers(2, 4))
    proc_plans = []
    for _ in range(nproc):
        n_events = draw(st.integers(1, 6))
        plan = []
        for _ in range(n_events):
            kind = draw(st.sampled_from(
                ["acq", "rel", "acq", "rel", "comp"]  # sync-heavy
            ))
            if kind == "comp":
                reads = draw(st.sets(st.integers(0, N_DATA - 1), max_size=3))
                writes = draw(st.sets(st.integers(0, N_DATA - 1), max_size=3))
                plan.append(("comp", reads, writes))
            else:
                addr = N_DATA + draw(st.integers(0, N_LOCKS - 1))
                plan.append((kind, addr))
        proc_plans.append(plan)

    events = [[] for _ in range(nproc)]
    pending = [list(plan) for plan in proc_plans]
    sync_order = {}
    while any(pending):
        available = [p for p in range(nproc) if pending[p]]
        proc = draw(st.sampled_from(available))
        descriptor = pending[proc].pop(0)
        eid = EventId(proc, len(events[proc]))
        if descriptor[0] == "comp":
            _, reads, writes = descriptor
            events[proc].append(ComputationEvent(
                eid=eid, reads=BitVector(reads), writes=BitVector(writes),
            ))
            continue
        kind, addr = descriptor
        order = sync_order.setdefault(addr, [])
        if kind == "acq":
            op_kind, role = OperationKind.READ, SyncRole.ACQUIRE
        else:
            op_kind, role = OperationKind.WRITE, SyncRole.RELEASE
        events[proc].append(SyncEvent(
            eid=eid, addr=addr, op_kind=op_kind, role=role,
            value=0, order_pos=len(order),
        ))
        order.append(eid)

    return Trace(
        processor_count=nproc,
        memory_size=N_DATA + N_LOCKS,
        events=events,
        sync_order=sync_order,
        model_name="synthetic-sync-chains",
    )


def _pointwise_hb(vc, a, b):
    """The textbook definition the epoch test is shortcutting:
    a hb1 b iff clock(a) <= clock(b) pointwise (a != b)."""
    ca, cb = vc.clock_of(a), vc.clock_of(b)
    return a != b and all(x <= y for x, y in zip(ca, cb))


@given(sync_chain_traces())
@settings(max_examples=200, deadline=None)
def test_epoch_test_equals_pointwise_comparison(trace):
    vc = HappensBefore1(trace)
    events = [e.eid for e in trace.all_events()]
    for a in events:
        for b in events:
            if a != b:
                assert vc.ordered(a, b) == _pointwise_hb(vc, a, b), (a, b)


@given(sync_chain_traces())
@settings(max_examples=200, deadline=None)
def test_epoch_test_matches_closure_on_sync_chains(trace):
    vc = HappensBefore1(trace)
    closure = TransitiveClosure(vc.graph)
    assert vc.cyclic == (not is_acyclic(vc.graph))
    events = [e.eid for e in trace.all_events()]
    for a in events:
        for b in events:
            if a == b:
                continue
            assert closure.ordered(a, b) == vc.ordered(a, b), (a, b)
            assert (not closure.comparable(a, b)) == vc.unordered(a, b), \
                (a, b)


@given(sync_chain_traces())
@settings(max_examples=150, deadline=None)
def test_merge_is_componentwise_max_over_predecessors(trace):
    """Each clock is the pointwise max of its predecessors' clocks,
    with the event's own component raised to at least its position + 1
    — checked directly on events with multiple predecessors (the
    merges).  On an acyclic relation the own component is exactly
    position + 1; inside a cycle's SCC every member shares one clock,
    which its predecessors in the SCC carry too."""
    hb = HappensBefore1(trace)
    nproc = trace.processor_count
    for event in trace.all_events():
        eid = event.eid
        clock = hb.clock_of(eid)
        preds = list(hb.graph.predecessors(eid))
        for i in range(nproc):
            expected = max(
                (hb.clock_of(p)[i] for p in preds), default=0
            )
            if i == eid.proc:
                expected = max(expected, eid.pos + 1)
            assert clock[i] == expected, (eid, i, preds)
        if not hb.cyclic:
            assert clock[eid.proc] == eid.pos + 1


@given(traces())
@settings(max_examples=150, deadline=None)
def test_epoch_test_equals_pointwise_on_generic_traces(trace):
    """Same epoch-vs-pointwise equivalence on the unbiased generator
    (arbitrary sync values, so sparser so1 edges)."""
    vc = HappensBefore1(trace)
    events = [e.eid for e in trace.all_events()]
    for a in events:
        for b in events:
            if a != b:
                assert vc.ordered(a, b) == _pointwise_hb(vc, a, b), (a, b)


@given(st.integers(2, 5), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_cross_processor_so1_chain_is_totally_ordered(nproc, rounds):
    """A deterministic release -> acquire relay across processors:
    P0 rel, P1 acq rel, P2 acq rel, ... — every event must be hb1-after
    every earlier event in the chain (transitivity through so1), and
    the epoch test must see it."""
    lock = 0
    events = [[] for _ in range(nproc)]
    sync_order = {lock: []}
    chain = []

    def emit(proc, role):
        eid = EventId(proc, len(events[proc]))
        op_kind = (
            OperationKind.READ if role is SyncRole.ACQUIRE
            else OperationKind.WRITE
        )
        events[proc].append(SyncEvent(
            eid=eid, addr=lock, op_kind=op_kind, role=role,
            value=0, order_pos=len(sync_order[lock]),
        ))
        sync_order[lock].append(eid)
        chain.append(eid)

    emit(0, SyncRole.RELEASE)
    for r in range(rounds):
        for proc in range(1, nproc):
            emit(proc, SyncRole.ACQUIRE)
            emit(proc, SyncRole.RELEASE)

    trace = Trace(
        processor_count=nproc, memory_size=1, events=events,
        sync_order=sync_order, model_name="so1-chain",
    )
    vc = HappensBefore1(trace)
    closure = TransitiveClosure(vc.graph)
    for i, a in enumerate(chain):
        for b in chain[i + 1:]:
            if a.proc == b.proc:
                continue
            assert vc.ordered(a, b), (a, b)
            assert closure.ordered(a, b), (a, b)
            assert not vc.ordered(b, a)
