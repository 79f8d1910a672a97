"""Property-based tests of the detection pipeline over synthetic traces.

The simulator-based property tests only produce traces a compliant
machine can generate; these generate *arbitrary* structurally-valid
traces (random event sequences, random sync interleavings, random
READ/WRITE sets), checking the algorithmic invariants of sections 4.1
and 4.2 hold unconditionally — including the structural halves of
Theorems 4.1 and 4.2 that don't depend on hardware compliance.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detector import PostMortemDetector
from repro.core.hb1 import HappensBefore1
from repro.core.partitions import partition_races
from repro.core.races import find_races
from repro.graph import TransitiveClosure, is_acyclic
from repro.machine.operations import OperationKind, SyncRole
from repro.trace.bitvector import BitVector
from repro.trace.build import Trace
from repro.trace.events import (
    ComputationEvent,
    EventId,
    SyncEvent,
    conflicting_locations,
)

DET = PostMortemDetector()

N_LOCKS = 2
N_DATA = 4


@st.composite
def traces(draw, mixed=False):
    """A structurally valid trace.  With *mixed*, computation events may
    also touch the lock locations, so a location can carry both sync
    and data accesses."""
    n_comp = N_DATA + N_LOCKS if mixed else N_DATA
    nproc = draw(st.integers(2, 4))
    # Per processor: a list of event descriptors.
    proc_plans = []
    for _ in range(nproc):
        n_events = draw(st.integers(0, 5))
        plan = []
        for _ in range(n_events):
            kind = draw(st.sampled_from(["comp", "acq", "rel", "tsw"]))
            if kind == "comp":
                reads = draw(st.sets(st.integers(0, n_comp - 1), max_size=3))
                writes = draw(st.sets(st.integers(0, n_comp - 1), max_size=3))
                plan.append(("comp", reads, writes))
            else:
                addr = N_DATA + draw(st.integers(0, N_LOCKS - 1))
                value = draw(st.integers(0, 2))
                plan.append((kind, addr, value))
        proc_plans.append(plan)

    # A global interleaving of the sync events, respecting per-proc order,
    # determines each location's sync order.
    events = [[] for _ in range(nproc)]
    pending = [list(plan) for plan in proc_plans]
    sync_order = {}
    # random interleave via repeatedly drawing a proc with work left
    while any(pending):
        available = [p for p in range(nproc) if pending[p]]
        proc = draw(st.sampled_from(available))
        descriptor = pending[proc].pop(0)
        pos = len(events[proc])
        eid = EventId(proc, pos)
        if descriptor[0] == "comp":
            _, reads, writes = descriptor
            events[proc].append(ComputationEvent(
                eid=eid, reads=BitVector(reads), writes=BitVector(writes),
            ))
            continue
        kind, addr, value = descriptor
        order = sync_order.setdefault(addr, [])
        if kind == "acq":
            op_kind, role = OperationKind.READ, SyncRole.ACQUIRE
        elif kind == "rel":
            op_kind, role = OperationKind.WRITE, SyncRole.RELEASE
        else:
            op_kind, role = OperationKind.WRITE, SyncRole.SYNC_ONLY
        events[proc].append(SyncEvent(
            eid=eid, addr=addr, op_kind=op_kind, role=role,
            value=value, order_pos=len(order),
        ))
        order.append(eid)

    return Trace(
        processor_count=nproc,
        memory_size=N_DATA + N_LOCKS,
        events=events,
        sync_order=sync_order,
        model_name="synthetic",
    )


@given(traces())
@settings(max_examples=200, deadline=None)
def test_races_are_exactly_conflicting_unordered_pairs(trace):
    hb = HappensBefore1(trace)
    closure = TransitiveClosure(hb.graph)
    races = find_races(trace, hb)
    race_keys = {(race.a, race.b) for race in races}
    all_events = trace.all_events()
    for i, ea in enumerate(all_events):
        for eb in all_events[i + 1:]:
            if ea.eid.proc == eb.eid.proc:
                continue
            locs = conflicting_locations(ea, eb)
            key = tuple(sorted((ea.eid, eb.eid)))
            expected = bool(locs) and not closure.comparable(ea.eid, eb.eid)
            assert (key in race_keys) == expected, key


@given(traces())
@settings(max_examples=200, deadline=None)
def test_race_location_sets_match(trace):
    hb = HappensBefore1(trace)
    for race in find_races(trace, hb):
        ea, eb = trace.event(race.a), trace.event(race.b)
        assert list(race.locations) == conflicting_locations(ea, eb)
        assert race.is_data_race == (
            ea.is_computation or eb.is_computation
        )


@given(traces())
@settings(max_examples=200, deadline=None)
def test_partitions_partition_the_races(trace):
    hb = HappensBefore1(trace)
    races = find_races(trace, hb)
    analysis = partition_races(trace, hb, races)
    seen = []
    for partition in analysis.partitions:
        seen.extend(partition.races)
    assert sorted(seen, key=lambda r: (r.a, r.b)) == races
    # endpoints of each race share the partition's SCC
    for partition in analysis.partitions:
        for race in partition.races:
            assert race.a in partition.events
            assert race.b in partition.events


@given(traces())
@settings(max_examples=200, deadline=None)
def test_theorem_41_structural_half(trace):
    """First partitions containing data races exist iff data races
    exist — holds for arbitrary traces because partition precedence is
    a strict partial order, so a minimal data-race partition exists."""
    report = DET.analyze(trace)
    assert bool(report.first_partitions) == bool(report.data_races)


@given(traces())
@settings(max_examples=200, deadline=None)
def test_first_partitions_unpreceded(trace):
    report = DET.analyze(trace)
    analysis = report.analysis
    data_partitions = [p for p in analysis.partitions if p.has_data_race]
    for partition in analysis.partitions:
        preceded = any(
            other is not partition and analysis.precedes(other, partition)
            for other in data_partitions
        )
        assert partition.is_first == (not preceded)


@given(traces())
@settings(max_examples=150, deadline=None)
def test_report_counts_consistent(trace):
    report = DET.analyze(trace)
    assert (
        len(report.reported_races) + len(report.suppressed_races)
        == len(report.data_races)
    )
    assert len(report.data_races) + len(report.sync_races) == len(report.races)
    # formatting never crashes and mentions the verdict
    text = report.format()
    if report.race_free:
        assert "No data races" in text


@given(traces())
@settings(max_examples=100, deadline=None)
def test_dot_rendering_total(trace):
    report = DET.analyze(trace)
    dot = report.to_dot()
    assert dot.startswith("digraph")
    assert dot.rstrip().endswith("}")


@given(traces())
@settings(max_examples=150, deadline=None)
def test_so1_pairing_rules(trace):
    """Every so1 edge is release->acquire on one location with equal
    values, across processors, with the release the most recent sync
    write before the acquire in the location's order."""
    hb = HappensBefore1(trace)
    for release_eid, acquire_eid in hb.so1_edges:
        release = trace.event(release_eid)
        acquire = trace.event(acquire_eid)
        assert release.role is SyncRole.RELEASE
        assert acquire.role is SyncRole.ACQUIRE
        assert release.addr == acquire.addr
        assert release.value == acquire.value
        assert release_eid.proc != acquire_eid.proc
        order = trace.sync_order[release.addr]
        r_pos, a_pos = order.index(release_eid), order.index(acquire_eid)
        assert r_pos < a_pos
        # no sync WRITE in between
        for eid in order[r_pos + 1:a_pos]:
            assert not trace.event(eid).writes_addr


@given(traces())
@settings(max_examples=150, deadline=None)
def test_vector_clock_backend_equivalent(trace):
    """On every synthetic trace, cyclic or not, hb1's vector clocks
    answer ordering queries identically to a transitive closure of its
    event graph."""
    vc = HappensBefore1(trace)
    closure = TransitiveClosure(vc.graph)
    assert vc.cyclic == (not is_acyclic(vc.graph))
    events = [e.eid for e in trace.all_events()]
    for a in events:
        for b in events:
            if a != b:
                assert closure.ordered(a, b) == vc.ordered(a, b)
