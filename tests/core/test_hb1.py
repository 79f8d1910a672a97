"""happens-before-1 construction tests (Definitions 2.1-2.3)."""

from repro.machine.models import make_model
from repro.machine.program import ProgramBuilder
from repro.machine.scheduler import ScriptedScheduler
from repro.machine.simulator import Simulator, run_program
from repro.core.hb1 import HappensBefore1
from repro.graph import is_acyclic
from repro.trace.build import build_trace
from repro.trace.events import SyncEvent


def _trace(builder_fn, script=None, model="SC", seed=0):
    b = ProgramBuilder()
    builder_fn(b)
    program = b.build()
    if script is not None:
        sim = Simulator(program, make_model(model),
                        scheduler=ScriptedScheduler(script), seed=seed)
        result = sim.run()
    else:
        result = run_program(program, make_model(model), seed=seed)
    return build_trace(result)


def test_po_edges_chain_each_processor():
    def build(b):
        x = b.var("x")
        s = b.var("s")
        with b.thread() as t:
            t.write(x, 1)
            t.unset(s)
            t.write(x, 2)
    trace = _trace(build)
    hb = HappensBefore1(trace)
    events = trace.events[0]
    assert hb.po_edges == 2
    assert hb.ordered(events[0].eid, events[2].eid)  # transitive po
    assert not hb.ordered(events[2].eid, events[0].eid)


def test_unset_pairs_with_test_and_set():
    def build(b):
        s = b.var("s", initial=1)
        x = b.var("x")
        with b.thread() as t:   # P0 releases
            t.write(x, 1)
            t.unset(s)
        with b.thread() as t:   # P1 acquires (single successful T&S)
            t.lock(s)
            t.read(x)
    # Script: P0 write, P0 unset, P1 T&S (success), P1 branch, P1 read.
    trace = _trace(build, script=[0, 0, 1, 1, 1])
    hb = HappensBefore1(trace)
    assert len(hb.so1_edges) == 1
    release, acquire = hb.so1_edges[0]
    assert release.proc == 0
    assert acquire.proc == 1
    # cross-processor ordering established for the data accesses
    comp0 = trace.events[0][0].eid
    comp1 = trace.events[1][-1].eid
    assert hb.ordered(comp0, comp1)


def test_failed_test_and_set_does_not_pair():
    """A T&S that reads the *T&S write* of another processor observes a
    SYNC_ONLY write, not a release, so no so1 edge arises."""
    def build(b):
        s = b.var("s")
        with b.thread() as t:
            t.test_and_set(s)   # succeeds, writes 1
        with b.thread() as t:
            t.test_and_set(s)   # fails: reads the 1 of P0's T&S write
    trace = _trace(build, script=[0, 1])
    hb = HappensBefore1(trace)
    assert hb.so1_edges == []


def test_acquire_of_unreleased_initial_value_does_not_pair():
    def build(b):
        s = b.var("s")
        with b.thread() as t:
            t.acquire_read(s)  # reads initial 0; no release ever wrote it
    trace = _trace(build)
    hb = HappensBefore1(trace)
    assert hb.so1_edges == []


def test_value_mismatch_does_not_pair():
    def build(b):
        f = b.var("f")
        with b.thread() as t:
            t.release_write(f, 5)
            t.release_write(f, 6)
        with b.thread() as t:
            t.acquire_read(f)
    # P1 reads after both releases: value 6 pairs with the second
    # release only.
    trace = _trace(build, script=[0, 0, 1])
    hb = HappensBefore1(trace)
    assert len(hb.so1_edges) == 1
    release_eid = hb.so1_edges[0][0]
    release = trace.event(release_eid)
    assert isinstance(release, SyncEvent)
    assert release.value == 6


def test_same_processor_release_acquire_not_so1():
    def build(b):
        f = b.var("f")
        with b.thread() as t:
            t.release_write(f, 1)
            t.acquire_read(f)
    trace = _trace(build)
    hb = HappensBefore1(trace)
    assert hb.so1_edges == []  # po already orders them


def test_sc_execution_hb1_is_partial_order():
    def build(b):
        s = b.var("s", initial=1)
        x = b.var("x")
        with b.thread() as t:
            t.write(x, 1)
            t.unset(s)
        with b.thread() as t:
            t.lock(s)
            t.read(x)
    trace = _trace(build, script=[0, 0, 1, 1, 1])
    hb = HappensBefore1(trace)
    assert not hb.cyclic
    assert is_acyclic(hb.graph)


def test_unordered_is_symmetric_and_irreflexive_for_distinct():
    def build(b):
        x = b.var("x")
        with b.thread() as t:
            t.write(x, 1)
        with b.thread() as t:
            t.read(x)
    trace = _trace(build)
    hb = HappensBefore1(trace)
    a = trace.events[0][0].eid
    b_ = trace.events[1][0].eid
    assert hb.unordered(a, b_)
    assert hb.unordered(b_, a)


def test_transitive_chain_through_two_locks():
    def build(b):
        s1 = b.var("s1", initial=1)
        s2 = b.var("s2", initial=1)
        x = b.var("x")
        with b.thread() as t:  # P0
            t.write(x, 1)
            t.unset(s1)
        with b.thread() as t:  # P1: relay
            t.lock(s1)
            t.unset(s2)
        with b.thread() as t:  # P2
            t.lock(s2)
            t.read(x)
    trace = _trace(build, script=[0, 0, 1, 1, 1, 2, 2, 2])
    hb = HappensBefore1(trace)
    first = trace.events[0][0].eid   # P0's computation (write x)
    last = trace.events[2][-1].eid   # P2's computation (read x)
    assert hb.ordered(first, last)
