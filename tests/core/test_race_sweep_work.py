"""Exact work-count guards for the post-mortem frontier race sweep.

``find_races`` on hb1's vector clocks tests each access only
against the per-location accesses some other processor has not yet
seen, so its ``races.find`` ``pairs_tested`` counter grows with the
trace, not with the number of conflicting pairs.  On the release/acquire
pingpong handshake every round adds a writer of ``data`` on one
processor and a reader on the other: listing every conflicting pair
would make the count quadratic in the rounds.  These tests fail on that
count, not on a timing.

Each location half's sweep visits only that half's rows, so on a racy
report the two halves together visit every event once, and each half
tests exactly the pairs a full walk that skipped the other half's
events tested.
"""

from __future__ import annotations

import pytest

from repro.core.hb1 import HappensBefore1
from repro.core.races import HALVES, FrontierSweep, find_races
from repro.machine import ProgramBuilder
from repro.machine.models import make_model
from repro.machine.simulator import run_program
from repro.obs import Profiler
from repro.programs import buggy_workqueue_program, racy_counter_program
from repro.trace.build import build_trace
from repro.trace.columnar import open_columnar, to_columnar
from repro.trace.events import ComputationEvent, EventId


def _pingpong_program(rounds: int):
    """Two processors hand a data word back and forth: write data,
    release flag, spin on ack / spin on flag, read data, release ack."""
    b = ProgramBuilder()
    flag = b.var("flag")
    ack = b.var("ack")
    data = b.var("data")
    with b.thread() as t:
        for i in range(rounds):
            t.write(data, i)
            t.release_write(flag, i + 1)
            t.spin_until_ge(ack, i + 1)
    with b.thread() as t:
        for i in range(rounds):
            t.spin_until_ge(flag, i + 1)
            t.read(data)
            t.release_write(ack, i + 1)
    return b.build()


def _sweep(rounds: int):
    """(trace, races, races.find counters) of one profiled sweep."""
    result = run_program(_pingpong_program(rounds), make_model("WO"), seed=0)
    trace = build_trace(result)
    vc = HappensBefore1(trace)
    profiler = Profiler()
    with profiler.activate():
        races = find_races(trace, vc)
    [record] = [r for r in profiler.to_records() if r["name"] == "races.find"]
    return trace, races, record["counters"]


@pytest.fixture(scope="module")
def sweeps():
    return {rounds: _sweep(rounds) for rounds in (32, 64)}


def test_pairs_tested_grows_linearly_with_rounds(sweeps):
    per_round = {
        rounds: counters["pairs_tested"] / rounds
        for rounds, (_, _, counters) in sweeps.items()
    }
    # linear work keeps the per-round count flat (spin iterations vary
    # a little); a quadratic term would double it from 32 to 64 rounds
    assert per_round[64] <= 1.1 * per_round[32]
    for trace, _, counters in sweeps.values():
        assert 0 < counters["pairs_tested"] <= trace.event_count


def test_counters_describe_the_reported_races(sweeps):
    for _, races, counters in sweeps.values():
        assert counters["pairs_reported"] == len(races)
        assert counters["data_races"] == 0  # the handshake is DRF
        assert counters["pairs_tested"] >= len(races)


@pytest.mark.parametrize("rounds", [32, 64])
def test_race_set_equals_closure_backend(sweeps, rounds):
    trace, races, _ = sweeps[rounds]
    assert races
    assert races == find_races(trace, HappensBefore1(trace))


# ----------------------------------------------------------------------
# the two location halves visit each event once
# ----------------------------------------------------------------------

def _find_counters(trace, vc, half):
    profiler = Profiler()
    with profiler.activate():
        races = find_races(trace, vc, half)
    [record] = [r for r in profiler.to_records() if r["name"] == "races.find"]
    return races, record["counters"]


def _reference_half(trace, vc, half):
    """(races, pairs tested) of a walk over the whole linearization
    that skips the other half's events but still tracks every clock."""
    data = trace.data_locations()
    sweep = FrontierSweep(trace.processor_count)
    latest = sweep.clock
    joined = False
    for _, proc, pos, clock in vc.positions():
        prev = latest[proc]
        latest[proc] = clock
        if prev[:proc] != clock[:proc] or prev[proc + 1:] != clock[proc + 1:]:
            joined = True
        event = trace.events[proc][pos]
        in_data = isinstance(event, ComputationEvent) or event.addr in data
        if in_data != (half == "data"):
            continue
        if joined:
            sweep.recompute_min()
            joined = False
        is_comp, reads, writes = trace.accesses(EventId(proc, pos))
        sweep.access(proc, pos, is_comp, reads, writes, clock)
    return sweep.finish(), sweep.tested


#: racy executions (the pingpong handshake's races are sync races)
RACY = [
    (lambda: racy_counter_program(3, 3), "WO", 0),
    (buggy_workqueue_program, "WO", 2),
    (buggy_workqueue_program, "TSO", 5),
    (lambda: _pingpong_program(16), "WO", 0),
]


@pytest.mark.parametrize("build,model,seed", RACY)
def test_halves_visit_each_row_once(build, model, seed, tmp_path):
    trace = build_trace(run_program(build(), make_model(model), seed=seed))
    path = tmp_path / "t.wrct"
    to_columnar(trace, path)
    with open_columnar(path) as lazy:
        for source in (trace, lazy):
            vc = HappensBefore1(source)
            full, full_counters = _find_counters(source, vc, None)
            assert full_counters["rows_visited"] == trace.event_count
            visited = 0
            for half in HALVES:
                races, counters = _find_counters(source, vc, half)
                assert (races, counters["pairs_tested"]) == \
                    _reference_half(trace, HappensBefore1(trace), half)
                visited += counters["rows_visited"]
            assert visited == trace.event_count
            assert full
