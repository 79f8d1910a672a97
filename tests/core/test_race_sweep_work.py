"""Exact work-count guard for the post-mortem frontier race sweep.

``find_races`` on a :class:`VectorClockHB1` tests each access only
against the per-location accesses some other processor has not yet
seen, so its ``races.find`` ``pairs_tested`` counter grows with the
trace, not with the number of conflicting pairs.  On the release/acquire
pingpong handshake every round adds a writer of ``data`` on one
processor and a reader on the other: listing every conflicting pair
would make the count quadratic in the rounds.  These tests fail on that
count, not on a timing.
"""

from __future__ import annotations

import pytest

from repro.core.hb1 import HappensBefore1
from repro.core.hb1_vc import VectorClockHB1
from repro.core.races import find_races
from repro.machine import ProgramBuilder
from repro.machine.models import make_model
from repro.machine.simulator import run_program
from repro.obs import Profiler
from repro.trace.build import build_trace


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
    vc = VectorClockHB1(trace)
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
