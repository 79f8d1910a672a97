"""Scheduler tests."""

import random

import pytest

from repro.machine.scheduler import (
    BurstScheduler,
    RandomScheduler,
    RoundRobin,
    ScriptedScheduler,
)


def test_round_robin_cycles():
    s = RoundRobin()
    rng = random.Random(0)
    picks = [s.pick([0, 1, 2], rng) for _ in range(6)]
    assert picks == [0, 1, 2, 0, 1, 2]


def test_round_robin_skips_halted():
    s = RoundRobin()
    rng = random.Random(0)
    assert s.pick([0, 1, 2], rng) == 0
    assert s.pick([0, 2], rng) == 2
    assert s.pick([0, 2], rng) == 0


def test_random_scheduler_uses_rng_deterministically():
    picks1 = [RandomScheduler().pick([0, 1, 2], random.Random(42)) for _ in range(1)]
    picks2 = [RandomScheduler().pick([0, 1, 2], random.Random(42)) for _ in range(1)]
    assert picks1 == picks2


def test_random_scheduler_fair_ish():
    s = RandomScheduler()
    rng = random.Random(7)
    picks = [s.pick([0, 1], rng) for _ in range(200)]
    assert 50 < sum(picks) < 150


def test_random_pick_matches_random_choice():
    """RandomScheduler.pick inlines Random.choice's getrandbits
    rejection loop, so it must consume exactly the draws rng.choice
    would: the same pick and the same generator state after every
    draw, as runnable lists of 1-8 processors shrink mid-stream."""
    for seed in range(200):
        rng, twin = random.Random(seed), random.Random(seed)
        shape = random.Random(-1 - seed)  # list sizes and halts
        runnable = list(range(shape.randint(1, 8)))
        scheduler = RandomScheduler()
        while runnable:
            pick = scheduler.pick(runnable, rng)
            assert pick == twin.choice(runnable), seed
            assert rng.getstate() == twin.getstate(), seed
            if shape.random() < 0.1:  # the picked processor halts
                runnable.remove(pick)


def test_burst_scheduler_runs_bursts():
    s = BurstScheduler(min_burst=3, max_burst=3)
    rng = random.Random(0)
    picks = [s.pick([0, 1], rng) for _ in range(6)]
    assert picks[0] == picks[1] == picks[2]
    assert picks[3] == picks[4] == picks[5]


def test_burst_scheduler_switches_when_current_halts():
    s = BurstScheduler(min_burst=5, max_burst=5)
    rng = random.Random(0)
    first = s.pick([0, 1], rng)
    other = 1 - first
    assert s.pick([other], rng) == other


def test_burst_validation():
    with pytest.raises(ValueError):
        BurstScheduler(min_burst=0, max_burst=2)
    with pytest.raises(ValueError):
        BurstScheduler(min_burst=3, max_burst=2)


def test_scripted_replays_then_round_robin():
    s = ScriptedScheduler([2, 2, 0])
    rng = random.Random(0)
    assert s.pick([0, 1, 2], rng) == 2
    assert s.pick([0, 1, 2], rng) == 2
    assert s.pick([0, 1, 2], rng) == 0
    # script exhausted -> fresh round robin over runnable
    assert s.pick([0, 1, 2], rng) == 0
    assert s.pick([0, 1, 2], rng) == 1


def test_scripted_skips_halted_entries():
    s = ScriptedScheduler([1, 0])
    rng = random.Random(0)
    assert s.pick([0, 2], rng) == 0  # pid 1 not runnable, skipped
