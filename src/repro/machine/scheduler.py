"""Interleaving schedulers.

One processor executes one instruction per simulator step; the scheduler
picks which.  All nondeterminism flows through the simulator's seeded
RNG, so an execution is reproducible from ``(program, model, scheduler,
propagation, seed)``.
"""

from __future__ import annotations

import abc
import random
from typing import List, Optional, Sequence


class Scheduler(abc.ABC):
    """Chooses the next processor to step among those still runnable."""

    @abc.abstractmethod
    def pick(self, runnable: Sequence[int], rng: random.Random) -> int:
        """Return one element of *runnable* (never empty)."""


class RoundRobin(Scheduler):
    """Cycle through processors in id order, skipping halted ones."""

    def __init__(self) -> None:
        self._last = -1

    def pick(self, runnable: Sequence[int], rng: random.Random) -> int:
        candidates = sorted(runnable)
        for pid in candidates:
            if pid > self._last:
                self._last = pid
                return pid
        self._last = candidates[0]
        return candidates[0]


class RandomScheduler(Scheduler):
    """Uniformly random choice each step (fair with probability 1)."""

    def pick(self, runnable: Sequence[int], rng: random.Random) -> int:
        # rng.choice(runnable) inlined: Random._randbelow's getrandbits
        # rejection loop, so the very same draws (pinned by
        # test_random_pick_matches_random_choice).
        n = len(runnable)
        k = n.bit_length()
        r = rng.getrandbits(k)
        while r >= n:
            r = rng.getrandbits(k)
        return runnable[r]


class BurstScheduler(Scheduler):
    """Run the chosen processor for a random burst of steps before
    switching; models coarse-grained interleaving, which both widens
    computation events and makes the Figure 2b reordering easier to hit."""

    def __init__(self, min_burst: int = 2, max_burst: int = 8) -> None:
        if not 1 <= min_burst <= max_burst:
            raise ValueError("need 1 <= min_burst <= max_burst")
        self.min_burst = min_burst
        self.max_burst = max_burst
        self._current: Optional[int] = None
        self._left = 0

    def pick(self, runnable: Sequence[int], rng: random.Random) -> int:
        if self._current in runnable and self._left > 0:
            self._left -= 1
            return self._current
        self._current = rng.choice(runnable)
        self._left = rng.randint(self.min_burst, self.max_burst) - 1
        return self._current


class ScriptedScheduler(Scheduler):
    """Replay an explicit pid sequence, then fall back to round-robin.

    Used to craft the exact interleavings of the paper's figures.  A
    scripted pid that is no longer runnable is skipped.
    """

    def __init__(self, script: Sequence[int]) -> None:
        self._script: List[int] = list(script)
        self._pos = 0
        self._fallback = RoundRobin()

    def pick(self, runnable: Sequence[int], rng: random.Random) -> int:
        while self._pos < len(self._script):
            pid = self._script[self._pos]
            self._pos += 1
            if pid in runnable:
                return pid
        return self._fallback.pick(runnable, rng)
