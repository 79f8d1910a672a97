"""Voluntary propagation policies for buffered writes.

Between synchronization flushes, a weak machine may propagate buffered
data writes to other processors at any time and in any per-reader order.
The policy controls that freedom:

* :class:`EagerPropagation` — deliver everything every step; a weak
  model then *behaves* sequentially consistently (useful control).
* :class:`StubbornPropagation` — never volunteer anything; visibility
  comes only from flushes, maximizing observable weakness.
* :class:`RandomPropagation` — each (pending write, reader) pair is
  delivered with probability *p* per step, from a seeded RNG; the
  general-purpose way to explore weak behaviours.
* :class:`HoldbackPropagation` — deliver everything except writes to a
  chosen set of addresses; reproduces a targeted reordering, e.g. the
  paper's Figure 2b where the new value of ``QEmpty`` reaches P2 before
  the new value of ``Q``.
* :class:`StoreBufferPropagation` — drain each processor's buffer
  head-first with a per-step probability; the natural companion to the
  TSO/PSO store-buffer models (whose FIFO guard any policy here
  already respects, since illegal deliveries are skipped inside
  :meth:`~repro.machine.memory.MemorySystem.propagate`).
"""

from __future__ import annotations

import abc
import random
from typing import Iterable, Set

from .memory import MemorySystem


class PropagationPolicy(abc.ABC):
    """Decides which buffered writes to volunteer each simulator step."""

    @abc.abstractmethod
    def step(self, memory: MemorySystem, rng: random.Random) -> None:
        """Deliver zero or more pending (write, reader) pairs."""


class EagerPropagation(PropagationPolicy):
    """Deliver every pending write to every reader, every step."""

    def step(self, memory: MemorySystem, rng: random.Random) -> None:
        if not memory.pending_writes():
            return  # idle: nothing to deliver, no RNG draw
        for pw in list(memory.pending_writes()):
            for reader in list(pw.remaining):
                memory.propagate(pw, reader)


class StubbornPropagation(PropagationPolicy):
    """Never volunteer; only flushes make buffered writes visible."""

    def step(self, memory: MemorySystem, rng: random.Random) -> None:
        return None


class RandomPropagation(PropagationPolicy):
    """Deliver each (write, reader) pair with probability *p* per step."""

    def __init__(self, probability: float = 0.3) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        self.probability = probability

    def step(self, memory: MemorySystem, rng: random.Random) -> None:
        if not memory.pending_writes():
            return  # idle: nothing to deliver, no RNG draw
        for pw in list(memory.pending_writes()):
            for reader in list(pw.remaining):
                if rng.random() < self.probability:
                    memory.propagate(pw, reader)


class HoldbackPropagation(PropagationPolicy):
    """Deliver eagerly, except writes to *held* addresses are withheld
    (until a flush forces them out)."""

    def __init__(self, held: Iterable[int]) -> None:
        self.held: Set[int] = set(held)

    def step(self, memory: MemorySystem, rng: random.Random) -> None:
        if not memory.pending_writes():
            return  # idle: nothing to deliver, no RNG draw
        for pw in list(memory.pending_writes()):
            if pw.addr in self.held:
                continue
            for reader in list(pw.remaining):
                memory.propagate(pw, reader)


class StoreBufferPropagation(PropagationPolicy):
    """Drain store buffers head-first, one entry per processor per step.

    Each step, every processor's *oldest* pending write (its buffer
    head) is delivered to all readers still owed it with probability
    *p*; younger entries wait their turn.  Under TSO this is exactly a
    hardware store buffer draining; under PSO the per-address FIFO
    guard still lets younger writes to other locations overtake at
    flush boundaries.  On unordered models it simply drains
    oldest-first.
    """

    def __init__(self, probability: float = 0.5) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        self.probability = probability

    def step(self, memory: MemorySystem, rng: random.Random) -> None:
        if not memory.pending_writes():
            return  # idle: nothing to deliver, no RNG draw
        heads: dict = {}
        for pw in memory.pending_writes():
            # _pending is append-ordered by seq: first hit is the head.
            heads.setdefault(pw.writer, pw)
        for writer in sorted(heads):
            if rng.random() < self.probability:
                pw = heads[writer]
                for reader in sorted(pw.remaining):
                    memory.propagate(pw, reader)


class HomeDirectoryPropagation(PropagationPolicy):
    """Deterministic NUMA-style propagation through per-location homes.

    Models a directory protocol: a write to location *a* travels from
    the writer to *a*'s home node and from there to each reader, taking
    ``dist[writer][home] + dist[home][reader]`` policy steps.  Because
    the delay depends on the *location's* home, two writes by the same
    processor to differently-homed locations can arrive out of issue
    order at a reader — the physical mechanism behind the paper's
    Figure 2b reordering (the new ``QEmpty`` overtakes the new ``Q``
    when ``QEmpty``'s home is near and ``Q``'s is far), with no
    randomness involved.

    Flushes still deliver instantly (Condition 3.4's requirement);
    this policy only schedules the *voluntary* deliveries.
    """

    def __init__(self, home_of, dist) -> None:
        """``home_of(addr) -> node``; ``dist[u][v]`` in policy steps."""
        self.home_of = home_of
        self.dist = dist
        self._now = 0
        self._arrivals: dict = {}  # pw.seq -> {reader: due_step}

    @classmethod
    def ring(cls, nodes: int, hop_cost: int = 2) -> "HomeDirectoryPropagation":
        """A generic instance: *nodes* processors on a ring, locations
        homed round-robin (``home(addr) = addr % nodes``), distance =
        ring hops x *hop_cost*.  Handy for property tests that want a
        deterministic, topology-flavoured weak machine without
        hand-crafting matrices."""
        if nodes < 1:
            raise ValueError("need at least one node")
        dist = [
            [min(abs(u - v), nodes - abs(u - v)) * hop_cost
             for v in range(nodes)]
            for u in range(nodes)
        ]
        return cls(lambda addr: addr % nodes, dist)

    def _delay(self, writer: int, addr: int, reader: int) -> int:
        # Processors and homes map onto topology nodes modulo the node
        # count, so a 3-node topology serves a 5-processor machine
        # (several CPUs share a node — physically ordinary).
        nodes = len(self.dist)
        home = self.home_of(addr) % nodes
        return (
            self.dist[writer % nodes][home]
            + self.dist[home][reader % nodes]
        )

    def step(self, memory: MemorySystem, rng: random.Random) -> None:
        self._now += 1
        if not memory.pending_writes():
            self._arrivals.clear()  # every schedule is stale
            return
        live = set()
        for pw in list(memory.pending_writes()):
            live.add(pw.seq)
            schedule = self._arrivals.get(pw.seq)
            if schedule is None:
                schedule = {
                    reader: self._now + self._delay(pw.writer, pw.addr, reader)
                    for reader in pw.remaining
                }
                self._arrivals[pw.seq] = schedule
            for reader in list(pw.remaining):
                if schedule.get(reader, 0) <= self._now:
                    memory.propagate(pw, reader)
        # drop schedules of writes that were flushed or fully delivered
        for seq in list(self._arrivals):
            if seq not in live:
                del self._arrivals[seq]
