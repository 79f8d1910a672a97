"""Exhaustive outcome enumeration for litmus-sized programs.

Where :mod:`.exhaustive` explores every *sequentially consistent*
schedule, this module explores every behaviour a **weak** model admits:
the search branches both on which processor steps next and on which
buffered write is voluntarily delivered to which reader.  The result is
the complete set of final memory states — the litmus-test outcome table
(what tools like herd produce for real architectures, produced here for
the simulated models).

This makes the model-separation claims checkable rather than anecdotal:
the store-buffering "both read 0" outcome is *absent* from SC's outcome
set and *present* in WO's; a data-race-free program's outcome set is
identical on every model (the semantic content of the weak models'
SC-for-DRF guarantee).

State explosion is real: one extra choice point per (pending write x
reader) pair per step.  The enumerator is for litmus-sized programs;
it raises :class:`OutcomeLimit` beyond its budget rather than returning
a partial answer silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..machine.memory import MemorySystem
from ..machine.models.base import MemoryModel
from ..machine.processor import Processor
from ..machine.program import Program
from .exhaustive import _MiniRecorder, _is_blocked


class OutcomeLimit(RuntimeError):
    """The exploration exceeded its state budget."""


@dataclass
class OutcomeSet:
    """All final memory states a program admits under one model."""

    program: Program
    model_name: str
    outcomes: Set[Tuple[Tuple[int, int], ...]]
    states_visited: int
    deadlocked_paths: int = 0

    def values_of(self, *names: str) -> Set[Tuple[int, ...]]:
        """Project the outcome set onto named locations."""
        addrs = [self.program.symbols.addr_of(name) for name in names]
        out: Set[Tuple[int, ...]] = set()
        for outcome in self.outcomes:
            memory = dict(outcome)
            out.add(tuple(memory.get(addr, 0) for addr in addrs))
        return out

    def __len__(self) -> int:
        return len(self.outcomes)


def _state_key(processors: List[Processor], memory: MemorySystem) -> Tuple:
    procs = tuple(
        (p.pc, p.halted, tuple(sorted(p.registers().items())))
        for p in processors
    )
    cells = tuple(c.value for c in memory._committed)
    views = tuple(
        tuple(c.value for c in row) for row in memory._views
    )
    pending = tuple(sorted(
        (pw.writer, pw.addr, pw.value, tuple(sorted(pw.remaining)))
        for pw in memory._pending
    ))
    return (procs, cells, views, pending)


def enumerate_outcomes(
    program: Program,
    model: MemoryModel,
    max_states: int = 300_000,
    interesting: Optional[List[str]] = None,
) -> OutcomeSet:
    """Every final memory state *program* admits under *model*.

    Transitions from each state: one instruction step of any runnable
    processor, or one voluntary delivery of a pending write to one
    reader.  Every path must eventually drain its buffer (final states
    are only recorded when all processors halted AND the buffer is
    empty — quiescence, matching the simulator's completed executions).

    Args:
        interesting: optional location names; when given, outcomes are
            deduplicated by those locations only, which can shrink the
            recorded set (the search itself is unaffected).
    """
    memory = MemorySystem(
        size=max(program.memory_size, 1),
        processor_count=program.processor_count,
        model=model,
        initial=program.initial_memory,
    )
    processors = [
        Processor(pid, thread) for pid, thread in enumerate(program.threads)
    ]
    keep_addrs = None
    if interesting is not None:
        keep_addrs = [program.symbols.addr_of(name) for name in interesting]

    outcomes: Set[Tuple[Tuple[int, int], ...]] = set()
    seen: Set[Tuple] = set()
    stats = {"states": 0, "deadlocks": 0}

    def record_outcome(memory: MemorySystem) -> None:
        snapshot = memory.committed_memory()
        if keep_addrs is not None:
            outcome = tuple((a, snapshot.get(a, 0)) for a in keep_addrs)
        else:
            outcome = tuple(sorted(snapshot.items()))
        outcomes.add(outcome)

    # Explicit worklist (depth-first) — litmus paths are short but
    # Python's recursion limit shouldn't be the enumerator's limit.
    work: List[Tuple[List[Processor], MemorySystem, int]] = [
        (processors, memory, 0)
    ]
    while work:
        procs, mem, next_seq = work.pop()
        key = _state_key(procs, mem)
        if key in seen:
            continue
        seen.add(key)
        stats["states"] += 1
        if stats["states"] > max_states:
            raise OutcomeLimit(f"exceeded max_states={max_states}")

        runnable = [
            p.pid for p in procs
            if not p.halted and not _is_blocked(p, mem)
        ]
        deliveries = [
            (pw.seq, reader)
            for pw in mem.pending_writes()
            for reader in sorted(pw.remaining)
        ]
        all_halted = all(p.halted for p in procs)
        if not runnable and (not deliveries or all_halted):
            # Quiescent, or halted with only buffer drains left (the
            # committed state is already final either way).
            if all_halted:
                record_outcome(mem)
            else:
                stats["deadlocks"] += 1
            continue

        for pid in runnable:
            new_procs = [p.copy() for p in procs]
            new_mem = mem.copy()
            # Seq numbers stay globally monotone along each path so the
            # memory system's newer-write-wins guard behaves correctly.
            recorder = _MiniRecorder(start_seq=next_seq)
            new_procs[pid].step(new_mem, recorder)
            work.append((new_procs, new_mem, recorder._seq))

        for seq, reader in deliveries:
            new_mem = mem.copy()
            for pw in new_mem.pending_writes():
                if pw.seq == seq:
                    new_mem.propagate(pw, reader)
                    break
            work.append((
                [p.copy() for p in procs], new_mem, next_seq
            ))
    return OutcomeSet(
        program=program,
        model_name=model.name,
        outcomes=outcomes,
        states_visited=stats["states"],
        deadlocked_paths=stats["deadlocks"],
    )
