"""The multiprocessor simulator: ties processors, memory model,
propagation policy and scheduler together and produces an
:class:`ExecutionResult` — the complete, ordered operation stream of one
execution plus the ground truth (stale reads, raw SCP cuts, performance
counters) against which the paper's claims are tested.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .. import obs
from .memory import MemorySystem
from .models.base import MemoryModel
from .operations import MemoryOperation
from .processor import Processor
from .program import Program, SymbolTable
from .propagation import PropagationPolicy, RandomPropagation
from .scheduler import RandomScheduler, Scheduler


class _Recorder:
    """Issues global sequence numbers and accumulates operations.

    ``on_operation`` is the live-emission hook: each operation is handed
    to it the moment it is issued, in global order — what an online
    (streaming) detector consumes without waiting for the execution to
    finish.  The recorder still accumulates the full stream; emission is
    in addition to, not instead of, recording.
    """

    def __init__(self, on_operation=None) -> None:
        self.ops: List[MemoryOperation] = []
        self._emit = on_operation
        # Bound C methods: the processor calls both once per operation.
        self.next_seq = itertools.count().__next__
        if on_operation is None:
            self.append = self.ops.append

    def append(self, op: MemoryOperation) -> None:
        self.ops.append(op)
        self._emit(op)


@dataclass
class ProcessorStats:
    """Per-processor performance counters."""

    cycles: int
    stall_cycles: int
    instructions: int
    operations: int


@dataclass
class ExecutionResult:
    """Everything one simulated execution produced.

    ``operations`` is the global issue order; ``raw_scp_cuts[p]`` is the
    local operation index at which processor *p*'s operations stop being
    operations of any sequentially consistent execution (None = never),
    before happens-before closure — see :mod:`repro.core.scp`.
    """

    model_name: str
    seed: Optional[int]
    operations: List[MemoryOperation]
    completed: bool
    steps: int
    final_memory: Dict[int, int]
    stats: List[ProcessorStats]
    raw_scp_cuts: List[Optional[int]]
    registers: List[Dict[str, int]]
    flush_count: int
    propagated_writes: int
    symbols: Optional[SymbolTable] = None
    per_proc: List[List[MemoryOperation]] = field(default_factory=list)
    deliveries_logged: int = 0

    def __post_init__(self) -> None:
        if not self.per_proc:
            per: Dict[int, List[MemoryOperation]] = {
                p: [] for p in range(len(self.stats))
            }
            for op in self.operations:
                per[op.proc].append(op)
            self.per_proc = [per[p] for p in sorted(per)]

    # ------------------------------------------------------------------
    @property
    def processor_count(self) -> int:
        return len(self.stats)

    @property
    def stale_reads(self) -> List[MemoryOperation]:
        return [op for op in self.operations if op.stale]

    @property
    def total_cycles(self) -> int:
        return sum(s.cycles for s in self.stats)

    @property
    def total_stall_cycles(self) -> int:
        return sum(s.stall_cycles for s in self.stats)

    def data_operations(self) -> List[MemoryOperation]:
        return [op for op in self.operations if op.is_data]

    def sync_operations(self) -> List[MemoryOperation]:
        return [op for op in self.operations if op.is_sync]

    def op_by_seq(self, seq: int) -> MemoryOperation:
        op = self.operations[seq] if seq < len(self.operations) else None
        if op is not None and op.seq == seq:
            return op
        for candidate in self.operations:  # pragma: no cover - fallback
            if candidate.seq == seq:
                return candidate
        raise KeyError(f"no operation with seq {seq}")

    def addr_name(self, addr: int) -> str:
        if self.symbols is not None:
            return self.symbols.name_of(addr)
        return f"@{addr}"

    def describe_op(self, op: MemoryOperation) -> str:
        return op.describe(self.addr_name(op.addr))

    def value_of(self, name: str) -> int:
        """Final committed value of a named location."""
        if self.symbols is None:
            raise ValueError("execution has no symbol table")
        return self.final_memory[self.symbols.addr_of(name)]


class Simulator:
    """Runs a :class:`Program` under a memory model to completion."""

    def __init__(
        self,
        program: Program,
        model: MemoryModel,
        scheduler: Optional[Scheduler] = None,
        propagation: Optional[PropagationPolicy] = None,
        seed: Optional[int] = 0,
        on_operation=None,
    ) -> None:
        self.program = program
        self.model = model
        self.scheduler = scheduler or RandomScheduler()
        self.propagation = propagation or RandomPropagation()
        self.seed = seed
        self.rng = random.Random(seed)
        self.on_operation = on_operation

    def run(self, max_steps: int = 200_000) -> ExecutionResult:
        """Simulate until all processors halt or *max_steps* elapse."""
        with obs.span("simulate") as sp:
            result = self._run(max_steps)
            if sp.enabled:
                sp.add("steps", result.steps)
                sp.add("operations", len(result.operations))
                sp.add("flushes", result.flush_count)
                sp.add("propagated_writes", result.propagated_writes)
                if result.deliveries_logged:
                    sp.add("deliveries_logged", result.deliveries_logged)
        return result

    def _run(self, max_steps: int) -> ExecutionResult:
        memory = MemorySystem(
            size=max(self.program.memory_size, 1),
            processor_count=self.program.processor_count,
            model=self.model,
            initial=self.program.initial_memory,
        )
        processors = [
            Processor(pid, thread)
            for pid, thread in enumerate(self.program.threads)
        ]
        recorder = _Recorder(on_operation=self.on_operation)
        steps = 0
        # The runnable set is maintained incrementally: only the stepped
        # processor can halt, so a per-iteration rebuild is pure waste on
        # the hot loop.  list.remove keeps pid order, which the RNG-
        # driven schedulers depend on for reproducibility.
        runnable = [p.pid for p in processors if not p.halted]
        rng = self.rng
        propagation_step = self.propagation.step
        scheduler_pick = self.scheduler.pick
        while steps < max_steps and runnable:
            propagation_step(memory, rng)
            proc = processors[scheduler_pick(runnable, rng)]
            # Processor.step without the halted check: runnable
            # processors never are.
            proc.code[proc.pc](proc, memory, recorder)
            if proc.halted:
                runnable.remove(proc.pid)
            steps += 1

        completed = not runnable
        stats = [
            ProcessorStats(
                cycles=p.cycles,
                stall_cycles=p.stall_cycles,
                instructions=p.instructions_executed,
                operations=p.local_index,
            )
            for p in processors
        ]
        return ExecutionResult(
            model_name=self.model.name,
            seed=self.seed,
            operations=recorder.ops,
            completed=completed,
            steps=steps,
            final_memory=memory.committed_memory(),
            stats=stats,
            raw_scp_cuts=[p.raw_scp_cut for p in processors],
            registers=[p.registers() for p in processors],
            flush_count=memory.flush_count,
            propagated_writes=memory.propagated_writes,
            symbols=self.program.symbols,
            deliveries_logged=memory.deliveries_logged,
        )


def run_program(
    program: Program,
    model: MemoryModel,
    scheduler: Optional[Scheduler] = None,
    propagation: Optional[PropagationPolicy] = None,
    seed: Optional[int] = 0,
    max_steps: int = 200_000,
) -> ExecutionResult:
    """Convenience wrapper: build a :class:`Simulator` and run it."""
    sim = Simulator(program, model, scheduler, propagation, seed)
    return sim.run(max_steps=max_steps)
