"""Exhaustive exploration of sequentially consistent executions.

Definition 2.4 of the paper defines *data-race-free* as a property of a
program over **all** its sequentially consistent executions; a dynamic
detector only ever certifies one.  For small programs this module
closes the gap: a depth-first search over every scheduler choice under
SC, with an exact incremental (vector-clock) race check along each
path, decides whether the program is data-race-free — the property the
weak models condition sequential consistency on.

Spin idioms.  Unbounded exploration of spin loops never terminates, so
processors whose next step is a *futile* spin iteration are treated as
blocked rather than schedulable:

* ``Test&Set L`` followed by a conditional branch back to it, while L
  is nonzero (the builder's ``lock()``), and
* ``AcqRead f`` followed by a compare-and-branch back to it while the
  predicate fails (``spin_until_eq`` / ``spin_until_ge``).

Skipping futile iterations is sound for race detection under the
builder's idioms: a futile Test&Set read observes a SYNC_ONLY write
(never pairs), and a futile flag read either fails to pair or pairs
with a release that the eventually-successful read's release follows in
program order (monotone flags), so no hb1 ordering is lost or gained.
States (machine + clock summaries) are memoized to prune confluent
interleavings; search size is bounded and exceeding the bound raises
:class:`ExplorationLimit` rather than returning a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..machine.isa import Opcode, Reg
from ..machine.memory import MemorySystem
from ..machine.models.sc import SequentialConsistency
from ..machine.operations import MemoryOperation, SyncRole
from ..machine.processor import Processor
from ..machine.program import Program, ThreadProgram


class ExplorationLimit(RuntimeError):
    """The state/execution budget was exhausted before a verdict."""


@dataclass
class ExplorationResult:
    """Outcome of exploring every SC execution of a program."""

    program_is_data_race_free: bool
    executions_explored: int
    states_visited: int
    racing_schedule: Optional[List[int]] = None  # a witness pid sequence
    deadlocked_paths: int = 0


# ----------------------------------------------------------------------
# exact incremental race state (full vector clocks per location)
# ----------------------------------------------------------------------

class _RaceState:
    """Per-location read/write clock vectors; exact race detection."""

    def __init__(self, nproc: int) -> None:
        self.nproc = nproc
        self.clocks: List[List[int]] = [
            [1 if i == p else 0 for i in range(nproc)] for p in range(nproc)
        ]
        self.read_clock: Dict[int, List[int]] = {}
        self.write_clock: Dict[int, List[int]] = {}
        # sync accesses tracked separately: they race only with *data*
        # accesses (Definition 2.4 excludes sync-sync pairs).
        self.sync_read_clock: Dict[int, List[int]] = {}
        self.sync_write_clock: Dict[int, List[int]] = {}
        self.released: Dict[int, Tuple[int, Tuple[int, ...]]] = {}

    def clone(self) -> "_RaceState":
        out = _RaceState.__new__(_RaceState)
        out.nproc = self.nproc
        out.clocks = [list(c) for c in self.clocks]
        out.read_clock = {a: list(c) for a, c in self.read_clock.items()}
        out.write_clock = {a: list(c) for a, c in self.write_clock.items()}
        out.sync_read_clock = {
            a: list(c) for a, c in self.sync_read_clock.items()
        }
        out.sync_write_clock = {
            a: list(c) for a, c in self.sync_write_clock.items()
        }
        out.released = dict(self.released)
        return out

    def key(self) -> Tuple:
        return (
            tuple(tuple(c) for c in self.clocks),
            tuple(sorted((a, tuple(c)) for a, c in self.read_clock.items())),
            tuple(sorted((a, tuple(c)) for a, c in self.write_clock.items())),
            tuple(sorted(
                (a, tuple(c)) for a, c in self.sync_read_clock.items()
            )),
            tuple(sorted(
                (a, tuple(c)) for a, c in self.sync_write_clock.items()
            )),
            tuple(sorted(self.released.items())),
        )

    # -- helpers ---------------------------------------------------------
    def _dominates(self, proc: int, stored: List[int]) -> bool:
        mine = self.clocks[proc]
        return all(mine[i] >= stored[i] for i in range(self.nproc))

    def _stamp(self, table: Dict[int, List[int]], addr: int, proc: int) -> None:
        clock = table.setdefault(addr, [0] * self.nproc)
        clock[proc] = self.clocks[proc][proc]

    # -- operation hooks ---------------------------------------------------
    def on_op(self, op: MemoryOperation) -> bool:
        """Process one operation; returns True iff it forms a data race
        (at least one side a data operation) with some earlier op."""
        proc = op.proc
        if op.is_sync:
            clock = self.clocks[proc]
            if op.role is SyncRole.ACQUIRE:
                rel = self.released.get(op.addr)
                if rel is not None and rel[0] == op.value:
                    for i, tick in enumerate(rel[1]):
                        if tick > clock[i]:
                            clock[i] = tick
            # A sync access races with concurrent *data* accesses to the
            # same location (sync-sync pairs are not data races).
            raced = self._check_and_stamp(
                op,
                check_reads=(self.read_clock,) if op.is_write else (),
                check_writes=(self.write_clock,),
                stamp=(
                    self.sync_write_clock if op.is_write
                    else self.sync_read_clock
                ),
            )
            if op.role is SyncRole.RELEASE:
                clock[proc] += 1
                self.released[op.addr] = (op.value, tuple(clock))
            elif op.role is SyncRole.SYNC_ONLY and op.is_write:
                rel = self.released.get(op.addr)
                if rel is not None and rel[0] != op.value:
                    self.released[op.addr] = (op.value, rel[1])
            clock[proc] += 1
            return raced

        return self._check_and_stamp(
            op,
            check_reads=(
                (self.read_clock, self.sync_read_clock) if op.is_write else ()
            ),
            check_writes=(self.write_clock, self.sync_write_clock),
            stamp=self.write_clock if op.is_write else self.read_clock,
        )

    def _check_and_stamp(self, op, check_reads, check_writes, stamp) -> bool:
        raced = False
        for table in check_writes:
            clock = table.get(op.addr)
            if clock is not None and not self._dominates(op.proc, clock):
                raced = True
        if op.is_write:
            for table in check_reads:
                clock = table.get(op.addr)
                if clock is not None and not self._dominates(op.proc, clock):
                    raced = True
        self._stamp(stamp, op.addr, op.proc)
        return raced


# ----------------------------------------------------------------------
# machine-state snapshot/restore
# ----------------------------------------------------------------------

class _MiniRecorder:
    def __init__(self, start_seq: int = 0) -> None:
        self.ops: List[MemoryOperation] = []
        self._seq = start_seq

    def next_seq(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    def append(self, op: MemoryOperation) -> None:
        self.ops.append(op)


def _machine_key(processors: List[Processor], memory: MemorySystem) -> Tuple:
    procs = tuple(
        (p.pc, p.halted, tuple(sorted(p.registers().items())))
        for p in processors
    )
    cells = tuple(c.value for c in memory._committed)
    return (procs, cells)


# ----------------------------------------------------------------------
# spin-blocking predicates
# ----------------------------------------------------------------------

def _branch_target(thread: ThreadProgram, index: int) -> Optional[int]:
    instr = thread.instructions[index]
    if instr.opcode in (Opcode.BZ, Opcode.BNZ, Opcode.JMP):
        return thread.target_of(instr.label)
    return None


def _is_blocked(p: Processor, memory: MemorySystem) -> bool:
    """True iff p's next step is a futile spin iteration."""
    if p.halted or not 0 <= p.pc < len(p.thread):
        return False
    instr = p.thread.instructions[p.pc]
    thread = p.thread

    if instr.opcode is Opcode.TEST_AND_SET and p.pc + 1 < len(thread):
        follow = thread.instructions[p.pc + 1]
        if (
            follow.opcode is Opcode.BNZ
            and isinstance(follow.src[0], Reg)
            and follow.src[0] == instr.dst
            and _branch_target(thread, p.pc + 1) == p.pc
        ):
            if instr.addr.index is None:
                return memory._committed[instr.addr.base].value != 0
    if instr.opcode is Opcode.CAS and p.pc + 1 < len(thread):
        # `cas r, L, exp, new ; bz r, back` spins while the committed
        # value differs from the expected operand.
        follow = thread.instructions[p.pc + 1]
        if (
            follow.opcode is Opcode.BZ
            and isinstance(follow.src[0], Reg)
            and follow.src[0] == instr.dst
            and _branch_target(thread, p.pc + 1) == p.pc
            and instr.addr.index is None
        ):
            from ..machine.isa import Imm
            expected = instr.src[0]
            if isinstance(expected, Imm):
                return memory._committed[instr.addr.base].value != expected.value
    if instr.opcode is Opcode.ACQ_READ and p.pc + 2 < len(thread):
        cmp_i = thread.instructions[p.pc + 1]
        br_i = thread.instructions[p.pc + 2]
        if (
            cmp_i.opcode in (Opcode.CMP_EQ, Opcode.CMP_LT)
            and cmp_i.src[0] == instr.dst
            and br_i.opcode in (Opcode.BZ, Opcode.BNZ)
            and _branch_target(thread, p.pc + 2) == p.pc
            and instr.addr.index is None
        ):
            from ..machine.isa import Imm
            if not isinstance(cmp_i.src[1], Imm):
                return False
            value = memory._committed[instr.addr.base].value
            bound = cmp_i.src[1].value
            if cmp_i.opcode is Opcode.CMP_EQ and br_i.opcode is Opcode.BZ:
                return value != bound      # spin_until_eq: blocked while !=
            if cmp_i.opcode is Opcode.CMP_LT and br_i.opcode is Opcode.BNZ:
                return value < bound       # spin_until_ge: blocked while <
    return False


# ----------------------------------------------------------------------
# the explorer
# ----------------------------------------------------------------------

@dataclass
class ExhaustiveExplorer:
    """DFS over every SC interleaving of a (small) program."""

    program: Program
    max_states: int = 200_000
    max_executions: int = 100_000
    max_depth: int = 2_000

    _memo: Set[Tuple] = field(default_factory=set, repr=False)

    def explore(self) -> ExplorationResult:
        memory = MemorySystem(
            size=max(self.program.memory_size, 1),
            processor_count=self.program.processor_count,
            model=SequentialConsistency(),
            initial=self.program.initial_memory,
        )
        processors = [
            Processor(pid, thread)
            for pid, thread in enumerate(self.program.threads)
        ]
        race_state = _RaceState(self.program.processor_count)
        self._memo.clear()
        stats = {"executions": 0, "states": 0, "deadlocks": 0}
        witness = self._dfs(processors, memory, race_state, [], 0, stats)
        return ExplorationResult(
            program_is_data_race_free=witness is None,
            executions_explored=stats["executions"],
            states_visited=stats["states"],
            racing_schedule=witness,
            deadlocked_paths=stats["deadlocks"],
        )

    def _dfs(
        self,
        processors: List[Processor],
        memory: MemorySystem,
        race_state: _RaceState,
        path: List[int],
        depth: int,
        stats: Dict[str, int],
    ) -> Optional[List[int]]:
        if depth > self.max_depth:
            raise ExplorationLimit(
                f"path exceeded max_depth={self.max_depth} "
                f"(unbounded loop not covered by spin-blocking?)"
            )
        key = (_machine_key(processors, memory), race_state.key())
        if key in self._memo:
            return None
        self._memo.add(key)
        stats["states"] += 1
        if stats["states"] > self.max_states:
            raise ExplorationLimit(f"exceeded max_states={self.max_states}")

        runnable = [
            p.pid for p in processors
            if not p.halted and not _is_blocked(p, memory)
        ]
        if not runnable:
            if all(p.halted for p in processors):
                stats["executions"] += 1
                if stats["executions"] > self.max_executions:
                    raise ExplorationLimit(
                        f"exceeded max_executions={self.max_executions}"
                    )
            else:
                stats["deadlocks"] += 1  # blocked forever: no execution
            return None

        for pid in runnable:
            new_procs = [p.copy() for p in processors]
            new_mem = memory.copy()
            new_race = race_state.clone()
            recorder = _MiniRecorder()
            new_procs[pid].step(new_mem, recorder)
            raced = any(new_race.on_op(op) for op in recorder.ops)
            path.append(pid)
            if raced:
                return list(path)
            witness = self._dfs(
                new_procs, new_mem, new_race, path, depth + 1, stats
            )
            if witness is not None:
                return witness
            path.pop()
        return None


def is_program_data_race_free(program: Program, **limits) -> bool:
    """Definition 2.4, decided exactly (for small programs): True iff
    *no* sequentially consistent execution of *program* has a data race."""
    return ExhaustiveExplorer(program, **limits).explore().program_is_data_race_free


def explore_program(program: Program, **limits) -> ExplorationResult:
    """Run the exhaustive exploration and return full statistics."""
    return ExhaustiveExplorer(program, **limits).explore()
