"""Exhaustive exploration of a small program's executions.

Definition 2.4 of the paper defines *data-race-free* as a property of a
program over **all** its sequentially consistent executions; a dynamic
detector only ever certifies one.  For small programs this module
closes the gap with one memoized depth-first search over the machine:
from each state it branches on which processor steps next and on which
buffered write the model leaves pending is delivered to which reader
(under SC nothing is ever pending, so the search branches on the
schedule alone).  With the optional exact incremental (vector-clock)
race check on, the SC search decides whether the program is
data-race-free — the property the weak models condition sequential
consistency on.  With it off, the search under a weak model yields the
complete set of final memory states (:mod:`.outcomes`).

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

import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..machine.isa import Imm, Opcode
from ..machine.memory import MemorySystem
from ..machine.models.base import MemoryModel
from ..machine.models.sc import SequentialConsistency
from ..machine.operations import MemoryOperation, SyncRole
from ..machine.processor import Processor
from ..machine.program import Program


class ExplorationLimit(RuntimeError):
    """The state budget was exhausted before a verdict."""


@dataclass
class ExplorationResult:
    """Outcome of exploring every execution of a program."""

    program_is_data_race_free: bool
    executions_explored: int
    states_visited: int
    racing_schedule: Optional[List[int]] = None  # a witness pid sequence
    deadlocked_paths: int = 0


# ----------------------------------------------------------------------
# exact incremental race state (full vector clocks per location)
# ----------------------------------------------------------------------

class _RaceState:
    """Each processor's vector clock; per (access kind, location) the
    clock stamps of its accesses, the kind indexing data read, data
    write, sync read, sync write; and each location's last release."""

    def __init__(self, nproc: int) -> None:
        self.clocks: List[Tuple[int, ...]] = [
            tuple(int(i == p) for i in range(nproc)) for p in range(nproc)
        ]
        self.stamps: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self.released: Dict[int, Tuple[int, Tuple[int, ...]]] = {}

    def clone(self) -> "_RaceState":
        out = _RaceState.__new__(_RaceState)
        out.clocks = list(self.clocks)
        out.stamps = dict(self.stamps)
        out.released = dict(self.released)
        return out

    def key(self) -> Tuple:
        return (tuple(self.clocks), tuple(sorted(self.stamps.items())),
                tuple(sorted(self.released.items())))

    def on_op(self, op: MemoryOperation) -> bool:
        """Process one operation; returns True iff it forms a data race
        (at least one side a data operation) with some earlier op."""
        proc, addr, sync = op.proc, op.addr, op.is_sync
        clock = list(self.clocks[proc])
        rel = self.released.get(addr)
        if op.role is SyncRole.ACQUIRE and rel and rel[0] == op.value:
            clock = [max(mine, tick) for mine, tick in zip(clock, rel[1])]
        # Conflicting means at least one write; sync-sync pairs are not
        # data races (Definition 2.4).
        raced = False
        for kind in range(4):
            if (op.is_write or kind & 1) and not (sync and kind & 2):
                stamp = self.stamps.get((kind, addr))
                if stamp and any(s > c for s, c in zip(stamp, clock)):
                    raced = True
        mine = (2 * sync + op.is_write, addr)
        stamp = list(self.stamps.get(mine, (0,) * len(clock)))
        stamp[proc] = clock[proc]
        self.stamps[mine] = tuple(stamp)
        if op.role is SyncRole.RELEASE:
            clock[proc] += 1
            self.released[addr] = (op.value, tuple(clock))
        elif (op.role is SyncRole.SYNC_ONLY and op.is_write and rel
              and rel[0] != op.value):
            self.released[addr] = (op.value, rel[1])
        if sync:
            clock[proc] += 1
        self.clocks[proc] = tuple(clock)
        return raced


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


# ----------------------------------------------------------------------
# spin-blocking predicates
# ----------------------------------------------------------------------

#: Futile spin iterations: (spin opcode, compare opcode or None, branch
#: back opcode) -> blocked(committed value, immediate operand).
_SPINS = {
    (Opcode.TEST_AND_SET, None, Opcode.BNZ): operator.ne,  # lock(): vs 0
    (Opcode.CAS, None, Opcode.BZ): operator.ne,  # vs the expected value
    (Opcode.ACQ_READ, Opcode.CMP_EQ, Opcode.BZ): operator.ne,  # until_eq
    (Opcode.ACQ_READ, Opcode.CMP_LT, Opcode.BNZ): operator.lt,  # until_ge
}


def _is_blocked(p: Processor, memory: MemorySystem) -> bool:
    """True iff p's next step is a futile spin iteration: a
    :data:`_SPINS` idiom on an unindexed location, testing the spin's
    result, whose branch back the committed value would take again."""
    window = p.thread.instructions[p.pc:p.pc + 3]
    if p.halted or p.pc < 0 or not window:
        return False
    spin = window[0]
    compares = spin.opcode is Opcode.ACQ_READ
    if len(window) < 2 + compares:
        return False
    test, branch = (window[1], window[2]) if compares else (None, window[1])
    blocked = _SPINS.get((spin.opcode, test and test.opcode, branch.opcode))
    if (blocked is None or spin.addr.index is not None
            or p.thread.target_of(branch.label) != p.pc):
        return False
    if compares:
        tested, operand = test.src[0], test.src[1]
    else:
        tested = branch.src[0]
        operand = spin.src[0] if spin.opcode is Opcode.CAS else Imm(0)
    return (tested == spin.dst and isinstance(operand, Imm)
            and blocked(memory._committed[spin.addr.base].value,
                        operand.value))


# ----------------------------------------------------------------------
# the search
# ----------------------------------------------------------------------

def _state_key(processors: List[Processor], memory: MemorySystem) -> Tuple:
    return (
        tuple((p.pc, p.halted, tuple(p.regs), tuple(sorted(p.written)))
              for p in processors),
        tuple(c.value for c in memory._committed),
        tuple(tuple(c.value for c in row) for row in memory._views),
        tuple(sorted(
            (pw.writer, pw.addr, pw.value, tuple(sorted(pw.remaining)))
            for pw in memory._pending)),
    )


def search(
    program: Program, model: MemoryModel, max_states: int, check_races: bool
) -> Tuple[ExplorationResult, Set[Tuple[Tuple[int, int], ...]]]:
    """Every state *program* reaches under *model*, depth first.

    Transitions from each state: one instruction step of any runnable
    processor, or one voluntary delivery of a pending write to one
    reader.  A state is final when every processor halted (its
    committed memory is then final whatever the buffer still holds),
    and deadlocked when none can run and no write is pending.  With
    *check_races*, the first step that forms a data race ends the
    search and its schedule is the witness.

    Returns the statistics (the race fields are meaningful only with
    *check_races*) and the set of final committed memories, each as
    sorted ``(addr, value)`` pairs.
    """
    memory = MemorySystem(max(program.memory_size, 1),
                          program.processor_count, model,
                          program.initial_memory)
    processors = [Processor(pid, t) for pid, t in enumerate(program.threads)]
    races = _RaceState(program.processor_count) if check_races else None
    result = ExplorationResult(True, 0, 0)
    finals: Set[Tuple[Tuple[int, int], ...]] = set()
    seen: Set[Tuple] = set()
    # Entries: (processors, memory, race state, next seq, schedule,
    # raced).  A state's children are pushed in reverse, so they pop in
    # the order a recursive search would visit them, and a child's race
    # flag is read when it pops.  The seq only grows along a path, so
    # the memory's newer-write-wins guard sees issue order.  The
    # schedule is a linked (pid, parent) pair, unwound for a witness.
    work: List[Tuple] = [(processors, memory, races, 0, None, False)]
    while work:
        procs, mem, races, next_seq, schedule, raced = work.pop()
        if raced:
            witness: List[int] = []
            while schedule is not None:
                pid, schedule = schedule
                witness.append(pid)
            result.program_is_data_race_free = False
            result.racing_schedule = witness[::-1]
            break
        key = _state_key(procs, mem)
        if races is not None:
            key = (key, races.key())
        if key in seen:
            continue
        seen.add(key)
        result.states_visited += 1
        if result.states_visited > max_states:
            raise ExplorationLimit(f"exceeded max_states={max_states}")

        runnable = [
            p.pid for p in procs
            if not p.halted and not _is_blocked(p, mem)
        ]
        deliveries = [
            (index, reader)
            for index, pw in enumerate(mem.pending_writes())
            for reader in sorted(pw.remaining)
        ]
        halted = all(p.halted for p in procs)
        if not runnable and (halted or not deliveries):
            if halted:
                result.executions_explored += 1
                finals.add(tuple(sorted(mem.committed_memory().items())))
            else:
                result.deadlocked_paths += 1  # blocked forever
            continue

        children = []
        for pid in runnable:
            # Stepping changes only the stepping processor and memory.
            new_procs = list(procs)
            new_procs[pid] = procs[pid].copy()
            new_mem = mem.copy()
            recorder = _MiniRecorder(start_seq=next_seq)
            new_procs[pid].step(new_mem, recorder)
            new_races = races
            raced = False
            if races is not None:
                new_races = races.clone()
                raced = any(new_races.on_op(op) for op in recorder.ops)
            children.append((new_procs, new_mem, new_races, recorder._seq,
                             (pid, schedule), raced))
        for index, reader in deliveries:
            new_mem = mem.copy()
            new_mem.propagate(new_mem.pending_writes()[index], reader)
            children.append((procs, new_mem, races, next_seq, schedule,
                             False))
        work.extend(reversed(children))
    return result, finals


@dataclass
class ExhaustiveExplorer:
    """The search over every SC execution, with the race check on."""

    program: Program
    max_states: int = 200_000

    def explore(self) -> ExplorationResult:
        return search(self.program, SequentialConsistency(),
                      self.max_states, check_races=True)[0]


def is_program_data_race_free(program: Program, **limits) -> bool:
    """Definition 2.4, decided exactly (for small programs): True iff
    *no* sequentially consistent execution of *program* has a data race."""
    return ExhaustiveExplorer(program, **limits).explore().program_is_data_race_free


def explore_program(program: Program, **limits) -> ExplorationResult:
    """Run the exhaustive exploration and return full statistics."""
    return ExhaustiveExplorer(program, **limits).explore()
