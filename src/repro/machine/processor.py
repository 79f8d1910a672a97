"""The simulated processor: executes one instruction per scheduler step.

Each thread is decoded once, on its first run, into one closure per
instruction with every operand resolved: registers and immediates are
slots of a flat register file (an immediate is a constant slot, never
written), a scalar address indexes the constant-0 slot, and jump
targets are pc values.  A step is one call of the closure at ``pc``.

Besides ordinary interpretation, the processor maintains the simulator's
ground-truth *taint* state used to extract the sequentially consistent
prefix (section 3.2 of the paper):

* a register becomes tainted when it receives a value from a stale read
  (or from a memory cell whose value was produced from tainted inputs);
* control flow becomes tainted when a branch tests a tainted register;
* the identity of a memory operation (location + program point, the
  paper's definition in section 2.1) is tainted when the processor's
  control flow is tainted or its effective address uses a tainted
  register.

The first identity-tainted operation of a processor marks the raw cut
point after which the processor's operations can no longer be operations
of any sequentially consistent execution: its existence or address
depends on a value no SC execution could have produced.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Optional, Protocol, Tuple

from .isa import Imm, Opcode, Reg
from .memory import MemorySystem
from .operations import MemoryOperation, OperationKind, SyncRole, new_operation
from .program import SymbolError, ThreadProgram


class Recorder(Protocol):
    """Supplies global sequence numbers and collects operation records."""

    def next_seq(self) -> int: ...

    def append(self, op: MemoryOperation) -> None: ...


class Processor:
    """One CPU: register file, program counter, taint state, counters."""

    def __init__(self, pid: int, thread: ThreadProgram) -> None:
        self.pid = pid
        self.thread = thread
        # A register slot starts at 0 with taint None (never written).
        self.code, self._names, regs, taint = thread.decoded
        self.regs = list(regs)
        self.taint = list(taint)
        self.written: List[int] = []  # register slots, first write first
        self.pc = 0
        self.halted = len(thread) == 0
        self.control_taint = False
        self.local_index = 0  # memory operations issued so far
        self.raw_scp_cut: Optional[int] = None
        self.stall_cycles = 0
        self.instructions_executed = 0

    def copy(self) -> "Processor":
        """An independent processor in the same state."""
        out = Processor.__new__(Processor)
        out.__dict__.update(self.__dict__)
        out.regs, out.taint = list(self.regs), list(self.taint)
        out.written = list(self.written)
        return out

    @property
    def cycles(self) -> int:
        """One issue cycle per instruction plus the stall cycles."""
        return self.instructions_executed + self.stall_cycles

    def registers(self) -> Dict[str, int]:
        """Every written register's value, in first-write order."""
        return {self._names[slot]: self.regs[slot] for slot in self.written}

    def step(self, memory: MemorySystem, recorder: Recorder) -> None:
        """Execute the instruction at ``pc`` (a no-op when halted)."""
        if not self.halted:
            self.code[self.pc](self, memory, recorder)


# ----------------------------------------------------------------------
# the decoder
# ----------------------------------------------------------------------

def decode(thread: ThreadProgram) -> Tuple[list, Dict[int, str], list, list]:
    """Decode *thread*: (code, slot -> register name, initial register
    values, initial taints).  ``code[pc]`` executes the instruction at
    ``pc``; one extra entry halts a processor that runs off the end."""
    names: Dict[int, str] = {}
    regs: List[int] = []
    taint: List[Optional[bool]] = []
    slots: Dict[object, int] = {}

    def slot(operand) -> int:
        if operand not in slots:
            slots[operand] = len(regs)
            is_reg = isinstance(operand, Reg)
            if is_reg:
                names[len(regs)] = operand.name
            regs.append(0 if is_reg else operand.value)
            taint.append(None if is_reg else False)
        return slots[operand]

    code = []
    for pc, i in enumerate(thread.instructions):
        op, src = i.opcode, i.src
        if op is Opcode.MOV:  # dst = src + 0
            op, src = Opcode.ADD, src + (Imm(0),)
        elif op is Opcode.UNSET:  # release the constant 0
            op, src = Opcode.REL_WRITE, (Imm(0),)
        operands = [slot(s) for s in src]
        if i.addr is not None:
            operands += [i.addr.base, slot(i.addr.index or Imm(0))]
        if i.label is not None:
            target = thread.target_of(i.label)
            if not 0 <= target <= len(thread):
                raise SymbolError(f"label {i.label!r} targets pc {target} "
                                  f"outside 0..{len(thread)}")
            operands.append(target)
        dst = slot(i.dst) if i.dst is not None else None
        code.append(_DECODERS[op](pc, dst, *operands))
    code.append(_fall_off)
    return code, names, regs, taint


def _fall_off(p: Processor, m: MemorySystem, r: Recorder) -> None:
    p.halted = True  # ran past the last instruction: halts, uncounted


_READ, _WRITE = OperationKind.READ, OperationKind.WRITE
_NONE, _ACQUIRE = SyncRole.NONE, SyncRole.ACQUIRE


def _read(pc, d, base, ix):
    def read(p, m, r):
        regs, taint = p.regs, p.taint
        ea = base + regs[ix]
        if p.raw_scp_cut is None and (p.control_taint or taint[ix]):
            p.raw_scp_cut = p.local_index
        value, observed, stale, tainted = m.load_data(p.pid, ea)
        r.append(new_operation(r.next_seq(), p.pid, p.local_index, _READ,
                               _NONE, ea, value, observed, stale, pc))
        p.local_index += 1
        regs[d] = value
        if taint[d] is None:
            p.written.append(d)
        taint[d] = tainted or p.control_taint
        p.stall_cycles += m.model.data_read_stall()
        p.pc = pc + 1
        p.instructions_executed += 1
    return read


def _write(pc, d, a, base, ix):
    def write(p, m, r):
        regs, taint = p.regs, p.taint
        ea = base + regs[ix]
        if p.raw_scp_cut is None and (p.control_taint or taint[ix]):
            p.raw_scp_cut = p.local_index
        value = regs[a]
        seq = r.next_seq()
        m.write_data(p.pid, ea, value, seq, taint[a] or p.control_taint)
        r.append(new_operation(seq, p.pid, p.local_index, _WRITE, _NONE,
                               ea, value, None, False, pc))
        p.local_index += 1
        p.stall_cycles += m.model.data_write_stall()
        p.pc = pc + 1
        p.instructions_executed += 1
    return write


def _address(p: Processor, base: int, ix: int) -> int:
    """A sync operation's effective address (READ and WRITE inline
    this); records the SCP cut at the first identity-tainted operation."""
    if p.raw_scp_cut is None and (p.control_taint or p.taint[ix]):
        p.raw_scp_cut = p.local_index
    return base + p.regs[ix]


def _acquire(p, m, r, pc, ea) -> Tuple[int, bool, int]:
    """The acquire read of ACQ_READ, TEST_AND_SET and CAS: flush if the
    model demands it, then read the committed value.  Returns (value,
    taint, stall cycles)."""
    flushed = m.pre_sync_read_flush(p.pid, _ACQUIRE)
    value, observed, stale, tainted = m.load_sync(p.pid, ea)
    r.append(new_operation(r.next_seq(), p.pid, p.local_index, _READ,
                           _ACQUIRE, ea, value, observed, stale, pc))
    p.local_index += 1
    return value, tainted, m.model.sync_read_stall(_ACQUIRE, flushed)


def _sync_write(p, m, r, pc, ea, value, tainted, role) -> int:
    """A synchronization write; returns its stall cycles."""
    seq = r.next_seq()
    flushed = m.write_sync(p.pid, ea, value, seq, tainted, role)
    r.append(new_operation(seq, p.pid, p.local_index, _WRITE, role, ea,
                           value, None, False, pc))
    p.local_index += 1
    return m.model.sync_write_stall(role, flushed)


def _finish(p: Processor, pc: int, d: int, value: int, tainted, stall) -> None:
    """Write dst, charge the stall and advance past a sync read."""
    p.regs[d] = value
    if p.taint[d] is None:
        p.written.append(d)
    p.taint[d] = tainted or p.control_taint
    p.stall_cycles += stall
    p.pc = pc + 1
    p.instructions_executed += 1


def _acq_read(pc, d, base, ix):
    def acq_read(p, m, r):
        _finish(p, pc, d, *_acquire(p, m, r, pc, _address(p, base, ix)))
    return acq_read


def _test_and_set(pc, d, base, ix):
    def test_and_set(p, m, r):
        ea = _address(p, base, ix)
        value, tainted, stall = _acquire(p, m, r, pc, ea)
        # The write half of a Test&Set is synchronization but NOT a
        # release (section 2.1 of the paper): it communicates nothing
        # about prior operations of this processor.  Store-buffer models
        # (TSO/PSO) still drain the buffer here — write_sync flushes
        # when the model flushes at SYNC_ONLY — matching RMW drain
        # semantics on real hardware.
        stall += _sync_write(p, m, r, pc, ea, 1, p.control_taint,
                             SyncRole.SYNC_ONLY)
        _finish(p, pc, d, value, tainted, stall)
    return test_and_set


def _cas(pc, d, expected, new, base, ix):
    """Compare-and-swap: atomically read; if the value equals the
    expected operand, write the new value and set dst to 1, else leave
    memory untouched and set dst to 0.  Like Test&Set, the read half is
    an acquire and the (conditional) write half communicates nothing
    about prior operations — it is synchronization, not a release."""
    def cas(p, m, r):
        ea = _address(p, base, ix)
        want, value = p.regs[expected], p.regs[new]
        old, tainted, stall = _acquire(p, m, r, pc, ea)
        if old == want:
            stall += _sync_write(p, m, r, pc, ea, value,
                                 p.taint[new] or p.control_taint,
                                 SyncRole.SYNC_ONLY)
        _finish(p, pc, d, 1 if old == want else 0,
                tainted or p.taint[expected], stall)
    return cas


def _rel_write(pc, d, a, base, ix):
    def rel_write(p, m, r):
        p.stall_cycles += _sync_write(
            p, m, r, pc, _address(p, base, ix), p.regs[a],
            p.taint[a] or p.control_taint, SyncRole.RELEASE)
        p.pc = pc + 1
        p.instructions_executed += 1
    return rel_write


def _fence(pc, d):
    def fence(p, m, r):
        p.stall_cycles += m.model.costs.drain_per_write * m.flush(p.pid)
        p.pc = pc + 1
        p.instructions_executed += 1
    return fence


def _binop(fn):
    def decode_binop(pc, d, a, b):
        def binop(p, m, r):
            regs, taint = p.regs, p.taint
            regs[d] = fn(regs[a], regs[b])
            if taint[d] is None:
                p.written.append(d)
            taint[d] = taint[a] or taint[b] or p.control_taint
            p.pc = pc + 1
            p.instructions_executed += 1
        return binop
    return decode_binop


def _jmp(pc, d, target):
    def jmp(p, m, r):
        p.pc = target
        p.instructions_executed += 1
    return jmp


def _branch(if_zero):
    def decode_branch(pc, d, a, target):
        def branch(p, m, r):
            if p.taint[a]:
                p.control_taint = True
            p.pc = target if (p.regs[a] == 0) is if_zero else pc + 1
            p.instructions_executed += 1
        return branch
    return decode_branch


def _halt(pc, d):
    def halt(p, m, r):
        p.halted = True
        p.instructions_executed += 1
    return halt


_DECODERS = {
    Opcode.READ: _read,
    Opcode.WRITE: _write,
    Opcode.TEST_AND_SET: _test_and_set,
    Opcode.CAS: _cas,
    Opcode.ACQ_READ: _acq_read,
    Opcode.REL_WRITE: _rel_write,
    Opcode.FENCE: _fence,
    Opcode.ADD: _binop(operator.add),
    Opcode.SUB: _binop(operator.sub),
    Opcode.MUL: _binop(operator.mul),
    Opcode.CMP_EQ: _binop(lambda a, b: 1 if a == b else 0),
    Opcode.CMP_LT: _binop(lambda a, b: 1 if a < b else 0),
    Opcode.JMP: _jmp,
    Opcode.NOP: lambda pc, d: _jmp(pc, d, pc + 1),
    Opcode.BZ: _branch(True),
    Opcode.BNZ: _branch(False),
    Opcode.HALT: _halt,
}
