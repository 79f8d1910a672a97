"""The simulated machine's instruction set.

A small register machine, rich enough to express the paper's example
programs (the Figure 2 work queue, Test&Set/Unset critical sections,
spin loops) and arbitrary generated workloads:

* data memory:      ``READ``, ``WRITE``
* synchronization:  ``TEST_AND_SET``, ``UNSET``, ``ACQ_READ``, ``REL_WRITE``,
                    ``FENCE``
* ALU:              ``MOV``, ``ADD``, ``SUB``, ``MUL``, ``CMP_EQ``, ``CMP_LT``
* control:          ``JMP``, ``BZ``, ``BNZ``, ``HALT``, ``NOP``

Operands are either registers (by name) or immediates; address operands
may additionally be register+offset for array indexing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union


class Opcode(enum.Enum):
    READ = "read"
    WRITE = "write"
    TEST_AND_SET = "test_and_set"
    CAS = "cas"
    UNSET = "unset"
    ACQ_READ = "acq_read"
    REL_WRITE = "rel_write"
    FENCE = "fence"
    MOV = "mov"
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    CMP_EQ = "cmp_eq"
    CMP_LT = "cmp_lt"
    JMP = "jmp"
    BZ = "bz"
    BNZ = "bnz"
    HALT = "halt"
    NOP = "nop"


@dataclass(frozen=True)
class Reg:
    """A register operand, identified by name."""

    name: str

    def __repr__(self) -> str:
        return f"%{self.name}"


@dataclass(frozen=True)
class Imm:
    """An immediate integer operand."""

    value: int

    def __repr__(self) -> str:
        return f"#{self.value}"


Operand = Union[Reg, Imm]


@dataclass(frozen=True)
class Addr:
    """An address operand: ``base`` plus optional register index.

    The effective address is ``base + registers[index]`` when *index*
    is set, else just ``base`` — enough for scalar and array accesses.
    """

    base: int
    index: Optional[Reg] = None

    def __repr__(self) -> str:
        if self.index is not None:
            return f"[{self.base}+{self.index!r}]"
        return f"[{self.base}]"


@dataclass(frozen=True)
class Instruction:
    """One static instruction.

    The operand tuple's meaning depends on the opcode; see
    :func:`repro.machine.processor.decode` for the decoder.
    ``label`` is a symbolic jump target resolved by the thread program.
    """

    opcode: Opcode
    dst: Optional[Reg] = None
    src: Tuple[Operand, ...] = field(default_factory=tuple)
    addr: Optional[Addr] = None
    label: Optional[str] = None

    def __post_init__(self) -> None:
        _validate(self)

    def __repr__(self) -> str:
        parts = [self.opcode.value]
        if self.dst is not None:
            parts.append(repr(self.dst))
        parts.extend(repr(s) for s in self.src)
        if self.addr is not None:
            parts.append(repr(self.addr))
        if self.label is not None:
            parts.append(f"@{self.label}")
        return " ".join(parts)


_NEEDS_ADDR = {
    Opcode.READ,
    Opcode.WRITE,
    Opcode.TEST_AND_SET,
    Opcode.CAS,
    Opcode.UNSET,
    Opcode.ACQ_READ,
    Opcode.REL_WRITE,
}
_NEEDS_DST = {
    Opcode.READ,
    Opcode.TEST_AND_SET,
    Opcode.CAS,
    Opcode.ACQ_READ,
    Opcode.MOV,
    Opcode.ADD,
    Opcode.SUB,
    Opcode.MUL,
    Opcode.CMP_EQ,
    Opcode.CMP_LT,
}
_NEEDS_LABEL = {Opcode.JMP, Opcode.BZ, Opcode.BNZ}
_SRC_ARITY = {
    Opcode.CAS: 2,
    Opcode.WRITE: 1,
    Opcode.REL_WRITE: 1,
    Opcode.MOV: 1,
    Opcode.ADD: 2,
    Opcode.SUB: 2,
    Opcode.MUL: 2,
    Opcode.CMP_EQ: 2,
    Opcode.CMP_LT: 2,
    Opcode.BZ: 1,
    Opcode.BNZ: 1,
}


class IllegalInstruction(ValueError):
    """Raised when an instruction's operands don't fit its opcode."""


def _validate(instr: Instruction) -> None:
    op = instr.opcode
    if op in _NEEDS_ADDR and instr.addr is None:
        raise IllegalInstruction(f"{op.value} requires an address operand")
    if op not in _NEEDS_ADDR and instr.addr is not None:
        raise IllegalInstruction(f"{op.value} takes no address operand")
    if op in _NEEDS_DST and instr.dst is None:
        raise IllegalInstruction(f"{op.value} requires a destination register")
    if op not in _NEEDS_DST and instr.dst is not None:
        raise IllegalInstruction(f"{op.value} takes no destination register")
    if op in _NEEDS_LABEL and instr.label is None:
        raise IllegalInstruction(f"{op.value} requires a label")
    if op not in _NEEDS_LABEL and instr.label is not None:
        raise IllegalInstruction(f"{op.value} takes no label")
    expected = _SRC_ARITY.get(op, 0)
    if len(instr.src) != expected:
        raise IllegalInstruction(
            f"{op.value} takes {expected} source operand(s), got {len(instr.src)}"
        )
