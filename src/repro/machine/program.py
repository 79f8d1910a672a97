"""Programs for the simulated multiprocessor, and a builder DSL.

A :class:`Program` is the paper's notion of "program text plus input
data": a fixed set of per-processor instruction lists, a symbol table
naming memory locations, and initial memory contents.  The
:class:`ProgramBuilder` / :class:`ThreadBuilder` pair gives a readable
way to write the paper's example programs::

    b = ProgramBuilder()
    x = b.var("x")
    s = b.var("S")
    with b.thread() as t:
        t.write(x, 1)
        t.unset(s)
    with b.thread() as t:
        r = t.test_and_set(s)
        t.read(x)
    program = b.build()
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .isa import Addr, Imm, Instruction, Opcode, Operand, Reg


class SymbolError(KeyError):
    """Raised for unknown or duplicate memory symbols."""


@dataclass
class SymbolTable:
    """Maps human-readable location names to integer addresses.

    Arrays occupy a contiguous address range; ``name_of`` renders an
    address back to ``base`` or ``base[i]`` form for reports and the
    regenerated figures.
    """

    _addr_of: Dict[str, int] = field(default_factory=dict)
    _arrays: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    _next_addr: int = 0

    def scalar(self, name: str) -> int:
        if name in self._addr_of or name in self._arrays:
            raise SymbolError(f"symbol {name!r} already defined")
        addr = self._next_addr
        self._addr_of[name] = addr
        self._next_addr += 1
        return addr

    def array(self, name: str, size: int) -> int:
        if size <= 0:
            raise ValueError(f"array size must be positive, got {size}")
        if name in self._addr_of or name in self._arrays:
            raise SymbolError(f"symbol {name!r} already defined")
        base = self._next_addr
        self._arrays[name] = (base, size)
        self._next_addr += size
        return base

    def addr_of(self, name: str) -> int:
        """Resolve ``x``, ``arr`` (its base) or ``arr[3]`` to an address."""
        if name in self._addr_of:
            return self._addr_of[name]
        if name in self._arrays:
            return self._arrays[name][0]
        if name.endswith("]") and "[" in name:
            base_name, index_text = name[:-1].split("[", 1)
            if base_name in self._arrays and index_text.isdigit():
                base, size = self._arrays[base_name]
                index = int(index_text)
                if index < size:
                    return base + index
                raise SymbolError(
                    f"index {index} out of range for array "
                    f"{base_name!r} of size {size}"
                )
        raise SymbolError(f"unknown symbol {name!r}")

    def name_of(self, addr: int) -> str:
        for name, a in self._addr_of.items():
            if a == addr:
                return name
        for name, (base, size) in self._arrays.items():
            if base <= addr < base + size:
                return f"{name}[{addr - base}]"
        return f"@{addr}"

    @property
    def size(self) -> int:
        """Number of addresses allocated."""
        return self._next_addr

    def names(self) -> Iterator[str]:
        yield from self._addr_of
        yield from self._arrays


@dataclass(frozen=True)
class ThreadProgram:
    """One processor's instruction list with resolved jump targets."""

    instructions: Tuple[Instruction, ...]
    labels: Dict[str, int]

    def target_of(self, label: str) -> int:
        try:
            return self.labels[label]
        except KeyError:
            raise SymbolError(f"undefined label {label!r}") from None

    def __len__(self) -> int:
        return len(self.instructions)

    @functools.cached_property
    def decoded(self):
        """This thread decoded for the processor, built on its first run
        and cached: not a field, so out of eq, repr and hash, and
        :meth:`__getstate__` keeps it out of pickles and copies."""
        from .processor import decode

        return decode(self)

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "decoded"}


@dataclass(frozen=True)
class Program:
    """A complete multiprocessor program: threads, symbols, initial data."""

    threads: Tuple[ThreadProgram, ...]
    symbols: SymbolTable
    initial_memory: Dict[int, int] = field(default_factory=dict)

    @property
    def processor_count(self) -> int:
        return len(self.threads)

    @property
    def memory_size(self) -> int:
        return self.symbols.size

    def initial_value(self, addr: int) -> int:
        return self.initial_memory.get(addr, 0)


# ----------------------------------------------------------------------
# Builder DSL
# ----------------------------------------------------------------------

Location = Union[int, str, "ArrayRef"]
Value = Union[int, Reg]


@dataclass(frozen=True)
class ArrayRef:
    """An array element reference: constant or register index."""

    base: int
    index: Union[int, Reg]


class ThreadBuilder:
    """Accumulates one thread's instructions.

    Memory-access helpers return the destination register (auto-allocated
    when not supplied) so values can be threaded through ALU helpers.
    """

    def __init__(self, builder: "ProgramBuilder") -> None:
        self._builder = builder
        self._instructions: List[Instruction] = []
        self._labels: Dict[str, int] = {}
        self._reg_counter = itertools.count()

    # -- registers and labels ------------------------------------------
    def reg(self, name: Optional[str] = None) -> Reg:
        """A fresh (or named) register."""
        if name is None:
            name = f"t{next(self._reg_counter)}"
        return Reg(name)

    def label(self, name: str) -> str:
        """Define *name* at the current instruction position."""
        if name in self._labels:
            raise SymbolError(f"label {name!r} already defined")
        self._labels[name] = len(self._instructions)
        return name

    # -- memory operations ---------------------------------------------
    def read(self, loc: Location, dst: Optional[Reg] = None) -> Reg:
        """Emit a data read of *loc*; returns the destination register."""
        dst = dst or self.reg()
        self._emit(Instruction(Opcode.READ, dst=dst, addr=self._addr(loc)))
        return dst

    def write(self, loc: Location, value: Value) -> None:
        """Emit a data write of *value* to *loc*."""
        self._emit(
            Instruction(Opcode.WRITE, src=(self._operand(value),), addr=self._addr(loc))
        )

    def test_and_set(self, loc: Location, dst: Optional[Reg] = None) -> Reg:
        """Atomic Test&Set: acquire-read the old value, write 1."""
        dst = dst or self.reg()
        self._emit(Instruction(Opcode.TEST_AND_SET, dst=dst, addr=self._addr(loc)))
        return dst

    def cas(
        self,
        loc: Location,
        expected: Value,
        new: Value,
        dst: Optional[Reg] = None,
    ) -> Reg:
        """Atomic compare-and-swap; dst receives 1 on success, 0 on
        failure.  The read half is an acquire; the write half (like a
        Test&Set's) is synchronization but not a release."""
        dst = dst or self.reg()
        self._emit(Instruction(
            Opcode.CAS,
            dst=dst,
            src=(self._operand(expected), self._operand(new)),
            addr=self._addr(loc),
        ))
        return dst

    def unset(self, loc: Location) -> None:
        """Release-write 0 to *loc* (the paper's Unset instruction)."""
        self._emit(Instruction(Opcode.UNSET, addr=self._addr(loc)))

    def acquire_read(self, loc: Location, dst: Optional[Reg] = None) -> Reg:
        """A bare acquire read (flag synchronization)."""
        dst = dst or self.reg()
        self._emit(Instruction(Opcode.ACQ_READ, dst=dst, addr=self._addr(loc)))
        return dst

    def release_write(self, loc: Location, value: Value) -> None:
        """A bare release write (flag synchronization)."""
        self._emit(
            Instruction(
                Opcode.REL_WRITE, src=(self._operand(value),), addr=self._addr(loc)
            )
        )

    def fence(self) -> None:
        self._emit(Instruction(Opcode.FENCE))

    # -- ALU -------------------------------------------------------------
    def mov(self, value: Value, dst: Optional[Reg] = None) -> Reg:
        dst = dst or self.reg()
        self._emit(Instruction(Opcode.MOV, dst=dst, src=(self._operand(value),)))
        return dst

    def add(self, a: Value, b: Value, dst: Optional[Reg] = None) -> Reg:
        return self._alu(Opcode.ADD, a, b, dst)

    def sub(self, a: Value, b: Value, dst: Optional[Reg] = None) -> Reg:
        return self._alu(Opcode.SUB, a, b, dst)

    def mul(self, a: Value, b: Value, dst: Optional[Reg] = None) -> Reg:
        return self._alu(Opcode.MUL, a, b, dst)

    def cmp_eq(self, a: Value, b: Value, dst: Optional[Reg] = None) -> Reg:
        """dst = 1 if a == b else 0."""
        return self._alu(Opcode.CMP_EQ, a, b, dst)

    def cmp_lt(self, a: Value, b: Value, dst: Optional[Reg] = None) -> Reg:
        """dst = 1 if a < b else 0."""
        return self._alu(Opcode.CMP_LT, a, b, dst)

    # -- control flow ----------------------------------------------------
    def jump(self, label: str) -> None:
        self._emit(Instruction(Opcode.JMP, label=label))

    def jump_if_zero(self, reg: Reg, label: str) -> None:
        self._emit(Instruction(Opcode.BZ, src=(reg,), label=label))

    def jump_if_nonzero(self, reg: Reg, label: str) -> None:
        self._emit(Instruction(Opcode.BNZ, src=(reg,), label=label))

    def halt(self) -> None:
        self._emit(Instruction(Opcode.HALT))

    def nop(self) -> None:
        self._emit(Instruction(Opcode.NOP))

    # -- synchronization idioms -------------------------------------------
    def lock(self, loc: Location) -> None:
        """Spin with Test&Set until the lock at *loc* is acquired."""
        name = f"__lock_{len(self._instructions)}"
        self.label(name)
        got = self.test_and_set(loc)
        self.jump_if_nonzero(got, name)

    def unlock(self, loc: Location) -> None:
        """Release the lock at *loc* (alias for unset)."""
        self.unset(loc)

    def spin_until_eq(self, loc: Location, value: int) -> Reg:
        """Acquire-read *loc* until it equals *value*; returns the reg."""
        name = f"__spin_{len(self._instructions)}"
        self.label(name)
        seen = self.acquire_read(loc)
        same = self.cmp_eq(seen, value)
        self.jump_if_zero(same, name)
        return seen

    def spin_until_ge(self, loc: Location, value: int) -> Reg:
        """Acquire-read *loc* until it is at least *value* — the right
        idiom for monotonically advancing flags, where spinning on an
        exact value could miss it."""
        name = f"__spinge_{len(self._instructions)}"
        self.label(name)
        seen = self.acquire_read(loc)
        below = self.cmp_lt(seen, value)
        self.jump_if_nonzero(below, name)
        return seen

    # -- internals ---------------------------------------------------------
    def _alu(self, op: Opcode, a: Value, b: Value, dst: Optional[Reg]) -> Reg:
        dst = dst or self.reg()
        self._emit(Instruction(op, dst=dst, src=(self._operand(a), self._operand(b))))
        return dst

    def _emit(self, instr: Instruction) -> None:
        self._instructions.append(instr)

    def _operand(self, value: Value) -> Operand:
        if isinstance(value, Reg):
            return value
        return Imm(int(value))

    def _addr(self, loc: Location) -> Addr:
        if isinstance(loc, ArrayRef):
            if isinstance(loc.index, Reg):
                return Addr(loc.base, index=loc.index)
            return Addr(loc.base + int(loc.index))
        if isinstance(loc, str):
            return Addr(self._builder.symbols.addr_of(loc))
        return Addr(int(loc))

    def finish(self) -> ThreadProgram:
        instructions = list(self._instructions)
        if not instructions or instructions[-1].opcode is not Opcode.HALT:
            instructions.append(Instruction(Opcode.HALT))
        thread = ThreadProgram(tuple(instructions), dict(self._labels))
        for instr in instructions:
            if instr.label is not None:
                thread.target_of(instr.label)  # raises on dangling labels
        return thread


class _ThreadContext:
    def __init__(self, builder: "ProgramBuilder") -> None:
        self._builder = builder
        self._thread = ThreadBuilder(builder)

    def __enter__(self) -> ThreadBuilder:
        return self._thread

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self._builder._threads.append(self._thread.finish())


class ProgramBuilder:
    """Builds a :class:`Program`: declare symbols, then add threads."""

    def __init__(self) -> None:
        self.symbols = SymbolTable()
        self._threads: List[ThreadProgram] = []
        self._initial: Dict[int, int] = {}

    def var(self, name: str, initial: int = 0) -> int:
        """Declare a scalar shared location; returns its address."""
        addr = self.symbols.scalar(name)
        if initial:
            self._initial[addr] = initial
        return addr

    def array(self, name: str, size: int, initial: Optional[List[int]] = None) -> int:
        """Declare an array of *size* locations; returns the base address."""
        base = self.symbols.array(name, size)
        if initial is not None:
            if len(initial) > size:
                raise ValueError("initializer longer than array")
            for offset, value in enumerate(initial):
                if value:
                    self._initial[base + offset] = value
        return base

    def at(self, base: int, index: Union[int, Reg]) -> ArrayRef:
        """An array element reference usable as a read/write location."""
        return ArrayRef(base, index)

    def thread(self) -> _ThreadContext:
        """Context manager yielding a :class:`ThreadBuilder`."""
        return _ThreadContext(self)

    def build(self) -> Program:
        if not self._threads:
            raise ValueError("program has no threads")
        return Program(
            threads=tuple(self._threads),
            symbols=self.symbols,
            initial_memory=dict(self._initial),
        )
