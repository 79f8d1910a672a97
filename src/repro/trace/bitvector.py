"""Bit-vectors over the shared address space.

Section 4.1 of the paper: "bit-vectors representing those (shared)
variables that might be accessed between two synchronization events can
be constructed, and when a variable is accessed, the corresponding bit
is set" — recording READ/WRITE sets this way avoids writing a trace
record per memory operation.  A Python arbitrary-precision integer is
the natural bitset here: set/test are O(1), intersection is a single
``&``, and serialization is a hex string.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def iter_bits(value: int) -> Iterator[int]:
    """Set-bit indices of a big-int bitset, ascending: one step per set
    bit, not per bit position."""
    while value:
        low = value & -value
        yield low.bit_length() - 1
        value &= value - 1


class BitVector:
    """A growable set of non-negative integers stored as one big int."""

    __slots__ = ("_bits",)

    def __init__(self, bits: Iterable[int] = ()) -> None:
        self._bits = 0
        for bit in bits:
            self.set(bit)

    # ------------------------------------------------------------------
    def set(self, index: int) -> None:
        if index < 0:
            raise ValueError(f"bit index must be non-negative, got {index}")
        self._bits |= 1 << index

    def clear(self, index: int) -> None:
        self._bits &= ~(1 << index)

    def test(self, index: int) -> bool:
        return bool(self._bits >> index & 1)

    def __contains__(self, index: int) -> bool:
        return self.test(index)

    def __bool__(self) -> bool:
        return self._bits != 0

    def __len__(self) -> int:
        return bin(self._bits).count("1")

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self._bits)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BitVector):
            return self._bits == other._bits
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._bits)

    # ------------------------------------------------------------------
    def union(self, other: "BitVector") -> "BitVector":
        out = BitVector()
        out._bits = self._bits | other._bits
        return out

    @classmethod
    def union_of(cls, vectors: Iterable["BitVector"]) -> "BitVector":
        """The union of many vectors, with no intermediate objects."""
        bits = 0
        for vector in vectors:
            bits |= vector._bits
        out = cls()
        out._bits = bits
        return out

    def intersection(self, other: "BitVector") -> "BitVector":
        out = BitVector()
        out._bits = self._bits & other._bits
        return out

    def intersects(self, other: "BitVector") -> bool:
        """True iff the two sets share any element (one & — the fast
        path race detection relies on)."""
        return bool(self._bits & other._bits)

    def copy(self) -> "BitVector":
        out = BitVector()
        out._bits = self._bits
        return out

    # ------------------------------------------------------------------
    def to_hex(self) -> str:
        return format(self._bits, "x")

    @classmethod
    def from_hex(cls, text: str) -> "BitVector":
        out = cls()
        out._bits = int(text, 16) if text else 0
        return out

    def __repr__(self) -> str:
        members = list(self)
        shown = ", ".join(map(str, members[:8]))
        if len(members) > 8:
            shown += ", ..."
        return f"BitVector({{{shown}}})"
