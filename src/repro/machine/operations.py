"""Memory-operation records.

The paper (section 2.1) identifies an operation by the location it
accesses and the part of the program that issued it — never by the value
it read or wrote.  The simulator nevertheless records values, observed
writers and staleness because those give the ground truth against which
Condition 3.4 and the SCP machinery are tested.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class OperationKind(enum.Enum):
    """Whether the operation reads or modifies its location."""

    READ = "read"
    WRITE = "write"


class SyncRole(enum.Enum):
    """Synchronization classification (Definition 2.1 and [GLL90]).

    * ``NONE`` — a data operation.
    * ``ACQUIRE`` — a sync read usable to conclude completion of another
      processor's prior operations (e.g. the read of a Test&Set).
    * ``RELEASE`` — a sync write usable to communicate completion of the
      issuer's prior operations (e.g. the write of an Unset).
    * ``SYNC_ONLY`` — recognized by the hardware as synchronization but
      carrying neither semantics; the write half of a Test&Set is the
      canonical example (the paper: "the write due to a Test&Set is not
      a release").
    """

    NONE = "none"
    ACQUIRE = "acquire"
    RELEASE = "release"
    SYNC_ONLY = "sync_only"

    @property
    def is_sync(self) -> bool:
        return self is not SyncRole.NONE


@dataclass(frozen=True)
class MemoryOperation:
    """One dynamic memory operation of an execution.

    Attributes:
        seq: global issue index; unique, increasing with simulated time.
        proc: issuing processor id.
        local_index: index within the issuing processor's operation
            stream (program order position).
        kind: read or write.
        role: synchronization role (``NONE`` for data operations).
        addr: accessed location (integer address).
        value: value read or written.
        observed_write: for reads, the ``seq`` of the write whose value
            was returned (None if the initial memory value was read).
        stale: for reads, True when some other processor had issued a
            newer write to ``addr`` that had not yet propagated to the
            reader — the simulator's marker for a potential sequential
            consistency violation.
        instr_index: static instruction index within the thread program
            (identifies "the part of the program" the op comes from).
    """

    seq: int
    proc: int
    local_index: int
    kind: OperationKind
    role: SyncRole
    addr: int
    value: int
    observed_write: Optional[int] = None
    stale: bool = False
    instr_index: int = -1

    @property
    def is_read(self) -> bool:
        return self.kind is OperationKind.READ

    @property
    def is_write(self) -> bool:
        return self.kind is OperationKind.WRITE

    @property
    def is_sync(self) -> bool:
        return self.role.is_sync

    @property
    def is_data(self) -> bool:
        return not self.role.is_sync

    @property
    def is_release(self) -> bool:
        return self.role is SyncRole.RELEASE

    @property
    def is_acquire(self) -> bool:
        return self.role is SyncRole.ACQUIRE

    def conflicts_with(self, other: "MemoryOperation") -> bool:
        """Definition (section 2.1): same location, at least one write."""
        return self.addr == other.addr and (self.is_write or other.is_write)

    def describe(self, addr_name: Optional[str] = None) -> str:
        """Human-readable rendering, e.g. ``P1 write(x,100)``."""
        name = addr_name if addr_name is not None else str(self.addr)
        tag = {
            SyncRole.NONE: self.kind.value,
            SyncRole.ACQUIRE: f"acq-{self.kind.value}",
            SyncRole.RELEASE: f"rel-{self.kind.value}",
            SyncRole.SYNC_ONLY: f"sync-{self.kind.value}",
        }[self.role]
        return f"P{self.proc} {tag}({name},{self.value})"


_new = object.__new__
_set = object.__setattr__


def new_operation(seq, proc, local_index, kind, role, addr, value,
                  observed_write, stale, instr_index) -> MemoryOperation:
    """``MemoryOperation(...)`` for the simulator's hot path: the frozen
    ``__init__``'s ten ``object.__setattr__`` calls, in field order,
    with the function bound once instead of looked up per field.  The
    instance is the constructor's, layout included."""
    op = _new(MemoryOperation)
    _set(op, "seq", seq)
    _set(op, "proc", proc)
    _set(op, "local_index", local_index)
    _set(op, "kind", kind)
    _set(op, "role", role)
    _set(op, "addr", addr)
    _set(op, "value", value)
    _set(op, "observed_write", observed_write)
    _set(op, "stale", stale)
    _set(op, "instr_index", instr_index)
    return op
