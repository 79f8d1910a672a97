"""The simulated shared-memory system.

Weakness is modelled by *per-reader visibility*: a buffered data write
updates the writer's own view immediately but reaches every other
processor's view only later — either voluntarily (the propagation
policy) or forcibly when the writer's memory model flushes at a
synchronization operation.  Synchronization accesses are themselves kept
sequentially consistent (they read/write the committed state and
propagate at issue), matching every implementation the paper considers.

Ground truth kept for verification (never exposed to the detector):

* a *stale* flag on each data read that returned a value older than the
  globally latest committed write to its location, and
* a taint bit on every memory cell, seeded by stale reads and spread by
  the processor through registers — the raw material for extracting the
  sequentially consistent prefix of section 3.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

from .models.base import MemoryModel
from .operations import SyncRole


@dataclass
class CellView:
    """One processor's view of one location."""

    value: int
    seq: int  # seq of the write that produced this value; -1 for initial
    taint: bool = False


@dataclass
class PendingWrite:
    """A buffered data write not yet visible to ``remaining`` readers."""

    writer: int
    addr: int
    value: int
    seq: int
    taint: bool
    remaining: Set[int] = field(default_factory=set)


@dataclass(frozen=True)
class ReadResult:
    """Outcome of a read: value plus ground-truth annotations."""

    value: int
    observed_write: Optional[int]  # seq of the write observed; None = initial
    stale: bool
    taint: bool


class MemorySystem:
    """Per-reader-visibility shared memory with flush-at-sync rules."""

    def __init__(
        self,
        size: int,
        processor_count: int,
        model: MemoryModel,
        initial: Optional[Dict[int, int]] = None,
    ) -> None:
        if size <= 0:
            size = 1
        self.size = size
        self.processor_count = processor_count
        self.model = model
        initial = initial or {}
        # One initial row, shared cell-for-cell by every row below: no
        # code assigns a CellView field after construction — every
        # update replaces the row's list slot with a new CellView — so
        # rows may alias cells and only the lists must be distinct.
        row = [CellView(initial.get(a, 0), -1) for a in range(size)]
        # committed = the globally latest write per location (by seq).
        self._committed: List[CellView] = list(row)
        self._views: List[List[CellView]] = [
            list(row) for _ in range(processor_count)
        ]
        self._pending: List[PendingWrite] = []
        # The model is fixed for the system's lifetime: resolve its
        # buffering and FIFO delivery discipline (TSO/PSO) once.
        self._buffers = model.buffers_data_writes()
        self._store_order = model.store_order_granularity()
        # voluntary-delivery log: (seq, reader) per propagate() call,
        # drained by the recorder between steps.  None = logging off.
        self._delivery_log: Optional[List[Tuple[int, int]]] = None
        # counters
        self.flush_count = 0
        self.propagated_writes = 0
        self.deliveries_logged = 0

    def copy(self) -> "MemorySystem":
        """An independent memory system in the same state.  Cells are
        shared — no code mutates a CellView, it replaces it — so only
        the rows and the pending writes are copied."""
        out = MemorySystem.__new__(MemorySystem)
        out.__dict__.update(self.__dict__)
        out._committed = list(self._committed)
        out._views = [list(row) for row in self._views]
        out._pending = [replace(pw, remaining=set(pw.remaining))
                        for pw in self._pending]
        if self._delivery_log is not None:
            out._delivery_log = list(self._delivery_log)
        return out

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def read_data(self, proc: int, addr: int) -> ReadResult:
        """A data read: returns the reader's current view.

        The read is *stale* when the committed state holds a newer write
        (necessarily by another processor, since a processor's own
        writes update its own view at issue).
        """
        return ReadResult(*self.load_data(proc, addr))

    def load_data(self, proc: int, addr: int) -> tuple:
        """:meth:`read_data`'s fields as a tuple (the processor's path)."""
        if not (0 <= addr < self.size and 0 <= proc < self.processor_count):
            self._check(proc, addr)
        view = self._views[proc][addr]
        seq = view.seq
        stale = self._committed[addr].seq != seq
        return (view.value, seq if seq >= 0 else None, stale,
                view.taint or stale)

    def read_sync(self, proc: int, addr: int) -> ReadResult:
        """A synchronization read: sequentially consistent, reads the
        committed state and refreshes the reader's view of the cell."""
        return ReadResult(*self.load_sync(proc, addr))

    def load_sync(self, proc: int, addr: int) -> tuple:
        """:meth:`read_sync`'s fields as a tuple (the processor's path)."""
        if not (0 <= addr < self.size and 0 <= proc < self.processor_count):
            self._check(proc, addr)
        committed = self._committed[addr]
        self._views[proc][addr] = committed
        seq = committed.seq
        return (committed.value, seq if seq >= 0 else None, False,
                committed.taint)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def write_data(
        self, proc: int, addr: int, value: int, seq: int, taint: bool
    ) -> None:
        """A data write: own view and committed state update at issue;
        other views update when the write propagates (or never, until a
        flush, under the stubborn policy)."""
        if not (0 <= addr < self.size and 0 <= proc < self.processor_count):
            self._check(proc, addr)
        self._committed[addr] = self._views[proc][addr] = CellView(
            value, seq, taint)
        if not self._buffers:
            self._apply_everywhere(proc, addr, value, seq, taint)
            return
        remaining = {q for q in range(self.processor_count) if q != proc}
        # A newer write to the same address by the same processor
        # supersedes any still-pending older one for readers that see
        # them out of order; the seq guard in _apply handles that, so
        # both may stay pending.
        self._pending.append(
            PendingWrite(proc, addr, value, seq, taint, remaining)
        )

    def write_sync(
        self, proc: int, addr: int, value: int, seq: int, taint: bool, role: SyncRole
    ) -> int:
        """A synchronization write: flush first if the model requires it
        for *role*, then commit and propagate at issue.

        Returns the number of buffered writes drained by the flush (for
        stall accounting).
        """
        self._check(proc, addr)
        flushed = 0
        if self.model.flushes_at(role):
            flushed = self.flush(proc)
        self._committed[addr] = self._views[proc][addr] = CellView(
            value, seq, taint)
        self._apply_everywhere(proc, addr, value, seq, taint)
        return flushed

    def pre_sync_read_flush(self, proc: int, role: SyncRole) -> int:
        """Flush before a synchronization *read* when the model demands
        it (WO/DRF0 flush at every sync operation, reads included)."""
        if self.model.flushes_at(role):
            return self.flush(proc)
        return 0

    # ------------------------------------------------------------------
    # propagation and flushing
    # ------------------------------------------------------------------
    def flush(self, proc: int) -> int:
        """Force all of *proc*'s buffered writes visible everywhere."""
        drained = 0
        still_pending: List[PendingWrite] = []
        for pw in self._pending:
            if pw.writer != proc:
                still_pending.append(pw)
                continue
            for reader in pw.remaining:
                self._apply(reader, pw.addr, pw.value, pw.seq, pw.taint)
            drained += 1
        self._pending = still_pending
        if drained:
            self.flush_count += 1
        return drained

    def delivery_allowed(self, pw: PendingWrite, reader: int) -> bool:
        """Store-order guard: under a FIFO buffer discipline a write may
        reach a reader only after every older write ahead of it in the
        writer's queue (TSO: the whole buffer; PSO: the same-address
        queue) has reached that reader.  ``_pending`` is append-ordered
        by seq, so the scan stops at *pw* itself."""
        if self._store_order is None:
            return True
        for other in self._pending:
            if other.seq >= pw.seq:
                break
            if other.writer != pw.writer:
                continue
            if self._store_order == "addr" and other.addr != pw.addr:
                continue
            if reader in other.remaining:
                return False
        return True

    def propagate(self, pw: PendingWrite, reader: int) -> bool:
        """Deliver one pending write to one reader (policy hook).

        Returns True when the delivery happened; a delivery the model's
        store-order discipline forbids is skipped (and not logged), so
        every propagation policy stays sound under TSO/PSO without
        knowing about buffers.
        """
        if reader not in pw.remaining:
            return False
        if not self.delivery_allowed(pw, reader):
            return False
        pw.remaining.discard(reader)
        self._apply(reader, pw.addr, pw.value, pw.seq, pw.taint)
        if not pw.remaining:
            self._pending.remove(pw)
        self.propagated_writes += 1
        if self._delivery_log is not None:
            self._delivery_log.append((pw.seq, reader))
            self.deliveries_logged += 1
        return True

    def enable_delivery_log(self) -> None:
        """Start logging voluntary deliveries (recorder hook).

        Every delivery is a :meth:`propagate` call — flushes bypass it —
        so the log is exactly the voluntary deliveries since the last
        :meth:`drain_deliveries`, in delivery order.
        """
        if self._delivery_log is None:
            self._delivery_log = []

    def drain_deliveries(self) -> List[Tuple[int, int]]:
        """Return and reset the voluntary-delivery log (enables it if
        needed, so the first drain arms the log for subsequent steps)."""
        log = self._delivery_log
        self._delivery_log = []
        return log if log is not None else []

    def pending_writes(self) -> List[PendingWrite]:
        """The current buffer contents (policy hook; do not mutate)."""
        return self._pending

    def pending_count(self, proc: Optional[int] = None) -> int:
        if proc is None:
            return len(self._pending)
        return sum(1 for pw in self._pending if pw.writer == proc)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def committed_memory(self) -> Dict[int, int]:
        return {addr: cell.value for addr, cell in enumerate(self._committed)}

    def view_value(self, proc: int, addr: int) -> int:
        self._check(proc, addr)
        return self._views[proc][addr].value

    def views_converged(self) -> bool:
        """True when every processor's view equals the committed state
        (i.e. no write is still in flight)."""
        return not self._pending

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _apply_everywhere(
        self, writer: int, addr: int, value: int, seq: int, taint: bool
    ) -> None:
        for reader in range(self.processor_count):
            if reader != writer:
                self._apply(reader, addr, value, seq, taint)

    def _apply(self, reader: int, addr: int, value: int, seq: int, taint: bool) -> None:
        # Views only move forward in write-issue order; a late-arriving
        # older write never overwrites a newer value.
        if self._views[reader][addr].seq < seq:
            self._views[reader][addr] = CellView(value, seq, taint)

    def _check(self, proc: int, addr: int) -> None:
        if not 0 <= addr < self.size:
            raise IndexError(f"address {addr} out of range [0, {self.size})")
        if not 0 <= proc < self.processor_count:
            raise IndexError(f"processor {proc} out of range")
