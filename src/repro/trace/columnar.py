"""Zero-copy columnar binary trace files.

The v1 binary format (:mod:`.binfile`) is row-oriented: events are
interleaved, so reading *any* of them means decoding *all* of them into
Python objects.  This module stores the same :class:`Trace` as
schema-versioned, struct-packed fixed-width **columns** — one contiguous
array per field (tag/proc/pos/kind/role/addr/value/...), plus a
length-prefixed bit-vector pool for computation READ/WRITE sets — so a
reader can ``mmap`` the file and expose each column as a ``memoryview``
without copying or materializing a single event object.  The so1
pairing and the positional clock sweep (:mod:`..core.hb1`) and the
frontier race sweep (:mod:`..core.races`) read these columns, and the sync order as the file's integer
``(proc, pos)`` pairs, directly; everything else sees a lazy
:class:`EventView` that materializes (and caches) ordinary
:class:`SyncEvent` / :class:`ComputationEvent` objects, and a
``sync_order`` of :class:`EventId` lists, on demand.

Layout (all integers little-endian)::

    magic "WRCT" | u32 format | u32 nproc | u32 memsize
    u32 name_len | model name utf-8
    u32 N | nproc x u32 per-processor event counts
    columns, each N wide, rows processor-major:
      tag u8 (0=sync 1=comp) | proc u32 | pos u32 | kind u8 (1=write)
      role u8 | addr u32 | value i64 | order_pos u32 (0xFFFFFFFF = none)
      op_count u32 | reads_off u32 | reads_len u32
      writes_off u32 | writes_len u32
    u32 pool_len | bit-vector pool (big-endian byte strings)
    u32 nlocations | per location: u32 addr, u32 count,
      count x (u32 proc, u32 pos)

Ground-truth op seqs are *not* stored (like :mod:`.binfile`): the format
carries exactly what the paper's section 4.1 instrumentation records.
"""

from __future__ import annotations

import mmap
import struct
import sys
from pathlib import Path
from typing import (
    Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple,
    Union,
)

from .. import obs
from ..machine.operations import OperationKind, SyncRole
from .bitvector import BitVector, iter_bits
from .build import Trace, TraceError, _Accesses
from .events import ComputationEvent, Event, EventId, SyncEvent

COLUMNAR_MAGIC = b"WRCT"
COLUMNAR_FORMAT = 1

_TAG_SYNC = 0
_TAG_COMP = 1
_NO_ORDER_POS = 0xFFFFFFFF

_ROLE_CODE = {
    SyncRole.NONE: 0,
    SyncRole.ACQUIRE: 1,
    SyncRole.RELEASE: 2,
    SyncRole.SYNC_ONLY: 3,
}
_CODE_ROLE = {v: k for k, v in _ROLE_CODE.items()}

# (attribute name, struct format char, byte width) for every column, in
# on-disk order.  The format is *defined* by this table.
_COLUMNS = (
    ("tag", "B", 1),
    ("proc", "I", 4),
    ("pos", "I", 4),
    ("kind", "B", 1),
    ("role", "B", 1),
    ("addr", "I", 4),
    ("value", "q", 8),
    ("order_pos", "I", 4),
    ("op_count", "I", 4),
    ("reads_off", "I", 4),
    ("reads_len", "I", 4),
    ("writes_off", "I", 4),
    ("writes_len", "I", 4),
)


class ColumnarTraceError(TraceError):
    """Malformed or wrong-version columnar trace."""


def _bitvector_bytes(bv: BitVector) -> bytes:
    hex_text = bv.to_hex()
    if hex_text == "0":
        return b""
    if len(hex_text) % 2:
        hex_text = "0" + hex_text
    return bytes.fromhex(hex_text)


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------

def to_columnar(trace: Trace, path: Union[str, Path]) -> None:
    """Serialize *trace* to the columnar format."""
    with obs.span("columnar.write") as sp:
        cols: Dict[str, List[int]] = {name: [] for name, _, _ in _COLUMNS}
        pool = bytearray()
        total = 0
        proc_counts = []
        for proc, proc_events in enumerate(trace.events):
            proc_counts.append(len(proc_events))
            for pos, event in enumerate(proc_events):
                total += 1
                cols["proc"].append(proc)
                cols["pos"].append(pos)
                if isinstance(event, SyncEvent):
                    cols["tag"].append(_TAG_SYNC)
                    cols["kind"].append(
                        1 if event.op_kind is OperationKind.WRITE else 0
                    )
                    cols["role"].append(_ROLE_CODE[event.role])
                    cols["addr"].append(event.addr)
                    cols["value"].append(event.value)
                    cols["order_pos"].append(
                        _NO_ORDER_POS if event.order_pos < 0
                        else event.order_pos
                    )
                    cols["op_count"].append(0)
                    for field in ("reads", "writes"):
                        cols[field + "_off"].append(0)
                        cols[field + "_len"].append(0)
                else:
                    assert isinstance(event, ComputationEvent)
                    cols["tag"].append(_TAG_COMP)
                    cols["kind"].append(0)
                    cols["role"].append(0)
                    cols["addr"].append(0)
                    cols["value"].append(0)
                    cols["order_pos"].append(_NO_ORDER_POS)
                    cols["op_count"].append(event.op_count)
                    for field, bv in (
                        ("reads", event.reads), ("writes", event.writes)
                    ):
                        payload = _bitvector_bytes(bv)
                        cols[field + "_off"].append(len(pool))
                        cols[field + "_len"].append(len(payload))
                        pool.extend(payload)

        with Path(path).open("wb") as fh:
            fh.write(COLUMNAR_MAGIC)
            fh.write(struct.pack(
                "<III", COLUMNAR_FORMAT,
                trace.processor_count, trace.memory_size,
            ))
            name = trace.model_name.encode("utf-8")
            fh.write(struct.pack("<I", len(name)))
            fh.write(name)
            fh.write(struct.pack("<I", total))
            fh.write(struct.pack(f"<{len(proc_counts)}I", *proc_counts))
            for name_, fmt, _ in _COLUMNS:
                fh.write(struct.pack(f"<{total}{fmt}", *cols[name_]))
            fh.write(struct.pack("<I", len(pool)))
            fh.write(bytes(pool))
            fh.write(struct.pack("<I", len(trace.sync_order)))
            for addr in sorted(trace.sync_order):
                order = trace.sync_order[addr]
                fh.write(struct.pack("<II", addr, len(order)))
                for eid in order:
                    fh.write(struct.pack("<II", eid.proc, eid.pos))
        if sp.enabled:
            sp.add("events", total)
            sp.add("pool_bytes", len(pool))


# ----------------------------------------------------------------------
# columns: the zero-copy view the sweeps operate on
# ----------------------------------------------------------------------

class TraceColumns:
    """The decoded column arrays of one columnar trace.

    On a little-endian host (the file's byte order) every per-event
    column is a ``memoryview`` cast straight over the mmap — no copy.
    ``cast`` reads native byte order, so on a big-endian host the
    columns are plain tuples decoded once (memory O(N), still
    object-free).  Either way indexing a column yields a plain ``int``,
    and the bit-vector ``pool`` is a memoryview.
    """

    __slots__ = tuple(name for name, _, _ in _COLUMNS) + (
        "event_total", "proc_counts", "proc_offsets", "pool",
    )

    def __init__(self, buf, offset: int, event_total: int,
                 proc_counts: Sequence[int]) -> None:
        self.event_total = event_total
        self.proc_counts = tuple(proc_counts)
        offsets = []
        base = 0
        for count in self.proc_counts:
            offsets.append(base)
            base += count
        self.proc_offsets = tuple(offsets)
        view = memoryview(buf)
        zero_copy = sys.byteorder == "little"
        for name, fmt, width in _COLUMNS:
            end = offset + event_total * width
            if zero_copy:
                column = view[offset:end].cast(fmt)
            else:
                column = struct.unpack_from(
                    f"<{event_total}{fmt}", buf, offset
                )
            setattr(self, name, column)
            offset = end
        (pool_len,) = struct.unpack_from("<I", buf, offset)
        offset += 4
        self.pool = view[offset:offset + pool_len]

    def release(self) -> None:
        """Release every view over the buffer (the tuple columns of a
        big-endian host hold none); the columns are unusable after."""
        for name in self.__slots__:
            view = getattr(self, name)
            if isinstance(view, memoryview):
                view.release()

    def row_of(self, proc: int, pos: int) -> int:
        return self.proc_offsets[proc] + pos

    def is_comp(self, row: int) -> bool:
        return self.tag[row] == _TAG_COMP

    def _pool_int(self, off: int, length: int) -> int:
        if not length:
            return 0
        return int.from_bytes(self.pool[off:off + length], "big")

    def reads_int(self, row: int) -> int:
        """Computation READ set as a raw big-int bitset (no objects)."""
        return self._pool_int(self.reads_off[row], self.reads_len[row])

    def writes_int(self, row: int) -> int:
        return self._pool_int(self.writes_off[row], self.writes_len[row])

    def event_reads(self, row: int) -> Iterator[int]:
        return iter_bits(self.reads_int(row))

    def event_writes(self, row: int) -> Iterator[int]:
        return iter_bits(self.writes_int(row))

    # ------------------------------------------------------------------
    def materialize(self, proc: int, pos: int) -> Event:
        """Build the ordinary event object for one row."""
        row = self.row_of(proc, pos)
        eid = EventId(proc, pos)
        if self.tag[row] == _TAG_SYNC:
            order_pos = self.order_pos[row]
            return SyncEvent(
                eid=eid,
                addr=self.addr[row],
                op_kind=(
                    OperationKind.WRITE if self.kind[row]
                    else OperationKind.READ
                ),
                role=_CODE_ROLE[self.role[row]],
                value=self.value[row],
                order_pos=-1 if order_pos == _NO_ORDER_POS else order_pos,
            )
        reads = BitVector.from_hex(format(self.reads_int(row), "x"))
        writes = BitVector.from_hex(format(self.writes_int(row), "x"))
        event = ComputationEvent(eid=eid, reads=reads, writes=writes)
        event.op_count = self.op_count[row]
        return event


class _ProcView(Sequence):
    """One processor's event sequence, materialized lazily per index."""

    __slots__ = ("_columns", "_proc", "_count", "_cache")

    def __init__(self, columns: TraceColumns, proc: int) -> None:
        self._columns = columns
        self._proc = proc
        self._count = columns.proc_counts[proc]
        self._cache: Dict[int, Event] = {}

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, pos):
        if isinstance(pos, slice):
            return [self[i] for i in range(*pos.indices(self._count))]
        if pos < 0:
            pos += self._count
        if not 0 <= pos < self._count:
            raise IndexError(pos)
        event = self._cache.get(pos)
        if event is None:
            event = self._columns.materialize(self._proc, pos)
            self._cache[pos] = event
        return event

    def __iter__(self) -> Iterator[Event]:
        for pos in range(self._count):
            yield self[pos]


class EventView(Sequence):
    """Lazy stand-in for ``Trace.events``: a list of per-proc views."""

    __slots__ = ("_procs",)

    def __init__(self, columns: TraceColumns) -> None:
        self._procs = [
            _ProcView(columns, proc)
            for proc in range(len(columns.proc_counts))
        ]

    def __len__(self) -> int:
        return len(self._procs)

    def __getitem__(self, proc):
        return self._procs[proc]

    def __iter__(self) -> Iterator[_ProcView]:
        return iter(self._procs)


class ColumnarTrace(Trace):
    """A :class:`Trace` whose events live in mmap-backed columns.

    ``isinstance(t, Trace)`` holds, and every object-path consumer
    (closure backend, validators, DOT export) works through the lazy
    :class:`EventView`; the clock, race and streaming sweeps detect
    ``.columns`` and skip object materialization entirely.
    """

    def __init__(self, *, processor_count: int, memory_size: int,
                 columns: TraceColumns,
                 sync_pairs: Dict[int, Tuple[int, ...]],
                 model_name: str = "unknown",
                 mm: Optional[mmap.mmap] = None) -> None:
        super().__init__(
            processor_count=processor_count,
            memory_size=memory_size,
            events=EventView(columns),
            sync_order=None,
            symbols=None,
            model_name=model_name,
        )
        self.columns = columns
        #: each location's sync order as the file stores it: flat
        #: ``(proc, pos, proc, pos, ...)`` integers
        self.sync_pairs = sync_pairs
        self._mm = mm
        self._data_locations: Optional[FrozenSet[int]] = None

    @property
    def sync_order(self) -> Dict[int, List[EventId]]:
        """Built from :attr:`sync_pairs` on first read."""
        if self._sync_order is None:
            self._sync_order = {
                addr: [EventId(pairs[i], pairs[i + 1])
                       for i in range(0, len(pairs), 2)]
                for addr, pairs in self.sync_pairs.items()
            }
        return self._sync_order

    @sync_order.setter
    def sync_order(self, value: Optional[Dict[int, List[EventId]]]) -> None:
        self._sync_order = value

    @property
    def event_count(self) -> int:
        return self.columns.event_total

    def accesses(self, eid: EventId) -> _Accesses:
        return self._accesses_at(self.columns.row_of(eid.proc, eid.pos))

    def accesses_by_row(self) -> Callable[[int], _Accesses]:
        return self._accesses_at

    def _accesses_at(self, row: int) -> _Accesses:
        columns = self.columns
        if columns.tag[row] == _TAG_COMP:
            return (True, tuple(columns.event_reads(row)),
                    tuple(columns.event_writes(row)))
        addr = (columns.addr[row],)
        return (False, (), addr) if columns.kind[row] else (False, addr, ())

    def data_locations(self) -> FrozenSet[int]:
        """Decoded from the pool on the first call only: the columns are
        read-only, so the set never changes."""
        if self._data_locations is None:
            columns = self.columns
            bits = 0
            for row in range(columns.event_total):
                if columns.is_comp(row):
                    bits |= columns.reads_int(row) | columns.writes_int(row)
            self._data_locations = frozenset(iter_bits(bits))
        return self._data_locations

    def close(self) -> None:
        """Release the column views, then unmap the file; the columns
        are unusable afterwards."""
        if self._mm is not None:
            self.columns.release()
            try:
                self._mm.close()
            except BufferError:  # a caller still holds a view of a column
                pass
            self._mm = None

    def __enter__(self) -> "ColumnarTrace":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------

def _parse_header(buf) -> tuple:
    size = len(buf)
    if size < 4 or bytes(buf[:4]) != COLUMNAR_MAGIC:
        raise ColumnarTraceError("not a columnar trace file (bad magic)")

    def need(offset: int, n: int, what: str) -> None:
        if offset + n > size:
            raise ColumnarTraceError(
                f"truncated columnar trace: {what} at byte {offset}"
            )

    offset = 4
    need(offset, 12, "header")
    version, nproc, memory_size = struct.unpack_from("<III", buf, offset)
    offset += 12
    if version != COLUMNAR_FORMAT:
        raise ColumnarTraceError(f"unsupported columnar format {version}")
    need(offset, 4, "model name length")
    (name_len,) = struct.unpack_from("<I", buf, offset)
    offset += 4
    need(offset, name_len, "model name")
    try:
        model_name = bytes(buf[offset:offset + name_len]).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ColumnarTraceError(
            f"corrupt model name at byte {offset}: {exc}"
        ) from None
    offset += name_len
    need(offset, 4 + 4 * nproc, "event counts")
    (total,) = struct.unpack_from("<I", buf, offset)
    offset += 4
    proc_counts = struct.unpack_from(f"<{nproc}I", buf, offset)
    offset += 4 * nproc
    if sum(proc_counts) != total:
        raise ColumnarTraceError(
            f"event count mismatch: header says {total}, "
            f"per-processor counts sum to {sum(proc_counts)}"
        )
    row_bytes = sum(width for _, _, width in _COLUMNS)
    need(offset, row_bytes * total, "event columns")
    return version, nproc, memory_size, model_name, total, proc_counts, offset


def _parse_tail(buf, columns: TraceColumns, column_offset: int,
                total: int) -> Dict[int, Tuple[int, ...]]:
    """Sync-order section after the columns + pool; detects garbage."""
    size = len(buf)
    row_bytes = sum(width for _, _, width in _COLUMNS)
    offset = column_offset + row_bytes * total + 4 + len(columns.pool)

    def need(n: int, what: str) -> None:
        if offset + n > size:
            raise ColumnarTraceError(
                f"truncated columnar trace: {what} at byte {offset}"
            )

    need(4, "sync-order count")
    (nlocations,) = struct.unpack_from("<I", buf, offset)
    offset += 4
    sync_pairs: Dict[int, Tuple[int, ...]] = {}
    for _ in range(nlocations):
        need(8, "sync-order location header")
        addr, count = struct.unpack_from("<II", buf, offset)
        offset += 8
        need(8 * count, f"sync order for location {addr}")
        sync_pairs[addr] = struct.unpack_from(f"<{2 * count}I", buf, offset)
        offset += 8 * count
    if offset != size:
        raise ColumnarTraceError(
            f"trailing garbage after byte {offset} "
            f"({size - offset} unexpected bytes)"
        )
    return sync_pairs


def _columnar_from_buffer(buf, mm: Optional[mmap.mmap] = None) -> ColumnarTrace:
    """Build a lazy :class:`ColumnarTrace` over any bytes-like buffer
    (an mmap, or in-memory bytes read from a file object)."""
    (_, nproc, memory_size, model_name, total,
     proc_counts, column_offset) = _parse_header(buf)
    pool_start = column_offset + sum(
        width for _, _, width in _COLUMNS
    ) * total
    if pool_start + 4 > len(buf):
        raise ColumnarTraceError(
            f"truncated columnar trace: pool length at byte {pool_start}"
        )
    (pool_len,) = struct.unpack_from("<I", buf, pool_start)
    if pool_start + 4 + pool_len > len(buf):
        raise ColumnarTraceError(
            f"truncated columnar trace: pool at byte {pool_start + 4}"
        )
    columns = TraceColumns(buf, column_offset, total, proc_counts)
    return ColumnarTrace(
        processor_count=nproc,
        memory_size=memory_size,
        columns=columns,
        sync_pairs=_parse_tail(buf, columns, column_offset, total),
        model_name=model_name,
        mm=mm,
    )


def open_columnar(path: Union[str, Path]) -> ColumnarTrace:
    """Open a columnar trace lazily: columns are views over an mmap."""
    with obs.span("columnar.open") as sp:
        with Path(path).open("rb") as fh:
            try:
                mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            except ValueError:  # empty file cannot be mapped
                raise ColumnarTraceError(
                    "not a columnar trace file (bad magic)"
                ) from None
        trace = _columnar_from_buffer(mm, mm=mm)
        if sp.enabled:
            sp.add("events", trace.columns.event_total)
            sp.add("file_bytes", len(mm))
        return trace


def from_columnar(path: Union[str, Path]) -> Trace:
    """Load a columnar trace fully materialized into ordinary events."""
    lazy = open_columnar(path)
    events: List[List[Event]] = [
        [proc_view[pos] for pos in range(len(proc_view))]
        for proc_view in lazy.events
    ]
    trace = Trace(
        processor_count=lazy.processor_count,
        memory_size=lazy.memory_size,
        events=events,
        sync_order=lazy.sync_order,
        symbols=None,
        model_name=lazy.model_name,
    )
    lazy.close()
    return trace
