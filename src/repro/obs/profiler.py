"""Structured pipeline instrumentation: spans and counters.

The detection pipeline is a sequence of stages (simulate -> instrument
-> hb1 -> races -> partitions) whose relative cost is what every
performance change must be justified against.  This module provides the
measurement substrate: **spans** (nestable wall-clock intervals with
named integer counters and peak-RSS capture) recorded by a
:class:`Profiler`, plus module-level accessors used by the hot path.

Collection is off by default and near-zero-cost when disabled: the
module keeps a single active-profiler slot, and when it is empty
``span()`` returns one shared no-op handle — one attribute load and one
``None`` check per instrumented stage (stages, not iterations: call
sites wrap whole pipeline stages and derive their counters from totals
the stage already tracks).  ``benchmarks/bench_profiling.py`` pins the
disabled-mode overhead below 3% of the hunt workload.

Aggregation across processes: fork workers each record into a local
:class:`Profiler` and ship ``to_records()`` (plain dicts) back over the
pool pipe; the parent folds them with :func:`aggregate_records` into
per-span-path totals (count / total / min / max seconds, summed
counters, max peak RSS).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

try:
    import resource

    def _peak_rss_kb() -> Optional[int]:
        """Process peak resident set size, in KiB (Linux ru_maxrss)."""
        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

except ImportError:  # pragma: no cover - non-POSIX platforms

    def _peak_rss_kb() -> Optional[int]:
        return None


# ----------------------------------------------------------------------
# span records
# ----------------------------------------------------------------------

@dataclass
class SpanRecord:
    """One finished (or in-flight) span."""

    name: str
    path: str  # "/"-joined ancestor names, root-first
    depth: int
    start: float  # seconds since the profiler's epoch
    duration: float = 0.0
    counters: Dict[str, int] = field(default_factory=dict)
    peak_rss_kb: Optional[int] = None
    children: List["SpanRecord"] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "t": "span",
            "name": self.name,
            "path": self.path,
            "depth": self.depth,
            "start_sec": round(self.start, 6),
            "dur_sec": round(self.duration, 6),
            "counters": dict(self.counters),
            "peak_rss_kb": self.peak_rss_kb,
        }


class Span:
    """Live handle for an open span; a context manager.

    ``enabled`` is True so call sites can guard counter computations
    that are only worth doing when a profiler is recording::

        with obs.span("trace.build") as sp:
            ...
            if sp.enabled:
                sp.add("events", trace.event_count)
    """

    __slots__ = ("_profiler", "record")

    enabled = True

    def __init__(self, profiler: "Profiler", record: SpanRecord) -> None:
        self._profiler = profiler
        self.record = record

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._profiler._close_span(self)
        return False

    def add(self, name: str, n: int = 1) -> None:
        """Add *n* to this span's counter *name*."""
        counters = self.record.counters
        counters[name] = counters.get(name, 0) + n


class _NullSpan:
    """The shared do-nothing handle returned while profiling is off."""

    __slots__ = ()

    enabled = False

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def add(self, name: str, n: int = 1) -> None:
        pass


NULL_SPAN = _NullSpan()


# ----------------------------------------------------------------------
# cross-process aggregation
# ----------------------------------------------------------------------

@dataclass
class AggregateRecord:
    """Per-span-path totals folded over many recorded spans."""

    path: str
    count: int = 0
    total_sec: float = 0.0
    min_sec: float = float("inf")
    max_sec: float = 0.0
    counters: Dict[str, int] = field(default_factory=dict)
    peak_rss_kb: Optional[int] = None

    def fold(self, span_dict: dict) -> None:
        dur = float(span_dict.get("dur_sec", 0.0))
        self.count += 1
        self.total_sec += dur
        self.min_sec = min(self.min_sec, dur)
        self.max_sec = max(self.max_sec, dur)
        for name, value in (span_dict.get("counters") or {}).items():
            self.counters[name] = self.counters.get(name, 0) + int(value)
        rss = span_dict.get("peak_rss_kb")
        if rss is not None:
            self.peak_rss_kb = max(self.peak_rss_kb or 0, int(rss))

    def fold_aggregate(self, other: "AggregateRecord") -> None:
        """Merge another aggregate for the same path into this one —
        the batch-level fold: workers pre-aggregate a whole batch's
        span records and the parent folds one aggregate per path per
        batch instead of one record per span per job."""
        self.count += other.count
        self.total_sec += other.total_sec
        self.min_sec = min(self.min_sec, other.min_sec)
        self.max_sec = max(self.max_sec, other.max_sec)
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        if other.peak_rss_kb is not None:
            self.peak_rss_kb = max(self.peak_rss_kb or 0, other.peak_rss_kb)

    def to_dict(self) -> dict:
        return {
            "t": "agg",
            "path": self.path,
            "count": self.count,
            "total_sec": round(self.total_sec, 6),
            "min_sec": round(self.min_sec, 6),
            "max_sec": round(self.max_sec, 6),
            "counters": dict(self.counters),
            "peak_rss_kb": self.peak_rss_kb,
        }


def aggregate_records(
    record_lists: Iterable[List[dict]],
    into: Optional[Dict[str, AggregateRecord]] = None,
) -> Dict[str, AggregateRecord]:
    """Fold many flat span-record lists into per-path aggregates.

    Input elements are ``Profiler.to_records()`` outputs (one per
    worker job); the result maps span path -> totals, and is
    deterministic for any input order (pure sums/extrema).  With
    *into*, the records fold into that map in place (and it is
    returned), so a running hunt can accumulate job by job.
    """
    out: Dict[str, AggregateRecord] = {} if into is None else into
    for records in record_lists:
        for rec in records:
            if rec.get("t") != "span":
                continue
            path = rec["path"]
            agg = out.get(path)
            if agg is None:
                agg = AggregateRecord(path=path)
                out[path] = agg
            agg.fold(rec)
    return out


def merge_aggregate_maps(
    target: Dict[str, AggregateRecord],
    incoming: Dict[str, AggregateRecord],
) -> None:
    """Fold *incoming* per-path aggregates into *target* in place.

    The batch-wire fold: each fork worker ships one aggregate map per
    batch (pre-folded over every job span in the batch), and the parent
    merges maps instead of walking per-job span lists.  Deterministic
    for any merge order up to float summation of ``total_sec``."""
    for path, agg in incoming.items():
        mine = target.get(path)
        if mine is None:
            target[path] = agg
        else:
            mine.fold_aggregate(agg)


# ----------------------------------------------------------------------
# the profiler
# ----------------------------------------------------------------------

class Profiler:
    """Collects a span tree, top-level counters, and aggregates.

    Use :meth:`activate` to make it the process-wide recording target
    for the module-level :func:`span`/:func:`count` accessors::

        prof = Profiler()
        with prof.activate():
            report = repro.detect(result)
        prof.write_jsonl("pipeline.jsonl")
    """

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self.spans: List[SpanRecord] = []
        self.counters: Dict[str, int] = {}
        self.aggregates: Dict[str, AggregateRecord] = {}
        self._stack: List[SpanRecord] = []

    # -- recording -----------------------------------------------------
    def span(self, name: str) -> Span:
        """Open a span nested under the currently open one."""
        parent = self._stack[-1] if self._stack else None
        path = f"{parent.path}/{name}" if parent is not None else name
        record = SpanRecord(
            name=name,
            path=path,
            depth=len(self._stack),
            start=time.perf_counter() - self.epoch,
        )
        (parent.children if parent is not None else self.spans).append(record)
        self._stack.append(record)
        return Span(self, record)

    def _close_span(self, span: Span) -> None:
        record = span.record
        record.duration = (time.perf_counter() - self.epoch) - record.start
        record.peak_rss_kb = _peak_rss_kb()
        # Tolerate out-of-order exits (exceptions unwind several levels).
        while self._stack:
            if self._stack.pop() is record:
                break

    def count(self, name: str, n: int = 1) -> None:
        """Add *n* to counter *name* on the innermost open span, or to
        the profiler's top-level counters when no span is open."""
        target = self._stack[-1].counters if self._stack else self.counters
        target[name] = target.get(name, 0) + n

    def add_aggregates(self, aggregates: Dict[str, AggregateRecord]) -> None:
        """Merge cross-process aggregates (see :func:`aggregate_records`)."""
        merge_aggregate_maps(self.aggregates, aggregates)

    # -- activation ----------------------------------------------------
    def activate(self) -> "_Activation":
        """Context manager: route module-level spans/counters here."""
        return _Activation(self)

    # -- export --------------------------------------------------------
    def _walk(self, records: List[SpanRecord]) -> Iterator[SpanRecord]:
        for record in records:
            yield record
            yield from self._walk(record.children)

    def to_records(self) -> List[dict]:
        """Flat span dicts in depth-first order (JSONL body lines)."""
        return [record.to_dict() for record in self._walk(self.spans)]

    def to_json(self) -> dict:
        """The whole profile as one JSON document."""
        return {
            "format": 1,
            "spans": self.to_records(),
            "counters": dict(self.counters),
            "aggregates": [
                agg.to_dict() for _, agg in sorted(self.aggregates.items())
            ],
        }

    def summary(self) -> str:
        """Human-readable span tree + aggregate table."""
        lines: List[str] = []

        def fmt_counters(counters: Dict[str, int]) -> str:
            if not counters:
                return ""
            body = ", ".join(f"{k}={v}" for k, v in sorted(counters.items()))
            return f"  [{body}]"

        def walk(records: List[SpanRecord], indent: int) -> None:
            for record in records:
                lines.append(
                    f"{'  ' * indent}{record.name}: "
                    f"{record.duration * 1000:.2f}ms"
                    f"{fmt_counters(record.counters)}"
                )
                walk(record.children, indent + 1)

        walk(self.spans, 0)
        if self.counters:
            lines.append(f"counters:{fmt_counters(self.counters)}")
        if self.aggregates:
            lines.append("aggregated across workers:")
            for path, agg in sorted(self.aggregates.items()):
                lines.append(
                    f"  {path}: n={agg.count} total={agg.total_sec * 1000:.2f}ms "
                    f"min={agg.min_sec * 1000:.2f}ms "
                    f"max={agg.max_sec * 1000:.2f}ms"
                    f"{fmt_counters(agg.counters)}"
                )
        return "\n".join(lines) if lines else "(empty profile)"

    def write_jsonl(self, path, meta: Optional[dict] = None) -> None:
        from .export import write_profile

        write_profile(self, path, meta=meta)


class _Activation:
    """Sets/restores the module-level active profiler."""

    __slots__ = ("_profiler", "_previous")

    def __init__(self, profiler: Profiler) -> None:
        self._profiler = profiler
        self._previous: Optional[Profiler] = None

    def __enter__(self) -> Profiler:
        global _ACTIVE
        self._previous = _ACTIVE
        _ACTIVE = self._profiler
        return self._profiler

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _ACTIVE
        _ACTIVE = self._previous
        return False


# ----------------------------------------------------------------------
# module-level accessors (the hot-path API)
# ----------------------------------------------------------------------

_ACTIVE: Optional[Profiler] = None


def active() -> Optional[Profiler]:
    """The currently recording profiler, if any."""
    return _ACTIVE


def enabled() -> bool:
    """True when a profiler is recording in this process."""
    return _ACTIVE is not None


def span(name: str):
    """Open a span on the active profiler; a shared no-op when off."""
    prof = _ACTIVE
    if prof is None:
        return NULL_SPAN
    return prof.span(name)


def count(name: str, n: int = 1) -> None:
    """Bump a counter on the active profiler; no-op when off."""
    prof = _ACTIVE
    if prof is not None:
        prof.count(name, n)
