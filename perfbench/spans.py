"""Benchmark-side spans for the traced run.

A span is a named wall-clock interval recorded around one call into a
layer's public function, with the span that caused it and the try or
operation id it belongs to.  Spans stay in memory and are written out
once, when the run ends.  A span's self time is its duration minus the
part of its interval that its children cover; children may nest or
overlap, and a child reaching outside its parent is clipped.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; nesting follows the ``with`` blocks."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        if op is None and parent is not None:
            op = self.spans[parent].op
        record = Span(len(self.spans), name, time.perf_counter(), 0.0,
                      parent, op)
        self.spans.append(record)
        self._open.append(record.id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def write_jsonl(self, path) -> None:
        selfs = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                row = asdict(span)
                row["self"] = selfs[span.id]
                out.write(json.dumps(row) + "\n")


class NullTracer:
    """The same interface recording nothing: the untraced replay."""

    def span(self, name: str, op: Optional[int] = None):
        return nullcontext()


def covered(intervals: Iterable[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - covered(
            children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def self_totals(spans: List[Span]) -> Dict[str, float]:
    """Span name -> summed self time."""
    totals: Dict[str, float] = {}
    selfs = self_times(spans)
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + selfs[span.id]
    return totals
