"""Structural validation of post-mortem traces.

A trace file arrives from an instrumented production run — possibly
truncated, corrupted, or produced by a buggy tracer (the paper's §5
even discusses pathological programs overwriting their own traces).
Before analysis, :func:`validate_trace` checks every structural
invariant the detector relies on and returns a list of human-readable
problems (empty = valid):

* event ids are dense and correctly positioned per processor;
* every sync event appears exactly once in its location's sync order,
  at the position it claims (``order_pos``);
* sync orders reference only existing sync events of the right address;
* READ/WRITE bit-vectors and sync addresses stay within the declared
  memory size;
* computation events are non-empty (an empty computation event cannot
  be produced by the builder and usually indicates truncation).
"""

from __future__ import annotations

from typing import List

from .build import Trace, TraceError
from .events import ComputationEvent, SyncEvent


class InvalidTraceError(TraceError):
    """Raised by :func:`require_valid_trace` with all problems listed."""


def validate_trace(trace: Trace) -> List[str]:
    """Return every structural problem found in *trace*."""
    problems: List[str] = []

    if len(trace.events) != trace.processor_count:
        problems.append(
            f"processor_count={trace.processor_count} but "
            f"{len(trace.events)} event streams"
        )

    sync_events = {}
    for proc, proc_events in enumerate(trace.events):
        for pos, event in enumerate(proc_events):
            eid = event.eid
            if eid.proc != proc or eid.pos != pos:
                problems.append(
                    f"event at stream position P{proc}.{pos} carries id {eid}"
                )
            if isinstance(event, SyncEvent):
                sync_events[eid] = event
                if not 0 <= event.addr < trace.memory_size:
                    problems.append(
                        f"{eid}: sync address {event.addr} outside memory "
                        f"size {trace.memory_size}"
                    )
            elif isinstance(event, ComputationEvent):
                for addr in list(event.reads) + list(event.writes):
                    if not 0 <= addr < trace.memory_size:
                        problems.append(
                            f"{eid}: accessed address {addr} outside "
                            f"memory size {trace.memory_size}"
                        )
                        break
                if not event.reads and not event.writes:
                    problems.append(f"{eid}: empty computation event")
            else:  # pragma: no cover - defensive
                problems.append(f"{eid}: unknown event type {type(event)}")

    listed = set()
    for addr, order in trace.sync_order.items():
        for pos, eid in enumerate(order):
            event = sync_events.get(eid)
            if event is None:
                problems.append(
                    f"sync order of {addr}: {eid} is not a sync event"
                )
                continue
            if event.addr != addr:
                problems.append(
                    f"sync order of {addr}: {eid} accesses {event.addr}"
                )
            if event.order_pos != pos:
                problems.append(
                    f"{eid}: order_pos={event.order_pos} but listed at "
                    f"position {pos} of location {addr}'s sync order"
                )
            if eid in listed:
                problems.append(f"{eid}: listed in multiple sync orders")
            listed.add(eid)
    for eid in sync_events:
        if eid not in listed:
            problems.append(f"{eid}: sync event missing from sync order")

    return problems


def require_valid_trace(trace: Trace) -> Trace:
    """Validate and return *trace*; raise with all problems otherwise."""
    problems = validate_trace(trace)
    if problems:
        summary = "\n  ".join(problems[:20])
        more = f"\n  (+{len(problems) - 20} more)" if len(problems) > 20 else ""
        raise InvalidTraceError(f"invalid trace:\n  {summary}{more}")
    return trace
