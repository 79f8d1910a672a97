"""Tracing / instrumentation substrate (section 4.1 of the paper):
events, READ/WRITE bit-vectors, trace construction from a simulated
execution, and trace-file serialization for post-mortem analysis."""

from .binfile import (
    BinaryTraceError,
    write_binary_trace,
)
from .bitvector import BitVector
from .build import Trace, TraceBuilder, TraceError, build_trace, event_of_op
from .columnar import (
    ColumnarTrace,
    ColumnarTraceError,
    EventView,
    TraceColumns,
    from_columnar,
    open_columnar,
    to_columnar,
)
from .events import (
    ComputationEvent,
    Event,
    EventId,
    EventKind,
    SyncEvent,
    conflicting_locations,
    involves_data,
)
from .fingerprint import trace_fingerprint
from .tracefile import TraceFormatError, write_trace
from .validate import InvalidTraceError, require_valid_trace, validate_trace

__all__ = [
    "BinaryTraceError",
    "write_binary_trace",
    "ColumnarTrace",
    "ColumnarTraceError",
    "EventView",
    "TraceColumns",
    "from_columnar",
    "open_columnar",
    "to_columnar",
    "BitVector",
    "Trace",
    "TraceBuilder",
    "TraceError",
    "build_trace",
    "event_of_op",
    "ComputationEvent",
    "Event",
    "EventId",
    "EventKind",
    "SyncEvent",
    "conflicting_locations",
    "involves_data",
    "TraceFormatError",
    "InvalidTraceError",
    "require_valid_trace",
    "validate_trace",
    "write_trace",
    "trace_fingerprint",
]
