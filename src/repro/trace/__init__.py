"""Tracing / instrumentation substrate (section 4.1 of the paper):
events, READ/WRITE bit-vectors, trace construction from a simulated
execution, and trace-file serialization for post-mortem analysis."""

from .._lazy import lazy_exports

__all__ = lazy_exports(globals(), {
    "binfile": "BinaryTraceError write_binary_trace",
    "columnar": "ColumnarTrace ColumnarTraceError EventView TraceColumns "
                "from_columnar open_columnar to_columnar",
    "bitvector": "BitVector",
    "build": "Trace TraceBuilder TraceError build_trace event_of_op",
    "events": "ComputationEvent Event EventId EventKind SyncEvent "
              "conflicting_locations involves_data",
    "tracefile": "TraceFormatError write_trace",
    "validate": "InvalidTraceError require_valid_trace validate_trace",
    "fingerprint": "trace_fingerprint",
})
