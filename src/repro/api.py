"""The unified detection entry point: ``repro.detect``.

Every detector variant, every source kind, one front door::

    report = repro.detect(source, detector="postmortem", profile=None)

``source`` may be any *trace source*:

* a :class:`~repro.trace.build.Trace` (including a lazy mmap-backed
  :class:`~repro.trace.columnar.ColumnarTrace`);
* an :class:`~repro.machine.simulator.ExecutionResult`;
* a trace-file path (str / ``os.PathLike``) — the format is sniffed
  from the magic bytes: columnar (``WRCT``), v1 binary (``WRTR``), or
  JSON-lines (see :func:`load_trace`);
* an open binary file object containing any of those formats;
* an iterator/iterable of
  :class:`~repro.machine.operations.MemoryOperation` in global emission
  order (e.g. the simulator's ``on_operation`` stream).

``detector`` selects the variant:

* ``"postmortem"`` — the paper's pipeline (§4.1–4.2); returns a
  :class:`~repro.core.report.RaceReport`.
* ``"naive"`` — the report-everything strawman (§3.1); returns a
  :class:`~repro.analysis.naive.NaiveReport`.
* ``"onthefly"`` — the streaming bounded-history detector with online
  first-race classification (§5); returns an
  :class:`~repro.core.onthefly.OnTheFlyReport`.  Requires an
  ``ExecutionResult`` (it consumes the operation stream, which trace
  files deliberately do not record — §4.1).
* ``"streaming"`` — the exact online detector
  (:mod:`repro.core.streaming`): consumes events with O(P·V) state, no
  trace materialized, and reports the identical race set to the
  post-mortem hb1 sweep; returns a
  :class:`~repro.core.streaming.StreamingReport`.
* ``"shb"`` — the postmortem pipeline plus SHB per-race soundness
  (Mathur et al. 2018): the same race set and first partitions, with
  ``sound_races`` each individually certified schedulable; returns an
  :class:`~repro.core.predictive.SHBReport`.
* ``"wcp"`` — the postmortem pipeline plus WCP race *prediction* (Kini
  et al. 2017): non-conflicting critical-section orderings are dropped
  and races of reorderings surface as ``predicted_races``; returns an
  :class:`~repro.core.predictive.WCPReport`.

All returned reports share one protocol: ``format()``,
``to_json()``, and ``from_json()`` (see :func:`report_from_json`), so
CLI ``--json`` output and hunt artifacts serialize uniformly.

``profile`` threads the observability layer through the call: pass a
:class:`repro.obs.Profiler` to record into it, or a path to write a
JSONL profile of this detection (see ``docs/detection_pipeline.md``,
"Profiling the pipeline").
"""

from __future__ import annotations

import io
import os
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Union

from . import obs

# Each detector and trace format is imported when a call first needs
# it, so ``import repro`` and ``weakraces --help`` load none of them.
if TYPE_CHECKING:
    from .analysis.naive import NaiveReport
    from .core.onthefly import OnTheFlyReport
    from .core.report import RaceReport
    from .core.streaming import StreamingReport
    from .machine.operations import MemoryOperation
    from .machine.simulator import ExecutionResult
    from .trace.build import Trace

    ReportType = Union[RaceReport, NaiveReport, OnTheFlyReport,
                       StreamingReport]

DETECTOR_NAMES = ("postmortem", "naive", "onthefly", "streaming", "shb", "wcp")

TRACE_FORMATS = ("jsonl", "binary", "columnar")

_SUFFIX_FORMATS = {
    ".jsonl": "jsonl",
    ".json": "jsonl",
    ".trace": "jsonl",
    ".bin": "binary",
    ".wrtr": "binary",
    ".col": "columnar",
    ".columnar": "columnar",
    ".wrct": "columnar",
}

# ----------------------------------------------------------------------
# trace loading / saving: one front door for all three formats
# ----------------------------------------------------------------------

def sniff_trace_format(path: Union[str, os.PathLike]) -> str:
    """Identify a trace file's format from its magic bytes:
    ``"columnar"`` (``WRCT``), ``"binary"`` (``WRTR``), else
    ``"jsonl"``."""
    from .trace.binfile import MAGIC as binary_magic
    from .trace.columnar import COLUMNAR_MAGIC

    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == COLUMNAR_MAGIC:
        return "columnar"
    if head == binary_magic:
        return "binary"
    return "jsonl"


def load_trace(source: Union[str, os.PathLike]) -> Trace:
    """Load a trace file in any supported format, auto-detected by
    magic bytes.

    Columnar files open *lazily*: the returned
    :class:`~repro.trace.columnar.ColumnarTrace` exposes ``memoryview``
    columns over an mmap and materializes event objects only on demand.  Binary
    and JSON-lines files are fully decoded.
    """
    fmt = sniff_trace_format(source)
    if fmt == "columnar":
        from .trace.columnar import open_columnar
        return open_columnar(source)
    if fmt == "binary":
        from .trace.binfile import _read_binary_trace
        return _read_binary_trace(source)
    from .trace.tracefile import _read_trace
    return _read_trace(source)


def save_trace(
    trace: Trace,
    path: Union[str, os.PathLike],
    format: Optional[str] = None,
) -> str:
    """Write *trace* to *path* as ``"jsonl"``, ``"binary"``, or
    ``"columnar"``; with ``format=None`` the format is inferred from
    the path suffix (``.bin``/``.wrtr`` → binary, ``.col``/``.wrct``/
    ``.columnar`` → columnar, anything else → jsonl).  Returns the
    format written."""
    if format is None:
        format = _SUFFIX_FORMATS.get(Path(path).suffix.lower(), "jsonl")
    if format not in TRACE_FORMATS:
        raise ValueError(
            f"unknown trace format {format!r}; "
            f"known: {', '.join(TRACE_FORMATS)}"
        )
    if format == "columnar":
        from .trace.columnar import to_columnar
        to_columnar(trace, path)
    elif format == "binary":
        from .trace.binfile import write_binary_trace
        write_binary_trace(trace, path)
    else:
        from .trace.tracefile import write_trace
        write_trace(trace, path)
    return format


def _trace_from_file_object(fh) -> Trace:
    """Resolve an open file object: sniff the leading bytes and parse
    whichever of the three formats they announce."""
    from .trace.binfile import MAGIC as binary_magic
    from .trace.binfile import _read_binary_trace_stream
    from .trace.columnar import COLUMNAR_MAGIC, _columnar_from_buffer
    from .trace.tracefile import _parse_trace_text

    data = fh.read()
    if isinstance(data, bytes):
        if data[:4] == COLUMNAR_MAGIC:
            return _columnar_from_buffer(data)
        if data[:4] == binary_magic:
            return _read_binary_trace_stream(io.BytesIO(data))
    return _parse_trace_text(data, getattr(fh, "name", "<trace>"))


def _trace_from_operations(ops: List[MemoryOperation]) -> Trace:
    """Segment a bare operation stream into a trace, inferring the
    processor count and memory size from the operations themselves."""
    from .trace.build import TraceBuilder

    processor_count = max((op.proc for op in ops), default=0) + 1
    memory_size = max((op.addr for op in ops), default=0) + 1
    builder = TraceBuilder(
        processor_count=processor_count, memory_size=memory_size
    )
    for op in ops:
        builder.add_operation(op)
    return builder.finish()


def _resolve_source(source) -> Union[Trace, ExecutionResult, list]:
    """Normalize any trace source to a Trace, an ExecutionResult, or a
    list of MemoryOperations (the streaming detector consumes the last
    directly; everything else segments it into a Trace)."""
    from .machine.operations import MemoryOperation
    from .machine.simulator import ExecutionResult
    from .trace.build import Trace

    if isinstance(source, (str, os.PathLike)):
        return load_trace(source)
    if isinstance(source, (Trace, ExecutionResult)):
        return source
    if hasattr(source, "read"):
        return _trace_from_file_object(source)
    if hasattr(source, "__iter__") or hasattr(source, "__next__"):
        ops = list(source)
        if all(isinstance(op, MemoryOperation) for op in ops):
            return ops
        raise TypeError(
            "iterable sources must yield MemoryOperation objects"
        )
    raise TypeError(
        f"expected Trace, ExecutionResult, trace-file path, open trace "
        f"file, or MemoryOperation iterable, got {type(source).__name__}"
    )


def _detect(source, detector: str) -> ReportType:
    from .machine.simulator import ExecutionResult

    resolved = _resolve_source(source)
    if detector == "streaming":
        from .core.streaming import StreamingDetector

        streaming = StreamingDetector()
        if isinstance(resolved, ExecutionResult):
            return streaming.analyze_execution(resolved)
        if isinstance(resolved, list):
            processor_count = max(
                (op.proc for op in resolved), default=0
            ) + 1
            return streaming.analyze_operations(
                resolved, processor_count=processor_count
            )
        return streaming.analyze(resolved)
    if detector == "onthefly":
        if not isinstance(resolved, ExecutionResult):
            raise TypeError(
                "detector='onthefly' consumes the operation stream and "
                "needs an ExecutionResult; trace files do not record "
                "individual operations (paper section 4.1)"
            )
        from .core.onthefly import OnTheFlyReport
        from .core.onthefly_first import FirstRaceOnTheFlyDetector

        with obs.span("detect.onthefly") as sp:
            streaming = FirstRaceOnTheFlyDetector(resolved.processor_count)
            streaming.process_all(resolved.operations)
            if sp.enabled:
                sp.add("operations", len(resolved.operations))
                sp.add("races", len(streaming.races))
                sp.add("evicted_accesses", streaming.evicted_accesses)
        return OnTheFlyReport(
            processor_count=resolved.processor_count,
            model_name=resolved.model_name,
            races=streaming.races,
            first_races=streaming.first_races,
            non_first_races=streaming.non_first_races,
            evicted_accesses=streaming.evicted_accesses,
        )
    if isinstance(resolved, ExecutionResult):
        from .trace.build import build_trace

        trace = build_trace(resolved)
    elif isinstance(resolved, list):
        trace = _trace_from_operations(resolved)
    else:
        trace = resolved
    if detector == "postmortem":
        from .core.detector import PostMortemDetector

        return PostMortemDetector().analyze(trace)
    if detector == "shb":
        from .core.predictive import SHBDetector

        return SHBDetector().analyze(trace)
    if detector == "wcp":
        from .core.predictive import WCPDetector

        return WCPDetector().analyze(trace)
    assert detector == "naive"
    from .analysis.naive import NaiveDetector

    return NaiveDetector().analyze(trace)


def detect(
    source,
    *,
    detector: str = "postmortem",
    profile=None,
) -> ReportType:
    """Run one detector variant on *source* (see module docstring).

    Args:
        source: a ``Trace``, an ``ExecutionResult``, a trace-file path
            (``str`` / ``os.PathLike``, any format — sniffed), an open
            trace file object, or an iterable of ``MemoryOperation``.
        detector: ``"postmortem"`` (default), ``"naive"``,
            ``"onthefly"``, ``"streaming"``, ``"shb"``, or ``"wcp"``.
        profile: ``None`` (no profiling), a :class:`repro.obs.Profiler`
            to record into, or a path — a fresh profiler is activated
            for the call and written there as JSONL.  When the detector
            raises, the partial profile is still written (with an
            ``error`` meta field) before the exception propagates.

    Returns:
        The detector's report; all variants support ``format()`` and
        ``to_json()``.
    """
    if detector not in DETECTOR_NAMES:
        raise ValueError(
            f"unknown detector {detector!r}; "
            f"known: {', '.join(DETECTOR_NAMES)}"
        )
    if profile is None:
        return _detect(source, detector)
    if isinstance(profile, obs.Profiler):
        with profile.activate(), obs.span("detect"):
            return _detect(source, detector)
    if isinstance(profile, (str, os.PathLike)):
        profiler = obs.Profiler()
        meta = {"command": "detect", "detector": detector}
        try:
            with profiler.activate(), obs.span("detect"):
                report = _detect(source, detector)
        except Exception as exc:
            # The spans recorded up to the failure are exactly what a
            # post-mortem of the failure needs; losing them because the
            # detector raised would defeat the point of profiling.
            meta["error"] = f"{type(exc).__name__}: {exc}"
            obs.write_profile(profiler, profile, meta=meta)
            raise
        obs.write_profile(profiler, profile, meta=meta)
        return report
    raise TypeError(
        f"profile must be None, a Profiler, or a path, "
        f"got {type(profile).__name__}"
    )


def check_robustness(source):
    """Robustness verdict for *source*: does the observed execution
    have a sequentially consistent justification?

    *source* is anything :func:`detect` accepts **except** a bare
    trace: an :class:`~repro.machine.simulator.ExecutionResult` or an
    iterable of :class:`~repro.machine.operations.MemoryOperation`.
    Trace files and :class:`~repro.trace.build.Trace` objects do not
    record read values or observed writers (paper section 4.1), and
    the reads-from relation is exactly what robustness is about.

    Returns a :class:`~repro.core.robustness.RobustnessReport` with
    the SC witness order when robust, or the minimal po/rf/co/fr
    violating cycle plus the SC-prefix boundary when not.
    """
    from .core.robustness import check_robustness as _check
    from .trace.build import Trace

    resolved = _resolve_source(source)
    if isinstance(resolved, Trace):
        raise TypeError(
            "check_robustness needs the reads-from relation and so "
            "consumes the operation stream; pass an ExecutionResult "
            "or a MemoryOperation iterable — trace files do not "
            "record observed writers (paper section 4.1)"
        )
    return _check(resolved)


def explain(source, *, include_sync: bool = False):
    """Detect races on *source* and build witness-checked provenance
    for each one (``weakraces explain`` in library form).

    *source* is anything :func:`detect` accepts, or an existing
    post-mortem :class:`~repro.core.report.RaceReport`.  Returns a
    :class:`~repro.core.provenance.ProvenanceReport`: per data race,
    the hb1 non-ordering witness (a BFS cross-checked against the
    detector's vector clocks), its SCC/partition in G', and the
    Definition 4.1 ordering evidence that makes its partition first (or
    not).
    """
    from .core.provenance import explain_races
    from .core.report import RaceReport

    report = source if isinstance(source, RaceReport) else _detect(
        source, "postmortem"
    )
    return explain_races(report, include_sync=include_sync)


def report_from_json(payload: dict) -> ReportType:
    """Rebuild any detector report from its ``to_json()`` payload,
    dispatching on the payload's ``kind``.

    An unknown or missing ``kind`` (garbage, ``None``, or a payload
    from a future format this reader does not know) raises
    :class:`ValueError` naming the offending kind and listing every
    kind this build understands.
    """
    from .analysis.naive import NaiveReport
    from .core.onthefly import OnTheFlyReport
    from .core.predictive import SHBReport, WCPReport
    from .core.report import RaceReport
    from .core.robustness import RobustnessReport
    from .core.streaming import StreamingReport

    readers = {
        "postmortem": RaceReport.from_json,
        "naive": NaiveReport.from_json,
        "onthefly": OnTheFlyReport.from_json,
        "streaming": StreamingReport.from_json,
        "shb": SHBReport.from_json,
        "wcp": WCPReport.from_json,
        "robustness": RobustnessReport.from_json,
    }
    kind = payload.get("kind")
    reader = readers.get(kind)
    if reader is None:
        raise ValueError(
            f"unknown report kind {kind!r}; "
            f"known kinds: {', '.join(sorted(readers))}"
        )
    return reader(payload)


__all__ = [
    "DETECTOR_NAMES",
    "TRACE_FORMATS",
    "check_robustness",
    "detect",
    "explain",
    "load_trace",
    "report_from_json",
    "save_trace",
    "sniff_trace_format",
]
