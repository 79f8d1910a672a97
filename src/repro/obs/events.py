"""repro.obs.events — a schema-versioned structured event log.

Where the profiler records *spans* (how long each stage took) and the
metrics registry records *rates*, the event log records *what
happened*: one wide JSONL record per unit of work, written as it
completes, so a long-running hunt leaves an auditable, tail-able
history instead of only a final summary.

The schema (``EVENTS_FORMAT`` = 2) is JSON-lines:

* line 1 — a meta record::

      {"t": "meta", "schema": 2, "kind": "hunt", "workload": ..., ...}

* ``{"t": "try", ...}`` — one record per hunt try: ``index``,
  ``seed``, ``policy``, ``status`` (racy | clean | error | retried |
  skipped), ``duration_sec``, ``cache_hit``, ``fingerprint``
  (canonical trace fingerprint, "" when the cache is off), ``races``
  (data races found), ``operations``, ``completed`` (False = step
  bound hit), plus retry provenance ``attempt``/``retries`` (optional for
  backward compatibility; ``status="retried"`` marks an attempt that
  a later retry superseded).  Newer writers add, still optionally:
  ``detector`` (the analysis backend), ``certified`` (the report's
  certified race count), ``failure_kind`` (settled-error
  classification), ``partitions`` (first-race provenance coverage
  keys, see :func:`repro.core.provenance.partition_coverage_keys`),
  and ``restored`` (``true`` on the records a resumed hunt writes
  first, one per job restored from its checkpoint; they count like any
  other try, so the log's totals match the merged result);

* ``{"t": "stage", ...}`` — one record per detection stage, folded
  across all workers: ``path`` (span path, e.g.
  ``hunt.job/detect.postmortem/races.find``), ``count``,
  ``total_sec``, ``min_sec``, ``max_sec``, ``counters``;

* ``{"t": "summary", ...}`` — the run's closing totals (a subset of
  ``HuntResult.to_json()``, see :meth:`HuntEventLog.finish`).

:func:`try_record` builds each ``try`` record, and the metrics fold
(:class:`repro.obs.metrics.HuntMetrics`) reads the same records, so a
log replays into the counts a live registry shows.

Schema 1 differs only in that ``races`` counted every race, sync
races included; a race-free report no longer sweeps those (see
:class:`repro.core.report.RaceReport`), so schema 2 counts data races.
:func:`check_events` checks a file against either schema — and
rejects unknown ``schema`` versions — and ``weakraces events FILE``
validates, summarizes, or tails a log.  Records are flushed per line,
so ``weakraces events --tail`` (or plain ``tail -f``) works while the
hunt is still running.  Because the stream is append-only (an atomic
whole-file rewrite per record would break ``tail -f``), its crash
mode is a truncated final line: validation downgrades that one case
to a *warning* (the log merely lost its last record) while mid-file
garbage stays a hard problem.

Writing is opt-in (``weakraces hunt --events FILE`` or
``hunt_races(on_outcome=HuntEventLog(...).on_outcome)``); when no log
is attached the hot path pays nothing.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..ioutil import read_jsonl_tolerant

EVENTS_FORMAT = 2
#: Schemas :func:`check_events` reads.
READABLE_SCHEMAS = (1, EVENTS_FORMAT)

TRY_STATUSES = ("racy", "clean", "error", "retried", "skipped")

_TRY_KEYS = {
    "index", "seed", "policy", "status", "duration_sec",
    "cache_hit", "fingerprint", "races", "operations", "completed",
}
_STAGE_KEYS = {"path", "count", "total_sec", "min_sec", "max_sec", "counters"}


class EventLogWriter:
    """Line-buffered JSONL event writer; a context manager.

    The meta record (schema version + caller-supplied context) is
    written immediately on construction, so even an interrupted run
    leaves a valid, identifiable log prefix.
    """

    def __init__(self, path: Union[str, Path], kind: str,
                 meta: Optional[dict] = None) -> None:
        self.path = Path(path)
        self._fh = self.path.open("w", encoding="utf-8")
        header = {"t": "meta", "schema": EVENTS_FORMAT, "kind": kind}
        if meta:
            header.update(meta)
        self.write(header)

    def write(self, record: dict) -> None:
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "EventLogWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def try_record(outcome, detector: str = "") -> dict:
    """The ``try`` record of one job outcome (duck-typed
    :class:`repro.analysis.parallel.JobOutcome`): what the event log
    writes, and what :class:`repro.obs.metrics.HuntMetrics` folds."""
    record = {
        "t": "try",
        "index": outcome.job.index,
        "seed": outcome.job.seed,
        "policy": outcome.job.policy_name,
        "status": outcome.status,
        "duration_sec": round(outcome.duration, 6),
        "cache_hit": outcome.cache_hit,
        "fingerprint": outcome.fingerprint,
        "races": outcome.race_count,
        "operations": outcome.operations,
        "completed": outcome.completed,
        "error": outcome.error,
        "attempt": outcome.job.attempt,
        "retries": outcome.retries,
        "certified": getattr(outcome, "certified_races", 0),
    }
    if detector:
        record["detector"] = detector
    failure_kind = getattr(outcome, "failure_kind", "")
    if failure_kind:
        record["failure_kind"] = failure_kind
    partitions = getattr(outcome, "partition_keys", ())
    if partitions:
        record["partitions"] = list(partitions)
    robust = getattr(outcome, "robust", None)
    if robust is not None:
        record["robust"] = robust
    if getattr(outcome, "restored", False):
        record["restored"] = True
    return record


class HuntEventLog:
    """The hunt's event stream: one ``try`` record per job outcome.

    ``on_outcome`` plugs straight into
    :func:`repro.analysis.hunting.hunt_races`'s hook of the same name;
    :meth:`finish` appends the stage aggregates and the closing summary
    once the merged :class:`~repro.analysis.hunting.HuntResult` exists.
    """

    #: ``HuntResult.to_json()`` keys the summary record copies as is.
    SUMMARY_KEYS = (
        "tries", "racy_runs", "clean_runs", "elapsed_sec",
        "executions_per_sec", "trace_cache_hits", "retried_runs",
        "interrupted", "resumed_jobs", "detector", "certified_races",
        "hunt_id",
    )

    def __init__(self, path: Union[str, Path],
                 meta: Optional[dict] = None,
                 detector: str = "") -> None:
        self.writer = EventLogWriter(path, kind="hunt", meta=meta)
        self.detector = detector
        self.tries = 0

    def on_outcome(self, outcome) -> None:
        """Record one job outcome (see :func:`try_record`)."""
        self.tries += 1
        self.writer.write(try_record(outcome, self.detector))

    def write_stages(self, stage_profile: Optional[Dict[str, dict]]) -> None:
        """Append one ``stage`` record per aggregated span path (from
        ``HuntResult.stage_profile``; a no-op when profiling was off)."""
        if not stage_profile:
            return
        for path in sorted(stage_profile):
            agg = dict(stage_profile[path])
            agg.pop("t", None)
            agg.pop("peak_rss_kb", None)
            agg["t"] = "stage"
            agg.setdefault("path", path)
            self.writer.write(agg)

    def write_summary(self, payload: dict) -> None:
        record = {"t": "summary"}
        record.update(payload)
        self.writer.write(record)

    def finish(self, result) -> None:
        """Append *result*'s stage records and summary record (its
        :attr:`SUMMARY_KEYS`, the failure count and any robustness
        totals), then close the log."""
        payload = result.to_json()
        summary = {key: payload[key] for key in self.SUMMARY_KEYS}
        summary["failures"] = len(payload["failures"])
        robustness = payload.get("robustness")
        if robustness:
            summary.update(
                verified_tries=robustness["verified_tries"],
                robust_tries=robustness["robust"],
                non_robust_tries=robustness["non_robust"],
                soundness=robustness["soundness"],
            )
        self.write_stages(result.stage_profile)
        self.write_summary(summary)
        self.close()

    def close(self) -> None:
        self.writer.close()


# ----------------------------------------------------------------------
# read-back, validation, the tail view
# ----------------------------------------------------------------------

def read_events(path: Union[str, Path]) -> Dict[str, object]:
    """Load an event log into ``{"meta": ..., "tries": [...],
    "stages": [...], "summary": ...}``.  A truncated final line (the
    tail-write crash shape; see :func:`check_events`) is skipped —
    every complete record still loads."""
    meta: Optional[dict] = None
    tries: List[dict] = []
    stages: List[dict] = []
    summary: Optional[dict] = None
    records, _, _ = read_jsonl_tolerant(path)
    for record in records:
        kind = record.get("t")
        if kind == "meta":
            meta = record
        elif kind == "try":
            tries.append(record)
        elif kind == "stage":
            stages.append(record)
        elif kind == "summary":
            summary = record
    return {"meta": meta, "tries": tries, "stages": stages,
            "summary": summary}


def check_events(
    path: Union[str, Path],
) -> Tuple[List[str], List[str]]:
    """Check *path* against the event-log schema; returns
    ``(problems, warnings)``.  Files declaring an unknown ``schema``
    version are rejected, never silently accepted.

    A log whose *final* line is undecodable gets a warning, not a
    problem: the writer appends and flushes per record, so a process
    killed mid-append leaves exactly that shape, and every complete
    record before it is still trustworthy.  Undecodable bytes anywhere
    else mean real corruption and stay problems.
    """
    records, problems, warnings = read_jsonl_tolerant(path)
    if problems:
        return problems, warnings
    if not records:
        if not warnings:
            problems.append("empty event log")
        return problems, warnings
    meta = records[0]
    if meta.get("t") != "meta":
        problems.append("first record is not a meta record")
    else:
        schema = meta.get("schema")
        if not isinstance(schema, int) or isinstance(schema, bool):
            problems.append(f"meta.schema is not an integer: {schema!r}")
        elif schema not in READABLE_SCHEMAS:
            problems.append(
                f"unknown schema version {schema!r} (this reader "
                f"understands {', '.join(map(str, READABLE_SCHEMAS))})"
            )
    for i, record in enumerate(records[1:], start=2):
        kind = record.get("t")
        if kind == "try":
            missing = _TRY_KEYS - record.keys()
            if missing:
                problems.append(f"line {i}: try missing {sorted(missing)}")
                continue
            if record["status"] not in TRY_STATUSES:
                problems.append(
                    f"line {i}: unknown try status {record['status']!r}"
                )
            if record["duration_sec"] < 0:
                problems.append(f"line {i}: negative try duration")
            if not isinstance(record.get("restored", False), bool):
                problems.append(f"line {i}: try restored is not a boolean")
        elif kind == "stage":
            missing = _STAGE_KEYS - record.keys()
            if missing:
                problems.append(f"line {i}: stage missing {sorted(missing)}")
        elif kind == "summary":
            pass  # free-form totals
        elif kind == "meta":
            problems.append(f"line {i}: duplicate meta record")
        else:
            problems.append(f"line {i}: unknown record type {kind!r}")
    return problems, warnings


def validate_events(path: Union[str, Path]) -> List[str]:
    """:func:`check_events` problems only (the historical interface);
    truncated-tail warnings do not fail validation."""
    problems, _ = check_events(path)
    return problems


def format_try(record: dict) -> str:
    """One human-readable line per try record (the ``--tail`` view)."""
    flags = []
    if record.get("cache_hit"):
        flags.append("cache")
    if not record.get("completed", True):
        flags.append("step-bound")
    if record.get("attempt"):
        flags.append(f"attempt {record['attempt'] + 1}")
    if record.get("error"):
        flags.append(record["error"])
    suffix = f"  [{', '.join(flags)}]" if flags else ""
    fingerprint = record.get("fingerprint") or ""
    fp = f" fp={fingerprint[:12]}" if fingerprint else ""
    return (
        f"#{record['index']:<4} seed={record['seed']:<4} "
        f"{record['policy']:<12} {record['status']:<7} "
        f"races={record['races']:<3} "
        f"{record['duration_sec'] * 1000:7.2f}ms{fp}{suffix}"
    )
