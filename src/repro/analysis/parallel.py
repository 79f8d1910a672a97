"""The parallel race-hunting engine.

One dynamic run proves nothing (paper §1), so the hunt's currency is
*executions per second*.  This module turns the seed x policy sweep of
:mod:`repro.analysis.hunting` into an explicit job list and executes it
either in-process (``jobs=1`` — today's serial path) or across a
``fork``-based :mod:`multiprocessing` pool, with three properties the
serial loop gets for free and a pool must work for:

* **Determinism** — jobs carry a canonical index (seed-major over the
  policy list) and outcomes are merged in index order, so the merged
  :class:`~repro.analysis.hunting.HuntResult` statistics are identical
  for any worker count and any completion order.
* **Early stop** — with ``stop_at_first`` the lowest racy job index is
  broadcast through a shared value (written by whichever worker finds
  it); workers skip jobs *beyond* it (jobs before it still run,
  preserving the serial semantics of "everything up to and including
  the first racy run").
* **Isolation** — a job that raises, or exceeds ``job_timeout``
  wall-clock seconds, becomes a recorded
  :class:`~repro.analysis.hunting.JobFailure` instead of killing the
  hunt; an execution that hits the step bound is counted but flagged.

Parallelism only pays when the coordination layer is cheaper than the
work it shards, so the pool path batches aggressively (the per-event
cost of detection is near-linear — Kini et al. 2017 — which leaves
coordination as the scaling bottleneck):

* **Batched jobs** — the job list is split into seed batches; a worker
  runs a whole batch and ships one compact :class:`BatchOutcome`
  (parallel arrays of status/duration/race-count/fingerprint fields
  plus sparse maps for the rare payloads), which the parent unfolds
  back into per-try :class:`JobOutcome` streams so the merge,
  observers, event logs, retries, and checkpoints are byte-identical
  to the unbatched protocol.
* **Compact wire outcomes** — a worker consults the shared best-racy
  index before pickling a racy try's
  :class:`~repro.machine.replay.ExecutionRecording`: a try that can no
  longer win the lowest-racy-index merge ships without it (the winner
  always ships its own).  Per-try span lists never cross the pipe —
  profile spans and the status-independent metric instruments are
  pre-aggregated in the worker and folded once per batch.
* **Shared trace cache** — the per-worker analysis cache is backed by
  a fork-safe shared structure (:mod:`repro.analysis.sharedcache`:
  append-only file, lock-guarded writes, lock-free tail reads), so one
  worker's analysis of a trace fingerprint serves every other worker
  and the serial cache hit rate survives ``--jobs``.
* **In-batch early stop** — workers re-check the cancel flag and the
  racy bound before every job *inside* a batch, so ``stop_at_first``
  and SIGINT draining stay responsive without giving back the batching
  win (the old protocol fell back to one-job tasks for this).

On top of isolation sits **recovery** (a long hunt's value is what it
has accumulated, so failures must cost one job, not the run):

* Transient failures are retried up to ``max_retries`` with
  exponential backoff and deterministic seeded jitter; a job that
  fails *identically* twice in a row is classified deterministic and
  surfaced as a failure instead of being retried again.  Retried
  attempts are visible to the observer hooks
  (``hunt_tries_total{status="retried"}``, event-log ``try`` records)
  but never change the merged statistics.
* With ``checkpoint=PATH`` the parent periodically persists every
  settled outcome (atomically — see :mod:`repro.analysis.checkpoint`);
  ``resume=True`` validates the checkpoint against the hunt spec,
  skips settled jobs, and merges to statistics byte-identical to an
  uninterrupted run.  Checkpoints cut at *settled outcomes*, never at
  batch boundaries: a parent killed mid-batch persists exactly the
  outcomes that settled, and resume re-plans the rest (jobs are pure
  functions of ``(program, model, policy, seed)``, so re-running a
  half-delivered batch reproduces it).
* A *cancel* event (``threading.Event``) stops dispatch, drains
  in-flight jobs, and finishes with a final checkpoint and a partial
  result marked ``interrupted`` — the CLI wires SIGINT/SIGTERM to it.
* The :mod:`repro.faults` package can inject crashes, hangs, and a
  mid-hunt parent SIGKILL at deterministic points, which is how the
  recovery paths above are actually proven.

Workers never ship :class:`~repro.machine.simulator.ExecutionResult`
objects back — they return the racy run's
:class:`~repro.machine.replay.ExecutionRecording` (plain lists of
ints, cheap to pickle) plus a report digest, and the parent *replays*
the recording to reconstruct the execution.  That replay doubles as
verification that the advertised recording actually reproduces the
race (``HuntResult.recording_verified``).

Parallel execution requires the ``fork`` start method (policy and
model factories may be closures, which ``spawn`` cannot pickle); on
platforms without it the engine silently degrades to the serial path.
"""

from __future__ import annotations

import multiprocessing
import random as _random
import signal
import threading
import time
import traceback as _tb
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .. import faults as _faults
from .. import obs
from ..machine.models.base import MemoryModel
from ..machine.program import Program
from ..machine.replay import (
    ExecutionRecording,
    ReplayError,
    record_execution,
    replay_execution,
    verify_recording,
)
from ..core.provenance import partition_coverage_keys
from ..obs.profiler import AggregateRecord, merge_aggregate_maps
from ..trace.build import build_trace
from ..trace.fingerprint import trace_fingerprint
from . import sharedcache
from .checkpoint import (
    CheckpointWriter,
    hunt_spec,
    load_checkpoint,
    make_hunt_id,
)
from .hunting import HuntResult, JobFailure, PolicyFactory

ProgressCallback = Callable[[int, int, int], None]
#: Observer hook: called with each JobOutcome as it completes, plus the
#: running (done, total, racy) tallies the progress callback sees.
OutcomeObserver = Callable[["JobOutcome", int, int, int], None]


#: Detector backends a hunt can sweep with.  ``onthefly`` is excluded:
#: it consumes the operation stream, which the trace cache (keyed on
#: the trace, which deliberately drops operations — §4.1) cannot serve.
#: ``streaming`` consumes each execution's operation stream online and
#: never materializes a trace, so it runs with the cache bypassed.
HUNT_DETECTORS = ("postmortem", "naive", "shb", "wcp", "streaming")

#: Batch sizing: aim for this many batches per worker (enough slack to
#: balance uneven batch durations) without exceeding the cap (which
#: bounds how much work one straggler batch can hold hostage).
_BATCHES_PER_WORKER = 2
_BATCH_MAX = 64


def _analyze(source, detector: str = "postmortem"):
    """Route report construction through the unified entry point
    (imported lazily: repro.api itself imports this package)."""
    from ..api import detect

    return detect(source, detector=detector)


# Per-process analysis cache: trace fingerprint -> (racy, report
# digest, race count, certified races).  The detector is a pure
# function of the trace (see repro.trace.fingerprint), so seeds that
# collapse to an identical trace need analyzing once; one hunt runs one
# detector and the cache is cleared per hunt, so the key needs no
# detector component.  In the fork pool this dict is the L1 of the
# cross-worker shared cache (see _init_worker): misses fall through to
# the hunt's append-only shared file, so one worker's analysis serves
# the others and the hit rate matches the serial run.  Merged
# *statistics* stay worker-count-independent because a cache hit
# returns the exact result the analysis would have produced.
_TRACE_CACHE: Dict[str, Tuple[bool, str, int, int]] = {}
_TRACE_CACHE_MAX = 4096


@dataclass(frozen=True)
class HuntJob:
    """One unit of hunt work: run one seed under one policy.

    ``index`` is the job's position in the canonical seed-major
    enumeration; merging folds outcomes in ``index`` order, which is
    what makes the hunt's result independent of worker count.
    ``attempt`` counts retries (0 = first attempt) and ``delay`` is
    the retry attempt's backoff sleep, executed worker-side before the
    timed body.
    """

    index: int
    seed: int
    policy_index: int
    policy_name: str
    attempt: int = 0
    delay: float = 0.0


@dataclass
class JobOutcome:
    """What one job produced, in picklable form.

    ``execution``/``report`` are populated only when the job ran
    in-process (the serial path keeps the live objects); workers leave
    them ``None`` and the parent reconstructs the racy execution by
    replaying ``recording``.
    """

    job: HuntJob
    status: str  # "racy" | "clean" | "error" | "retried" | "skipped"
    completed: bool = True
    operations: int = 0
    error: str = ""
    recording: Optional[ExecutionRecording] = None
    report_digest: str = ""
    execution: Optional[object] = None
    report: Optional[object] = None
    profile: Optional[List[dict]] = None  # flat span records, if profiled
    cache_hit: bool = False  # analysis served from the trace cache
    duration: float = 0.0  # wall-clock seconds spent on this job
    fingerprint: str = ""  # canonical trace fingerprint ("" = cache off)
    race_count: int = 0  # races the analysis reported
    certified_races: int = 0  # report.certified_race_count (see report.py)
    traceback: str = ""  # full traceback when status == "error"
    retries: int = 0  # retry attempts that preceded this settled outcome
    failure_kind: str = ""  # error classification (see JobFailure.kind)
    #: robustness verdict (None = not verified): does the execution
    #: have a sequentially consistent justification?
    robust: Optional[bool] = None
    #: full RobustnessReport.to_json() payload, kept for non-robust
    #: tries only (the violating cycle and SC-prefix boundary are the
    #: part worth persisting; robust tries' witnesses are one op-count-
    #: sized list each and fully reproducible from the job identity)
    robustness: Optional[dict] = None
    #: coverage signatures of the report's first-race provenance
    #: partitions (see repro.core.provenance.partition_coverage_keys);
    #: computed only for racy cache-misses while metrics collect — a
    #: cache hit repeats a fingerprint already counted, so it cannot
    #: contribute a new distinct partition either
    partition_keys: Tuple[str, ...] = ()


@dataclass
class BatchOutcome:
    """One batch of job outcomes in compact wire form.

    Parallel arrays hold the per-try fields every outcome has; sparse
    position-keyed maps hold the rare payloads (recordings that can
    still win the merge, racy report digests, error texts).  Profile
    spans and status-independent metrics are pre-aggregated — the
    parent folds them once per batch instead of once per try.

    :meth:`pack`/:meth:`unfold` are exact inverses over everything a
    worker can produce (live executions/reports and per-try span lists
    never cross the pipe), so the parent-side per-try outcome stream is
    byte-identical to the old one-pickle-per-job protocol.
    """

    indices: List[int] = field(default_factory=list)
    statuses: List[str] = field(default_factory=list)
    completed: List[bool] = field(default_factory=list)
    operations: List[int] = field(default_factory=list)
    durations: List[float] = field(default_factory=list)
    cache_hits: List[bool] = field(default_factory=list)
    fingerprints: List[str] = field(default_factory=list)
    race_counts: List[int] = field(default_factory=list)
    certified: List[int] = field(default_factory=list)
    digests: Dict[int, str] = field(default_factory=dict)
    recordings: Dict[int, ExecutionRecording] = field(default_factory=dict)
    errors: Dict[int, Tuple[str, str]] = field(default_factory=dict)
    #: coverage partition keys, racy cache-misses only (sparse like the
    #: other rare payloads)
    partitions: Dict[int, List[str]] = field(default_factory=dict)
    #: robustness verdicts, verified tries only (sparse: absent when
    #: the hunt did not verify robustness)
    robust: Dict[int, bool] = field(default_factory=dict)
    #: non-robust tries' RobustnessReport payloads (cycle + SC prefix)
    robustness: Dict[int, dict] = field(default_factory=dict)
    #: span-path -> AggregateRecord.to_dict(), pre-folded over the batch
    profile_aggs: Optional[Dict[str, dict]] = None
    #: MetricsRegistry.to_records() of the worker-side instrument fold
    metric_records: Optional[List[dict]] = None

    @classmethod
    def pack(cls, outcomes: Sequence[JobOutcome]) -> "BatchOutcome":
        batch = cls()
        for pos, outcome in enumerate(outcomes):
            batch.indices.append(outcome.job.index)
            batch.statuses.append(outcome.status)
            batch.completed.append(outcome.completed)
            batch.operations.append(outcome.operations)
            batch.durations.append(outcome.duration)
            batch.cache_hits.append(outcome.cache_hit)
            batch.fingerprints.append(outcome.fingerprint)
            batch.race_counts.append(outcome.race_count)
            batch.certified.append(outcome.certified_races)
            if outcome.report_digest:
                batch.digests[pos] = outcome.report_digest
            if outcome.recording is not None:
                batch.recordings[pos] = outcome.recording
            if outcome.error or outcome.traceback:
                batch.errors[pos] = (outcome.error, outcome.traceback)
            if outcome.partition_keys:
                batch.partitions[pos] = list(outcome.partition_keys)
            if outcome.robust is not None:
                batch.robust[pos] = outcome.robust
            if outcome.robustness is not None:
                batch.robustness[pos] = outcome.robustness
        return batch

    def unfold(self, jobs_by_index: Dict[int, HuntJob]) -> List[JobOutcome]:
        """Rebuild the per-try outcome stream the rest of the engine
        (merge, observers, events, retries, checkpoints) consumes."""
        outcomes = []
        for pos, index in enumerate(self.indices):
            error, tb = self.errors.get(pos, ("", ""))
            outcomes.append(JobOutcome(
                job=jobs_by_index[index],
                status=self.statuses[pos],
                completed=self.completed[pos],
                operations=self.operations[pos],
                error=error,
                traceback=tb,
                recording=self.recordings.get(pos),
                report_digest=self.digests.get(pos, ""),
                cache_hit=self.cache_hits[pos],
                duration=self.durations[pos],
                fingerprint=self.fingerprints[pos],
                race_count=self.race_counts[pos],
                certified_races=self.certified[pos],
                partition_keys=tuple(self.partitions.get(pos, ())),
                robust=self.robust.get(pos),
                robustness=self.robustness.get(pos),
            ))
        return outcomes


def plan_jobs(tries: int, policy_names: Sequence[str]) -> List[HuntJob]:
    """The canonical seed-major job list: attempt ``i`` is seed
    ``i // P`` under policy ``i % P``, so every policy sweeps the same
    seed range (seed ``s`` runs under all ``P`` policies before seed
    ``s + 1`` starts)."""
    if not policy_names:
        raise ValueError("policies must not be empty")
    count = len(policy_names)
    return [
        HuntJob(
            index=i,
            seed=i // count,
            policy_index=i % count,
            policy_name=policy_names[i % count],
        )
        for i in range(tries)
    ]


def plan_batches(
    jobs: Sequence[HuntJob],
    workers: int,
    batch_size: Optional[int] = None,
) -> List[List[HuntJob]]:
    """Split the job list into contiguous dispatch batches.

    The default size targets :data:`_BATCHES_PER_WORKER` batches per
    worker (load-balancing slack) capped at :data:`_BATCH_MAX` (bounds
    the work one straggler batch holds hostage on huge sweeps).
    Contiguity keeps each batch a run of consecutive job indices, so
    with ``stop_at_first`` most post-racy work collapses into whole
    batches of in-batch skips."""
    if batch_size is None:
        batch_size = max(
            1,
            min(_BATCH_MAX, -(-len(jobs) // (workers * _BATCHES_PER_WORKER))),
        )
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    return [
        list(jobs[i:i + batch_size])
        for i in range(0, len(jobs), batch_size)
    ]


class JobTimeout(Exception):
    """A job exceeded its wall-clock budget."""


@contextmanager
def _time_limit(seconds: Optional[float]) -> Iterator[None]:
    """Raise :class:`JobTimeout` if the body runs longer than
    *seconds* (SIGALRM-based; silently a no-op off the main thread or
    on platforms without SIGALRM).  Zero/negative budgets are caller
    bugs and rejected eagerly — ``setitimer(0)`` would silently mean
    "no limit", the opposite of what was asked for."""
    if seconds is not None and seconds <= 0:
        raise ValueError(f"time limit must be positive, got {seconds}")
    usable = (
        seconds is not None
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _alarm(signum, frame):
        raise JobTimeout(f"execution exceeded {seconds}s")

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


class _HuntState:
    """Everything a job needs to run; shared with workers via fork."""

    def __init__(
        self,
        program: Program,
        model_factory: Callable[[], MemoryModel],
        policies: Sequence[Tuple[str, PolicyFactory]],
        max_steps: int,
        job_timeout: Optional[float],
        profile: bool = False,
        trace_cache: bool = True,
        detector: str = "postmortem",
        collect_metrics: bool = False,
        verify_robustness: bool = False,
    ) -> None:
        self.program = program
        self.model_factory = model_factory
        self.policies = list(policies)
        self.max_steps = max_steps
        self.job_timeout = job_timeout
        self.profile = profile
        self.trace_cache = trace_cache
        self.detector = detector
        # True when the parent has a metrics registry collecting: batch
        # workers then pre-fold the status-independent instruments
        # (durations, cache hits) and ship them once per batch.
        self.collect_metrics = collect_metrics
        # Attach a robustness verdict (repro.core.robustness) to every
        # try: does the execution have an SC justification?
        self.verify_robustness = verify_robustness


def _execute_job(
    state: _HuntState, job: HuntJob, keep_execution: bool
) -> JobOutcome:
    """Run one job; with profiling on, record it into a job-local
    profiler whose flat span records ride back on the outcome (cheap
    to pickle, aggregated by the parent across workers)."""
    if job.delay > 0:
        time.sleep(job.delay)  # retry backoff; not part of the timed body
    begin = time.perf_counter()
    if not state.profile:
        outcome = _execute_job_inner(state, job, keep_execution)
        outcome.duration = time.perf_counter() - begin
        return outcome
    profiler = obs.Profiler()
    with profiler.activate():
        with obs.span("hunt.job") as sp:
            outcome = _execute_job_inner(state, job, keep_execution)
            sp.add("executions", 1)
            if outcome.status == "racy":
                sp.add("racy", 1)
            if outcome.cache_hit:
                sp.add("trace_cache_hits", 1)
    outcome.profile = profiler.to_records()
    outcome.duration = time.perf_counter() - begin
    return outcome


def _execute_job_inner(
    state: _HuntState, job: HuntJob, keep_execution: bool
) -> JobOutcome:
    """Run one job with failure/timeout isolation."""
    _, factory = state.policies[job.policy_index]
    try:
        with _time_limit(state.job_timeout):
            plan = _faults.active_plan()
            if plan is not None:
                # Inside the time limit on purpose: an injected hang
                # must drive the real JobTimeout path.
                plan.on_job_start(job.index, job.attempt)
            execution, recording = record_execution(
                state.program,
                state.model_factory(),
                seed=job.seed,
                propagation=factory(),
                max_steps=state.max_steps,
            )
            report = None
            cache_hit = False
            fingerprint = ""
            # streaming detection consumes the operation stream online
            # and never builds a trace — so there is nothing to
            # fingerprint and the trace cache is bypassed
            use_cache = state.trace_cache and state.detector != "streaming"
            if use_cache:
                trace = build_trace(execution)
                fingerprint = trace_fingerprint(trace)
                shared = _SHARED_CACHE
                cached = (
                    shared.get(fingerprint) if shared is not None
                    else _TRACE_CACHE.get(fingerprint)
                )
                if cached is None:
                    report = _analyze(trace, state.detector)
                    racy = not report.race_free
                    digest = report.format() if racy else ""
                    race_count = len(report.races)
                    certified = (
                        getattr(report, "certified_race_count", 0)
                        if racy else 0
                    )
                    value = (racy, digest, race_count, certified)
                    if shared is not None:
                        shared.put(fingerprint, value)
                    else:
                        if len(_TRACE_CACHE) >= _TRACE_CACHE_MAX:
                            _TRACE_CACHE.clear()
                        _TRACE_CACHE[fingerprint] = value
                else:
                    cache_hit = True
                    racy, digest, race_count, certified = cached
            else:
                report = _analyze(execution, state.detector)
                racy = not report.race_free
                digest = report.format() if racy else ""
                race_count = len(report.races)
                certified = (
                    getattr(report, "certified_race_count", 0)
                    if racy else 0
                )
            # The robustness verdict consumes the operation stream
            # (reads-from never reaches the trace — §4.1), so the
            # trace cache cannot serve it; it runs per execution,
            # inside the time limit like the rest of the job body.
            robust: Optional[bool] = None
            robustness_payload: Optional[dict] = None
            if state.verify_robustness:
                from ..core.robustness import (
                    check_robustness as _check_robust,
                )

                verdict = _check_robust(execution)
                robust = verdict.robust
                if not verdict.robust:
                    robustness_payload = verdict.to_json()
    except Exception as exc:  # isolated, recorded by the merge
        return JobOutcome(
            job=job, status="error",
            error=f"{type(exc).__name__}: {exc}",
            traceback=_tb.format_exc(),
        )
    # Coverage keys: only racy first-analyses can contribute — a cache
    # hit repeats a fingerprint whose partitions were keyed when first
    # analyzed — and only while a registry collects (the disabled path
    # stays inside the profiling-overhead budget).
    partition_keys: Tuple[str, ...] = ()
    if racy and report is not None and state.collect_metrics:
        partition_keys = partition_coverage_keys(report)
    outcome = JobOutcome(
        job=job,
        status="racy" if racy else "clean",
        completed=execution.completed,
        operations=len(execution.operations),
        recording=recording if racy else None,
        report_digest=digest if racy else "",
        cache_hit=cache_hit,
        fingerprint=fingerprint,
        race_count=race_count,
        certified_races=certified,
        partition_keys=partition_keys,
        robust=robust,
        robustness=robustness_payload,
    )
    if keep_execution:
        outcome.execution = execution
        outcome.report = report  # None on a cache hit; merge re-analyzes
    return outcome


# ----------------------------------------------------------------------
# worker-side plumbing (module-level so the pool task is picklable; the
# heavyweight state rides the fork, not the task pipe)
# ----------------------------------------------------------------------

_WORKER_STATE: Optional[_HuntState] = None
_WORKER_STOP = None  # multiprocessing.Value: lowest racy index, -1 = none
_WORKER_CANCEL = None  # multiprocessing.Value: 1 = drain, don't start work
_WORKER_BEST = None  # multiprocessing.Value: lowest racy index seen anywhere
_SHARED_CACHE: Optional[sharedcache.SharedTraceCache] = None


def _init_worker(state: _HuntState, stop_at, cancel_flag, best_racy,
                 cache_path, cache_lock) -> None:
    global _WORKER_STATE, _WORKER_STOP, _WORKER_CANCEL, _WORKER_BEST
    global _SHARED_CACHE
    _WORKER_STATE = state
    _WORKER_STOP = stop_at
    _WORKER_CANCEL = cancel_flag
    _WORKER_BEST = best_racy
    _SHARED_CACHE = (
        sharedcache.SharedTraceCache(
            cache_path, cache_lock, local=_TRACE_CACHE,
            max_entries=_TRACE_CACHE_MAX,
        )
        if cache_path is not None else None
    )
    # The parent orchestrates interrupts (drain + checkpoint); a
    # terminal Ctrl+C or a process-group SIGTERM reaches the workers
    # too, and workers dying mid-job would turn a graceful stop into
    # lost outcomes.  Ignoring SIGTERM also sheds any handler the
    # embedding process (e.g. the CLI) installed before the fork —
    # an inherited handler that swallows SIGTERM would otherwise
    # deadlock pool shutdown.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)


def _note_racy_worker(index: int) -> None:
    """Broadcast a racy index from the worker that found it: lowers the
    early-stop bound (when ``stop_at_first`` armed it) without waiting
    for the batch to reach the parent."""
    stop = _WORKER_STOP
    if stop is not None:
        with stop.get_lock():
            if stop.value < 0 or index < stop.value:
                stop.value = index


def _keep_recording(index: int) -> bool:
    """Update the shared best-racy index with this racy try and decide
    whether its recording can still win the lowest-racy-index merge.

    Update-then-check under one lock: after the update the shared value
    is ``min(previous, index)``, so ``index`` keeps its recording
    exactly when it *is* the minimum.  The bound only ever decreases,
    and every value it takes belongs to a racy outcome that will reach
    the merge (or, after a crash, be reproduced by the deterministic
    re-run), so the winning outcome always carries its recording.
    """
    best = _WORKER_BEST
    if best is None:
        return True
    with best.get_lock():
        if best.value < 0 or index < best.value:
            best.value = index
        return index <= best.value


def _run_batch_job(job: HuntJob) -> JobOutcome:
    """One job inside a batch: the in-batch cancellation / early-stop
    check (so a batch never holds back a drain or an armed stop), then
    the normal isolated execution."""
    if _WORKER_CANCEL is not None and _WORKER_CANCEL.value:
        return JobOutcome(job=job, status="skipped")
    if _WORKER_STOP is not None:
        stop = _WORKER_STOP.value
        # Only jobs *beyond* the racy index are skippable: everything
        # before it is part of the deterministic stop_at_first prefix.
        if 0 <= stop < job.index:
            return JobOutcome(job=job, status="skipped")
    assert _WORKER_STATE is not None
    outcome = _execute_job(_WORKER_STATE, job, keep_execution=False)
    if outcome.status == "racy":
        _note_racy_worker(job.index)
        if not _keep_recording(job.index):
            outcome.recording = None  # can no longer win the merge
    return outcome


def _worker_run_batch(batch: Sequence[HuntJob]) -> BatchOutcome:
    """Run a whole batch and return one compact :class:`BatchOutcome`:
    the per-try fields as parallel arrays, plus the batch-level profile
    and metric folds."""
    state = _WORKER_STATE
    assert state is not None
    outcomes = [_run_batch_job(job) for job in batch]
    packed = BatchOutcome.pack(outcomes)
    if state.profile:
        profiles = [o.profile for o in outcomes if o.profile]
        if profiles:
            packed.profile_aggs = {
                path: agg.to_dict()
                for path, agg in obs.aggregate_records(profiles).items()
            }
    if state.collect_metrics:
        from ..obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        duration = registry.histogram(
            "hunt_job_duration_seconds", "per-job wall time",
        )
        for outcome in outcomes:
            duration.observe(outcome.duration)
        hits = sum(1 for o in outcomes if o.cache_hit)
        if hits:
            registry.counter(
                "hunt_trace_cache_hits_total",
                "analyses served from the trace cache",
            ).inc(hits)
        packed.metric_records = registry.to_records()
    return packed


# ----------------------------------------------------------------------
# execution strategies
# ----------------------------------------------------------------------

class _SerialExecutor:
    """In-process execution; the ``jobs=1`` path."""

    def __init__(self, state: _HuntState) -> None:
        self.state = state
        self.stop_index: Optional[int] = None
        self.cancelled = False

    def run(self, jobs: Sequence[HuntJob]) -> Iterator[JobOutcome]:
        for job in jobs:
            if self.cancelled:
                return
            if self.stop_index is not None and job.index > self.stop_index:
                # serial early stop: never start past the racy prefix
                return
            yield _execute_job(self.state, job, keep_execution=True)

    def note_racy(self, index: int) -> None:
        if self.stop_index is None or index < self.stop_index:
            self.stop_index = index

    def cancel(self) -> None:
        self.cancelled = True

    def close(self) -> None:
        pass


class _PoolExecutor:
    """Fork-pool execution; one pool serves every retry round.

    Jobs are dispatched as batches (:func:`plan_batches`) and each
    worker reply is one :class:`BatchOutcome`; ``run`` unfolds them so
    callers still consume a per-try outcome stream.  Batch-level
    profile aggregates accumulate on ``profile_aggs``; worker metric
    records are folded into *registry* as batches arrive.
    """

    def __init__(self, state: _HuntState, workers: int,
                 stop_at_first: bool, *, registry=None,
                 batch_size: Optional[int] = None,
                 racy_floor: Optional[int] = None) -> None:
        ctx = multiprocessing.get_context("fork")
        self.workers = workers
        self.batch_size = batch_size
        self.registry = registry
        self.profile_aggs: Dict[str, AggregateRecord] = {}
        seed = -1 if racy_floor is None else racy_floor
        self.stop_at = ctx.Value("i", seed) if stop_at_first else None
        # The recording-compaction bound: lowest racy index produced by
        # any worker (or restored from a checkpoint).  Separate from
        # stop_at because it is always armed — dropping a recording
        # that cannot win the merge is sound whether or not the hunt
        # stops at the first race.
        self.best_racy = ctx.Value("i", seed)
        self.cancel_flag = ctx.Value("i", 0)
        self.cache_path = None
        cache_lock = None
        if state.trace_cache and state.detector != "streaming":
            self.cache_path = sharedcache.create_cache_file()
            cache_lock = ctx.Lock()
        before = set(multiprocessing.active_children())
        self.pool = ctx.Pool(
            processes=workers,
            initializer=_init_worker,
            initargs=(state, self.stop_at, self.cancel_flag,
                      self.best_racy, self.cache_path, cache_lock),
        )
        # The pool's workers, found through the public child-process
        # list so close() need not read Pool's private worker list.
        # The pool replaces none of them while jobs run: a failing or
        # timed-out job is caught inside its worker.
        self.procs = [
            proc for proc in multiprocessing.active_children()
            if proc not in before
        ]

    def run(self, jobs: Sequence[HuntJob]) -> Iterator[JobOutcome]:
        jobs = list(jobs)
        jobs_by_index = {job.index: job for job in jobs}
        batches = plan_batches(jobs, self.workers, self.batch_size)
        # chunksize stays 1: the dispatch unit is already a batch, and
        # in-batch checks keep early stop and cancel drains responsive.
        for batch in self.pool.imap_unordered(
            _worker_run_batch, batches, chunksize=1
        ):
            if batch.metric_records and self.registry is not None:
                with self.registry.hold():
                    self.registry.merge_records(batch.metric_records)
            if batch.profile_aggs:
                merge_aggregate_maps(self.profile_aggs, {
                    path: AggregateRecord.from_dict(payload)
                    for path, payload in batch.profile_aggs.items()
                })
            yield from batch.unfold(jobs_by_index)

    def note_racy(self, index: int) -> None:
        # Workers broadcast their own racy finds; the parent repeats
        # the update for restored/reclassified outcomes it alone sees.
        with self.best_racy.get_lock():
            if self.best_racy.value < 0 or index < self.best_racy.value:
                self.best_racy.value = index
        if self.stop_at is None:
            return
        with self.stop_at.get_lock():
            if self.stop_at.value < 0 or index < self.stop_at.value:
                self.stop_at.value = index

    def cancel(self) -> None:
        with self.cancel_flag.get_lock():
            self.cancel_flag.value = 1

    def close(self) -> None:
        # Cooperative shutdown.  Workers ignore SIGINT/SIGTERM (the
        # parent orchestrates draining), so pool.terminate() must never
        # run: its SIGTERM would be ignored, it drains exit sentinels
        # the workers have not read yet and holds the task queue's read
        # lock, and its join then hangs.  close() hands the workers exit
        # sentinels instead, which they always honor once the (already
        # drained) task queue is empty.  A worker wedged inside a job —
        # an injected hang with no job_timeout — gets SIGKILL after a
        # grace period rather than hanging the hunt.
        try:
            self.pool.close()
            deadline = time.monotonic() + 5.0
            for proc in self.procs:
                proc.join(max(0.0, deadline - time.monotonic()))
            for proc in self.procs:
                if proc.is_alive():
                    proc.kill()
            try:
                self.pool.join()
            except Exception:
                # Pool.join ends by walking Pool's private worker list;
                # the workers are already joined above, so a reshaped
                # stdlib must not make close() raise
                pass
        finally:
            if self.cache_path is not None:
                sharedcache.remove_cache_file(self.cache_path)
                self.cache_path = None


# ----------------------------------------------------------------------
# retry classification
# ----------------------------------------------------------------------

def _retry_job(job: HuntJob, retry_backoff: float) -> HuntJob:
    """The next attempt of a transiently failed job: exponential
    backoff with deterministic seeded jitter (the jitter stream is a
    pure function of the job identity and attempt, so a resumed or
    re-run hunt backs off identically)."""
    attempt = job.attempt + 1
    jitter = _random.Random(
        (job.index << 16) ^ (job.policy_index << 8) ^ attempt
    ).random()
    delay = retry_backoff * (2 ** (attempt - 1)) * (0.5 + jitter)
    return HuntJob(
        index=job.index,
        seed=job.seed,
        policy_index=job.policy_index,
        policy_name=job.policy_name,
        attempt=attempt,
        delay=delay,
    )


# ----------------------------------------------------------------------
# deterministic merge
# ----------------------------------------------------------------------

def _attach_first(
    result: HuntResult, first: JobOutcome, state: _HuntState
) -> None:
    """Fill in the first racy execution + verify its recording."""
    result.seed = first.job.seed
    result.policy = first.job.policy_name
    result.recording = first.recording
    if first.recording is None:  # pragma: no cover - the winner records
        return
    if first.execution is not None:
        # In-process job: we hold the original execution; check the
        # recording reproduces it exactly before advertising replay.
        result.first_racy = first.execution
        # A cache hit skipped the job-level report; build it now (once,
        # for the one execution handed to the user).
        result.first_report = (
            first.report if first.report is not None
            else _analyze(first.execution, state.detector)
        )
        result.recording_verified = verify_recording(
            state.program,
            state.model_factory(),
            first.recording,
            first.execution,
            max_steps=state.max_steps,
        )
        return
    # Cross-process (or checkpoint-restored) job: reconstruct the
    # execution by replaying the recording; matching the original
    # report digest verifies it.
    try:
        execution = replay_execution(
            state.program,
            state.model_factory(),
            first.recording,
            max_steps=state.max_steps,
        )
    except ReplayError:
        result.recording_verified = False
        return
    report = _analyze(execution, state.detector)
    result.first_racy = execution
    result.first_report = report
    result.recording_verified = (
        not report.race_free and report.format() == first.report_digest
    )


def merge_outcomes(
    state: _HuntState,
    outcomes: Sequence[JobOutcome],
    stop_at_first: bool,
) -> HuntResult:
    """Fold outcomes into a :class:`HuntResult` in canonical job order.

    Sorting by job index before folding makes the result a pure
    function of the outcome *set* — worker count, completion order,
    and checkpoint/resume boundaries cannot change it.  With
    ``stop_at_first``, outcomes beyond the first racy index are
    discarded (the serial path never ran them).  Only settled outcomes
    belong here: retried attempts are observer-visible telemetry, not
    merge input.
    """
    result = HuntResult(
        program=state.program,
        model_name=state.model_factory().name,
        tries=0,
        racy_runs=0,
        clean_runs=0,
        detector=state.detector,
        verify_robustness=state.verify_robustness,
    )
    first: Optional[JobOutcome] = None
    for outcome in sorted(outcomes, key=lambda o: o.job.index):
        if outcome.status == "skipped":
            continue
        if (
            stop_at_first
            and first is not None
            and outcome.job.index > first.job.index
        ):
            continue
        job = outcome.job
        result.tries += 1
        result.retried_runs += outcome.retries
        if outcome.status == "error":
            result.failures.append(
                JobFailure(seed=job.seed, policy=job.policy_name,
                           error=outcome.error,
                           traceback=outcome.traceback,
                           kind=outcome.failure_kind or "unretried",
                           retries=outcome.retries)
            )
            continue
        if not outcome.completed:
            result.step_bound_runs += 1
        if outcome.cache_hit:
            result.trace_cache_hits += 1
        racy = outcome.status == "racy"
        if racy:
            result.certified_races += outcome.certified_races
        if outcome.robust is not None:
            result.verified_tries += 1
            if outcome.robust:
                result.robust_tries += 1
            else:
                result.non_robust_tries += 1
                # Index-ordered fold: the first non-robust verdict kept
                # here is the lowest-index one, deterministically.
                if result.first_non_robust is None:
                    result.first_non_robust = outcome.robustness
        p_racy, p_total = result.per_policy.get(job.policy_name, (0, 0))
        result.per_policy[job.policy_name] = (p_racy + racy, p_total + 1)
        s_racy, s_total = result.per_seed.get(job.seed, (0, 0))
        result.per_seed[job.seed] = (s_racy + racy, s_total + 1)
        if racy:
            result.racy_runs += 1
            if first is None:
                first = outcome
        else:
            result.clean_runs += 1
    if first is not None:
        _attach_first(result, first, state)
    return result


# ----------------------------------------------------------------------
# telemetry folding (parent-side; batch workers pre-fold the
# status-independent instruments, the parent folds the rest per job)
# ----------------------------------------------------------------------

def _fold_outcome_metrics(
    registry, outcome: JobOutcome, done: int, total: int, racy: int,
    elapsed: float, detector: str = "postmortem",
    worker_folded: bool = False, model: str = "",
) -> None:
    """Update the hunt metric family (see the table in
    :mod:`repro.obs.metrics`) for one completed job.  Runs in the
    parent only, so gauge last-wins semantics are safe.  Retried
    attempts land in ``hunt_tries_total{status="retried"}`` without
    advancing the job gauges.

    With *worker_folded* (the batched pool path), the duration
    histogram and cache-hit counter already arrived pre-aggregated on
    the batch wire and were merged once per batch — only the
    status-labelled counter (whose ``retried`` reclassification the
    worker cannot see) and the parent-owned gauges fold here."""
    registry.counter(
        "hunt_tries_total", "hunt jobs by policy, outcome, and detector",
        labels=("policy", "status", "detector"),
    ).inc(
        policy=outcome.job.policy_name, status=outcome.status,
        detector=detector,
    )
    if not worker_folded:
        if outcome.cache_hit:
            registry.counter(
                "hunt_trace_cache_hits_total",
                "analyses served from the trace cache",
            ).inc()
        registry.histogram(
            "hunt_job_duration_seconds", "per-job wall time",
        ).observe(outcome.duration)
    if outcome.status == "error":
        registry.counter(
            "hunt_failures_total",
            "settled job failures by retry classification",
            labels=("kind",),
        ).inc(kind=outcome.failure_kind or "unretried")
    if outcome.robust is not None:
        registry.counter(
            "hunt_robust_tries_total",
            "robustness verdicts on verified hunt tries",
            labels=("model", "verdict"),
        ).inc(
            model=model,
            verdict="robust" if outcome.robust else "non-robust",
        )
    registry.gauge("hunt_done", "completed jobs").set(done)
    registry.gauge("hunt_total", "planned jobs").set(total)
    registry.gauge("hunt_racy", "racy runs so far").set(racy)
    registry.gauge(
        "hunt_elapsed_seconds", "wall time since the hunt began",
    ).set(elapsed)
    if elapsed > 0:
        registry.timeseries(
            "hunt_throughput", "(elapsed, jobs/sec) samples",
        ).record(elapsed, done / elapsed)


class _CoverageTracker:
    """Parent-side distinct-set coverage fold (the live novelty signal).

    Tracks the distinct trace fingerprints and first-race provenance
    partition signatures seen across settled outcomes — including
    checkpoint-restored ones, so a resumed hunt's coverage gauges pick
    up where the original left off.  Set membership lives here (plain
    parent-side sets); the registry only ever sees the cardinalities,
    so scrapers get gauges and a growth curve without the engine
    shipping sets anywhere.
    """

    def __init__(self) -> None:
        self.fingerprints: set = set()
        self.partitions: set = set()

    def fold(self, registry, outcome: JobOutcome, elapsed: float) -> None:
        grew_fp = False
        if outcome.fingerprint and outcome.fingerprint not in \
                self.fingerprints:
            self.fingerprints.add(outcome.fingerprint)
            grew_fp = True
        grew_part = False
        for key in outcome.partition_keys:
            if key not in self.partitions:
                self.partitions.add(key)
                grew_part = True
        if grew_fp:
            registry.gauge(
                "hunt_coverage_fingerprints",
                "distinct trace fingerprints seen this hunt",
            ).set(len(self.fingerprints))
        if grew_part:
            registry.gauge(
                "hunt_coverage_provenance_partitions",
                "distinct first-race provenance partition signatures",
            ).set(len(self.partitions))
        if (grew_fp or grew_part) and elapsed > 0:
            series = registry.timeseries(
                "hunt_coverage", "(elapsed, distinct count) growth curve",
                labels=("kind",),
            )
            if grew_fp:
                series.record(elapsed, len(self.fingerprints),
                              kind="fingerprints")
            if grew_part:
                series.record(elapsed, len(self.partitions),
                              kind="partitions")


def _prime_hunt_metrics(registry, hunt_id: str, detector: str,
                        model_name: str, total: int) -> None:
    """Register the hunt metric family up front, so a scrape racing the
    first settled outcome still sees every family (with zero samples)
    and ``hunt_info`` joins the scrape to the hunt's other surfaces."""
    registry.counter(
        "hunt_tries_total", "hunt jobs by policy, outcome, and detector",
        labels=("policy", "status", "detector"),
    )
    registry.counter(
        "hunt_trace_cache_hits_total",
        "analyses served from the trace cache",
    )
    registry.counter(
        "hunt_failures_total",
        "settled job failures by retry classification",
        labels=("kind",),
    )
    registry.counter(
        "hunt_robust_tries_total",
        "robustness verdicts on verified hunt tries",
        labels=("model", "verdict"),
    )
    registry.histogram("hunt_job_duration_seconds", "per-job wall time")
    registry.gauge("hunt_done", "completed jobs").set(0)
    registry.gauge("hunt_total", "planned jobs").set(total)
    registry.gauge("hunt_racy", "racy runs so far").set(0)
    registry.gauge(
        "hunt_elapsed_seconds", "wall time since the hunt began",
    ).set(0)
    registry.timeseries("hunt_throughput", "(elapsed, jobs/sec) samples")
    registry.gauge(
        "hunt_coverage_fingerprints",
        "distinct trace fingerprints seen this hunt",
    ).set(0)
    registry.gauge(
        "hunt_coverage_provenance_partitions",
        "distinct first-race provenance partition signatures",
    ).set(0)
    registry.timeseries(
        "hunt_coverage", "(elapsed, distinct count) growth curve",
        labels=("kind",),
    )
    registry.gauge(
        "hunt_info",
        "constant 1; labels join scrapes to events/checkpoints/results",
        labels=("hunt_id", "detector", "model"),
    ).set(1, hunt_id=hunt_id, detector=detector, model=model_name)


# ----------------------------------------------------------------------
# engine entry point
# ----------------------------------------------------------------------

def run_hunt(
    program: Program,
    model_factory: Callable[[], MemoryModel],
    *,
    tries: int,
    policies: Sequence[Tuple[str, PolicyFactory]],
    stop_at_first: bool = False,
    max_steps: int = 200_000,
    jobs: int = 1,
    job_timeout: Optional[float] = None,
    progress: Optional[ProgressCallback] = None,
    trace_cache: bool = True,
    on_outcome: Optional[Callable[[JobOutcome], None]] = None,
    metrics=None,
    max_retries: int = 2,
    retry_backoff: float = 0.05,
    checkpoint=None,
    resume: bool = False,
    checkpoint_interval: int = 100,
    cancel: Optional[threading.Event] = None,
    detector: str = "postmortem",
    batch_size: Optional[int] = None,
    hunt_id: Optional[str] = None,
    verify_robustness: bool = False,
) -> HuntResult:
    """Execute the seed x policy sweep on *jobs* workers and merge.

    The public entry point is
    :func:`repro.analysis.hunting.hunt_races`; this is the engine
    underneath it.  *progress*, if given, is called after every
    completed job as ``progress(done, total, racy_so_far)``.
    *on_outcome*, if given, receives each :class:`JobOutcome` as it
    completes, in completion order (the event log's feed) — including
    ``status="retried"`` attempts that a later retry superseded.

    When a :mod:`repro.obs` profiler is active, every job (in-process
    or forked) records per-stage spans into a job-local profiler; fork
    workers fold a whole batch's spans into per-span-path aggregates
    before shipping, and the parent merges one aggregate map per batch
    (plus the serial path's per-job records) onto the active profiler
    and ``HuntResult.stage_profile``.  Likewise, when a
    :mod:`repro.obs.metrics` registry is collecting (or one is passed
    as *metrics*), workers pre-fold the status-independent instruments
    per batch and the parent folds the status counter and gauges per
    job — one module-attribute check per hunt, so the disabled path
    stays free.

    Recovery knobs: *max_retries*/*retry_backoff* govern transient
    failure retries; *checkpoint*/*resume*/*checkpoint_interval* the
    durable progress file; *cancel* a cooperative stop that drains
    in-flight jobs and leaves ``result.interrupted`` set.  See the
    module docstring.

    *batch_size* overrides the dispatch batch sizing of the pool path
    (:func:`plan_batches`); the default targets a couple of batches
    per worker.  ``jobs=1`` ignores it — the serial loop has no wire
    to amortize.

    *detector* picks the analysis backend for every job (one of
    :data:`HUNT_DETECTORS`; ``"onthefly"`` is excluded because hunts
    analyze traces, not operation streams).  ``"streaming"`` consumes
    each execution's operation stream online with O(P·V) state and
    never materializes a trace (the trace cache is bypassed).  The
    detector is part of the checkpoint's hunt identity — resuming with
    a different one is a
    :class:`~repro.analysis.checkpoint.CheckpointMismatch`.

    *hunt_id* is the run's telemetry correlation id
    (:func:`~repro.analysis.checkpoint.make_hunt_id`); one is minted
    when the caller passes none.  On a resume the checkpoint's stored
    id always wins, so a resumed hunt's metrics, events, and results
    join with the interrupted run's.  The id lands on
    ``HuntResult.hunt_id``, in every checkpoint write, and — when a
    registry collects — on the ``hunt_info`` gauge.

    *verify_robustness* attaches a robustness verdict
    (:func:`repro.core.robustness.check_robustness`) to every try:
    verdicts ride each outcome (surviving batching, checkpoints, and
    resume), fold into ``hunt_robust_tries_total{model,verdict}``, and
    aggregate on the result — any non-robust try downgrades the
    result's soundness claim (see :attr:`HuntResult.soundness`).  Part
    of the checkpoint spec, like the detector.
    """
    if tries < 1:
        raise ValueError("tries must be positive")
    if jobs < 1:
        raise ValueError("jobs must be positive")
    if job_timeout is not None and job_timeout <= 0:
        raise ValueError("job_timeout must be positive (or None)")
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    if checkpoint_interval < 1:
        raise ValueError("checkpoint_interval must be positive")
    if resume and checkpoint is None:
        raise ValueError("resume requires a checkpoint path")
    if batch_size is not None and batch_size < 1:
        raise ValueError("batch_size must be positive (or None for auto)")
    if detector not in HUNT_DETECTORS:
        raise ValueError(
            f"unknown hunt detector {detector!r}; "
            f"known: {', '.join(HUNT_DETECTORS)}"
        )
    policy_list = list(policies)
    if not policy_list:
        raise ValueError("policies must not be empty")
    policy_names = [name for name, _ in policy_list]
    job_plan = plan_jobs(tries, policy_names)

    # Process-wide injected faults (e.g. no_numpy) apply before any
    # analysis runs; fork workers inherit the patched state.
    _faults.apply_process_faults()
    fault_plan = _faults.active_plan()

    spec = hunt_spec(
        program, model_factory().name, tries, policy_names,
        max_steps, stop_at_first, detector=detector,
        verify_robustness=verify_robustness,
    )
    restored: List[JobOutcome] = []
    racy_floor: Optional[int] = None
    if resume:
        loaded = load_checkpoint(checkpoint, expected_spec=spec)
        restored = loaded.outcomes
        settled_indices = loaded.settled_indices
        job_plan = [j for j in job_plan if j.index not in settled_indices]
        # The restored racy minimum seeds both shared bounds: with
        # stop_at_first nothing beyond it is planned at all, and either
        # way workers can skip shipping recordings that cannot beat it.
        racy_floor = loaded.first_racy_index
        if stop_at_first and racy_floor is not None:
            job_plan = [j for j in job_plan if j.index <= racy_floor]
        # The checkpoint's id wins: a resumed hunt is the same run for
        # telemetry purposes (legacy checkpoints have none to keep).
        if loaded.hunt_id:
            hunt_id = loaded.hunt_id
    if hunt_id is None:
        hunt_id = make_hunt_id(spec)
    writer = (
        CheckpointWriter(checkpoint, spec, checkpoint_interval,
                         hunt_id=hunt_id)
        if checkpoint is not None else None
    )

    profiling = obs.enabled()
    registry = metrics if metrics is not None else obs.metrics.active()
    state = _HuntState(program, model_factory, policy_list,
                       max_steps, job_timeout, profile=profiling,
                       trace_cache=trace_cache, detector=detector,
                       collect_metrics=registry is not None,
                       verify_robustness=verify_robustness)
    # Start every hunt cold so hit counts describe this hunt alone and
    # memory is bounded; workers inherit the empty L1 through fork and
    # share fresh analyses through the hunt's shared cache file.
    _TRACE_CACHE.clear()
    workers = min(jobs, max(len(job_plan), 1))
    if workers > 1 and "fork" not in multiprocessing.get_all_start_methods():
        workers = 1  # factories may be closures; spawn cannot ship them
    start = time.perf_counter()
    observe: Optional[OutcomeObserver] = None
    coverage: Optional[_CoverageTracker] = None
    if registry is not None:
        coverage = _CoverageTracker()
        # The hold() lock only matters when a telemetry server shares
        # the registry; without one it is uncontended and effectively
        # free (one RLock acquire per settled outcome, parent-side).
        with registry.hold():
            _prime_hunt_metrics(
                registry, hunt_id, state.detector,
                state.model_factory().name, tries,
            )
            for outcome in restored:
                coverage.fold(registry, outcome, 0.0)
            if restored:
                registry.gauge("hunt_done", "completed jobs") \
                    .set(len(restored))
                registry.gauge("hunt_racy", "racy runs so far").set(
                    sum(1 for o in restored if o.status == "racy")
                )
    if registry is not None or on_outcome is not None:
        worker_folded = workers > 1 and state.collect_metrics
        fold_model = state.model_factory().name

        def observe(outcome, done, total, racy):
            if registry is not None:
                with registry.hold():
                    _fold_outcome_metrics(
                        registry, outcome, done, total, racy,
                        time.perf_counter() - start,
                        detector=state.detector,
                        worker_folded=worker_folded,
                        model=fold_model,
                    )
                    if outcome.status in ("racy", "clean"):
                        coverage.fold(registry, outcome,
                                      time.perf_counter() - start)
            if on_outcome is not None:
                on_outcome(outcome)

    executor = (
        _SerialExecutor(state) if workers == 1
        else _PoolExecutor(state, workers, stop_at_first,
                           registry=registry, batch_size=batch_size,
                           racy_floor=racy_floor)
    )

    # Drive state shared by the settle path below.
    settled: List[JobOutcome] = list(restored)
    observed_profiles: List[JobOutcome] = []
    done = len(restored)
    racy_seen = sum(1 for o in restored if o.status == "racy")
    new_settled = 0
    interrupted = False

    def settle(outcome: JobOutcome) -> None:
        """One outcome is final: record, observe, checkpoint, and give
        the fault plan its shot at killing the parent (in that order,
        so an injected parent death leaves a usable checkpoint)."""
        nonlocal done, racy_seen, new_settled
        settled.append(outcome)
        done += 1
        racy_seen += outcome.status == "racy"
        new_settled += 1
        if observe is not None:
            observe(outcome, done, tries, racy_seen)
        if progress is not None:
            progress(done, tries, racy_seen)
        if writer is not None:
            writer.tick(settled)
        if fault_plan is not None:
            fault_plan.on_job_settled(new_settled)

    last_error: Dict[int, str] = {}
    pending = job_plan
    try:
        with obs.span("hunt") as sp:
            while pending:
                retry_next: List[HuntJob] = []
                for outcome in executor.run(pending):
                    if (
                        cancel is not None and cancel.is_set()
                        and not interrupted
                    ):
                        interrupted = True
                        executor.cancel()
                    if profiling and outcome.profile:
                        observed_profiles.append(outcome)
                    if outcome.status == "skipped":
                        # overrun past the early stop: report progress,
                        # never merged
                        done += 1
                        if observe is not None:
                            observe(outcome, done, tries, racy_seen)
                        if progress is not None:
                            progress(done, tries, racy_seen)
                        continue
                    if outcome.status == "error" and not interrupted:
                        index = outcome.job.index
                        prior = last_error.get(index)
                        if prior is not None and prior == outcome.error:
                            # failed identically twice: deterministic,
                            # surface instead of burning more retries
                            outcome.retries = outcome.job.attempt
                            outcome.failure_kind = "deterministic"
                        elif outcome.job.attempt < max_retries:
                            last_error[index] = outcome.error
                            outcome.status = "retried"
                            if observe is not None:
                                observe(outcome, done, tries, racy_seen)
                            retry_next.append(
                                _retry_job(outcome.job, retry_backoff)
                            )
                            continue
                        else:
                            outcome.retries = outcome.job.attempt
                            outcome.failure_kind = (
                                "exhausted" if outcome.job.attempt
                                else "unretried"
                            )
                    elif outcome.job.attempt:
                        outcome.retries = outcome.job.attempt
                    settle(outcome)
                    if stop_at_first and outcome.status == "racy":
                        executor.note_racy(outcome.job.index)
                        if workers == 1:
                            break
                if interrupted:
                    break
                if stop_at_first:
                    bound = _first_racy_index(settled)
                    if bound is not None:
                        retry_next = [
                            j for j in retry_next if j.index <= bound
                        ]
                pending = retry_next
            result = merge_outcomes(state, settled, stop_at_first)
            result.interrupted = interrupted
            result.resumed_jobs = len(restored)
            if sp.enabled:
                sp.add("tries", result.tries)
                sp.add("racy_runs", result.racy_runs)
                sp.add("clean_runs", result.clean_runs)
                sp.add("workers", workers)
    finally:
        executor.close()
    if writer is not None:
        writer.flush(settled, complete=not interrupted)
    if profiling:
        aggregates = obs.aggregate_records(
            o.profile for o in observed_profiles if o.profile
        )
        batch_aggs = getattr(executor, "profile_aggs", None)
        if batch_aggs:
            merge_aggregate_maps(aggregates, batch_aggs)
        profiler = obs.active()
        if profiler is not None:
            profiler.add_aggregates(aggregates)
        result.stage_profile = {
            path: agg.to_dict() for path, agg in sorted(aggregates.items())
        }
    result.jobs = workers
    result.elapsed = time.perf_counter() - start
    result.hunt_id = hunt_id
    return result


def _first_racy_index(outcomes: Sequence[JobOutcome]) -> Optional[int]:
    racy = [o.job.index for o in outcomes if o.status == "racy"]
    return min(racy) if racy else None
