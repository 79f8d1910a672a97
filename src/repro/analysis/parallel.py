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
  runs a whole batch and replies with one message: the batch's
  :class:`JobOutcome` list plus its profile aggregates.  The parent
  yields those outcomes as they arrive, so the merge, subscribers,
  event logs, retries, and checkpoints consume one per-try stream
  whatever the executor.
* **Plain wire outcomes** — a :class:`JobOutcome` holds plain fields
  only (status, counts, fingerprint, report digest); no execution or
  recording ever crosses the pipe.  Per-try span lists never cross it
  either — profile spans are pre-aggregated in the worker and folded
  once per batch.
* **Shared trace cache** — every try consults one
  :class:`~repro.analysis.sharedcache.SharedTraceCache` over the
  process's analysis dict.  In a pool it is backed by a fork-safe
  append-only file (lock-guarded writes, lock-free tail reads), so one
  worker's analysis of a trace fingerprint serves every other worker
  and the serial cache hit rate survives ``--jobs``.
* **In-batch early stop** — workers re-check the cancel flag and the
  racy bound before every job *inside* a batch, and lower the bound
  themselves the moment they produce a racy outcome, so
  ``stop_at_first`` and SIGINT draining stay responsive while a batch
  is the dispatch unit.

On top of isolation sits **recovery** (a long hunt's value is what it
has accumulated, so failures must cost one job, not the run):

* Transient failures are retried up to ``max_retries`` with
  exponential backoff and deterministic seeded jitter; a job that
  fails *identically* twice in a row is classified deterministic and
  surfaced as a failure instead of being retried again.  Retried
  attempts are visible to the outcome subscribers
  (a ``status="retried"`` try record, counted by the metrics fold and
  written to the event log)
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

Every fresh outcome — settled, skipped, or retried — reaches the
parent's subscribers through one stream: the metrics fold (coverage
included), the checkpoint writer, the progress callback, and the
``on_outcome`` observer.  Telemetry is therefore folded in the parent
only, from the per-try outcomes, whatever the executor.  A resumed
hunt first hands its restored outcomes to the metrics fold and the
observer, so its views count the same tries as its merged result.

**Record on demand.**  Tries run unrecorded (plain
:func:`~repro.machine.simulator.run_program`), and no executor keeps a
try's execution: the hunt needs one replayable race, the lowest-index
racy try's.  Once the merge has picked that winner, the parent
re-simulates the one job under
:func:`~repro.machine.replay.record_execution` — the simulator is
deterministic in ``(program, model, seed, policy)``, the premise of the
seed-major sweep and of resume — and verifies it twice
(``HuntResult.recording_verified``): the re-run's report must equal the
try's report digest, and the recording must replay to the re-run.
Serial, pool and resumed hunts share this one path.

Parallel execution requires the ``fork`` start method (policy and
model factories may be closures, which ``spawn`` cannot pickle); on
platforms without it the engine silently degrades to the serial path.
"""

from __future__ import annotations

import functools
import multiprocessing
import random as _random
import signal
import threading
import time
import traceback as _tb
from contextlib import contextmanager
from dataclasses import dataclass, replace
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
from ..api import detect
from ..machine.models.base import MemoryModel
from ..machine.program import Program
from ..machine.replay import record_execution, verify_recording
from ..machine.simulator import run_program
from ..core.provenance import partition_coverage_keys
from ..core.robustness import check_robustness
from ..obs.events import try_record
from ..obs.profiler import AggregateRecord, merge_aggregate_maps
from ..trace.build import build_trace
from ..trace.fingerprint import trace_fingerprint
from . import sharedcache
from .checkpoint import CheckpointWriter, load_checkpoint
from .hunting import HUNT_DETECTORS  # noqa: F401  (re-exported)
from .hunting import HuntConfig, HuntResult, JobFailure

# A fork worker inherits the modules its parent imported and must never
# be the first to import one, or every worker of every hunt pays it
# again.  ``repro.api`` imports a detector's backend on first dispatch,
# so the engine imports every HUNT_DETECTORS backend up front.
from ..core import detector as _postmortem_backend  # noqa: F401
from ..core import predictive as _predictive_backend  # noqa: F401
from ..core import streaming as _streaming_backend  # noqa: F401
from . import naive as _naive_backend  # noqa: F401

ProgressCallback = Callable[[int, int, int], None]
#: A subscriber to the outcome stream: called with each outcome plus
#: the running (done, racy) tallies after it.
OutcomeSubscriber = Callable[["JobOutcome", int, int], None]

#: Statuses that settle a job (merged and checkpointed); ``skipped``
#: and ``retried`` outcomes are telemetry only.
_SETTLED = frozenset(("racy", "clean", "error"))

#: Batch sizing: aim for this many batches per worker (enough slack to
#: balance uneven batch durations) without exceeding the cap (which
#: bounds how much work one straggler batch can hold hostage).
_BATCHES_PER_WORKER = 2
_BATCH_MAX = 64


def _analyze(source, detector: str = "postmortem"):
    """Route report construction through the unified entry point."""
    return detect(source, detector=detector)


# Per-process analysis cache: trace fingerprint -> (racy, report
# digest, race count, certified races).  The detector is a pure
# function of the trace (see repro.trace.fingerprint), so seeds that
# collapse to an identical trace need analyzing once; one hunt runs one
# detector and the cache is cleared per hunt, so the key needs no
# detector component.  This dict is the L1 of the hunt's
# SharedTraceCache: serially nothing backs it, and in the fork pool
# misses fall through to the hunt's append-only shared file, so one
# worker's analysis serves the others and the hit rate matches the
# serial run.  Merged *statistics* stay worker-count-independent
# because a cache hit returns the exact result the analysis would have
# produced.
_TRACE_CACHE: Dict[str, sharedcache.CacheValue] = {}


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
    """What one job produced, in picklable form: plain fields only.
    It is the one record of a try: pool workers ship it as is, and a
    checkpoint stores every field but ``job`` (stored as its own keys)
    and ``restored``.  No outcome keeps its execution or a recording;
    the merge re-simulates the winning job to record it (see
    :func:`_attach_first`)."""

    job: HuntJob
    status: str  # "racy" | "clean" | "error" | "retried" | "skipped"
    completed: bool = True
    operations: int = 0
    error: str = ""
    report_digest: str = ""
    cache_hit: bool = False  # analysis served from the trace cache
    duration: float = 0.0  # wall-clock seconds spent on this job
    fingerprint: str = ""  # canonical trace fingerprint ("" = cache off)
    race_count: int = 0  # data races the analysis reported
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
    #: settled by an earlier run and restored from its checkpoint
    restored: bool = False


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


def _execute_job(
    program: Program,
    model_factory: Callable[[], MemoryModel],
    config: HuntConfig,
    job: HuntJob,
    *,
    cache: Optional[sharedcache.SharedTraceCache] = None,
    profile_aggs: Optional[Dict[str, AggregateRecord]] = None,
    coverage: bool = False,
) -> JobOutcome:
    """Run one job.  The engine binds *program*, *model_factory*,
    *config*, *cache* and *coverage* once per hunt
    (:func:`functools.partial`) and hands the result to its executor;
    fork workers inherit it.

    *cache* (``None`` = trace cache off) serves and stores analyses by
    trace fingerprint.  With *profile_aggs* (a profiler is active), the
    job records into a job-local profiler whose span records fold into
    that per-path aggregate map.  *coverage* (a metrics registry
    collects) computes racy first-analyses' partition keys."""
    if job.delay > 0:
        time.sleep(job.delay)  # retry backoff; not part of the timed body
    begin = time.perf_counter()
    args = (program, model_factory, config, job, cache, coverage)
    if profile_aggs is None:
        outcome = _execute_job_inner(*args)
        outcome.duration = time.perf_counter() - begin
        return outcome
    profiler = obs.Profiler()
    with profiler.activate(), obs.span("hunt.job") as sp:
        outcome = _execute_job_inner(*args)
        sp.add("executions", 1)
        if outcome.status == "racy":
            sp.add("racy", 1)
        if outcome.cache_hit:
            sp.add("trace_cache_hits", 1)
    outcome.duration = time.perf_counter() - begin
    obs.aggregate_records([profiler.to_records()], into=profile_aggs)
    return outcome


def _execute_job_inner(
    program: Program,
    model_factory: Callable[[], MemoryModel],
    config: HuntConfig,
    job: HuntJob,
    cache: Optional[sharedcache.SharedTraceCache],
    coverage: bool,
) -> JobOutcome:
    """Run one job with failure/timeout isolation, stage by stage:
    simulate → trace → fingerprint/cache → analyze → optional
    verdict.  Any stage that raises makes the try an ``error``
    outcome."""
    _, factory = config.policies[job.policy_index]
    try:
        with _time_limit(config.job_timeout):
            plan = _faults.active_plan()
            if plan is not None:
                # Inside the time limit on purpose: an injected hang
                # must drive the real JobTimeout path.
                plan.on_job_start(job.index, job.attempt)
            execution = run_program(
                program,
                model_factory(),
                seed=job.seed,
                propagation=factory(),
                max_steps=config.max_steps,
            )
            outcome = JobOutcome(
                job=job, status="clean", completed=execution.completed,
                operations=len(execution.operations),
            )
            # With the cache on, the detector analyzes the trace, and a
            # fingerprint seen before skips the analysis.
            source, value = execution, None
            if cache is not None:
                source = build_trace(execution)
                outcome.fingerprint = trace_fingerprint(source)
                value = cache.get(outcome.fingerprint)
                outcome.cache_hit = value is not None
            if value is None:
                report = _analyze(source, config.detector)
                racy = not report.race_free
                value = (
                    racy,
                    report.format() if racy else "",
                    # data races: a race-free report never sweeps the
                    # sync half, which report.races would add
                    len(report.data_races),
                    getattr(report, "certified_race_count", 0) if racy
                    else 0,
                )
                if cache is not None:
                    cache.put(outcome.fingerprint, value)
                # Coverage keys: only racy first-analyses can
                # contribute — a cache hit repeats a fingerprint whose
                # partitions were keyed when first analyzed — and only
                # while a registry collects (the disabled path stays
                # inside the profiling-overhead budget).
                if racy and coverage:
                    outcome.partition_keys = partition_coverage_keys(report)
            (racy, outcome.report_digest, outcome.race_count,
             outcome.certified_races) = value
            if racy:
                outcome.status = "racy"
            # The robustness verdict consumes the operation stream
            # (reads-from never reaches the trace — §4.1), so the
            # trace cache cannot serve it; it runs per execution,
            # inside the time limit like the rest of the job body.
            if config.verify_robustness:
                verdict = check_robustness(execution)
                outcome.robust = verdict.robust
                if not verdict.robust:
                    outcome.robustness = verdict.to_json()
    except Exception as exc:  # isolated, recorded by the merge
        return JobOutcome(
            job=job, status="error",
            error=f"{type(exc).__name__}: {exc}",
            traceback=_tb.format_exc(),
        )
    return outcome


# ----------------------------------------------------------------------
# worker-side plumbing (module-level so the pool task is picklable; the
# heavyweight state rides the fork, not the task pipe)
# ----------------------------------------------------------------------

_WORKER_RUN_JOB: Optional[Callable[..., JobOutcome]] = None
_WORKER_PROFILING = False  # fold job spans into per-batch aggregates
_WORKER_STOP = None  # multiprocessing.Value: lowest racy index, -1 = none
_WORKER_CANCEL = None  # multiprocessing.Value: 1 = drain, don't start work


def _init_worker(run_job, profiling, stop_at, cancel_flag) -> None:
    global _WORKER_RUN_JOB, _WORKER_PROFILING, _WORKER_STOP, _WORKER_CANCEL
    _WORKER_RUN_JOB = run_job
    _WORKER_PROFILING = profiling
    _WORKER_STOP = stop_at
    _WORKER_CANCEL = cancel_flag
    # The parent orchestrates interrupts (drain + checkpoint); a
    # terminal Ctrl+C or a process-group SIGTERM reaches the workers
    # too, and workers dying mid-job would turn a graceful stop into
    # lost outcomes.  Ignoring SIGTERM also sheds any handler the
    # embedding process (e.g. the CLI) installed before the fork —
    # an inherited handler that swallows SIGTERM would otherwise
    # deadlock pool shutdown.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)


def _lower_bound(bound, index: int) -> None:
    """Lower a shared racy-index bound (-1 = unset) to *index*."""
    with bound.get_lock():
        if bound.value < 0 or index < bound.value:
            bound.value = index


def _run_batch_job(job: HuntJob, profile_aggs) -> JobOutcome:
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
    assert _WORKER_RUN_JOB is not None
    outcome = _WORKER_RUN_JOB(job, profile_aggs=profile_aggs)
    if outcome.status == "racy" and _WORKER_STOP is not None:
        # Broadcast from the worker that found it: lowers the early-stop
        # bound without waiting for the batch to reach the parent.
        _lower_bound(_WORKER_STOP, job.index)
    return outcome


def _worker_run_batch(
    batch: Sequence[HuntJob],
) -> Tuple[List[JobOutcome], Optional[Dict[str, AggregateRecord]]]:
    """Run a whole batch: one reply carrying its outcomes and, while a
    profiler is active, the batch's pre-folded profile aggregates."""
    aggs: Optional[Dict[str, AggregateRecord]] = (
        {} if _WORKER_PROFILING else None
    )
    outcomes = [_run_batch_job(job, aggs) for job in batch]
    return outcomes, aggs or None


# ----------------------------------------------------------------------
# execution strategies
# ----------------------------------------------------------------------

class _SerialExecutor:
    """In-process execution; the ``jobs=1`` path.  The engine stops
    consuming at the first racy try under ``stop_at_first``."""

    def __init__(self, run_job: Callable[..., JobOutcome],
                 profile_aggs: Optional[Dict[str, AggregateRecord]] = None,
                 ) -> None:
        self.run_job = run_job
        self.profile_aggs = profile_aggs
        self.cancelled = False

    def run(self, jobs: Sequence[HuntJob]) -> Iterator[JobOutcome]:
        for job in jobs:
            if self.cancelled:
                return
            yield self.run_job(job, profile_aggs=self.profile_aggs)

    def cancel(self) -> None:
        self.cancelled = True

    def close(self) -> None:
        pass


class _PoolExecutor:
    """Fork-pool execution; one pool serves every retry round.

    Jobs are dispatched as batches (:func:`plan_batches`); each worker
    reply is a batch's outcome list, which ``run`` yields as it
    arrives, folding the batch's profile aggregates into
    *profile_aggs*.  With the trace cache on, the workers' cache is
    backed by a shared file this executor creates and removes.
    """

    def __init__(self, run_job: Callable[..., JobOutcome],
                 config: HuntConfig, workers: int, *,
                 profile_aggs: Optional[Dict[str, AggregateRecord]] = None,
                 racy_floor: Optional[int] = None) -> None:
        ctx = multiprocessing.get_context("fork")
        self.workers = workers
        self.batch_size = config.batch_size
        self.profile_aggs = profile_aggs
        self.stop_at = (
            ctx.Value("i", -1 if racy_floor is None else racy_floor)
            if config.stop_at_first else None
        )
        self.cancel_flag = ctx.Value("i", 0)
        self.cache_path = None
        if config.uses_trace_cache:
            self.cache_path = sharedcache.create_cache_file()
            run_job = functools.partial(run_job, cache=(
                sharedcache.SharedTraceCache(
                    self.cache_path, ctx.Lock(), local=_TRACE_CACHE)))
        before = set(multiprocessing.active_children())
        self.pool = ctx.Pool(
            processes=workers,
            initializer=_init_worker,
            initargs=(run_job, profile_aggs is not None, self.stop_at,
                      self.cancel_flag),
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
        batches = plan_batches(list(jobs), self.workers, self.batch_size)
        # chunksize stays 1: the dispatch unit is already a batch, and
        # in-batch checks keep early stop and cancel drains responsive.
        for outcomes, aggs in self.pool.imap_unordered(
            _worker_run_batch, batches, chunksize=1
        ):
            if aggs:
                merge_aggregate_maps(self.profile_aggs, aggs)
            yield from outcomes

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
    return replace(job, attempt=attempt, delay=delay)


def _needs_retry(outcome: JobOutcome, last_error: Dict[int, str],
                 max_retries: int, interrupted: bool) -> bool:
    """Apply the retry policy to one finished attempt.  Returns True —
    and marks the outcome ``retried`` — when the job should run again;
    otherwise the outcome settles, carrying its retry count and, for a
    failure, why retrying stopped."""
    job = outcome.job
    if outcome.status == "error" and not interrupted:
        prior = last_error.get(job.index)
        if prior is not None and prior == outcome.error:
            # failed identically twice: deterministic, surface instead
            # of burning more retries
            outcome.failure_kind = "deterministic"
        elif job.attempt < max_retries:
            last_error[job.index] = outcome.error
            outcome.status = "retried"
            return True
        else:
            outcome.failure_kind = "exhausted" if job.attempt else "unretried"
    outcome.retries = job.attempt
    return False


# ----------------------------------------------------------------------
# deterministic merge
# ----------------------------------------------------------------------

def _attach_first(
    result: HuntResult,
    first: JobOutcome,
    program: Program,
    model_factory: Callable[[], MemoryModel],
    config: HuntConfig,
) -> None:
    """Re-simulate the winning try with recording on, and verify it.

    The try ran unrecorded; the simulator is deterministic in
    ``(program, model, seed, policy)``, so the same job re-run under
    :func:`record_execution` reproduces it.  Two checks back
    ``recording_verified``: the re-run's report equals the try's report
    digest (it reproduced the hunted race), and the recording replays
    to the re-run (it is a faithful debugging artifact)."""
    job = first.job
    result.seed = job.seed
    result.policy = job.policy_name
    _, factory = config.resolve(program).policies[job.policy_index]
    execution, recording = record_execution(
        program,
        model_factory(),
        seed=job.seed,
        propagation=factory(),
        max_steps=config.max_steps,
    )
    report = _analyze(execution, config.detector)
    result.first_racy = execution
    result.first_report = report
    result.recording = recording
    result.recording_verified = (
        report.format() == first.report_digest
        and verify_recording(
            program,
            model_factory(),
            recording,
            execution,
            max_steps=config.max_steps,
        )
    )


def merge_outcomes(
    program: Program,
    model_factory: Callable[[], MemoryModel],
    config: HuntConfig,
    outcomes: Sequence[JobOutcome],
    *,
    model_name: str,
) -> HuntResult:
    """Fold outcomes into a :class:`HuntResult` in canonical job order.

    Sorting by job index before folding makes the result a pure
    function of the outcome *set* — worker count, completion order,
    and checkpoint/resume boundaries cannot change it.  With
    ``config.stop_at_first``, outcomes beyond the first racy index are
    discarded (the serial path never ran them).  Only settled outcomes
    belong here: retried attempts are subscriber-visible telemetry, not
    merge input.
    """
    result = HuntResult(
        program=program,
        model_name=model_name,
        tries=0,
        racy_runs=0,
        clean_runs=0,
        detector=config.detector,
        verify_robustness=config.verify_robustness,
    )
    first: Optional[JobOutcome] = None
    for outcome in sorted(outcomes, key=lambda o: o.job.index):
        if outcome.status == "skipped":
            continue
        if (
            config.stop_at_first
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
        _attach_first(result, first, program, model_factory, config)
    return result


# ----------------------------------------------------------------------
# engine entry point
# ----------------------------------------------------------------------

def run_hunt(
    program: Program,
    model_factory: Callable[[], MemoryModel],
    config: HuntConfig,
    *,
    progress: Optional[ProgressCallback] = None,
    on_outcome: Optional[Callable[[JobOutcome], None]] = None,
    metrics=None,
    cancel: Optional[threading.Event] = None,
) -> HuntResult:
    """Execute *config*'s seed x policy sweep on ``config.jobs``
    workers and merge.

    The public entry point is
    :func:`repro.analysis.hunting.hunt_races`; this is the engine
    underneath it, and :class:`~repro.analysis.hunting.HuntConfig`
    documents every option.  Each outcome, in completion order, feeds
    one list of subscribers: the metrics fold (when *metrics* is given
    or a :mod:`repro.obs.metrics` registry is collecting), the
    checkpoint writer, *progress* (called as ``progress(done, total,
    racy_so_far)`` for every settled or skipped job) and *on_outcome*
    (every outcome, including ``status="retried"`` attempts a later
    retry superseded — the event log's feed).  On a resume, the metrics
    fold and *on_outcome* first receive each restored outcome, marked
    ``restored``.  *cancel* is a cooperative stop that drains in-flight
    jobs and leaves ``result.interrupted`` set.

    When a :mod:`repro.obs` profiler is active, every job (in-process
    or forked) records per-stage spans into a job-local profiler; both
    executors fold them into one per-span-path aggregate map (fork
    workers pre-fold a batch at a time), which lands on the active
    profiler and ``HuntResult.stage_profile``.  Both checks happen once
    per hunt, so the disabled path stays free.

    The hunt id is :meth:`HuntConfig.resolve_hunt_id`'s, so a resumed
    hunt's metrics, events, and results join with the interrupted
    run's.
    """
    config = config.resolve(program)
    job_plan = plan_jobs(config.tries, [name for name, _ in config.policies])

    fault_plan = _faults.active_plan()

    model_name = model_factory().name
    spec = config.spec(program, model_name)
    hunt_id = config.resolve_hunt_id(program, model_name)
    restored: List[JobOutcome] = []
    racy_floor: Optional[int] = None
    if config.resume:
        loaded = load_checkpoint(config.checkpoint, expected_spec=spec)
        restored = [replace(o, restored=True) for o in loaded.outcomes]
        settled_indices = loaded.settled_indices
        job_plan = [j for j in job_plan if j.index not in settled_indices]
        # The restored racy minimum seeds the early-stop bound: with
        # stop_at_first nothing beyond it is planned at all.
        racy_floor = loaded.first_racy_index
        if config.stop_at_first and racy_floor is not None:
            job_plan = [j for j in job_plan if j.index <= racy_floor]
    # Made before anything runs: it probes its directory, so an
    # unwritable checkpoint path fails the hunt before its first try.
    writer = (CheckpointWriter(config.checkpoint, spec,
                               config.checkpoint_interval, hunt_id=hunt_id)
              if config.checkpoint is not None else None)

    registry = metrics if metrics is not None else obs.metrics.active()
    profile_aggs: Optional[Dict[str, AggregateRecord]] = (
        {} if obs.enabled() else None
    )
    # Start every hunt cold so hit counts describe this hunt alone and
    # memory is bounded; workers inherit the empty L1 through fork and
    # share fresh analyses through the hunt's shared cache file.
    _TRACE_CACHE.clear()
    run_job = functools.partial(
        _execute_job, program, model_factory, config,
        cache=(sharedcache.SharedTraceCache(local=_TRACE_CACHE)
               if config.uses_trace_cache else None),
        coverage=registry is not None,
    )
    workers = min(config.jobs, max(len(job_plan), 1))
    if workers > 1 and "fork" not in multiprocessing.get_all_start_methods():
        workers = 1  # factories may be closures; spawn cannot ship them
    start = time.perf_counter()

    settled: List[JobOutcome] = list(restored)
    subscribers: List[OutcomeSubscriber] = []
    if registry is not None:
        fold = obs.metrics.HuntMetrics(
            registry, total=config.tries, model=model_name,
            detector=config.detector, hunt_id=hunt_id)

        def _metrics(outcome: JobOutcome, done: int, racy: int) -> None:
            # a restored try ran in the interrupted hunt: no rate sample
            fold.fold(try_record(outcome, config.detector),
                      0.0 if outcome.restored
                      else time.perf_counter() - start)
        subscribers.append(_metrics)
    if on_outcome is not None:
        subscribers.append(lambda outcome, done, racy: on_outcome(outcome))
    # Restored outcomes feed the metrics fold and the observer like
    # fresh ones; the subscribers below never see them (they are
    # already checkpointed, and progress starts past them).
    done = racy_seen = 0
    for outcome in restored:
        done += 1
        racy_seen += outcome.status == "racy"
        for subscriber in subscribers:
            subscriber(outcome, done, racy_seen)
    if progress is not None:
        def _progress(outcome: JobOutcome, done: int, racy: int) -> None:
            if outcome.status != "retried":
                progress(done, config.tries, racy)
        subscribers.append(_progress)
    if writer is not None:
        def _checkpoint(outcome: JobOutcome, done: int, racy: int) -> None:
            if outcome.status in _SETTLED:
                writer.tick(settled)
        subscribers.append(_checkpoint)
    if fault_plan is not None:
        # Last, so an injected parent death leaves a usable checkpoint.
        def _fault(outcome: JobOutcome, done: int, racy: int) -> None:
            if outcome.status in _SETTLED:
                fault_plan.on_job_settled(len(settled) - len(restored))
        subscribers.append(_fault)

    executor = (
        _SerialExecutor(run_job, profile_aggs) if workers == 1
        else _PoolExecutor(run_job, config, workers,
                           profile_aggs=profile_aggs, racy_floor=racy_floor)
    )
    interrupted = False
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
                    # skipped: overrun past the early stop, counted
                    # towards progress but never merged
                    if outcome.status != "skipped" and _needs_retry(
                        outcome, last_error, config.max_retries, interrupted
                    ):
                        retry_next.append(
                            _retry_job(outcome.job, config.retry_backoff))
                    if outcome.status != "retried":
                        done += 1
                    if outcome.status in _SETTLED:
                        settled.append(outcome)
                        racy_seen += outcome.status == "racy"
                    for subscriber in subscribers:
                        subscriber(outcome, done, racy_seen)
                    # Serial early stop: never start past the racy
                    # prefix (pool workers lower their shared bound).
                    if (config.stop_at_first and outcome.status == "racy"
                            and workers == 1):
                        break
                if interrupted:
                    break
                if config.stop_at_first:
                    bound = min((o.job.index for o in settled
                                 if o.status == "racy"), default=None)
                    if bound is not None:
                        retry_next = [
                            j for j in retry_next if j.index <= bound
                        ]
                pending = retry_next
            result = merge_outcomes(program, model_factory, config, settled,
                                    model_name=model_name)
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
    if profile_aggs is not None:
        profiler = obs.active()
        if profiler is not None:
            profiler.add_aggregates(profile_aggs)
        result.stage_profile = {
            path: agg.to_dict() for path, agg in sorted(profile_aggs.items())
        }
    result.jobs = workers
    result.elapsed = time.perf_counter() - start
    result.hunt_id = hunt_id
    return result
