"""Race hunting: searching executions for a racy one.

A single clean dynamic run proves nothing about a program (section 1 of
the paper: dynamic techniques "provide little information about other
executions").  Between one run and the exhaustive explorer sits the
practical middle ground every dynamic tool ships: run many schedules
and propagation behaviours, keep the first racy execution found, and
hand back its *recording* so the race replays deterministically in a
debugger.

The hunt sweeps seeds across a set of propagation-policy factories
(stubborn and NUMA-ring shapes surface weak-memory reorderings that
eager propagation hides) and reports per-policy and per-seed
statistics.  Every policy is swept over the *same* seed range
(seed-major enumeration: attempt ``i`` runs seed ``i // P`` under
policy ``i % P``), so per-policy racy rates are directly comparable
and adding or removing a policy never changes which seeds another
policy observes.

Execution is delegated to :mod:`repro.analysis.parallel`, which shards
the (seed, policy) jobs across worker processes when ``jobs > 1`` and
merges outcomes deterministically — the merged :class:`HuntResult`
statistics are identical for any worker count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING, Callable, ClassVar, Dict, List, Optional, Sequence,
    Tuple, Union,
)

from ..machine.models.base import MemoryModel
from ..machine.program import Program
from ..machine.propagation import (
    EagerPropagation,
    HomeDirectoryPropagation,
    PropagationPolicy,
    RandomPropagation,
    StubbornPropagation,
)
from .checkpoint import make_hunt_id, peek_hunt_id, program_fingerprint

if TYPE_CHECKING:
    from ..core.report import RaceReport
    from ..machine.replay import ExecutionRecording
    from ..machine.simulator import ExecutionResult

PolicyFactory = Callable[[], PropagationPolicy]


def default_policies(processor_count: int) -> List[Tuple[str, PolicyFactory]]:
    """The hunt's standard propagation shapes."""
    return [
        ("stubborn", StubbornPropagation),
        ("random-0.2", lambda: RandomPropagation(0.2)),
        ("ring", lambda: HomeDirectoryPropagation.ring(
            max(processor_count, 2)
        )),
    ]


def policy_registry(processor_count: int) -> Dict[str, PolicyFactory]:
    """Every named propagation shape the CLI can sweep."""
    registry: Dict[str, PolicyFactory] = dict(
        default_policies(processor_count)
    )
    registry["eager"] = EagerPropagation
    registry["random-0.5"] = lambda: RandomPropagation(0.5)
    return registry


def policies_by_name(
    names: Sequence[str], processor_count: int
) -> List[Tuple[str, PolicyFactory]]:
    """Resolve policy names (CLI ``--policies``) to ``(name, factory)``
    pairs, preserving order.  Unknown names raise :class:`ValueError`."""
    registry = policy_registry(processor_count)
    unknown = [name for name in names if name not in registry]
    if unknown:
        raise ValueError(
            f"unknown propagation polic{'ies' if len(unknown) > 1 else 'y'} "
            f"{', '.join(sorted(unknown))}; "
            f"known: {', '.join(sorted(registry))}"
        )
    return [(name, registry[name]) for name in names]


@dataclass(frozen=True)
class JobFailure:
    """One hunt job that crashed or timed out instead of completing.

    ``traceback`` carries the worker's full traceback text.  It stays
    out of :meth:`HuntResult.stats` (whose output is a deterministic
    function of the job set — tracebacks embed file paths and line
    numbers) but rides on :meth:`HuntResult.to_json` so ``weakraces
    hunt --json`` surfaces what actually went wrong.

    ``kind`` records how the retry layer classified the failure:

    * ``"deterministic"`` — failed identically on consecutive
      attempts; retrying would burn time reproducing the same bug.
    * ``"exhausted"`` — kept failing (differently) through
      ``max_retries`` retries.
    * ``"unretried"`` — settled on the first attempt (retries
      disabled, or the hunt was interrupted).

    ``retries`` is the number of retry attempts that preceded this
    final failure (0 = it failed once and settled).
    """

    seed: int
    policy: str
    error: str
    traceback: str = ""
    kind: str = "unretried"
    retries: int = 0


@dataclass
class HuntResult:
    """Outcome of a race hunt."""

    program: Program
    model_name: str
    tries: int
    racy_runs: int
    clean_runs: int
    first_racy: Optional[ExecutionResult] = None
    first_report: Optional[RaceReport] = None
    recording: Optional[ExecutionRecording] = None
    seed: Optional[int] = None
    policy: Optional[str] = None
    per_policy: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    per_seed: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    recording_verified: Optional[bool] = None
    failures: List[JobFailure] = field(default_factory=list)
    step_bound_runs: int = 0
    jobs: int = 1
    elapsed: float = 0.0
    stage_profile: Optional[Dict[str, dict]] = None
    # Analyses served from the hunt's trace cache.  Like jobs and
    # elapsed, this depends on how jobs landed on workers (two workers
    # may race to analyze one fingerprint), so it belongs to the run
    # metadata in to_json(), never to the deterministic
    # stats()/summary() contract.
    trace_cache_hits: int = 0
    # Recovery metadata.  retried_runs counts retry attempts that
    # preceded the settled outcomes; under real timeouts it is timing-
    # dependent, so like trace_cache_hits it lives in to_json() only.
    retried_runs: int = 0
    # True when a cancel event (SIGINT/SIGTERM) stopped the hunt early;
    # the statistics then cover the settled prefix only.
    interrupted: bool = False
    # Jobs restored from a resume checkpoint rather than executed.
    resumed_jobs: int = 0
    # Which detection backend analyzed every execution (see
    # HUNT_DETECTORS).  Part of the checkpoint hunt identity; surfaced
    # in to_json() only so stats()/summary() stay byte-identical to
    # hunts recorded before the field existed.
    detector: str = "postmortem"
    # Sum of report.certified_race_count over racy runs — the races-
    # found-per-try numerator benchmarks compare detectors by.  Lives
    # in to_json() with the detector, for the same reason.
    certified_races: int = 0
    # Telemetry correlation id (repro.analysis.checkpoint.make_hunt_id).
    # The same id appears in the metrics registry's hunt-info gauge,
    # the event log's meta record, the checkpoint, and profile exports;
    # run metadata only, so stats()/summary() stay byte-identical.
    hunt_id: Optional[str] = None
    # Robustness verification (repro.core.robustness): when enabled,
    # every try carries a verdict — did the execution have an SC
    # justification?  Verdicts are deterministic per job, but the whole
    # family is gated on this flag so hunts that never asked keep
    # stats()/summary() byte-identical to the historical output.
    verify_robustness: bool = False
    verified_tries: int = 0
    robust_tries: int = 0
    non_robust_tries: int = 0
    # The lowest-index non-robust try's RobustnessReport.to_json()
    # payload: the violating cycle and SC-prefix boundary, exactly as
    # the worker computed them (rebuild with repro.report_from_json).
    first_non_robust: Optional[dict] = None

    @property
    def found(self) -> bool:
        return self.racy_runs > 0

    @property
    def soundness(self) -> Optional[str]:
        """The detector-soundness claim this hunt's verdicts support.

        ``None`` when robustness was not verified (no claim either
        way).  ``"sc-justified"`` when every verified try was robust:
        each analyzed execution has an SC justification, so SC-based
        detection theory applies to all of them directly.
        ``"degraded"`` when any try was non-robust: those executions
        genuinely left sequential consistency, and the detector's
        guarantees hold only up to each one's SC-prefix boundary
        (Condition 3.4's clause 2 territory — see
        ``docs/detection_pipeline.md``).
        """
        if not self.verify_robustness:
            return None
        return "degraded" if self.non_robust_tries else "sc-justified"

    @property
    def executions_per_second(self) -> float:
        if self.elapsed <= 0.0:
            return 0.0
        return self.tries / self.elapsed

    def stats(self) -> dict:
        """The merge-determined statistics: identical for any worker
        count over the same job set (no timing, no worker count)."""
        return {
            "model": self.model_name,
            "tries": self.tries,
            "racy_runs": self.racy_runs,
            "clean_runs": self.clean_runs,
            "step_bound_runs": self.step_bound_runs,
            "found": self.found,
            "seed": self.seed,
            "policy": self.policy,
            "recording_verified": self.recording_verified,
            "per_policy": {
                name: {"racy": racy, "runs": total}
                for name, (racy, total) in sorted(self.per_policy.items())
            },
            "per_seed": {
                str(seed): {"racy": racy, "runs": total}
                for seed, (racy, total) in sorted(self.per_seed.items())
            },
            "failures": [
                {"seed": f.seed, "policy": f.policy, "error": f.error,
                 "kind": f.kind, "retries": f.retries}
                for f in self.failures
            ],
        }

    def to_json(self) -> dict:
        """``stats()`` plus the run's timing/worker metadata."""
        payload = self.stats()
        payload["jobs"] = self.jobs
        payload["elapsed_sec"] = round(self.elapsed, 6)
        payload["executions_per_sec"] = round(self.executions_per_second, 1)
        payload["trace_cache_hits"] = self.trace_cache_hits
        payload["retried_runs"] = self.retried_runs
        payload["interrupted"] = self.interrupted
        payload["resumed_jobs"] = self.resumed_jobs
        payload["detector"] = self.detector
        payload["certified_races"] = self.certified_races
        payload["hunt_id"] = self.hunt_id
        if self.soundness:
            payload["robustness"] = {
                "verified_tries": self.verified_tries,
                "robust": self.robust_tries,
                "non_robust": self.non_robust_tries,
                "soundness": self.soundness,
                "first_non_robust": self.first_non_robust,
            }
        # stats() keeps failures deterministic; the JSON view adds the
        # worker tracebacks so crashes are debuggable from the output.
        for entry, failure in zip(payload["failures"], self.failures):
            entry["traceback"] = failure.traceback
        if self.stage_profile is not None:
            payload["stage_profile"] = self.stage_profile
        return payload

    def summary(self) -> str:
        lines = [
            f"hunted {self.tries} executions on {self.model_name}: "
            f"{self.racy_runs} racy, {self.clean_runs} clean"
        ]
        for policy, (racy, total) in sorted(self.per_policy.items()):
            lines.append(f"  {policy}: {racy}/{total} racy")
        if self.step_bound_runs:
            lines.append(
                f"  {self.step_bound_runs} run(s) hit the step bound "
                f"before completing"
            )
        for failure in self.failures:
            # Retry provenance is deterministic (classification is a
            # function of the error texts), so it may appear here;
            # unretried failures keep the historical line byte-for-byte.
            suffix = (
                f" [{failure.kind} after {failure.retries + 1} attempts]"
                if failure.retries else ""
            )
            lines.append(
                f"  FAILED seed={failure.seed} policy={failure.policy}: "
                f"{failure.error}{suffix}"
            )
        if self.found and self.seed is not None:
            first = (
                f"first racy execution: seed={self.seed}, "
                f"policy={self.policy}"
            )
            if self.recording_verified is False:
                lines.append(first)
                lines.append(
                    "  WARNING: recording failed replay verification; "
                    "the captured recording does not reproduce this race"
                )
            else:
                lines.append(first + "; recording captured for replay")
        elif not self.found:
            lines.append(
                "no racy execution found (not a proof of data-race-"
                "freedom; see analysis.exhaustive for that)"
            )
        if self.soundness:
            lines.append(
                f"  robustness: {self.robust_tries}/{self.verified_tries} "
                f"verified tries robust"
            )
            if self.non_robust_tries:
                lines.append(
                    f"  SOUNDNESS DEGRADED: {self.non_robust_tries} "
                    f"execution(s) have no SC justification; detector "
                    f"guarantees hold only up to each one's SC-prefix "
                    f"boundary"
                )
        if self.interrupted:
            lines.append(
                "hunt interrupted: statistics cover the settled jobs "
                "only (resume with --checkpoint FILE --resume)"
            )
        return "\n".join(lines)


#: Detector backends a hunt can sweep with.  ``onthefly`` is excluded:
#: it consumes the operation stream, which the trace cache (keyed on
#: the trace, which deliberately drops operations — §4.1) cannot serve.
#: ``streaming`` consumes each execution's operation stream online and
#: never materializes a trace, so it runs with the cache bypassed.
HUNT_DETECTORS = ("postmortem", "naive", "shb", "wcp", "streaming")


@dataclass(frozen=True)
class HuntConfig:
    """Every hunt option, declared, defaulted and validated once.

    Fields marked *identity* form the checkpoint spec (:meth:`spec`):
    resuming a checkpoint whose identity differs is a
    :class:`~repro.analysis.checkpoint.CheckpointMismatch`.

    * ``tries`` (identity) — total executions.  Enumeration is
      seed-major: attempt ``i`` runs seed ``i // P`` under policy
      ``i % P``, so all ``P`` policies sweep the same seed range.
    * ``policies`` (identity, by name) — ``(name, factory)`` pairs;
      ``None`` means :func:`default_policies` for the program.  An
      explicit empty sequence is an error.
    * ``stop_at_first`` (identity) — stop once a racy execution is
      found (jobs before it still run, matching the serial prefix).
    * ``max_steps`` (identity) — per-execution simulator step bound;
      runs that hit it are still analyzed and counted in
      ``step_bound_runs``.
    * ``jobs`` — worker processes: ``1`` runs in-process, ``N > 1``
      shards across a fork pool with identical merged statistics.
    * ``job_timeout`` — optional per-execution wall-clock limit in
      seconds; a timed-out job is a recorded failure (inherently
      nondeterministic — leave unset when reproducibility matters).
    * ``trace_cache`` — serve repeated analyses from a cache keyed by
      the canonical trace fingerprint (the detector is a pure function
      of the trace, so hits are exact).
    * ``max_retries`` / ``retry_backoff`` — retry a transiently
      failing job up to ``max_retries`` times, attempt ``n`` sleeping
      ``retry_backoff * 2**(n-1)`` scaled by deterministic seeded
      jitter; a job failing identically twice is not retried further.
    * ``checkpoint`` / ``resume`` / ``checkpoint_interval`` — persist
      settled outcomes to this path every ``checkpoint_interval``
      settles (plus a final write); ``resume`` loads it first, skips
      settled jobs, and merges to statistics byte-identical to an
      uninterrupted run.
    * ``detector`` (identity) — the analysis backend, one of
      :data:`HUNT_DETECTORS`; ``"streaming"`` never builds a trace, so
      it bypasses the trace cache.
    * ``batch_size`` — jobs per pool dispatch batch (``None`` = auto,
      a couple of batches per worker; the serial path ignores it).
    * ``hunt_id`` — telemetry correlation id; see
      :meth:`resolve_hunt_id`.
    * ``verify_robustness`` (identity) — attach a robustness verdict
      (:func:`repro.core.robustness.check_robustness`) to every try;
      any non-robust try downgrades :attr:`HuntResult.soundness`.
    """

    tries: int = 24
    policies: Optional[Sequence[Tuple[str, PolicyFactory]]] = None
    stop_at_first: bool = False
    max_steps: int = 200_000
    jobs: int = 1
    job_timeout: Optional[float] = None
    trace_cache: bool = True
    max_retries: int = 2
    retry_backoff: float = 0.05
    checkpoint: Optional[Union[str, os.PathLike]] = None
    resume: bool = False
    checkpoint_interval: int = 100
    detector: str = "postmortem"
    batch_size: Optional[int] = None
    hunt_id: Optional[str] = None
    verify_robustness: bool = False

    #: The checkpoint identity, in spec order.  The detector belongs
    #: here because outcomes analyzed by different detectors disagree
    #: on racy/clean (the predictive backends flag traces the baseline
    #: calls clean); the robustness flag because a verifying hunt
    #: cannot honestly merge restored tries that carry no verdicts.
    IDENTITY: ClassVar[Tuple[str, ...]] = (
        "tries", "policies", "max_steps", "stop_at_first", "detector",
        "verify_robustness",
    )

    def __post_init__(self) -> None:
        if self.tries < 1:
            raise ValueError("tries must be positive")
        if self.jobs < 1:
            raise ValueError("jobs must be positive")
        if self.job_timeout is not None and self.job_timeout <= 0:
            raise ValueError("job_timeout must be positive (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be positive")
        if self.resume and self.checkpoint is None:
            raise ValueError("resume requires a checkpoint path")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be positive (or None for auto)")
        if self.detector not in HUNT_DETECTORS:
            raise ValueError(
                f"unknown hunt detector {self.detector!r}; "
                f"known: {', '.join(HUNT_DETECTORS)}"
            )
        if self.policies is not None:
            policies = tuple(self.policies)
            if not policies:
                raise ValueError(
                    "policies must not be empty (pass None for the defaults)"
                )
            object.__setattr__(self, "policies", policies)

    @property
    def uses_trace_cache(self) -> bool:
        """Streaming detection never builds a trace, so there is
        nothing to fingerprint and the cache is bypassed."""
        return self.trace_cache and self.detector != "streaming"

    def resolve(self, program: Program) -> "HuntConfig":
        """This config with ``policies=None`` replaced by the
        program's :func:`default_policies`."""
        if self.policies is not None:
            return self
        return replace(
            self, policies=default_policies(program.processor_count)
        )

    def spec(self, program: Program, model_name: str) -> dict:
        """The hunt-identity record a checkpoint is validated against:
        the program and model plus every :attr:`IDENTITY` field."""
        values = dict(
            program_sha=program_fingerprint(program), model=model_name
        )
        for name in self.IDENTITY:
            values[name] = getattr(self, name)
        values["policies"] = [
            name for name, _ in self.resolve(program).policies
        ]
        return values

    def resolve_hunt_id(self, program: Program, model_name: str) -> str:
        """The hunt's telemetry id, decided here for every surface that
        names it (events meta, ``/status``, profile meta, checkpoint,
        result): on a resume the checkpoint's stored id, so the resumed
        hunt joins the interrupted run; else ``hunt_id``; else a fresh
        id minted from :meth:`spec`."""
        stored = peek_hunt_id(self.checkpoint) if self.resume else None
        return stored or self.hunt_id or make_hunt_id(
            self.spec(program, model_name))


def hunt_races(
    program: Program,
    model_factory: Callable[[], MemoryModel],
    config: Optional[HuntConfig] = None,
    *,
    progress: Optional[Callable[[int, int, int], None]] = None,
    on_outcome: Optional[Callable[[object], None]] = None,
    metrics=None,
    cancel=None,
    **options,
) -> HuntResult:
    """Sweep seeds x propagation policies looking for racy executions.

    The hunt options are a :class:`HuntConfig`, passed whole as
    *config* or as its keyword fields (``tries=96, jobs=4``), never
    both.  *model_factory* builds a fresh memory model per run.  The
    remaining arguments are observers and controls, not options:

    * *progress* — called after every completed job as
      ``progress(done, total, racy_so_far)`` (the CLI's status line);
    * *on_outcome* — receives each
      :class:`repro.analysis.parallel.JobOutcome` in completion order
      (e.g. ``repro.obs.events.HuntEventLog(...).on_outcome``);
    * *metrics* — a :class:`repro.obs.metrics.MetricsRegistry` to fold
      per-job telemetry into; defaults to the registry
      ``repro.obs.metrics.collect`` made active, if any;
    * *cancel* — a :class:`threading.Event`; once set, dispatch stops,
      in-flight jobs drain, a final checkpoint is written and the
      partial result has ``interrupted=True``.
    """
    if config is None:
        config = HuntConfig(**options)
    elif options:
        raise TypeError(
            f"hunt_races() takes a config or hunt options, not both "
            f"(got config and {', '.join(sorted(options))})"
        )
    from .parallel import run_hunt
    return run_hunt(
        program, model_factory, config, progress=progress,
        on_outcome=on_outcome, metrics=metrics, cancel=cancel,
    )
