"""The benchmark's workloads.

Each workload turns a seed into inputs, sets them up, runs one timed
operation at a time in a closed loop, and checks every operation's
output against a guarantee of the paper.  For the traced run it reads
the program's own profiler spans (``repro.obs.Profiler``: the hunt's
``HuntResult.stage_profile``, the detectors' stage spans) and adds
benchmark-side spans (see ``spans.py``) only around public calls that
emit no span of their own.  Nothing here re-implements the program.

Seed 0 gives the default inputs.  Any other seed varies the inputs only
through the public program builders and the simulation seed, and keeps
their shape, so a held-out seed measures the same kind of work.
"""

from __future__ import annotations

import functools
import hashlib
import os
import random
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, FrozenSet, List, Optional, Tuple

import repro
from repro import (
    WorkQueueParams,
    buggy_workqueue_program,
    build_trace,
    make_model,
    producer_consumer_program,
    run_program,
)
from repro.analysis import default_policies, hunt_races
from repro.machine import ProgramBuilder, record_execution
from repro.obs import Profiler, aggregate_records
from repro.obs.metrics import MetricsRegistry
from repro.trace import trace_fingerprint

from spans import NullTracer, Tracer, self_totals

#: hunt_races' own per-execution step bound, which the replay must use.
MAX_STEPS = 200_000

#: Simulations per traced set-up of the single-trace workloads.
SETUP_REPEATS = 5

#: Per-layer metrics of the traced run, with their units.  Every traced
#: run reports all of them; a layer a workload never calls reads 0.
PER_LAYER_UNITS = {
    "machine.record_s": "s",
    "machine.simulate_s": "s",
    "machine.record_overhead_frac": "frac",
    "machine.steps": "count",
    "machine.operations": "count",
    "machine.steps_per_s": "1/s",
    "trace.build_s": "s",
    "trace.fingerprint_s": "s",
    "trace.events": "count",
    "trace.load_s": "s",
    "core.hb1_s": "s",
    "core.vc_s": "s",
    "core.races_s": "s",
    "core.partitions_s": "s",
    "core.detect_self_s": "s",
    "core.races": "count",
    "core.data_races": "count",
    "core.sccs": "count",
    "core.first_partitions": "count",
    "core.pairs_tested": "count",
    "core.streaming_s": "s",
    "core.retained_peak": "count",
    "core.robustness_s": "s",
    "analysis.hunt_self_s": "s",
    "analysis.cache_hit_frac": "frac",
    "analysis.fingerprints": "count",
    "analysis.pool_efficiency": "frac",
    "bench.trace_overhead_s": "s",
    "bench.trace_overhead_frac": "frac",
}

#: Exact work counts, each read from a counter the program's own span
#: emits: metric -> (span name, counter).
COUNT_SOURCES = {
    "machine.steps": ("simulate", "steps"),
    "machine.operations": ("simulate", "operations"),
    "trace.events": ("trace.build", "events"),
    "core.races": ("races.find", "pairs_reported"),
    "core.data_races": ("races.find", "data_races"),
    "core.pairs_tested": ("races.find", "pairs_tested"),
    "core.sccs": ("races.partition", "sccs"),
    "core.first_partitions": ("races.partition", "first_partitions"),
}

#: The counts a trace-cache hit skips; on the pool they depend on how
#: jobs land on workers.
CORE_COUNTS = tuple(name for name in COUNT_SOURCES if name.startswith("core."))

#: Program span name -> per-layer time metric (total time).
_STAGE_METRICS = {
    "trace.build": "trace.build_s",
    "columnar.open": "trace.load_s",
    "hb1.build": "core.hb1_s",
    "hb1.vc_sweep": "core.vc_s",
    "races.find": "core.races_s",
    "races.partition": "core.partitions_s",
    "detect.streaming": "core.streaming_s",
}


# ----------------------------------------------------------------------
# reading the program's own spans
# ----------------------------------------------------------------------

@dataclass
class Stage:
    """One program span name, folded over every path it appears on."""

    total: float = 0.0
    self_time: float = 0.0
    counters: Dict[str, int] = field(default_factory=dict)


def profile_aggregates(*profilers: Profiler) -> Dict[str, dict]:
    """The profilers' spans as per-path aggregates, the form of
    ``HuntResult.stage_profile``."""
    return {path: agg.to_dict() for path, agg in aggregate_records(
        profiler.to_records() for profiler in profilers).items()}


def stages(aggregates: Dict[str, dict]) -> Dict[str, Stage]:
    """Span name -> summed total time, self time (total minus the
    direct children's totals) and counters."""
    children: Dict[str, float] = {}
    for path, agg in aggregates.items():
        parent = path.rpartition("/")[0]
        children[parent] = children.get(parent, 0.0) + agg["total_sec"]
    folded: Dict[str, Stage] = {}
    for path, agg in aggregates.items():
        stage = folded.setdefault(path.rpartition("/")[2], Stage())
        stage.total += agg["total_sec"]
        stage.self_time += agg["total_sec"] - children.get(path, 0.0)
        for name, value in agg["counters"].items():
            stage.counters[name] = stage.counters.get(name, 0) + value
    return folded


def work_counts(folded: Dict[str, Stage]) -> Dict[str, int]:
    """The exact work counts of COUNT_SOURCES (0 where never emitted)."""
    return {metric: folded[span].counters.get(counter, 0)
            if span in folded else 0
            for metric, (span, counter) in COUNT_SOURCES.items()}


@dataclass
class Traced:
    """Outcome of a traced run: per-layer metrics (``None`` when a check
    or the replay's fidelity check failed), operations attempted and
    failed, and the problems found."""

    metrics: Optional[Dict[str, float]]
    attempted: int
    failed: int
    problems: List[str]


def layer_metrics(folded: Dict[str, Stage], ops: int) -> Dict[str, float]:
    """Every per-layer metric at 0, then the program's stage times per
    operation and its work counts."""
    metrics = {name: 0 if unit == "count" else 0.0
               for name, unit in PER_LAYER_UNITS.items()}
    for span_name, metric in _STAGE_METRICS.items():
        if span_name in folded:
            metrics[metric] = folded[span_name].total / ops
    if "detect.postmortem" in folded:
        # VectorClockHB1's topological sort runs outside hb1.vc_sweep.
        metrics["core.detect_self_s"] = (
            folded["detect.postmortem"].self_time / ops)
    metrics.update(work_counts(folded))
    return metrics


def machine_ratios(metrics: Dict[str, float], bench: Dict[str, float],
                   simulations: int, steps: int) -> None:
    """Plain-run time, recording's price over a plain run (both timed by
    benchmark spans, *simulations* of each) and simulator speed over
    the *steps* those plain runs took."""
    if bench.get("machine.simulate", 0.0) > 0:
        metrics["machine.simulate_s"] = bench["machine.simulate"] / simulations
        metrics["machine.record_overhead_frac"] = (
            bench["machine.record"] / bench["machine.simulate"] - 1.0)
        metrics["machine.steps_per_s"] = steps / bench["machine.simulate"]


# ----------------------------------------------------------------------
# hunts
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HuntOutput:
    """What one hunt reports, reduced to the checked fields."""

    tries: int
    racy: int
    clean: int
    errors: int
    cache_hits: int
    fingerprints: FrozenSet[str]
    robust: int
    interrupted: bool
    #: ``HuntResult.stage_profile``: set when a profiler was active.
    stages: Optional[Dict[str, dict]] = field(default=None, compare=False)


@dataclass
class HuntState:
    program: object
    model_factory: object
    workdir: str


class HuntWorkload:
    """A closed loop of whole ``hunt_races`` calls; one try is one unit
    of work."""

    work_name = "tries_per_s"

    def __init__(self, name: str, model: str, tries: int, jobs: int,
                 operator: bool, pins: Dict[str, int]) -> None:
        self.name = name
        self.model = model
        self.tries = tries
        self.jobs = jobs
        # The operator-style hunt: robustness verdicts, a checkpoint
        # file and a metrics registry, as ``weakraces hunt --jobs
        # --verify-robustness --checkpoint --serve`` runs it.
        self.operator = operator
        self.pins = pins

    def build_program(self, seed: int):
        raise NotImplementedError

    def setup(self, seed: int, workdir: str, tracer=None) -> HuntState:
        return HuntState(self.build_program(seed),
                         functools.partial(make_model, self.model), workdir)

    def hunt(self, state: HuntState, tries: int) -> HuntOutput:
        fingerprints = set()
        result = hunt_races(
            state.program, state.model_factory, tries=tries, jobs=self.jobs,
            verify_robustness=self.operator,
            checkpoint=(os.path.join(state.workdir, "hunt.ckpt")
                        if self.operator else None),
            metrics=MetricsRegistry() if self.operator else None,
            on_outcome=lambda outcome: fingerprints.add(outcome.fingerprint),
        )
        return HuntOutput(
            tries=result.tries, racy=result.racy_runs,
            clean=result.clean_runs, errors=len(result.failures),
            cache_hits=result.trace_cache_hits,
            fingerprints=frozenset(fingerprints),
            robust=result.robust_tries, interrupted=result.interrupted,
            stages=result.stage_profile)

    def warm(self, state: HuntState) -> None:
        """Pay lazy imports and the first pool start off the clock."""
        self.hunt(state, 2 * len(default_policies(
            state.program.processor_count)))

    def run(self, state: HuntState) -> Tuple[int, int, HuntOutput]:
        """(tries completed, tries attempted, output)."""
        output = self.hunt(state, self.tries)
        return output.tries, self.tries, output

    def summarize(self, output: HuntOutput) -> HuntOutput:
        return output

    def user_rates(self, state: HuntState,
                   summaries: List[HuntOutput]) -> Dict[str, float]:
        return {}

    def check(self, seed: int, state: HuntState,
              output: HuntOutput) -> Tuple[int, List[str]]:
        """(tries counted as failed, problems).  A try fails when it
        errored or its verdict breaks the workload's guarantee; a whole
        hunt fails when its counts break an invariant or a seed-0 pin."""
        problems = []
        # An errored try has no verdict, so bad_tries counts it too.
        bad = self.bad_tries(output)
        if bad:
            problems.append(f"{bad} of {output.tries} tries broke the "
                            f"expected verdict ({output.errors} errored)")
        if output.tries != self.tries or output.interrupted:
            problems.append(f"hunt settled {output.tries}/{self.tries} tries")
        # Every distinct trace misses the cache at least once.
        if output.cache_hits > output.tries - len(output.fingerprints):
            problems.append(f"{output.cache_hits} cache hits exceed tries "
                            f"minus {len(output.fingerprints)} fingerprints")
        if seed == 0:
            observed = {"racy": output.racy, "clean": output.clean,
                        "cache_hits": output.cache_hits,
                        "fingerprints": len(output.fingerprints)}
            for key, want in self.pins.items():
                if observed[key] != want:
                    problems.append(f"seed 0 pin {key}: {observed[key]} "
                                    f"!= {want}")
        if problems and not bad:
            bad = self.tries
        return bad, problems

    def bad_tries(self, output: HuntOutput) -> int:
        raise NotImplementedError

    # -- traced run ---------------------------------------------------
    def replay(self, state: HuntState, tracer) -> dict:
        """Re-run the hunt's seed-major jobs (seed ``i // P`` under
        policy ``i % P``) under an active profiler, with the hunt's
        trace-cache rule: analyze a fingerprint once.  Benchmark spans
        time the calls that emit no span of their own, and a plain
        ``run_program`` beside each recording prices recording; it
        records into a profiler of its own, so the replay's counters
        hold only what the hunt does."""
        program = state.program
        policies = default_policies(program.processor_count)
        count = len(policies)
        analyzed: Dict[str, bool] = {}
        racy = robust = 0
        profiler = Profiler()
        with profiler.activate():
            for i in range(self.tries):
                seed, factory = i // count, policies[i % count][1]
                with tracer.span("bench.op", op=i):
                    with tracer.span("machine.record"):
                        execution, _ = record_execution(
                            program, state.model_factory(), seed=seed,
                            propagation=factory(), max_steps=MAX_STEPS)
                    with tracer.span("machine.simulate"), \
                            Profiler().activate():
                        run_program(program, state.model_factory(),
                                    seed=seed, propagation=factory(),
                                    max_steps=MAX_STEPS)
                    trace = build_trace(execution)
                    with tracer.span("trace.fingerprint"):
                        fingerprint = trace_fingerprint(trace)
                    if fingerprint not in analyzed:
                        analyzed[fingerprint] = not repro.detect(
                            trace).race_free
                    racy += analyzed[fingerprint]
                    if self.operator:
                        with tracer.span("core.robustness"):
                            robust += repro.check_robustness(
                                execution).robust
        return {"counts": work_counts(stages(profile_aggregates(profiler))),
                "racy": racy, "robust": robust,
                "fingerprints": frozenset(analyzed),
                "cache_hits": self.tries - len(analyzed)}

    def traced(self, seed: int, state: HuntState, tracer: Tracer,
               seconds: float) -> Traced:
        """An untraced hunt, the same hunt under the program's profiler
        (its per-layer times and counts come from ``stage_profile``),
        then one replay for what the profile leaves out."""
        start = time.perf_counter()
        bare = self.hunt(state, self.tries)
        bare_wall = time.perf_counter() - start
        with Profiler().activate(), \
                tracer.span("analysis.hunt", op=-1) as span:
            output = self.hunt(state, self.tries)
        problems = []
        bad = 0
        for hunted in (bare, output):
            failed, found = self.check(seed, state, hunted)
            bad += failed
            problems += found
        replay = self.replay(state, tracer)
        unfaithful = self.fidelity(output, replay)
        problems += unfaithful
        # Two hunts and the replay; an unfaithful replay fails whole.
        attempted = 3 * self.tries
        failed = bad + (self.tries if unfaithful else 0)
        if problems:
            return Traced(None, attempted, failed, problems)
        folded = stages(output.stages)
        metrics = layer_metrics(folded, self.tries)
        # Core counts from the replay: on the pool the hunt may analyze
        # a fingerprint twice, the replay never does.
        metrics.update(replay["counts"])
        metrics["machine.record_s"] = folded["simulate"].total / self.tries
        bench = self_totals([s for s in tracer.spans if s.op != -1])
        machine_ratios(metrics, bench, self.tries, metrics["machine.steps"])
        metrics["trace.fingerprint_s"] = (bench["trace.fingerprint"]
                                          / self.tries)
        metrics["core.robustness_s"] = (bench.get("core.robustness", 0.0)
                                        / self.tries)
        # What every job spent, on every worker, against the worker time
        # the pool had; both from the same profiled hunt.
        job_time = folded["hunt.job"].total
        worker_seconds = self.jobs * span.duration
        metrics.update({
            "analysis.hunt_self_s": (worker_seconds - job_time) / self.tries,
            "analysis.cache_hit_frac": output.cache_hits / self.tries,
            "analysis.fingerprints": len(output.fingerprints),
            "analysis.pool_efficiency": job_time / worker_seconds,
            "bench.trace_overhead_s": (span.duration - bare_wall) / self.tries,
            "bench.trace_overhead_frac": span.duration / bare_wall - 1.0,
        })
        return Traced(metrics, attempted, failed, problems)

    def fidelity(self, output: HuntOutput, replay: dict) -> List[str]:
        """The replay must reproduce the hunt it explains, work counts
        included."""
        problems = []
        if replay["racy"] != output.racy:
            problems.append(f"replay racy {replay['racy']} != hunt "
                            f"{output.racy}")
        if replay["fingerprints"] != output.fingerprints:
            problems.append("replay fingerprints differ from the hunt's")
        # On a pool, two workers can miss the same new fingerprint at
        # once, so the hunt may hit less often than the serial replay;
        # serially the counts are equal.
        same_hits = replay["cache_hits"] == output.cache_hits
        if not (same_hits or self.jobs > 1
                and replay["cache_hits"] > output.cache_hits):
            problems.append(f"replay cache hits {replay['cache_hits']} vs "
                            f"hunt {output.cache_hits}")
        if self.operator and replay["robust"] != output.robust:
            problems.append(f"replay robust {replay['robust']} != hunt "
                            f"{output.robust}")
        hunted = work_counts(stages(output.stages))
        for name, value in replay["counts"].items():
            # A second analysis of one fingerprint adds core work only.
            if same_hits or name not in CORE_COUNTS:
                wrong = value != hunted[name]
            else:
                wrong = value > hunted[name]
            if wrong:
                problems.append(f"replay {name} {value} vs hunt "
                                f"{hunted[name]}")
        return problems


class HuntWorkqueue(HuntWorkload):
    def __init__(self) -> None:
        super().__init__("hunt-workqueue", "WO", tries=600, jobs=1,
                         operator=False,
                         pins={"racy": 600, "clean": 0, "cache_hits": 595,
                               "fingerprints": 5})

    def inputs(self, seed: int) -> WorkQueueParams:
        if seed == 0:
            return WorkQueueParams()
        # Move where the stale dequeue lands inside P3's region; the
        # region and work lengths, hence the work per try, stay fixed.
        return WorkQueueParams(stale_addr=random.Random(seed).randrange(1, 100))

    def build_program(self, seed: int):
        return buggy_workqueue_program(self.inputs(seed))

    def bad_tries(self, output: HuntOutput) -> int:
        return output.tries - output.racy  # the queue is unguarded


class HuntProdcons(HuntWorkload):
    def __init__(self) -> None:
        # On the pool the cache-hit count depends on how jobs land on
        # workers, so the check pins its serial value (tries minus the
        # 100 fingerprints) as an upper bound rather than an equality.
        super().__init__("hunt-prodcons", "TSO", tries=150, jobs=2,
                         operator=True,
                         pins={"racy": 0, "clean": 150, "fingerprints": 100})

    def inputs(self, seed: int) -> int:
        """Items passed from producer to consumer."""
        return 64 if seed == 0 else random.Random(seed).randint(63, 65)

    def build_program(self, seed: int):
        return producer_consumer_program(self.inputs(seed))

    def bad_tries(self, output: HuntOutput) -> int:
        # Data-race-free, so no try is racy and every execution is SC
        # (Theorem 4.1 under Condition 3.4).
        return max(output.racy, output.tries - output.robust)


# ----------------------------------------------------------------------
# one large trace
# ----------------------------------------------------------------------

def pingpong_program(rounds: int):
    """Data-race-free two-processor handshake: release/acquire round
    trips whose trace length scales with *rounds*."""
    b = ProgramBuilder()
    flag = b.var("flag")
    ack = b.var("ack")
    data = b.var("data")
    with b.thread() as t:  # producer
        for i in range(rounds):
            t.write(data, i)
            t.release_write(flag, i + 1)
            t.spin_until_ge(ack, i + 1)
    with b.thread() as t:  # consumer
        for i in range(rounds):
            t.spin_until_ge(flag, i + 1)
            t.read(data)
            t.release_write(ack, i + 1)
    return b.build()


@dataclass
class PingpongState:
    execution: object
    path: str
    events: int


@dataclass(frozen=True)
class Summary:
    """One analysis operation, reduced to what the checks and the
    printed rates read (so a closed loop holds no reports)."""

    races: int
    data_races: int
    first_partitions: int
    postmortem_digest: str
    stream_digest: str
    retained_peak: int
    robust: bool
    seconds: Tuple[float, float, float]


def race_digest(races) -> str:
    """Digest of a race set: equal digests, equal sets."""
    text = "\n".join(sorted(f"{r.signature} {r.locations} {r.is_data_race}"
                            for r in races))
    return hashlib.sha256(text.encode()).hexdigest()


class AnalyzePingpong:
    """``pingpong_program(128)`` simulated on WO at the workload seed
    and saved as one columnar (WRCT) trace file.  One operation runs
    the three analyses ``weakraces analyze`` and ``weakraces check``
    offer on it: post-mortem from the file, streaming from the file,
    and the robustness verdict of the execution.  No ``machine`` work
    is timed."""

    name = "analyze-pingpong"
    work_name = "events_per_s"
    rounds = 128
    model = "WO"
    # Seed 0: every race is a sync race; these are its exact counts.
    pins = {"races": 633, "first_partitions": 255}

    def inputs(self, seed: int) -> Tuple[int, int]:
        """(rounds, simulation seed)."""
        return self.rounds, seed

    def setup(self, seed: int, workdir: str,
              tracer=NullTracer()) -> PingpongState:
        rounds, sim_seed = self.inputs(seed)
        program = pingpong_program(rounds)
        # Traced, the simulation is repeated, and recorded and
        # fingerprinted as a hunt would, so the machine and trace layers
        # get per-layer times here; the timed operations never simulate.
        traced = not isinstance(tracer, NullTracer)
        with tracer.span("bench.setup", op=-1):
            for _ in range(SETUP_REPEATS if traced else 1):
                with tracer.span("machine.simulate"):
                    execution = run_program(program, make_model(self.model),
                                            seed=sim_seed)
                if traced:
                    with tracer.span("machine.record"):
                        record_execution(program, make_model(self.model),
                                         seed=sim_seed)
            with tracer.span("trace.build"):
                trace = build_trace(execution)
            if traced:
                with tracer.span("trace.fingerprint"):
                    trace_fingerprint(trace)
            path = os.path.join(workdir, "pingpong.wrct")
            with tracer.span("trace.save"):
                repro.save_trace(trace, path, format="columnar")
        return PingpongState(execution, path, trace.event_count)

    def warm(self, state: PingpongState) -> None:
        self.run(state)

    def run(self, state: PingpongState):
        """(trace events, attempts, output) of one timed operation."""
        return state.events, 1, self.op(state, NullTracer())

    def op(self, state: PingpongState, tracer):
        """The three public calls, each timed; the robustness check,
        which emits no span of its own, also under a benchmark span."""
        start = time.perf_counter()
        report = repro.detect(state.path)
        middle = time.perf_counter()
        stream = repro.detect(state.path, detector="streaming")
        end = time.perf_counter()
        with tracer.span("core.robustness"):
            verdict = repro.check_robustness(state.execution)
        seconds = (middle - start, end - middle, time.perf_counter() - end)
        return report, stream, verdict, seconds

    def summarize(self, output) -> Summary:
        report, stream, verdict, seconds = output
        return Summary(
            races=len(report.races), data_races=len(report.data_races),
            first_partitions=len(report.analysis.first_partitions),
            postmortem_digest=race_digest(report.races),
            stream_digest=race_digest(stream.races),
            retained_peak=stream.retained_peak, robust=verdict.robust,
            seconds=seconds)

    def check(self, seed: int, state: PingpongState,
              summary: Summary) -> Tuple[int, List[str]]:
        """A data-race-free program: no data race, the streaming race
        set equal to the post-mortem one, and a robust (SC) execution
        (Theorem 4.1)."""
        problems = []
        if summary.data_races:
            problems.append(f"{summary.data_races} data races on a "
                            f"data-race-free program")
        if summary.stream_digest != summary.postmortem_digest:
            problems.append("streaming race set differs from post-mortem")
        if not summary.robust:
            problems.append("non-robust verdict on a data-race-free program")
        if seed == 0:
            for key, want in self.pins.items():
                if getattr(summary, key) != want:
                    problems.append(f"seed 0 pin {key}: "
                                    f"{getattr(summary, key)} != {want}")
        return (1 if problems else 0), problems

    def user_rates(self, state: PingpongState,
                   summaries: List[Summary]) -> Dict[str, float]:
        """Each analysis's own throughput over the run."""
        names = ("analyze_events_per_s", "stream_events_per_s",
                 "robust_ops_per_s")
        units = (state.events, state.events,
                 len(state.execution.operations))
        return {name: unit * len(summaries) / sum(s.seconds[i]
                                                  for s in summaries)
                for i, (name, unit) in enumerate(zip(names, units))}

    def traced(self, seed: int, state: PingpongState, tracer: Tracer,
               seconds: float) -> Traced:
        """Alternate untraced operations and operations under the
        program's profiler (a fresh one each, so every operation's work
        counts are compared) for *seconds*."""
        walls: Dict[bool, List[float]] = {False: [], True: []}
        attempted = failed = 0
        problems: List[str] = []
        profilers: List[Profiler] = []
        deadline = time.perf_counter() + seconds
        while not profilers or time.perf_counter() < deadline:
            for with_spans in (False, True):
                profiler = Profiler()
                start = time.perf_counter()
                if with_spans:
                    with profiler.activate(), tracer.span(
                            "bench.op", op=len(profilers)):
                        output = self.op(state, tracer)
                    profilers.append(profiler)
                else:
                    output = self.op(state, NullTracer())
                walls[with_spans].append(time.perf_counter() - start)
                bad, found = self.check(seed, state, self.summarize(output))
                attempted += 1
                failed += bad
                problems += found
        counts = [self.counts(stages(profile_aggregates(profiler)))
                  for profiler in profilers]
        if any(c != counts[0] for c in counts):
            problems.append("work counts differ between operations")
        if problems:
            return Traced(None, attempted, failed, problems)
        ops = len(profilers)
        metrics = layer_metrics(stages(profile_aggregates(*profilers)), ops)
        metrics.update(counts[0])
        # The operations never repeat the set-up's machine and trace
        # work; the set-up simulated SETUP_REPEATS times, built once.
        setup = self_totals([s for s in tracer.spans if s.op == -1])
        metrics["machine.steps"] = state.execution.steps
        metrics["machine.operations"] = len(state.execution.operations)
        metrics["machine.record_s"] = setup["machine.record"] / SETUP_REPEATS
        machine_ratios(metrics, setup, SETUP_REPEATS,
                       state.execution.steps * SETUP_REPEATS)
        metrics["trace.build_s"] = setup["trace.build"]
        metrics["trace.fingerprint_s"] = setup["trace.fingerprint"]
        metrics["core.robustness_s"] = self_totals(
            [s for s in tracer.spans if s.op != -1])["core.robustness"] / ops
        bare, traced = median(walls[False]), median(walls[True])
        metrics["bench.trace_overhead_s"] = traced - bare
        metrics["bench.trace_overhead_frac"] = traced / bare - 1.0
        return Traced(metrics, attempted, failed, problems)

    def counts(self, folded: Dict[str, Stage]) -> Dict[str, int]:
        """One operation's exact counts: the analyses' own counters, and
        the events its two loads read (the file once per detector)."""
        counts = {name: value for name, value in work_counts(folded).items()
                  if name in CORE_COUNTS}
        counts["trace.events"] = folded["columnar.open"].counters["events"]
        counts["core.retained_peak"] = (
            folded["detect.streaming"].counters["retained_peak"])
        return counts


WORKLOADS = {w.name: w for w in (
    HuntWorkqueue(), HuntProdcons(), AnalyzePingpong())}
