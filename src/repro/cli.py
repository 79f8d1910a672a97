"""Command-line interface.

``weakraces run`` simulates a named workload on a chosen memory model
and prints the post-mortem race report; ``weakraces trace`` writes the
trace file instead; ``weakraces analyze`` runs the detector on a
previously written trace file; ``weakraces check`` verifies Condition
3.4 on an execution; ``weakraces hunt`` sweeps seeds x propagation
policies (optionally across worker processes) for a racy execution,
with ``--live`` telemetry, a ``--events`` JSONL wide-event log, and a
``--serve HOST:PORT`` HTTP telemetry endpoint (Prometheus ``/metrics``,
JSON ``/status``, ``/healthz``);
``weakraces events`` validates/summarizes/tails such a log;
``weakraces top`` renders a live dashboard from a served hunt
(``--attach``) or an event log (``--events``);
``weakraces explain`` prints witness-checked provenance for every
reported race; ``weakraces profile`` runs the pipeline under the
:mod:`repro.obs` profiler and prints per-stage timings; ``weakraces
models`` lists the memory models.

Report-printing subcommands take ``--json`` for machine-readable
output, and ``run``/``analyze``/``hunt`` take ``--profile FILE`` to
write a JSONL pipeline profile alongside their normal output.

Each subcommand is one function, registered by :func:`_command` with
the argument specs its parser declares; specs several subcommands
share (the workload, ``--model``, ``--seed``, ``--json``,
``--profile``) are declared once below.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Callable, Dict, Optional, Sequence, Tuple

from . import obs, programs
from .analysis.hunting import HuntConfig
from .api import (
    DETECTOR_NAMES,
    TRACE_FORMATS,
    detect,
    load_trace,
    save_trace,
    sniff_trace_format,
)
from .machine.models import ALL_MODEL_NAMES, make_model

# Each subcommand imports its own backends when it runs, so ``--help``
# and a command's start-up load only what that command uses.

#: workload -> its ``repro.programs`` builder, looked up when run
WORKLOADS: Dict[str, str] = {
    "figure1a": "figure1a_program",
    "figure1b": "figure1b_program",
    "workqueue-buggy": "buggy_workqueue_program",
    "workqueue-fixed": "fixed_workqueue_program",
    "locked-counter": "locked_counter_program",
    "lock-shadow": "lock_shadow_program",
    "racy-counter": "racy_counter_program",
    "producer-consumer": "producer_consumer_program",
    "independent": "independent_work_program",
    "single-race": "single_race_program",
    "barrier": "fanin_barrier_program",
    "store-buffering": "store_buffering_program",
    "iriw": "iriw_program",
    "cas-counter": "cas_counter_program",
    "queue": "bounded_queue_program",
}

Handler = Callable[[argparse.Namespace], int]
#: An argument spec adds its argument(s) to a parser (or group).
Spec = Callable[..., object]

#: subcommand -> (handler, argument specs, add_parser keywords), in
#: registration (and so ``--help``) order
_COMMANDS: Dict[str, Tuple[Handler, Tuple[Spec, ...], dict]] = {}


def _arg(*flags: str, **kwargs) -> Spec:
    return lambda parser: parser.add_argument(*flags, **kwargs)


def _one_of(*specs: Spec) -> Spec:
    """A required group of mutually exclusive arguments."""
    def add(parser) -> None:
        group = parser.add_mutually_exclusive_group(required=True)
        for spec in specs:
            spec(group)
    return add


def _json(help: str = "print the race report as JSON") -> Spec:
    return _arg("--json", action="store_true", dest="as_json", help=help)


_WORKLOAD = _arg("workload", choices=sorted(WORKLOADS))
_RUNNABLE = _arg("workload", choices=sorted(WORKLOADS) + ["figure2"])
_MODEL = _arg("--model", default="WO", choices=ALL_MODEL_NAMES)
_SEED = _arg("--seed", type=int, default=0)
_PROFILE = _arg(
    "--profile", metavar="FILE", dest="profile_path",
    help="write a JSONL pipeline profile (see repro.obs)",
)
#: detectors that analyze a trace (``onthefly`` needs the operations)
_TRACE_DETECTORS = [n for n in DETECTOR_NAMES if n != "onthefly"]


def _command(name: str, *specs: Spec, **parser_kwargs):
    """Register the decorated function as subcommand *name*, whose
    parser takes *specs* in order."""
    def register(handler: Handler) -> Handler:
        _COMMANDS[name] = (handler, specs, parser_kwargs)
        return handler
    return register


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakraces",
        description=(
            "Dynamic data race detection on simulated weak memory systems "
            "(reproduction of Adve/Hill/Miller/Netzer, ISCA 1991)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, specs, parser_kwargs) in _COMMANDS.items():
        command_parser = sub.add_parser(name, **parser_kwargs)
        for spec in specs:
            spec(command_parser)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except OSError as exc:  # an output file that cannot be written
        return _fail(args.command, exc)


# ----------------------------------------------------------------------
# the steps subcommands share
# ----------------------------------------------------------------------

def _fail(prefix: str, message: object) -> int:
    """Report a usage or input error on one stderr line; status 2."""
    print(f"{prefix}: {message}", file=sys.stderr)
    return 2


def _emit(args: argparse.Namespace, to_json: Callable[[], object],
          to_text: Callable[[], str]) -> None:
    """Print ``to_json()`` under ``--json``, else ``to_text()``."""
    if args.as_json:
        print(json.dumps(to_json(), indent=2, sort_keys=True))
    else:
        print(to_text())


def _report(args: argparse.Namespace, report, to_json=None, to_text=None,
            dot: Optional[Callable[[], str]] = None) -> int:
    """Print *report* (or the given views of it) as JSON or text, write
    ``--dot`` from *dot*, and return the race status: 1 when races were
    found, else 0."""
    _emit(args, to_json or report.to_json, to_text or report.format)
    if dot is not None and args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot())
        if not args.as_json:
            print(f"\nDOT graph written to {args.dot}")
    return 0 if report.race_free else 1


def _save_profile(profiler: obs.Profiler, path: str, **meta) -> None:
    obs.write_profile(profiler, path, meta=meta)
    print(f"profile written to {path}", file=sys.stderr)


@contextlib.contextmanager
def _profiling(args: argparse.Namespace):
    """Run the body under a profiler when ``--profile FILE`` was given,
    then write the profile.  Yields the profile's meta record, which
    the body may extend."""
    meta = {"command": args.command}
    if not args.profile_path:
        yield meta
        return
    profiler = obs.Profiler()
    with profiler.activate():
        yield meta
    _save_profile(profiler, args.profile_path, **meta)


def _program(args: argparse.Namespace):
    """Build ``args.workload``'s program."""
    return getattr(programs, WORKLOADS[args.workload])()


def _simulate(args: argparse.Namespace, warn: bool = True):
    """Run ``args.workload`` on ``args.model``; with *warn*, say on
    stderr when the execution hit the step bound."""
    from .machine.simulator import run_program
    model = make_model(args.model)
    if args.workload == "figure2":
        result = programs.run_figure2(model)
    else:
        result = run_program(_program(args), model, seed=args.seed)
    if warn and not result.completed:
        print("warning: execution hit the step bound before completion",
              file=sys.stderr)
    return result


# ----------------------------------------------------------------------
# subcommands, in --help order
# ----------------------------------------------------------------------

@_command(
    "run", _RUNNABLE, _MODEL, _SEED,
    _arg("--detector", default="postmortem", choices=DETECTOR_NAMES,
         help="detection backend (default %(default)s; shb adds per-race "
              "soundness certificates, wcp adds predicted races from "
              "critical-section reordering)"),
    _arg("--naive", action="store_true",
         help="also print the naive (report-everything) baseline"),
    _arg("--dot", metavar="FILE",
         help="write the augmented happens-before-1 graph as DOT"),
    _arg("--explain", action="store_true",
         help="print the affects chain for every race (why suppressed "
              "races were suppressed)"),
    _json(), _PROFILE,
    help="simulate a workload and report races",
)
def _run(args: argparse.Namespace) -> int:
    from .analysis.naive import NaiveDetector
    with _profiling(args):
        report = detect(_simulate(args), detector=args.detector)
        # --dot and --explain draw/walk the augmented graph G'; --naive
        # re-analyzes report.trace.  All three need a graph-carrying
        # post-mortem style report (postmortem/shb/wcp), not the
        # streaming or strawman ones.
        graphless = [
            flag for flag, wanted in (
                ("--dot", args.dot), ("--explain", args.explain),
                ("--naive", args.naive),
            )
            if wanted and not hasattr(report, "to_dot")
        ]
        if graphless:
            return _fail("run", f"{', '.join(graphless)} not supported by "
                         f"the {args.detector} detector (no trace/G' on "
                         f"its report)")

        def to_json() -> dict:
            payload = report.to_json()
            if not args.naive:
                return payload
            return {payload["kind"]: payload,
                    "naive": NaiveDetector().analyze(report.trace).to_json()}

        def to_text() -> str:
            parts = [report.format()]
            if args.naive:
                parts += ["", NaiveDetector().analyze(report.trace).format()]
            if args.explain and not report.race_free:
                from .core.explain import explain_report
                parts += ["", explain_report(report)]
            return "\n".join(parts)
        return _report(args, report, to_json, to_text,
                       dot=lambda: report.to_dot())


@_command(
    "trace", _RUNNABLE, _arg("output", help="trace file path"), _MODEL, _SEED,
    _arg("--format", choices=TRACE_FORMATS, default=None,
         help="trace file format (default: inferred from the output "
              "suffix, jsonl otherwise)"),
    help="simulate and write a trace file",
)
def _trace(args: argparse.Namespace) -> int:
    from .trace.build import build_trace
    result = _simulate(args)
    trace = build_trace(result)
    fmt = save_trace(trace, args.output, format=args.format)
    print(f"wrote {trace.event_count} events "
          f"({len(result.operations)} operations) to {args.output} [{fmt}]")
    return 0


@_command(
    "convert",
    _arg("source", help="trace file (format sniffed)"),
    _arg("output", help="converted trace file path"),
    _arg("--to", choices=TRACE_FORMATS, default=None, dest="to_format",
         help="target format (default: inferred from the output suffix)"),
    help="convert a trace file between jsonl, binary, and columnar",
)
def _convert(args: argparse.Namespace) -> int:
    from .trace.build import TraceError
    try:
        src_format = sniff_trace_format(args.source)
        trace = load_trace(args.source)
        dst_format = save_trace(trace, args.output, format=args.to_format)
    except (OSError, TraceError) as exc:
        return _fail("convert", exc)
    print(f"converted {args.source} [{src_format}] -> "
          f"{args.output} [{dst_format}] ({trace.event_count} events)")
    return 0


@_command(
    "analyze", _arg("tracefile"),
    _arg("--detector", default="postmortem", choices=_TRACE_DETECTORS,
         help="detection backend (default %(default)s; onthefly needs "
              "the operation stream, which trace files do not record)"),
    _arg("--dot", metavar="FILE"), _json(), _PROFILE,
    help="analyze a trace file post-mortem",
)
def _analyze(args: argparse.Namespace) -> int:
    from .trace.build import TraceError
    from .trace.columnar import ColumnarTrace
    from .trace.validate import require_valid_trace
    with _profiling(args):
        try:
            trace = load_trace(args.tracefile)
            # columnar opens lazily: the parser already bounds-checked
            # the structure, and full validation would materialize
            # every event, defeating the zero-copy path
            if not isinstance(trace, ColumnarTrace):
                require_valid_trace(trace)
        except (OSError, TraceError) as exc:
            return _fail(args.tracefile, exc)
        report = detect(trace, detector=args.detector)
        if args.dot and not hasattr(report, "to_dot"):
            return _fail("analyze", f"--dot is not supported by the "
                         f"{args.detector} detector (no G' to draw)")
        return _report(args, report, dot=lambda: report.to_dot())


@_command(
    "check", _RUNNABLE, _MODEL, _SEED,
    _arg("--robustness", action="store_true",
         help="also verify robustness: search the execution for an SC "
              "justification (total order consistent with program order "
              "+ reads-from) and print the witness or the minimal "
              "violating cycle with its SC-prefix boundary"),
    _json("print the verdict as JSON"),
    help="verify Condition 3.4 on a simulated execution",
)
def _check(args: argparse.Namespace) -> int:
    from .core.scp import check_condition_34
    result = _simulate(args)
    report = check_condition_34(result)
    robustness = None
    if args.robustness:
        from .api import check_robustness
        robustness = check_robustness(result)

    def to_json() -> dict:
        payload = report.to_json()
        payload["stale_reads"] = len(result.stale_reads)
        if robustness is not None:
            payload["robustness"] = robustness.to_json()
        return payload

    def to_text() -> str:
        lines = [report.summary(),
                 f"  SCP cuts (per processor): {report.scp.cuts}",
                 f"  stale reads: {len(result.stale_reads)}"]
        if robustness is not None:
            lines.append(robustness.format())
        return "\n".join(lines)
    _emit(args, to_json, to_text)
    return 0 if report.ok else 1


@_command("static", _WORKLOAD,
          help="compile-time (lockset) race analysis of a workload")
def _static(args: argparse.Namespace) -> int:
    from .staticanalysis import find_static_races
    report = find_static_races(_program(args))
    print(report.format())
    return 1 if report.potentially_racy else 0


@_command(
    "drf-check", _WORKLOAD, _arg("--max-states", type=int, default=200_000),
    help="decide Definition 2.4 exactly by exploring every SC execution",
)
def _drf_check(args: argparse.Namespace) -> int:
    from .analysis.exhaustive import ExplorationLimit, explore_program
    try:
        result = explore_program(_program(args),
                                 max_states=args.max_states)
    except ExplorationLimit as exc:
        return _fail("exploration incomplete", exc)
    verdict = "data-race-free" if result.program_is_data_race_free \
        else "NOT data-race-free"
    print(f"{args.workload}: {verdict} "
          f"({result.executions_explored} executions, "
          f"{result.states_visited} states explored)")
    if result.racing_schedule is not None:
        print(f"  racing schedule witness: {result.racing_schedule}")
    return 0 if result.program_is_data_race_free else 1


@_command(
    "run-file", _arg("source", help="assembly source file"), _MODEL, _SEED,
    _json(),
    help="assemble a .rasm file, simulate, and report races",
)
def _run_file(args: argparse.Namespace) -> int:
    from .machine.assembler import AssemblyError, parse_program
    from .machine.simulator import run_program
    try:
        with open(args.source, "r", encoding="utf-8") as fh:
            program = parse_program(fh.read())
    except (OSError, AssemblyError) as exc:
        return _fail(args.source, exc)
    result = run_program(program, make_model(args.model), seed=args.seed)
    if not result.completed:
        print("warning: execution hit the step bound", file=sys.stderr)
    return _report(args, detect(result))


@_command("disasm", _WORKLOAD,
          help="print a built-in workload as assembly text")
def _disasm(args: argparse.Namespace) -> int:
    from .machine.assembler import format_program
    print(format_program(_program(args)), end="")
    return 0


@_command(
    "record", _WORKLOAD, _arg("output", help="recording file path"),
    _MODEL, _SEED, _json(),
    help="simulate a workload while recording every nondeterministic "
         "choice, for later bit-exact replay",
)
def _record(args: argparse.Namespace) -> int:
    from .machine.replay import record_execution
    result, recording = record_execution(
        _program(args), make_model(args.model), seed=args.seed
    )
    recording.save(args.output)
    report = detect(result)
    return _report(args, report, to_text=lambda: (
        f"recorded {len(result.operations)} operations "
        f"({args.model}, seed {args.seed}) to {args.output}\n"
        + report.format()
    ))


@_command(
    "replay", _WORKLOAD, _arg("recording", help="recording file path"),
    _json(),
    help="replay a recorded execution and re-run the detector",
)
def _replay(args: argparse.Namespace) -> int:
    from .machine.replay import (
        ExecutionRecording, ReplayError, replay_execution,
    )
    try:
        recording = ExecutionRecording.load(args.recording)
    except (OSError, ValueError, ReplayError) as exc:
        return _fail(args.recording, exc)
    try:
        result = replay_execution(_program(args),
                                  make_model(recording.model_name), recording)
    except ReplayError as exc:
        return _fail("replay failed", exc)
    report = detect(result)
    return _report(args, report, to_text=lambda: (
        f"replayed {len(result.operations)} operations "
        f"({recording.model_name})\n" + report.format()
    ))


@_command(
    "outcomes", _WORKLOAD, _MODEL,
    _arg("--max-states", type=int, default=300_000),
    _arg("--vars", nargs="*", metavar="NAME",
         help="project outcomes onto these locations"),
    help="enumerate every final memory state a model admits for a "
         "(litmus-sized) workload",
)
def _outcomes(args: argparse.Namespace) -> int:
    from .analysis.exhaustive import ExplorationLimit
    from .analysis.outcomes import enumerate_outcomes
    from .machine.program import SymbolError
    program = _program(args)
    try:
        out = enumerate_outcomes(
            program, make_model(args.model),
            max_states=args.max_states, interesting=args.vars or None,
        )
    except ExplorationLimit as exc:
        return _fail("enumeration incomplete", exc)
    except SymbolError as exc:
        return _fail("outcomes", exc.args[0])
    print(f"{args.workload} on {args.model}: {len(out)} outcome(s), "
          f"{out.states_visited} states explored")
    if args.vars:
        for values in sorted(out.values_of(*args.vars)):
            print("  " + ", ".join(
                f"{n}={v}" for n, v in zip(args.vars, values)))
    else:
        for outcome in sorted(out.outcomes):
            nonzero = [
                f"{program.symbols.name_of(a)}={v}" for a, v in outcome if v
            ]
            print("  " + (", ".join(nonzero) if nonzero else "(all zero)"))
    return 0


@_command(
    "timeline", _RUNNABLE, _MODEL, _SEED,
    _arg("--rows", type=int, default=40),
    _arg("--width", type=int, default=26),
    help="draw an execution as per-processor columns (paper-figure "
         "style), with stale reads and the SCP boundary marked",
)
def _timeline(args: argparse.Namespace) -> int:
    from .core.timeline import render_timeline
    print(render_timeline(_simulate(args, warn=False), width=args.width,
                          max_rows=args.rows))
    return 0


@contextlib.contextmanager
def _draining_interrupts(cancel):
    """Graceful interruption for the body: the first SIGINT/SIGTERM
    sets *cancel*, so the hunt stops dispatch and drains in-flight jobs
    (a final checkpoint and a partial result still come out); a second
    signal means "now", and exits hard with the interrupt status."""
    import os
    import signal

    def _interrupt(signum, frame):
        if cancel.is_set():
            os._exit(130)
        cancel.set()
        print("\nhunt: interrupt received — draining in-flight jobs "
              "(interrupt again to kill immediately)", file=sys.stderr)

    previous = {signum: signal.signal(signum, _interrupt)
                for signum in (signal.SIGINT, signal.SIGTERM)}
    try:
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def _hunt_text(result, args: argparse.Namespace, saved: bool) -> str:
    """The hunt's text view: the summary, then a run-metadata line."""
    cache_note = (f", {result.trace_cache_hits} trace-cache hit(s)"
                  if result.trace_cache_hits else "")
    detector_note = (f", detector={result.detector} "
                     f"({result.certified_races} certified race(s))"
                     if result.detector != "postmortem" else "")
    lines = [
        result.summary(),
        f"({result.jobs} worker(s), {result.elapsed:.2f}s, "
        f"{result.executions_per_second:.0f} executions/sec"
        f"{cache_note}{detector_note})",
    ]
    if saved:
        lines.append(f"recording written to {args.save_recording}")
    return "\n".join(lines)


@_command(
    "hunt", _WORKLOAD, _MODEL,
    # Hunt option defaults are HuntConfig's; each flag's dest is the
    # HuntConfig field it sets.
    _arg("--detector", default=HuntConfig.detector,
         choices=_TRACE_DETECTORS,
         help="analysis backend for every execution (default "
              "%(default)s); part of the checkpoint identity — resuming "
              "with a different detector is a hard error"),
    _arg("--tries", type=int, default=HuntConfig.tries,
         help="total executions to sweep (default %(default)s)"),
    _arg("--jobs", type=int, default=HuntConfig.jobs, metavar="N",
         help="worker processes; 1 runs in-process, N>1 shards the "
              "sweep with identical merged statistics"),
    _arg("--batch-size", type=int, default=None, metavar="N",
         help="jobs per pool dispatch batch (requires --jobs > 1; "
              "default: auto-sized to a couple of batches per worker; "
              "1 reproduces the unbatched wire protocol)"),
    _arg("--policies", nargs="+", metavar="NAME",
         help="propagation policies to sweep, in order "
              "(default: stubborn random-0.2 ring)"),
    _arg("--stop-at-first", action="store_true",
         help="stop as soon as one racy execution is found"),
    _arg("--max-steps", type=int, default=HuntConfig.max_steps),
    _arg("--timeout", type=float, default=None, metavar="SEC",
         dest="job_timeout",
         help="per-execution wall-clock limit; timed-out runs are "
              "recorded as failures (nondeterministic — avoid when "
              "exact reproducibility matters)"),
    _json("print the merged result as JSON instead of the summary"),
    _arg("--save-recording", metavar="FILE",
         help="write the first racy run's verified recording here"),
    _arg("--profile", metavar="FILE", dest="profile_path",
         help="write a JSONL pipeline profile with per-stage timings "
              "aggregated across all hunt jobs (see repro.obs)"),
    _arg("--no-cache", action="store_false", dest="trace_cache",
         help="disable the trace-fingerprint analysis cache that all of "
              "the hunt's tries share (every execution runs the full "
              "detection pipeline)"),
    _arg("--live", action="store_true",
         help="render a rolling status line (throughput, cache hit "
              "rate, racy fraction, ETA) fed by the metrics registry"),
    _arg("--events", metavar="FILE", dest="events_path",
         help="write a JSONL wide-event log (one record per try; see "
              "'weakraces events' to validate/summarize/tail it)"),
    _arg("--checkpoint", metavar="FILE",
         help="periodically persist settled outcomes to FILE "
              "(atomic write), making the hunt resumable after a crash"),
    _arg("--resume", action="store_true",
         help="resume from --checkpoint FILE: validate it against this "
              "hunt's spec, skip settled jobs, and merge to statistics "
              "identical to an uninterrupted run"),
    _arg("--checkpoint-interval", type=int,
         default=HuntConfig.checkpoint_interval, metavar="N",
         help="settled jobs between periodic checkpoint writes "
              "(default %(default)s; a final write always happens)"),
    _arg("--max-retries", type=int, default=HuntConfig.max_retries,
         metavar="N",
         help="retry a transiently failing job up to N times with "
              "exponential backoff (default %(default)s; jobs that "
              "fail identically twice are classified deterministic "
              "and not retried; 0 disables retries)"),
    _arg("--retry-backoff", type=float, default=HuntConfig.retry_backoff,
         metavar="SEC",
         help="base retry backoff delay (default %(default)ss; doubles "
              "per attempt, with deterministic seeded jitter)"),
    _arg("--verify-robustness", action="store_true",
         help="attach a robustness verdict to every try (does the "
              "execution have an SC justification?); any non-robust try "
              "downgrades the result's detector-soundness claim.  Part "
              "of the checkpoint identity, like --detector"),
    _arg("--serve", metavar="HOST:PORT", dest="serve_address",
         help="serve live telemetry over HTTP while the hunt runs: "
              "Prometheus /metrics (text exposition 0.0.4), JSON "
              "/status, and /healthz; port 0 binds an ephemeral port "
              "and the chosen URL is printed to stderr"),
    help="sweep seeds x propagation policies for a racy execution, "
         "optionally sharded across worker processes",
    description=(
        "Run a workload many times under different seeds and "
        "propagation policies, looking for a racy execution with a "
        "replay-verified recording.  Every policy sweeps the same "
        "seed range, so per-policy racy rates are comparable.  "
        "Transient job failures are retried with backoff "
        "(--max-retries); with --checkpoint the hunt periodically "
        "persists settled outcomes and --resume continues an "
        "interrupted run with statistics identical to an "
        "uninterrupted one.  The first SIGINT/SIGTERM drains "
        "in-flight jobs and writes a final checkpoint; a second "
        "kills the hunt immediately.  Exit status: 1 when a race "
        "was found, 0 when none was, 2 on usage errors (including "
        "checkpoint mismatches), 3 when any worker crashed or "
        "timed out, 130 when interrupted."
    ),
)
def _hunt(args: argparse.Namespace) -> int:
    import dataclasses
    import threading
    from .analysis.checkpoint import CheckpointError
    from .analysis.hunting import hunt_races, policies_by_name
    from .obs import events as obs_events
    from .obs import metrics as obs_metrics
    from .obs.live import HuntStatusLine
    from .obs.server import TelemetryServer, parse_serve_address
    program = _program(args)
    # Every hunt option but the resolved policies and the hunt id is a
    # flag named after its HuntConfig field.
    options = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(HuntConfig)
        if f.name not in ("policies", "hunt_id")
    }
    with _profiling(args) as profile_meta:
        try:
            config = HuntConfig(policies=(
                policies_by_name(args.policies, program.processor_count)
                if args.policies else None
            ), **options)
            serve_address = (parse_serve_address(args.serve_address)
                             if args.serve_address else None)
        except ValueError as exc:
            return _fail("hunt", exc)
        config = dataclasses.replace(
            config, hunt_id=config.resolve_hunt_id(program, args.model))
        profile_meta["hunt_id"] = config.hunt_id
        # The run's description for the events meta and /status.
        meta = {
            "workload": args.workload, "model": args.model,
            "hunt_id": config.hunt_id, "detector": config.detector,
            "tries": config.tries, "jobs": config.jobs,
            "policies": args.policies or "default",
        }
        registry = obs_metrics.MetricsRegistry() \
            if args.live or serve_address else None
        status_line = None
        if args.live or (sys.stderr.isatty() and not args.as_json):
            status_line = HuntStatusLine(
                registry=registry if args.live else None)
        server = None
        if serve_address is not None:
            server = TelemetryServer(
                registry,
                info=dict(meta, verify_robustness=config.verify_robustness),
                host=serve_address[0], port=serve_address[1],
            )
            print(f"hunt: telemetry serving on {server.start()} "
                  f"(/metrics /status /healthz)", file=sys.stderr,
                  flush=True)
        event_log = None
        if args.events_path:
            event_log = obs_events.HuntEventLog(
                args.events_path, meta=meta, detector=config.detector)
        cancel = threading.Event()
        try:
            with _draining_interrupts(cancel):
                result = hunt_races(
                    program, lambda: make_model(args.model), config,
                    progress=status_line.progress if status_line else None,
                    on_outcome=event_log.on_outcome if event_log else None,
                    metrics=registry, cancel=cancel,
                )
        except (CheckpointError, ValueError) as exc:
            if event_log is not None:
                event_log.close()
            return _fail("hunt", exc)
        finally:
            if server is not None:
                server.stop()
            if status_line is not None:
                status_line.finish(
                    note="interrupted" if cancel.is_set() else None)
        if event_log is not None:
            event_log.finish(result)
            print(f"hunt events written to {args.events_path}",
                  file=sys.stderr)
        saved = args.save_recording and result.recording is not None
        if saved:
            result.recording.save(args.save_recording)
        _emit(args, result.to_json, lambda: _hunt_text(result, args, saved))
        if config.checkpoint:
            print(f"hunt checkpoint written to {config.checkpoint}",
                  file=sys.stderr)
        if result.interrupted:
            return 130
        if result.failures:
            print(f"hunt: {len(result.failures)} job(s) crashed or timed "
                  f"out (see failures in the output)", file=sys.stderr)
            return 3
        return 1 if result.found else 0


@_command(
    "events", _arg("file", help="event log path (JSONL)"),
    _arg("--tail", type=int, metavar="N",
         help="print the last N try records, one line each"),
    _json("print the loaded log as JSON"),
    help="validate, summarize, or tail a hunt event log",
    description=(
        "Check a JSONL event log written by 'weakraces hunt "
        "--events' against its schema, then summarize it (racy "
        "rates per policy, cache hit rate, duration percentiles) "
        "or tail the newest try records.  Exit status: 0 ok, 2 "
        "when the file fails validation.  A truncated final line "
        "(the writer was killed mid-append) is tolerated with a "
        "warning; garbage anywhere else still fails."
    ),
)
def _events(args: argparse.Namespace) -> int:
    from .obs import events as obs_events
    from .obs.top import TopSnapshot, render_summary
    problems, warnings = obs_events.check_events(args.file)
    for warning in warnings:
        print(f"{args.file}: warning: {warning}", file=sys.stderr)
    if problems:
        for problem in problems:
            print(f"{args.file}: {problem}", file=sys.stderr)
        return 2
    loaded = obs_events.read_events(args.file)
    snap = TopSnapshot.from_events(loaded, source=args.file)
    if args.tail is not None and not args.as_json:
        for record in loaded["tries"][-max(args.tail, 0):]:
            print(obs_events.format_try(record))
        return 0
    _emit(args, lambda: dict(loaded, breakdown=snap.breakdown()),
          lambda: render_summary(snap, loaded))
    return 0


@_command(
    "top",
    _one_of(
        _arg("--attach", metavar="HOST:PORT",
             help="poll a live hunt's telemetry server (--serve address)"),
        _arg("--events", metavar="FILE", dest="events_path",
             help="render from a hunt event log instead of a live server"),
    ),
    _arg("--interval", type=float, default=1.0, metavar="SEC",
         help="repaint interval (default %(default)ss)"),
    _arg("--once", action="store_true",
         help="print one frame and exit (for scripts)"),
    help="live dashboard for a hunt (attach to --serve, or render "
         "an --events log)",
    description=(
        "Render a one-screen dashboard — progress, throughput, "
        "per-policy and per-detector racy rates, a job-duration "
        "sparkline, coverage counters, failure classes — either "
        "by polling a hunt's --serve telemetry endpoint "
        "(--attach HOST:PORT) or from a 'hunt --events' JSONL "
        "log (--events FILE, works while the hunt still runs).  "
        "Exit status: 0 on a clean end (--once, Ctrl-C, or the "
        "hunt finishing), 2 when the source cannot be fetched or "
        "parsed."
    ),
)
def _top(args: argparse.Namespace) -> int:
    from .obs.top import run_top
    return run_top(attach=args.attach, events_path=args.events_path,
                   interval=args.interval, once=args.once)


@_command(
    "explain", _RUNNABLE, _MODEL, _SEED,
    _arg("--race", metavar="SIG",
         help="explain only the race with this signature "
              "(e.g. P0.E0~P1.E0)"),
    _arg("--include-sync", action="store_true",
         help="also explain sync races (excluded from data races by "
              "Definition 2.4)"),
    _arg("--dot", metavar="FILE",
         help="write G' as DOT with the first partitions highlighted"),
    _json("print the provenance report as JSON"),
    help="witness-checked provenance for each race of a run",
    description=(
        "Simulate a workload, detect races, and print per-race "
        "provenance: the hb1 non-ordering witness (BFS "
        "cross-checked against the closure backend), the race's "
        "SCC/partition in the augmented graph G', and the "
        "Definition 4.1 reachability evidence that makes its "
        "partition first (reported) or not (suppressed)."
    ),
)
def _explain(args: argparse.Namespace) -> int:
    from .core.provenance import ProvenanceError, explain_races
    report = detect(_simulate(args, warn=False))
    try:
        prov = explain_races(report, include_sync=args.include_sync)
    except ProvenanceError as exc:
        return _fail("explain", exc)
    if not args.race:
        return _report(args, report, prov.to_json, prov.format,
                       dot=prov.to_dot)
    one = prov.find(args.race)
    if one is None:
        known = ", ".join(p.signature for p in prov.provenances)
        return _fail("explain", f"no race {args.race!r} in this execution"
                     + (f"; known: {known}" if known else " (race-free)"))
    return _report(args, report, one.to_json,
                   lambda: one.describe(report.trace), dot=prov.to_dot)


@_command(
    "profile", _RUNNABLE, _MODEL, _SEED,
    _arg("--detector", default="postmortem", choices=DETECTOR_NAMES,
         help="detector variant to profile (default %(default)s)"),
    _arg("-o", "--output", metavar="FILE",
         help="also write the profile as JSONL"),
    _json("print the profile as JSON instead of the summary tree"),
    help="run the detection pipeline under the repro.obs profiler "
         "and print per-stage timings",
    description=(
        "Simulate a workload, run a detector on it, and report "
        "where the time went: a span tree (simulate, trace.build, "
        "hb1.build, races.find, ...) with wall time, per-stage "
        "counters, and peak RSS."
    ),
)
def _profile(args: argparse.Namespace) -> int:
    profiler = obs.Profiler()
    with profiler.activate():
        report = detect(_simulate(args, warn=False),
                        detector=args.detector)
    if args.output:
        _save_profile(profiler, args.output, command="profile",
                      workload=args.workload, model=args.model,
                      seed=args.seed, detector=args.detector)
    return _report(args, report, profiler.to_json, profiler.summary)


@_command("models", help="list memory models")
def _models(args: argparse.Namespace) -> int:
    print("\n".join(ALL_MODEL_NAMES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
