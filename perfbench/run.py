"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload hunt-workqueue --seed 0 \\
        --seconds 20 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced replay with ``--trace 1``.  The lines before it name the same
figures for a reader.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh processes timed per run for ``setup_s``; the median is reported.
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, set up the workload's inputs and exit "
                             "(one setup_s sample)")
    return parser.parse_args(argv)


def measure(workload, seed: int, state, seconds: float):
    """Closed loop: one operation at a time until *seconds* have passed,
    each operation's output checked as it completes.  Returns (units of
    work per second of operation time, attempted, failed, problems,
    summaries)."""
    work = busy = 0.0
    summaries = []
    attempted = failed = 0
    problems = []
    deadline = time.perf_counter() + seconds
    while not summaries or time.perf_counter() < deadline:
        start = time.perf_counter()
        units, attempts, output = workload.run(state)
        busy += time.perf_counter() - start
        work += units
        summary = workload.summarize(output)
        del output  # free the report before the next one is built
        bad, found = workload.check(seed, state, summary)
        attempted += attempts
        failed += bad
        problems += found
        summaries.append(summary)
    return work / busy, attempted, failed, problems, summaries


def peak_rss_mb() -> float:
    """This process's peak RSS, or its largest worker's if larger."""
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def setup_seconds(args) -> float:
    """Median wall time of fresh processes that only import and set up."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
            timeout=SETUP_TIMEOUT_S,
        )
        samples.append(time.perf_counter() - start)
    return median(samples)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import PER_LAYER_UNITS, WORKLOADS
    from spans import NullTracer, Tracer

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=out)
    # The pool's shared trace cache and any other temporary file stay
    # inside the checkout.
    tempfile.tempdir = workdir
    try:
        if args.setup_only:
            workload.setup(args.seed, workdir)
            return 0
        tracer = Tracer() if args.trace else NullTracer()
        state = workload.setup(args.seed, workdir, tracer)
        workload.warm(state)
        if args.trace:
            traced = workload.traced(args.seed, state, tracer, args.seconds)
            spans_path = out / f"spans-{args.workload}-{args.seed}.jsonl"
            tracer.write_jsonl(spans_path)
            attempted, failed, problems = (traced.attempted, traced.failed,
                                           traced.problems)
            metrics = {}
            if traced.metrics is not None:
                metrics = {name: {"value": traced.metrics[name], "unit": unit}
                           for name, unit in PER_LAYER_UNITS.items()}
            print(f"spans: {spans_path.relative_to(ROOT)}")
        else:
            rate, attempted, failed, problems, summaries = measure(
                workload, args.seed, state, args.seconds)
            # Read before the set-up processes run: they are children too.
            rss = peak_rss_mb()
            metrics = {
                "work_per_s": {"value": rate, "unit": "1/s"},
                "setup_s": {"value": setup_seconds(args), "unit": "s"},
                "peak_rss_mb": {"value": rss, "unit": "MB"},
            }
            print(f"{workload.work_name} = {rate} 1/s")
            for name, value in workload.user_rates(state, summaries).items():
                print(f"{name} = {value} 1/s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in dict.fromkeys(problems):
        print(f"CHECK FAILED: {problem}")
    if args.trace and not metrics:
        print("per-layer metrics withheld: a check or the replay "
              "fidelity check failed")
    print(f"failed_frac = {failed / attempted} ({failed}/{attempted})")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    print(json.dumps({
        "correct": not problems and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
