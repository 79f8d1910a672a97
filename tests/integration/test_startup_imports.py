"""Start-up import guard: the exact import set of a fresh process.

The post-mortem tool (paper section 4.1) runs as a fresh process per
trace, so the modules a command loads before it does any work are part
of every run's cost.  Packages export lazily and the front doors
(``repro.api``, ``repro.cli``) import their backends on dispatch; these
tests pin that, the way perfbench's work counters pin an algorithm's
work: each case runs in a fresh interpreter and must load none of the
modules it does not use, and no more ``repro`` modules than the count
below.  A new eager import fails here, not as a slow drift in
``setup_s``.

The last test pins the other half of the rule: a fork-pool worker is
never the first to import a ``repro`` module, so no worker of any hunt
pays an import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Modules no start-up case may load: telemetry servers and dashboards,
#: the static analyzer, the assembler, the exhaustive explorer, the
#: predictive detectors and the process pool.
NEVER_AT_STARTUP = (
    "repro.obs.top",
    "repro.obs.server",
    "repro.obs.live",
    "repro.obs.prometheus",
    "repro.staticanalysis",
    "repro.machine.assembler",
    "repro.analysis.exhaustive",
    "repro.core.predictive",
    "multiprocessing",
)

#: case -> (code run in a fresh interpreter, ceiling on repro.* modules)
CASES = {
    "import": ("import repro", 2),
    "run_program": (
        "import repro\n"
        "repro.run_program(repro.racy_counter_program(),\n"
        "                  repro.make_model('WO'), seed=0)",
        25,
    ),
    "cli_help": (
        "from repro.cli import main\n"
        "try:\n"
        "    main(['--help'])\n"
        "except SystemExit:\n"
        "    pass",
        26,
    ),
}

_REPORT = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"


def _run(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded_modules(code: str):
    return json.loads(_run(code + _REPORT).splitlines()[-1])


@pytest.mark.parametrize("case", sorted(CASES))
def test_startup_import_set(case):
    code, ceiling = CASES[case]
    modules = loaded_modules(code)
    unwanted = [name for name in NEVER_AT_STARTUP
                if any(m == name or m.startswith(name + ".")
                       for m in modules)]
    assert not unwanted, f"{case} loaded {unwanted}"
    ours = [m for m in modules if m == "repro" or m.startswith("repro.")]
    assert len(ours) <= ceiling, f"{case} loaded {len(ours)} repro " \
                                 f"modules (ceiling {ceiling}): {ours}"


_FORK_PROBE = """
import json, os, sys
from repro import make_model, producer_consumer_program
from repro.analysis.hunting import HUNT_DETECTORS, hunt_races
from repro.obs.metrics import MetricsRegistry

at_fork = {}
os.register_at_fork(
    after_in_child=lambda: at_fork.setdefault("modules", set(sys.modules)))


def model():
    # Called per job: in a worker, any repro module not there at the
    # fork was imported by an earlier job of this worker.
    if "modules" in at_fork:
        new = sorted(m for m in set(sys.modules) - at_fork["modules"]
                     if m.startswith("repro"))
        if new:
            raise RuntimeError(f"worker imported {new}")
    return make_model("TSO")


failures = {}
for detector in HUNT_DETECTORS:
    result = hunt_races(
        producer_consumer_program(), model, tries=12, jobs=2,
        batch_size=1, detector=detector, verify_robustness=True,
        checkpoint=os.path.join(sys.argv[1], detector + ".ckpt"),
        metrics=MetricsRegistry(), max_retries=0)
    failures[detector] = [f.error for f in result.failures]
print(json.dumps(failures))
"""


def test_pool_workers_import_nothing(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", _FORK_PROBE, str(tmp_path)], env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    failures = json.loads(done.stdout.splitlines()[-1])
    assert set(failures) == {"postmortem", "naive", "shb", "wcp",
                             "streaming"}
    assert failures == {name: [] for name in failures}
