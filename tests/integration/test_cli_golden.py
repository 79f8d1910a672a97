"""Golden CLI test: ``--help`` text and exit statuses, pinned.

The fixture ``cli_golden.json`` holds, rendered at ``COLUMNS=80``:

* the ``--help`` text of the top-level parser and of every subcommand;
* for each invocation in :data:`CASES`, its exit status and, unless the
  output carries timings, its stdout and stderr (the work directory
  rendered as ``{d}``).

An invocation that raised instead of exiting is recorded as
``"crash:<ExceptionType>"``.  :data:`FIXED` lists the ones that crashed
when the fixture was recorded and the status each exits with now; every
other case must match the fixture exactly.  Regenerate the fixture only
when the CLI's behaviour changes on purpose::

    PYTHONPATH=src python tests/integration/test_cli_golden.py --regenerate
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import pytest

from repro.cli import main

FIXTURE = Path(__file__).with_name("cli_golden.json")

SUBCOMMANDS = (
    "run", "trace", "convert", "analyze", "check", "static", "drf-check",
    "run-file", "disasm", "record", "replay", "outcomes", "timeline",
    "hunt", "events", "top", "explain", "profile", "models",
)

#: (name, argv, pin_output): argv tokens may name the work directory
#: as ``{d}``; pin_output is False where the output carries timings.
CASES: Tuple[Tuple[str, Tuple[str, ...], bool], ...] = (
    ("no-command", (), True),
    ("models", ("models",), True),
    ("run-clean", ("run", "locked-counter", "--seed", "1"), True),
    ("run-racy", ("run", "figure1a", "--model", "SC"), True),
    ("run-figure2-naive-explain",
     ("run", "figure2", "--naive", "--explain"), True),
    ("run-json-naive-dot",
     ("run", "figure1a", "--json", "--naive", "--dot", "{d}/run.dot"), True),
    ("run-dot", ("run", "figure1a", "--dot", "{d}/run2.dot"), True),
    ("run-shb", ("run", "figure2", "--detector", "shb"), True),
    ("run-streaming-dot",
     ("run", "figure1a", "--detector", "streaming", "--dot", "{d}/x.dot"),
     True),
    ("run-unknown-workload", ("run", "not-a-workload"), True),
    ("run-unknown-model", ("run", "figure1a", "--model", "XC"), True),
    ("run-profile", ("run", "figure1a", "--profile", "{d}/run.prof"), True),
    ("trace-jsonl", ("trace", "figure2", "{d}/out.jsonl"), True),
    ("trace-binary", ("trace", "figure2", "{d}/out.bin"), True),
    ("trace-columnar",
     ("trace", "figure2", "{d}/out.trace", "--format", "columnar"), True),
    ("convert", ("convert", "{d}/fig2.jsonl", "{d}/conv.bin"), True),
    ("convert-to", ("convert", "{d}/fig2.bin", "{d}/conv.x",
                    "--to", "columnar"), True),
    ("convert-missing", ("convert", "{d}/missing.jsonl", "{d}/c.bin"), True),
    ("convert-torn", ("convert", "{d}/torn.jsonl", "{d}/c.bin"), False),
    ("analyze-racy", ("analyze", "{d}/fig2.jsonl"), True),
    ("analyze-binary-json", ("analyze", "{d}/fig2.bin", "--json"), True),
    ("analyze-columnar", ("analyze", "{d}/fig2.col"), True),
    ("analyze-clean", ("analyze", "{d}/clean.jsonl"), True),
    ("analyze-dot", ("analyze", "{d}/fig2.jsonl", "--dot", "{d}/an.dot"),
     True),
    ("analyze-naive-dot", ("analyze", "{d}/fig2.jsonl", "--detector",
                           "naive", "--dot", "{d}/an2.dot"), True),
    ("analyze-missing", ("analyze", "{d}/missing.jsonl"), True),
    ("analyze-invalid", ("analyze", "{d}/invalid.jsonl"), True),
    ("analyze-torn", ("analyze", "{d}/torn.jsonl"), False),
    ("analyze-garbage-binary", ("analyze", "{d}/garbage.bin"), True),
    ("check", ("check", "figure2"), True),
    ("check-robustness-json",
     ("check", "store-buffering", "--model", "TSO", "--robustness",
      "--json"), True),
    ("static-racy", ("static", "racy-counter"), True),
    ("static-clean", ("static", "locked-counter"), True),
    ("drf-check-clean", ("drf-check", "figure1b"), True),
    ("drf-check-racy", ("drf-check", "figure1a"), True),
    ("drf-check-limit", ("drf-check", "locked-counter", "--max-states",
                         "10"), True),
    ("drf-check-deep", ("drf-check", "queue", "--max-states", "2000"),
     True),
    ("run-file", ("run-file", "{d}/fig1a.rasm"), True),
    ("run-file-json", ("run-file", "{d}/fig1a.rasm", "--json"), True),
    ("run-file-bad-source", ("run-file", "{d}/bad.rasm"), True),
    ("run-file-missing", ("run-file", "{d}/missing.rasm"), False),
    ("disasm", ("disasm", "figure1a"), True),
    ("record", ("record", "figure1a", "{d}/out.replay"), True),
    ("record-json", ("record", "figure1b", "{d}/out2.replay", "--json"),
     True),
    ("replay", ("replay", "figure1a", "{d}/fig1a.replay"), True),
    ("replay-json", ("replay", "figure1a", "{d}/fig1a.replay", "--json"),
     True),
    ("replay-wrong-workload", ("replay", "racy-counter",
                               "{d}/fig1a.replay"), True),
    ("replay-missing", ("replay", "figure1a", "{d}/missing.replay"), False),
    ("replay-not-json", ("replay", "figure1a", "{d}/notjson.replay"),
     False),
    ("outcomes", ("outcomes", "store-buffering", "--model", "TSO"), True),
    ("outcomes-vars", ("outcomes", "store-buffering", "--vars", "flag0",
                       "flag1"), True),
    ("outcomes-unknown-var", ("outcomes", "store-buffering", "--vars",
                              "r0", "r1"), False),
    ("outcomes-limit", ("outcomes", "workqueue-buggy", "--max-states",
                        "10"), True),
    ("timeline", ("timeline", "figure2", "--rows", "12"), True),
    ("hunt-clean", ("hunt", "locked-counter", "--tries", "6"), False),
    ("hunt-racy", ("hunt", "racy-counter", "--tries", "6"), False),
    ("hunt-json-events-profile",
     ("hunt", "racy-counter", "--tries", "6", "--json", "--events",
      "{d}/hunt-ev.jsonl", "--profile", "{d}/hunt.prof",
      "--save-recording", "{d}/hunt.replay"), False),
    ("hunt-worker-crash", ("hunt", "racy-counter", "--tries", "3",
                           "--max-retries", "0"), False),
    ("hunt-resume", ("hunt", "racy-counter", "--tries", "6",
                     "--checkpoint", "{d}/ck-resume.json", "--resume"),
     False),
    ("hunt-checkpoint-mismatch",
     ("hunt", "racy-counter", "--tries", "9", "--checkpoint",
      "{d}/ck.json", "--resume"), True),
    ("hunt-resume-without-checkpoint",
     ("hunt", "racy-counter", "--resume"), True),
    ("hunt-zero-tries", ("hunt", "racy-counter", "--tries", "0"), True),
    ("hunt-unknown-policy", ("hunt", "racy-counter", "--policies", "bogus"),
     True),
    ("hunt-bad-serve", ("hunt", "racy-counter", "--serve", "nonsense"),
     True),
    ("hunt-batch-size-zero", ("hunt", "racy-counter", "--jobs", "2",
                              "--batch-size", "0"), True),
    ("hunt-unknown-detector", ("hunt", "racy-counter", "--detector",
                               "onthefly"), True),
    ("events", ("events", "{d}/ev.jsonl"), False),
    ("events-tail", ("events", "{d}/ev.jsonl", "--tail", "2"), False),
    ("events-json", ("events", "{d}/ev.jsonl", "--json"), False),
    ("events-garbage", ("events", "{d}/garbage.jsonl"), True),
    ("events-missing", ("events", "{d}/missing.jsonl"), True),
    ("top-events-once", ("top", "--events", "{d}/ev.jsonl", "--once"),
     False),
    ("top-events-missing", ("top", "--events", "{d}/missing.jsonl",
                            "--once"), True),
    ("top-no-source", ("top", "--once"), True),
    ("explain", ("explain", "figure2"), True),
    ("explain-clean", ("explain", "figure1b"), True),
    ("explain-json-dot", ("explain", "figure1a", "--json", "--dot",
                          "{d}/ex.dot"), True),
    ("explain-unknown-race", ("explain", "figure1a", "--race", "P9.E9~P8.E8"),
     True),
    ("profile", ("profile", "figure1a"), False),
    ("profile-json-output", ("profile", "locked-counter", "--json", "-o",
                             "{d}/p.jsonl"), False),
)

#: Invocations that crashed with a traceback when the fixture was
#: recorded, and the status they exit with now.
FIXED: Dict[str, int] = {
    "convert-torn": 2,
    "analyze-torn": 2,
    "analyze-garbage-binary": 2,
    "run-file-missing": 2,
    "replay-missing": 2,
    "replay-not-json": 2,
    "outcomes-unknown-var": 2,
}


#: Environment variables set for one invocation.
ENV: Dict[str, Dict[str, str]] = {
    "hunt-worker-crash": {"REPRO_FAULTS": '{"crash": {"1": 9}}'},
}


def _quiet(argv: Sequence[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        main(list(argv))


def _prepare(d: Path) -> None:
    """The input files the cases read."""
    for name, extra in (("fig2.jsonl", ()), ("fig2.bin", ()),
                        ("fig2.col", ("--format", "columnar"))):
        _quiet(["trace", "figure2", str(d / name), *extra])
    _quiet(["trace", "figure1b", str(d / "clean.jsonl")])
    lines = (d / "fig2.jsonl").read_text(encoding="utf-8").splitlines(True)
    # parses, but its sync events are in no sync order
    (d / "invalid.jsonl").write_text("".join(lines[:-1]), encoding="utf-8")
    (d / "torn.jsonl").write_text(
        "".join(lines[:3]) + lines[3][:len(lines[3]) // 2], encoding="utf-8")
    (d / "garbage.bin").write_bytes(b"\x00garbage\xff" * 8)
    (d / "garbage.jsonl").write_text("{not json\n{\"t\": 1}\n",
                                     encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()) as out:
        main(["disasm", "figure1a"])
    (d / "fig1a.rasm").write_text(out.getvalue(), encoding="utf-8")
    (d / "bad.rasm").write_text("this is not assembly\n", encoding="utf-8")
    _quiet(["record", "figure1a", str(d / "fig1a.replay")])
    (d / "notjson.replay").write_text("not json", encoding="utf-8")
    _quiet(["hunt", "racy-counter", "--tries", "6",
            "--events", str(d / "ev.jsonl"),
            "--checkpoint", str(d / "ck.json")])
    shutil.copy(d / "ck.json", d / "ck-resume.json")


def _invoke(argv: Sequence[str], d: Path, env: Optional[dict] = None) -> dict:
    """One invocation's exit status and output, at ``COLUMNS=80``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            pytest.MonkeyPatch.context() as mp:
        for key, value in (env or {}).items():
            mp.setenv(key, value)
        try:
            status: object = main([a.replace("{d}", str(d)) for a in argv])
        except SystemExit as exc:
            status = exc.code if exc.code is not None else 0
        except Exception as exc:  # the crashes FIXED names
            status = f"crash:{type(exc).__name__}"
    return {"exit": status,
            "stdout": out.getvalue().replace(str(d), "{d}"),
            "stderr": err.getvalue().replace(str(d), "{d}")}


def _help(command: Optional[str]) -> str:
    argv = [command, "--help"] if command else ["--help"]
    return _invoke(argv, Path("/nonexistent"))["stdout"]


def record(d: Path) -> dict:
    """The fixture's payload for the CLI as it is now.  The
    :data:`FIXED` cases keep their recorded crash entries: the test
    checks those against :data:`FIXED`, not against a new recording."""
    recorded = json.loads(FIXTURE.read_text(encoding="utf-8"))["cases"]
    golden: dict = {"help": {"": _help(None)}, "cases": {}}
    for command in SUBCOMMANDS:
        golden["help"][command] = _help(command)
    _prepare(d)
    for name, argv, pin_output in CASES:
        if name in FIXED:
            golden["cases"][name] = recorded[name]
            continue
        got = _invoke(argv, d, ENV.get(name))
        if not pin_output or not isinstance(got["exit"], int):
            got = {"exit": got["exit"]}
        golden["cases"][name] = got
    return golden


@pytest.fixture(scope="module")
def expected():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("COLUMNS", "80")
        d = tmp_path_factory.mktemp("cli-golden")
        _prepare(d)
        yield d


@pytest.fixture(autouse=True)
def columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def test_fixture_covers_every_subcommand_and_case(expected):
    assert sorted(expected["help"]) == sorted(("",) + SUBCOMMANDS)
    assert sorted(expected["cases"]) == sorted(name for name, _, _ in CASES)


@pytest.mark.parametrize("command", ("",) + SUBCOMMANDS)
def test_help_is_unchanged(expected, command):
    assert _help(command or None) == expected["help"][command]


@pytest.mark.parametrize("name,argv,pin_output", CASES,
                         ids=[name for name, _, _ in CASES])
def test_invocation_is_unchanged(expected, workdir, name, argv, pin_output):
    want = expected["cases"][name]
    got = _invoke(argv, workdir, ENV.get(name))
    if name in FIXED:
        assert str(want["exit"]).startswith("crash:")
        assert got["exit"] == FIXED[name], got["stderr"]
        # one line on stderr, no traceback
        assert got["stderr"].count("\n") == 1, got["stderr"]
        return
    assert got["exit"] == want["exit"], got["stderr"]
    if pin_output:
        assert got["stdout"] == want["stdout"]
        assert got["stderr"] == want["stderr"]


def test_fixed_cases_are_cases():
    assert set(FIXED) <= {name for name, _, _ in CASES}


def test_record_keeps_fixed_entries(expected, tmp_path, monkeypatch):
    """Regenerating the fixture leaves every FIXED entry byte-identical
    (only the FIXED cases are run, to keep the test short)."""
    monkeypatch.setattr(sys.modules[__name__], "CASES", tuple(
        case for case in CASES if case[0] in FIXED))
    cases = record(tmp_path)["cases"]
    assert sorted(cases) == sorted(FIXED)
    for name in FIXED:
        assert json.dumps(cases[name], sort_keys=True) == \
            json.dumps(expected["cases"][name], sort_keys=True), name


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        golden = record(Path(tmp))
    FIXTURE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {len(golden['help'])} help texts and "
          f"{len(golden['cases'])} cases to {FIXTURE}")
