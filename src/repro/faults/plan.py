"""The fault plan: what breaks, where, and how many times.

Plans are deliberately small and deterministic: every injection point
is keyed by the hunt's canonical job index (and the job's retry
attempt), never by wall clock, so a fault-injected hunt is exactly
reproducible and its expected merged statistics can be computed by
hand in a test.

Injection points (all optional):

``crash``
    ``{job_index: attempts}`` — the job raises
    :class:`InjectedCrash` while ``attempt < attempts``.  With
    ``attempts`` larger than the engine's ``max_retries`` the failure
    is *deterministic* (fails identically every time); with
    ``attempts <= max_retries`` it is *transient* (a retry succeeds).

``hang``
    ``{job_index: attempts}`` — the job sleeps ``hang_seconds``
    (C-level :func:`time.sleep`) while ``attempt < attempts``,
    driving the engine's ``job_timeout`` path.

``kill_parent_after``
    SIGKILL the hunt's own parent process after this many jobs have
    settled — the "power cord" fault the checkpoint/resume layer
    exists for.

Activation: set ``REPRO_FAULTS`` to inline JSON (``{"crash": ...}``)
or to the path of a JSON file — the fork-pool workers inherit the
environment, so one variable arms every process of a hunt.  Tests
running in-process can call :func:`install`/:func:`clear` instead.

:func:`tear_file` / :func:`append_garbage` are the torn-artifact
faults: they mutilate checkpoint/event/profile files the way a crash
mid-write (or a corrupted disk) would, for the validator suites.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

ENV_VAR = "REPRO_FAULTS"


class FaultPlanError(ValueError):
    """The plan JSON is malformed or names unknown faults."""


class InjectedCrash(RuntimeError):
    """A worker crash injected by the active fault plan."""


_KNOWN_KEYS = {"crash", "hang", "hang_seconds", "kill_parent_after"}


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic injection points, keyed by hunt job index."""

    crash: Dict[int, int] = field(default_factory=dict)
    hang: Dict[int, int] = field(default_factory=dict)
    hang_seconds: float = 30.0
    kill_parent_after: Optional[int] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_json(cls, payload: dict) -> "FaultPlan":
        if not isinstance(payload, dict):
            raise FaultPlanError(
                f"fault plan must be a JSON object, got {type(payload).__name__}"
            )
        unknown = set(payload) - _KNOWN_KEYS
        if unknown:
            raise FaultPlanError(
                f"unknown fault plan key(s): {', '.join(sorted(unknown))}; "
                f"known: {', '.join(sorted(_KNOWN_KEYS))}"
            )

        def index_map(key: str) -> Dict[int, int]:
            raw = payload.get(key) or {}
            if not isinstance(raw, dict):
                raise FaultPlanError(f"{key!r} must map job index -> attempts")
            try:
                return {int(k): int(v) for k, v in raw.items()}
            except (TypeError, ValueError) as exc:
                raise FaultPlanError(f"bad {key!r} entry: {exc}") from exc

        kill_after = payload.get("kill_parent_after")
        if kill_after is not None:
            kill_after = int(kill_after)
            if kill_after < 1:
                raise FaultPlanError("kill_parent_after must be >= 1")
        return cls(
            crash=index_map("crash"),
            hang=index_map("hang"),
            hang_seconds=float(payload.get("hang_seconds", 30.0)),
            kill_parent_after=kill_after,
        )

    # ------------------------------------------------------------------
    # engine hooks
    # ------------------------------------------------------------------
    def on_job_start(self, index: int, attempt: int) -> None:
        """Called by the worker at the top of a job's timed body:
        injects the crash/hang faults armed for this (index, attempt).
        The message is stable across attempts on purpose — the retry
        layer classifies identical consecutive failures as
        deterministic."""
        if attempt < self.hang.get(index, 0):
            time.sleep(self.hang_seconds)
        if attempt < self.crash.get(index, 0):
            raise InjectedCrash(f"injected worker crash (job {index})")

    def on_job_settled(self, settled: int) -> None:
        """Called by the parent after the *settled*-th job outcome is
        final; delivers the SIGKILL-parent fault."""
        if (
            self.kill_parent_after is not None
            and settled >= self.kill_parent_after
        ):
            os.kill(os.getpid(), signal.SIGKILL)


# ----------------------------------------------------------------------
# activation: env hook + in-process install
# ----------------------------------------------------------------------

_INSTALLED: Optional[FaultPlan] = None
_ENV_CACHE: Optional[tuple] = None  # (raw env value, parsed plan)


def install(plan: Optional[FaultPlan]) -> None:
    """Arm *plan* for this process (tests); ``install(None)`` is
    :func:`clear`."""
    global _INSTALLED
    _INSTALLED = plan


def clear() -> None:
    """Disarm any in-process plan and drop the env cache."""
    global _INSTALLED, _ENV_CACHE
    _INSTALLED = None
    _ENV_CACHE = None


def active_plan() -> Optional[FaultPlan]:
    """The armed plan, if any: an in-process :func:`install` wins,
    then the ``REPRO_FAULTS`` environment hook (inline JSON or a file
    path, parsed once per distinct value)."""
    if _INSTALLED is not None:
        return _INSTALLED
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return None
    global _ENV_CACHE
    if _ENV_CACHE is not None and _ENV_CACHE[0] == raw:
        return _ENV_CACHE[1]
    text = raw.strip()
    if not text.startswith("{"):
        try:
            text = Path(text).read_text(encoding="utf-8")
        except OSError as exc:
            raise FaultPlanError(f"{ENV_VAR}={raw!r}: unreadable: {exc}")
    try:
        plan = FaultPlan.from_json(json.loads(text))
    except json.JSONDecodeError as exc:
        raise FaultPlanError(f"{ENV_VAR}: invalid JSON: {exc}") from exc
    _ENV_CACHE = (raw, plan)
    return plan


# ----------------------------------------------------------------------
# torn-artifact faults (used by the validator/resume suites)
# ----------------------------------------------------------------------

def tear_file(path: Union[str, Path], drop_bytes: int = 7) -> None:
    """Truncate the last *drop_bytes* bytes of *path* — the shape a
    file takes when the writing process dies mid-append."""
    path = Path(path)
    size = path.stat().st_size
    with path.open("rb+") as fh:
        fh.truncate(max(size - drop_bytes, 0))


def append_garbage(path: Union[str, Path],
                   garbage: bytes = b"{\x00garbage\n") -> None:
    """Append undecodable bytes to *path* (mid-file corruption once
    more records follow)."""
    with Path(path).open("ab") as fh:
        fh.write(garbage)
