"""Hunt checkpoints: durable, resumable progress for long hunts.

The paper's pipeline is post-mortem (§4.1): a hunt's value is the
settled tries and race statistics it accumulates, so a worker
crash or a killed parent at try 40k of 50k must never cost the whole
run.  The engine (:func:`repro.analysis.parallel.run_hunt`) therefore
periodically persists every *settled* job outcome to a checkpoint
file; a resumed hunt re-plans the sweep, skips the settled indices,
and merges restored + fresh outcomes — because each job is a pure
function of ``(program, model, policy, seed)``, the merged
``HuntResult.stats()``/``summary()`` are byte-identical to an
uninterrupted run.

Checkpoints cut at *settled outcomes*, never at the pool's dispatch
batches: a parent killed mid-batch persists exactly the outcomes that
reached it, and resume re-plans every unsettled job individually —
batch boundaries are an executor detail with no representation here.
Checkpoints store no recordings: the hunt records only its winning try,
by re-simulating it after the merge, so a resumed hunt re-derives the
recording exactly as an uninterrupted one does.

Format (``CHECKPOINT_FORMAT`` = 3) — one JSON document::

    {
      "format": 3,
      "complete": false,                # True once the sweep finished
      "hunt_id": "a1b2...",             # telemetry correlation id
                                        # (absent in legacy checkpoints;
                                        # resume keeps it, so a resumed
                                        # hunt's metrics/events/results
                                        # join with the original's)
      "spec": {                         # identity of the hunt
                                        # (HuntConfig.spec)
        "program_sha": "...",           # BLAKE2b of the assembly text
        "model": "WO",
        "tries": 50000,                 # the seed range, via seed-major
        "policies": ["stubborn", ...],  # names, in sweep order
        "max_steps": 200000,
        "stop_at_first": false,
        "detector": "postmortem",       # absent in legacy checkpoints
        "verify_robustness": false      # absent in legacy checkpoints
      },
      "outcomes": [ {...}, ... ]        # settled jobs, by index
    }

An outcome's ``race_count`` counts its data races.  Formats 1 and 2
counted every race, sync races included, and still load: a clean
outcome has no data race, so it restores 0, which is exact; a racy
outcome keeps its stored count, an upper bound on its data races.
Format 1 also differs in that the lowest-index racy outcome carried a
``recording`` key, which is ignored.

Checkpoints are always written atomically (write-tmp + fsync +
rename, :func:`repro.ioutil.atomic_write_text`), so a crash mid-write
leaves the previous complete checkpoint intact; a file torn by
anything else is rejected with :class:`CheckpointError` rather than
silently resumed.  Resume validates the spec field by field —
resuming a checkpoint against a different program, model, policy
list, seed range, or step bound is a :class:`CheckpointMismatch` hard
error, never a best-effort merge.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Union

from ..ioutil import atomic_write_text
from ..machine.program import Program

CHECKPOINT_FORMAT = 3
#: Formats :func:`load_checkpoint` reads.
_READABLE_FORMATS = (1, 2, CHECKPOINT_FORMAT)


class CheckpointError(ValueError):
    """The checkpoint file is unreadable, torn, or schema-invalid."""


class CheckpointMismatch(CheckpointError):
    """The checkpoint belongs to a different hunt spec."""


def program_fingerprint(program: Program) -> str:
    """BLAKE2b over the program's canonical assembly text — the
    checkpoint's program-identity key."""
    from ..machine.assembler import format_program

    return hashlib.blake2b(
        format_program(program).encode("utf-8"), digest_size=16
    ).hexdigest()


def make_hunt_id(spec: dict, nonce: Optional[str] = None) -> str:
    """A compact correlation id for one hunt *run*: BLAKE2b over the
    hunt spec plus a per-start nonce.

    The spec half ties the id to the hunt's identity (program, model,
    seed range, policies, detector); the nonce half distinguishes
    repeated runs of the same spec — two back-to-back identical hunts
    get different ids, while a *resume* keeps the original id by
    reading it back from the checkpoint instead of minting a new one.
    The id is deliberately *not* in the spec record itself: the spec is
    validated field-by-field on resume, and the id is the one field
    that legitimately rides across spec-identical runs.
    """
    if nonce is None:
        nonce = os.urandom(8).hex()
    digest = hashlib.blake2b(
        (json.dumps(spec, sort_keys=True) + "|" + nonce).encode("utf-8"),
        digest_size=8,
    )
    return digest.hexdigest()


def peek_hunt_id(path: Union[str, Path]) -> Optional[str]:
    """Best-effort read of a checkpoint's hunt_id — ``None`` for
    missing/legacy/corrupt files (the real load reports those properly;
    this is for :meth:`~repro.analysis.hunting.HuntConfig.resolve_hunt_id`,
    which decides the id *before* the hunt starts, so the CLI can wire
    the event log and telemetry server on a resume)."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        hunt_id = payload.get("hunt_id")
        return hunt_id if isinstance(hunt_id, str) and hunt_id else None
    except (OSError, ValueError, AttributeError):
        return None


# ----------------------------------------------------------------------
# outcome (de)serialization — exactly what the deterministic merge
# needs, in plain JSON
# ----------------------------------------------------------------------

#: Fields every outcome record must carry; the rest fall back to their
#: defaults.
_REQUIRED_FIELDS = ("status", "completed", "operations")


def _stored_fields(outcome_type) -> List[str]:
    """The :class:`~repro.analysis.parallel.JobOutcome` fields a
    checkpoint stores: all but ``job`` (stored as its own keys) and
    ``restored`` (a mark of the run that loads the checkpoint)."""
    return [f.name for f in dataclasses.fields(outcome_type)
            if f.name not in ("job", "restored")]


def outcome_to_payload(outcome) -> dict:
    """Serialize one settled :class:`~repro.analysis.parallel.JobOutcome`."""
    job = outcome.job
    payload = {name: getattr(outcome, name)
               for name in _stored_fields(outcome)}
    payload.update(
        index=job.index,
        seed=job.seed,
        policy_index=job.policy_index,
        policy=job.policy_name,
        attempt=job.attempt,
        duration=round(outcome.duration, 6),
        partition_keys=list(outcome.partition_keys),
    )
    return payload


def outcome_from_payload(payload: dict):
    from .parallel import HuntJob, JobOutcome  # circular at import time

    try:
        job = HuntJob(
            index=payload["index"],
            seed=payload["seed"],
            policy_index=payload["policy_index"],
            policy_name=payload["policy"],
            attempt=payload.get("attempt", 0),
        )
        outcome = JobOutcome(job=job, **{
            name: payload[name] for name in _stored_fields(JobOutcome)
            if name in payload or name in _REQUIRED_FIELDS
        })
        outcome.partition_keys = tuple(outcome.partition_keys)
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"malformed outcome record: {exc}") from exc
    return outcome


# ----------------------------------------------------------------------
# save / load
# ----------------------------------------------------------------------

def save_checkpoint(
    path: Union[str, Path],
    spec: dict,
    outcomes: Sequence[object],
    complete: bool,
    hunt_id: Optional[str] = None,
) -> None:
    """Atomically persist the settled outcomes (sorted by index)."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "complete": bool(complete),
        "spec": spec,
        "outcomes": [
            outcome_to_payload(o)
            for o in sorted(outcomes, key=lambda o: o.job.index)
        ],
    }
    if hunt_id:
        payload["hunt_id"] = hunt_id
    # Compact separators: checkpoints are rewritten periodically, so
    # the serialization cost is the overhead knob that matters.
    atomic_write_text(
        path, json.dumps(payload, sort_keys=True, separators=(",", ":"))
    )


@dataclass
class LoadedCheckpoint:
    """A parsed checkpoint: the spec it was written for, whether the
    sweep had finished, and the settled outcomes."""

    spec: dict
    complete: bool
    outcomes: List[object]
    #: correlation id the checkpoint was written under (None for
    #: legacy checkpoints); resume adopts it so telemetry joins
    hunt_id: Optional[str] = None

    @property
    def settled_indices(self):
        return {o.job.index for o in self.outcomes}

    @property
    def first_racy_index(self) -> Optional[int]:
        """Lowest settled racy job index, or ``None``.

        Resume seeds the engine's early-stop bound with this: under
        ``stop_at_first`` nothing beyond it is re-planned."""
        return min((o.job.index for o in self.outcomes
                    if o.status == "racy"), default=None)


def load_checkpoint(
    path: Union[str, Path],
    expected_spec: Optional[dict] = None,
) -> LoadedCheckpoint:
    """Read and validate a checkpoint; with *expected_spec*, any
    field-level difference is a :class:`CheckpointMismatch` hard
    error."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CheckpointError(f"{path}: unreadable: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"{path}: torn or corrupt checkpoint (invalid JSON: {exc}); "
            f"checkpoints are written atomically — this file was "
            f"damaged after the fact, delete it to start fresh"
        ) from exc
    if not isinstance(payload, dict):
        raise CheckpointError(f"{path}: checkpoint is not a JSON object")
    version = payload.get("format")
    if version not in _READABLE_FORMATS:
        raise CheckpointError(
            f"{path}: unknown checkpoint format {version!r} "
            f"(this reader understands formats "
            f"{', '.join(map(str, _READABLE_FORMATS))})"
        )
    spec = payload.get("spec")
    if not isinstance(spec, dict):
        raise CheckpointError(f"{path}: checkpoint has no spec record")
    # Legacy checkpoints predate the detector field; they were written
    # by the only detector hunts then had.  Same for the robustness
    # flag: legacy hunts never verified.
    spec.setdefault("detector", "postmortem")
    spec.setdefault("verify_robustness", False)
    if expected_spec is not None:
        mismatched = [
            key for key in sorted(set(expected_spec) | set(spec))
            if spec.get(key) != expected_spec.get(key)
        ]
        if mismatched:
            detail = "; ".join(
                f"{key}: checkpoint has {spec.get(key)!r}, "
                f"hunt wants {expected_spec.get(key)!r}"
                for key in mismatched
            )
            raise CheckpointMismatch(
                f"{path}: checkpoint belongs to a different hunt ({detail})"
            )
    raw_outcomes = payload.get("outcomes")
    if not isinstance(raw_outcomes, list):
        raise CheckpointError(f"{path}: checkpoint has no outcome list")
    outcomes = [outcome_from_payload(record) for record in raw_outcomes]
    if version < 3:
        # these formats counted sync races too; a clean try has no
        # data race
        for outcome in outcomes:
            if outcome.status == "clean":
                outcome.race_count = 0
    seen = set()
    for outcome in outcomes:
        if outcome.job.index in seen:
            raise CheckpointError(
                f"{path}: duplicate outcome for job {outcome.job.index}"
            )
        seen.add(outcome.job.index)
    hunt_id = payload.get("hunt_id")
    if hunt_id is not None and not isinstance(hunt_id, str):
        raise CheckpointError(f"{path}: hunt_id is not a string")
    return LoadedCheckpoint(
        spec=spec, complete=bool(payload.get("complete")),
        outcomes=outcomes, hunt_id=hunt_id,
    )


class CheckpointWriter:
    """Periodic checkpoint persistence for a running hunt.

    Writes every *interval* settled outcomes (plus a final write at
    hunt end, marked ``complete`` when the sweep ran to completion).
    Each write persists the full settled set atomically, so the file
    on disk is always a self-contained resume point.  Construction
    probes the directory with the same temp-file step the writes use,
    so an unwritable path raises :class:`OSError` before the hunt runs
    a single try.
    """

    def __init__(self, path: Union[str, Path], spec: dict,
                 interval: int, hunt_id: Optional[str] = None) -> None:
        if interval < 1:
            raise ValueError("checkpoint interval must be positive")
        self.path = Path(path)
        fd, probe = tempfile.mkstemp(prefix=self.path.name + ".",
                                     suffix=".tmp", dir=self.path.parent)
        os.close(fd)
        os.unlink(probe)
        self.spec = spec
        self.interval = interval
        self.hunt_id = hunt_id
        self.writes = 0
        self._since_last = 0

    def tick(self, outcomes: Sequence[object]) -> None:
        """Note one newly settled outcome; persists on the interval."""
        self._since_last += 1
        if self._since_last >= self.interval:
            self.flush(outcomes, complete=False)

    def flush(self, outcomes: Sequence[object], complete: bool) -> None:
        save_checkpoint(self.path, self.spec, outcomes, complete=complete,
                        hunt_id=self.hunt_id)
        self.writes += 1
        self._since_last = 0
