"""Checkpoint unit tests: the spec identity, outcome round-trip,
atomicity, and the load-time validation (torn files, version skew,
spec mismatch)."""

import dataclasses
import json

import pytest

from repro.analysis.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointError,
    CheckpointMismatch,
    CheckpointWriter,
    load_checkpoint,
    outcome_from_payload,
    outcome_to_payload,
    program_fingerprint,
    save_checkpoint,
)
from repro.analysis.hunting import HuntConfig, hunt_races, policies_by_name
from repro.analysis.parallel import HuntJob, JobOutcome
from repro.machine.models import make_model
from repro.programs.kernels import locked_counter_program, racy_counter_program


def _wo():
    return make_model("WO")


def _spec(program=None, **overrides):
    program = program or racy_counter_program()
    config = HuntConfig(tries=12, policies=policies_by_name(
        ["stubborn", "ring"], program.processor_count))
    spec = config.spec(program, "WO")
    spec.update(overrides)
    return spec


def _outcome(index=0, status="clean", **overrides):
    job = HuntJob(index=index, seed=index // 2, policy_index=index % 2,
                  policy_name=["stubborn", "ring"][index % 2])
    fields = dict(status=status, operations=40, fingerprint="abc",
                  duration=0.004)
    fields.update(overrides)
    return JobOutcome(job=job, **fields)


# ----------------------------------------------------------------------
# spec identity
# ----------------------------------------------------------------------

def test_program_fingerprint_tracks_program_text():
    a = program_fingerprint(racy_counter_program())
    b = program_fingerprint(racy_counter_program())
    c = program_fingerprint(locked_counter_program(2, 2))
    assert a == b
    assert a != c


def test_hunt_spec_fields():
    spec = _spec()
    assert set(spec) == {"program_sha", "model", "tries", "policies",
                        "max_steps", "stop_at_first", "detector",
                        "verify_robustness"}
    assert spec["policies"] == ["stubborn", "ring"]
    assert spec["detector"] == "postmortem"
    assert spec["verify_robustness"] is False
    # The derived identity, pinned literally: a field added to or
    # dropped from HuntConfig.IDENTITY (or a changed program hash)
    # fails here instead of silently breaking resume of old checkpoints.
    assert spec == {
        "program_sha": "bc4402a6512effef209120d553cdf79d",
        "model": "WO",
        "tries": 12,
        "policies": ["stubborn", "ring"],
        "max_steps": 200_000,
        "stop_at_first": False,
        "detector": "postmortem",
        "verify_robustness": False,
    }


# ----------------------------------------------------------------------
# outcome round-trip
# ----------------------------------------------------------------------

def test_outcome_payload_round_trip():
    outcome = _outcome(3, status="error", error="RuntimeError: x",
                       traceback="tb", retries=2,
                       failure_kind="exhausted")
    back = outcome_from_payload(outcome_to_payload(outcome))
    assert back.job == outcome.job
    assert back.status == "error"
    assert back.error == "RuntimeError: x"
    assert back.retries == 2
    assert back.failure_kind == "exhausted"


#: The format-2 outcome record's keys, as every earlier writer wrote them.
_FORMAT_2_KEYS = {
    "index", "seed", "policy_index", "policy", "attempt", "status",
    "completed", "operations", "error", "traceback", "report_digest",
    "cache_hit", "fingerprint", "race_count", "certified_races",
    "retries", "failure_kind", "robust", "robustness", "duration",
    "partition_keys",
}


def test_outcome_payload_keys_are_format_2():
    assert set(outcome_to_payload(_outcome())) == _FORMAT_2_KEYS


def test_outcome_payload_round_trips_every_field():
    """Every stored JobOutcome field, each set off its default, comes
    back intact; ``restored`` marks the loading run and is not stored."""
    job = HuntJob(index=5, seed=2, policy_index=1, policy_name="ring",
                  attempt=2)
    outcome = JobOutcome(
        job=job, status="racy", completed=False, operations=77,
        error="RuntimeError: x", report_digest="digest", cache_hit=True,
        duration=0.25, fingerprint="fp", race_count=3, certified_races=2,
        traceback="tb", retries=2, failure_kind="exhausted", robust=False,
        robustness={"kind": "robustness", "robust": False},
        partition_keys=("p1", "p2"), restored=True,
    )
    for f in dataclasses.fields(JobOutcome):
        if f.name != "job":
            assert getattr(outcome, f.name) != f.default, f.name
    back = outcome_from_payload(json.loads(json.dumps(
        outcome_to_payload(outcome))))
    assert back == dataclasses.replace(outcome, restored=False)


def test_outcome_payload_is_json_safe():
    json.dumps(outcome_to_payload(_outcome()))


def test_outcome_from_payload_rejects_malformed():
    with pytest.raises(CheckpointError, match="malformed outcome"):
        outcome_from_payload({"index": 0})


def test_format_2_checkpoint_stores_no_recording(tmp_path):
    """The hunt records only its winning try, after the merge, so a
    checkpoint has no recording to persist."""
    path = tmp_path / "hunt.ckpt"
    result = hunt_races(racy_counter_program(), _wo, tries=6, jobs=1,
                        checkpoint=path)
    assert result.found and result.recording is not None
    payload = json.loads(path.read_text())
    assert payload["format"] == CHECKPOINT_FORMAT == 3
    assert any(o["status"] == "racy" for o in payload["outcomes"])
    assert all("recording" not in o for o in payload["outcomes"])


def test_format_1_checkpoint_with_recording_resumes(tmp_path):
    """A format-1 checkpoint still loads: its ``recording`` keys are
    ignored, and resume re-derives the winner's recording."""
    program = racy_counter_program()
    full = hunt_races(program, _wo, tries=6, jobs=1)
    assert full.found and full.recording_verified is True
    path = tmp_path / "hunt.ckpt"
    hunt_races(program, _wo, tries=6, jobs=1, checkpoint=path)
    payload = json.loads(path.read_text())
    # Rewrite as format 1 wrote it: every outcome has a recording key,
    # the lowest-index racy one carrying the recording.  Drop the last
    # outcomes so the resume has jobs left to run.
    payload["format"] = 1
    payload["complete"] = False
    payload["outcomes"] = payload["outcomes"][:4]
    first_racy = min(o["index"] for o in payload["outcomes"]
                     if o["status"] == "racy")
    for outcome in payload["outcomes"]:
        outcome["recording"] = (
            full.recording.to_payload()
            if outcome["index"] == first_racy else None
        )
    path.write_text(json.dumps(payload))
    assert len(load_checkpoint(path).outcomes) == 4
    resumed = hunt_races(program, _wo, tries=6, jobs=1, checkpoint=path,
                         resume=True)
    assert resumed.resumed_jobs == 4
    assert resumed.stats() == full.stats()
    assert resumed.recording_verified is True
    assert resumed.recording.to_payload() == full.recording.to_payload()


@pytest.mark.parametrize("version", [1, 2])
def test_earlier_formats_restore_data_race_counts(tmp_path, version):
    """Formats 1 and 2 counted sync races in ``race_count``: a clean
    outcome restores 0 (it has no data race), a racy one keeps its
    stored count (an upper bound)."""
    path = tmp_path / "hunt.ckpt"
    clean = _outcome(0, race_count=7)
    racy = _outcome(1, status="racy", race_count=9)
    save_checkpoint(path, _spec(), [clean, racy], complete=False)
    payload = json.loads(path.read_text())
    payload["format"] = version
    path.write_text(json.dumps(payload))
    counts = [o.race_count for o in load_checkpoint(path).outcomes]
    assert counts == [0, 9]
    payload["format"] = CHECKPOINT_FORMAT
    path.write_text(json.dumps(payload))
    counts = [o.race_count for o in load_checkpoint(path).outcomes]
    assert counts == [7, 9]


# ----------------------------------------------------------------------
# save / load validation
# ----------------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    path = tmp_path / "hunt.ckpt"
    outcomes = [_outcome(i) for i in (2, 0, 1)]  # unsorted on purpose
    save_checkpoint(path, _spec(), outcomes, complete=False)
    loaded = load_checkpoint(path, expected_spec=_spec())
    assert not loaded.complete
    assert [o.job.index for o in loaded.outcomes] == [0, 1, 2]
    assert loaded.settled_indices == {0, 1, 2}


def test_load_rejects_torn_json(tmp_path):
    path = tmp_path / "hunt.ckpt"
    save_checkpoint(path, _spec(), [_outcome(0)], complete=True)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(CheckpointError, match="torn or corrupt"):
        load_checkpoint(path)


def test_load_rejects_unknown_format(tmp_path):
    path = tmp_path / "hunt.ckpt"
    path.write_text(json.dumps({
        "format": CHECKPOINT_FORMAT + 1, "complete": False,
        "spec": _spec(), "outcomes": [],
    }))
    with pytest.raises(CheckpointError, match="unknown checkpoint format"):
        load_checkpoint(path)


def test_load_rejects_missing_file(tmp_path):
    with pytest.raises(CheckpointError, match="unreadable"):
        load_checkpoint(tmp_path / "nope.ckpt")


def test_load_rejects_duplicate_indices(tmp_path):
    path = tmp_path / "hunt.ckpt"
    payload = {
        "format": CHECKPOINT_FORMAT, "complete": False, "spec": _spec(),
        "outcomes": [outcome_to_payload(_outcome(0)),
                     outcome_to_payload(_outcome(0))],
    }
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match="duplicate outcome"):
        load_checkpoint(path)


@pytest.mark.parametrize("field,value", [
    ("tries", 99),
    ("model", "SC"),
    ("policies", ["stubborn"]),
    ("max_steps", 5),
    ("stop_at_first", True),
    ("program_sha", "0" * 32),
    ("detector", "shb"),
])
def test_spec_mismatch_is_hard_error(tmp_path, field, value):
    path = tmp_path / "hunt.ckpt"
    save_checkpoint(path, _spec(), [], complete=False)
    with pytest.raises(CheckpointMismatch, match=field):
        load_checkpoint(path, expected_spec=_spec(**{field: value}))


def test_load_without_expected_spec_skips_validation(tmp_path):
    path = tmp_path / "hunt.ckpt"
    save_checkpoint(path, _spec(), [], complete=True)
    assert load_checkpoint(path).complete


def test_legacy_checkpoint_without_detector_is_postmortem(tmp_path):
    """Checkpoints written before the detector field existed were all
    produced by the only detector hunts then had; they must load (and
    resume) as postmortem, not error out."""
    path = tmp_path / "hunt.ckpt"
    spec = _spec()
    del spec["detector"]
    save_checkpoint(path, spec, [_outcome(0)], complete=False)
    loaded = load_checkpoint(path, expected_spec=_spec())
    assert loaded.spec["detector"] == "postmortem"
    # ...and a non-default detector still refuses the legacy file
    with pytest.raises(CheckpointMismatch, match="detector"):
        load_checkpoint(path, expected_spec=_spec(detector="wcp"))


def test_legacy_checkpoint_resumes_into_a_postmortem_hunt(tmp_path):
    """End to end: strip the detector field from a real checkpoint and
    resume — statistics must come out as if never interrupted."""
    program = racy_counter_program()
    path = tmp_path / "hunt.ckpt"
    full = hunt_races(program, _wo, tries=6, jobs=1)
    hunt_races(program, _wo, tries=6, jobs=1, checkpoint=path)
    payload = json.loads(path.read_text())
    del payload["spec"]["detector"]
    path.write_text(json.dumps(payload))
    resumed = hunt_races(
        program, _wo, tries=6, jobs=1, checkpoint=path, resume=True,
    )
    assert resumed.resumed_jobs == 6
    assert resumed.stats() == full.stats()
    with pytest.raises(CheckpointMismatch, match="detector"):
        hunt_races(
            program, _wo, tries=6, jobs=1,
            checkpoint=path, resume=True, detector="shb",
        )


# ----------------------------------------------------------------------
# the periodic writer
# ----------------------------------------------------------------------

def test_writer_persists_on_interval(tmp_path):
    path = tmp_path / "hunt.ckpt"
    writer = CheckpointWriter(path, _spec(), interval=3)
    outcomes = []
    for i in range(7):
        outcomes.append(_outcome(i))
        writer.tick(outcomes)
    assert writer.writes == 2  # after the 3rd and 6th outcome
    loaded = load_checkpoint(path)
    assert len(loaded.outcomes) == 6 and not loaded.complete
    writer.flush(outcomes, complete=True)
    loaded = load_checkpoint(path)
    assert len(loaded.outcomes) == 7 and loaded.complete


def test_writer_rejects_nonpositive_interval(tmp_path):
    with pytest.raises(ValueError):
        CheckpointWriter(tmp_path / "x", _spec(), interval=0)


def test_writer_probes_its_directory_when_made(tmp_path):
    with pytest.raises(FileNotFoundError):
        CheckpointWriter(tmp_path / "missing" / "hunt.ckpt", _spec(),
                         interval=3)
    CheckpointWriter(tmp_path / "hunt.ckpt", _spec(), interval=3)
    assert list(tmp_path.iterdir()) == []  # the probe cleans up


def test_unwritable_checkpoint_fails_before_any_try(tmp_path):
    seen = []
    config = HuntConfig(tries=6, checkpoint=str(tmp_path / "missing" / "c"))
    with pytest.raises(FileNotFoundError):
        hunt_races(racy_counter_program(), _wo, config,
                   on_outcome=seen.append)
    assert seen == []


def test_checkpoint_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "hunt.ckpt"
    save_checkpoint(path, _spec(), [_outcome(0)], complete=True)
    assert [p.name for p in tmp_path.iterdir()] == ["hunt.ckpt"]
