"""One hunt, two views, one snapshot.

A live hunt serves ``/status`` from its registry; its event log replays
through the same fold offline.  Both must yield the same
:class:`~repro.obs.top.TopSnapshot` counts — for a serial hunt, an
early-stopping pool hunt that skips jobs, a robustness-verified hunt,
and a hunt cancelled after a few outcomes and then resumed from its
checkpoint (whose event log opens with the restored jobs' records).
"""

from __future__ import annotations

import json
import threading
import urllib.request

import pytest

from repro.analysis.hunting import hunt_races
from repro.machine.models import make_model
from repro.obs.events import HuntEventLog, read_events
from repro.obs.metrics import MetricsRegistry
from repro.obs.server import TelemetryServer
from repro.obs.top import TopSnapshot
from repro.programs.litmus import store_buffering_program
from repro.programs.workqueue import buggy_workqueue_program

#: name -> (program factory, model, hunt options)
HUNTS = {
    "serial": (buggy_workqueue_program, "WO",
               dict(tries=12, jobs=1, detector="shb")),
    "pool-stop-at-first": (buggy_workqueue_program, "WO",
                           dict(tries=60, jobs=2, stop_at_first=True,
                                batch_size=30)),
    "robustness": (store_buffering_program, "TSO",
                   dict(tries=16, jobs=1, verify_robustness=True)),
    "resumed": (buggy_workqueue_program, "WO",
                dict(tries=24, jobs=1, resume_after=7)),
}

COUNT_FIELDS = (
    "done", "ran", "racy", "tries_by_status", "per_policy",
    "per_detector", "failures_by_kind", "robust_by_verdict", "cache_hits",
    "coverage_fingerprints", "coverage_partitions",
)


@pytest.fixture(scope="module", params=sorted(HUNTS))
def views(request, tmp_path_factory):
    """``(options, live, offline, result, restored)``: the snapshot of
    one hunt's served ``/status`` and of its replayed event log, plus
    the log's ``restored`` try records (empty unless resumed)."""
    program, model, options = HUNTS[request.param]
    detector = options.get("detector", "postmortem")
    registry = MetricsRegistry()
    workdir = tmp_path_factory.mktemp(request.param)
    path = workdir / "hunt.jsonl"
    hunt_options = dict(options)
    resume_after = hunt_options.pop("resume_after", None)
    if resume_after:
        checkpoint = str(workdir / "hunt.ckpt")
        cancel = threading.Event()
        seen = []

        def cancel_after(outcome):
            seen.append(outcome)
            if len(seen) == resume_after:
                cancel.set()
        hunt_races(program(), lambda: make_model(model), cancel=cancel,
                   on_outcome=cancel_after, checkpoint=checkpoint,
                   checkpoint_interval=1, **hunt_options)
        hunt_options.update(checkpoint=checkpoint, resume=True)
    log = HuntEventLog(path, meta={"model": model, "detector": detector,
                                   "tries": options["tries"]},
                       detector=detector)
    result = hunt_races(program(), lambda: make_model(model),
                        metrics=registry, on_outcome=log.on_outcome,
                        **hunt_options)
    log.close()
    server = TelemetryServer(registry)
    url = server.start()
    try:
        with urllib.request.urlopen(url + "/status", timeout=5) as response:
            live = TopSnapshot.from_json(json.loads(response.read()))
    finally:
        server.stop()
    loaded = read_events(path)
    restored = [record for record in loaded["tries"]
                if record.get("restored")]
    assert len(restored) == result.resumed_jobs
    return options, live, TopSnapshot.from_events(loaded), result, restored


@pytest.mark.parametrize("name", COUNT_FIELDS)
def test_status_and_event_log_agree(views, name):
    _, live, offline, _, _ = views
    assert getattr(live, name) == getattr(offline, name)


def test_duration_buckets_agree(views):
    _, live, offline, _, _ = views
    assert [count for _, count in live.duration_buckets] == \
        [count for _, count in offline.duration_buckets]
    assert live.duration_quantiles == offline.duration_quantiles


def test_progress_counts_skipped_jobs_and_cells_do_not(views):
    # restored jobs fold like fresh ones, so a resumed hunt's cells
    # count its restored tries too
    options, live, _, _, _ = views
    skipped = live.tries_by_status.get("skipped", 0)
    assert (skipped > 0) == options.get("stop_at_first", False)
    assert live.done == live.total == options["tries"]
    assert live.ran == live.done - skipped
    assert sum(c["tries"] for c in live.per_policy.values()) == live.ran
    assert sum(c["racy"] for c in live.per_policy.values()) == live.racy
    status = live.to_json()
    assert status["seeds"]["settled"] == live.done
    assert sum(status["tries_by_policy"].values()) == live.ran


def test_counts_match_the_result(views):
    options, live, _, result, _ = views
    if options.get("stop_at_first"):
        # the merged result keeps only jobs up to the first racy index
        assert live.ran >= result.tries
        return
    assert live.ran == result.tries
    assert live.racy == result.racy_runs
    assert live.cache_hits == result.trace_cache_hits
    (cell,) = live.per_detector.values()
    assert cell["certified"] == result.certified_races
    assert sum(live.robust_by_verdict.values()) == result.verified_tries
