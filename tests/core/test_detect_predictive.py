"""Differential guarantees for the predictive backends (SHB + WCP).

The predictive detectors are only trustworthy relative to the paper's
baseline: SHB (Mathur et al. 2018) must report *exactly* the hb1 race
set — its value is the per-race soundness certificates layered on top
— and WCP (Kini et al. 2017) must report a *superset* (the observed
races plus races of critical-section reorderings), with the observed
layer bit-identical to the baseline.  Both must agree with the
baseline on the first reported race, survive cyclic hb1 and read both
column forms of a columnar trace exactly like the postmortem pipeline,
and round-trip through the shared report protocol.

WCP's critical-section filter bisects for each lock's bracketing
acquire/release and reads windows off running masks; the per-edge
rescan it replaced stays here as its oracle (:func:`_scan_conflict`),
and the kept and dropped so1 edges must equal the oracle's on the
program corpus, on generated traces and on reordered ones.
"""

from unittest import mock

import pytest
from hypothesis import given, settings

import repro
from repro import obs
from repro.core.hb1 import HappensBefore1
from repro.core.predictive import (
    SHBDetector,
    SHBReport,
    WCPDetector,
    WCPReport,
    WeakCausallyPrecedes,
)
from repro.machine.models import ALL_MODEL_NAMES, make_model
from repro.machine.operations import SyncRole
from repro.machine.propagation import RandomPropagation, StubbornPropagation
from repro.machine.simulator import run_program
from repro.programs import (
    buggy_workqueue_program,
    figure1a_program,
    figure1b_program,
    iriw_program,
    lock_shadow_program,
    locked_counter_program,
    producer_consumer_program,
    racy_counter_program,
    single_race_program,
)
from repro.trace.build import build_trace
from repro.trace.columnar import open_columnar, to_columnar
from repro.trace.events import SyncEvent

from tests.core.test_hb1_cycles import (
    _cyclic_trace,
    definition_2_4_races,
    reordered_traces,
)
from tests.properties.test_prop_traces import traces

CORPUS = [
    (lambda: racy_counter_program(3, 3), "WO"),
    (buggy_workqueue_program, "WO"),
    (figure1a_program, "SC"),
    (figure1b_program, "WO"),
    (single_race_program, "WO"),
    (locked_counter_program, "WO"),
    (producer_consumer_program, "WO"),
    (iriw_program, "WO"),
    (lock_shadow_program, "WO"),
]


def _trace_for(program, model="WO", seed=0, propagation=None):
    result = run_program(
        program, make_model(model), seed=seed, propagation=propagation
    )
    return build_trace(result)


def _race_keys(races):
    return [(r.a, r.b, r.locations, r.is_data_race) for r in races]


def _partition_shape(report):
    return [
        (p.component_index, p.is_first, sorted(p.events))
        for p in report.analysis.partitions
    ]


# ----------------------------------------------------------------------
# the differential guarantees, over the workload corpus
# ----------------------------------------------------------------------

@pytest.mark.parametrize("build,model", CORPUS)
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_shb_race_set_equals_baseline(build, model, seed):
    """SHB never loses a baseline race and never invents one: same
    races, same partitions, on every execution."""
    for propagation in (None, StubbornPropagation(), RandomPropagation(0.4)):
        trace = _trace_for(build(), model, seed, propagation)
        base = repro.detect(trace)
        shb = repro.detect(trace, detector="shb")
        assert isinstance(shb, SHBReport)
        assert _race_keys(shb.races) == _race_keys(base.races)
        assert _partition_shape(shb) == _partition_shape(base)


@pytest.mark.parametrize("build,model", CORPUS)
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_wcp_race_set_contains_baseline(build, model, seed):
    """WCP's observed layer is bit-identical to the baseline; predicted
    races only ever add to it."""
    trace = _trace_for(build(), model, seed)
    base = repro.detect(trace)
    wcp = repro.detect(trace, detector="wcp")
    assert isinstance(wcp, WCPReport)
    assert _race_keys(wcp.observed_races) == _race_keys(base.races)
    assert set(_race_keys(base.races)) <= set(_race_keys(wcp.races))
    assert _partition_shape(wcp) == _partition_shape(base)
    predicted = {(r.a, r.b) for r in wcp.predicted_races}
    observed = {(r.a, r.b) for r in base.races}
    assert not predicted & observed


@pytest.mark.parametrize("build,model", CORPUS)
@pytest.mark.parametrize("seed", [0, 3])
def test_first_reported_race_agrees_with_baseline(build, model, seed):
    """Whatever extra guarantees the predictive backends add, the first
    race they put in front of the programmer is the baseline's."""
    trace = _trace_for(build(), model, seed)
    base = repro.detect(trace)
    if not base.reported_races:
        return
    first = base.reported_races[0]
    for detector in ("shb", "wcp"):
        report = repro.detect(trace, detector=detector)
        assert report.reported_races, detector
        got = report.reported_races[0]
        assert (got.a, got.b) == (first.a, first.b), detector


def test_shb_sound_races_are_certified_data_races():
    for seed in range(6):
        trace = _trace_for(racy_counter_program(3, 3), seed=seed)
        shb = repro.detect(trace, detector="shb")
        race_set = {(r.a, r.b) for r in shb.data_races}
        for race in shb.sound_races:
            assert race.is_data_race
            assert (race.a, race.b) in race_set
        # the per-race certificates never certify fewer real races
        # than the partition-level guarantee alone
        assert shb.certified_race_count >= len(shb.first_partitions)


def test_shb_certifies_strictly_more_on_racy_counter():
    """The acceptance bar at unit level: on a buggy workload SHB's
    per-race soundness certifies strictly more real races than the
    baseline's one-per-first-partition guarantee."""
    trace = _trace_for(racy_counter_program(3, 3), seed=3)
    base = repro.detect(trace)
    shb = repro.detect(trace, detector="shb")
    assert shb.certified_race_count > base.certified_race_count


def test_wcp_never_predicts_on_synchronized_corpus():
    """Correctly synchronized workloads whose critical sections really
    conflict must come out of WCP untouched: no dropped edges means no
    predictions means no false positives."""
    for build in (locked_counter_program, producer_consumer_program):
        for seed in range(4):
            trace = _trace_for(build(), seed=seed)
            base = repro.detect(trace)
            wcp = repro.detect(trace, detector="wcp")
            assert not wcp.predicted_races
            assert wcp.race_free == base.race_free


def test_wcp_predicts_the_lock_shadow_race():
    """The workload built for exactly this: read-only critical sections
    shadow an unguarded write-write race.  WCP must flag every seed;
    the baseline misses the seeds where the lucky section order hides
    it, and on those WCP's verdict comes from prediction alone."""
    predicted_only = 0
    for seed in range(40):
        trace = _trace_for(lock_shadow_program(), seed=seed)
        base = repro.detect(trace)
        wcp = repro.detect(trace, detector="wcp")
        assert not wcp.race_free, f"seed {seed}"
        if base.race_free:
            predicted_only += 1
            assert any(r.is_data_race for r in wcp.predicted_races)
            assert wcp.certified_race_count >= 1
    assert predicted_only > 0


def test_wcp_drops_only_nonconflicting_edges():
    """Every dropped so1 edge joins two critical sections with no data
    conflict (the relation object records exactly what it removed)."""
    trace = _trace_for(lock_shadow_program(), seed=0)
    wcp = WeakCausallyPrecedes(trace)
    assert wcp.dropped_so1_edges
    for rel_eid, acq_eid in wcp.dropped_so1_edges:
        assert not _scan_conflict(trace, rel_eid, acq_eid)


# ----------------------------------------------------------------------
# the WCP filter against the per-edge rescan
# ----------------------------------------------------------------------

def _scan_window(trace, proc, lo, hi, lock):
    reads, writes = set(), set()
    for event in trace.events[proc][lo:hi + 1]:
        if isinstance(event, SyncEvent):
            if event.addr == lock:
                continue
            (writes if event.writes_addr else reads).add(event.addr)
        else:
            reads.update(event.reads)
            writes.update(event.writes)
    return reads, writes


def _scan_conflict(trace, rel, acq):
    """The oracle: rescan the releaser's events back to an opening
    acquire of the lock (else to its first event) and the acquirer's
    forward to a closing release (else to its last), then compare the
    two windows' accesses, the lock's own sync accesses left out."""
    lock = trace.event(rel).addr
    rel_lo = 0
    for pos in range(rel.pos - 1, -1, -1):
        event = trace.events[rel.proc][pos]
        if (isinstance(event, SyncEvent) and event.addr == lock
                and event.role is SyncRole.ACQUIRE):
            rel_lo = pos
            break
    acq_hi = len(trace.events[acq.proc]) - 1
    for pos in range(acq.pos + 1, acq_hi + 1):
        event = trace.events[acq.proc][pos]
        if (isinstance(event, SyncEvent) and event.addr == lock
                and event.role is SyncRole.RELEASE):
            acq_hi = pos
            break
    r1, w1 = _scan_window(trace, rel.proc, rel_lo, rel.pos, lock)
    r2, w2 = _scan_window(trace, acq.proc, acq.pos, acq_hi, lock)
    return bool(w1 & (r2 | w2)) or bool((r1 | w1) & w2)


def _assert_filter_matches_the_scan(trace):
    kept, dropped = [], []
    for edge in HappensBefore1(trace).so1_edges:
        (kept if _scan_conflict(trace, *edge) else dropped).append(edge)
    wcp = WeakCausallyPrecedes(trace)
    assert wcp.so1_edges == kept
    assert wcp.dropped_so1_edges == dropped


#: every program builder that takes no argument
BUILDERS = [getattr(repro.programs, name) for name in (
    "figure1a_program", "figure1b_program", "cas_counter_program",
    "cas_slot_allocator_program", "fanin_barrier_program",
    "independent_work_program", "lock_shadow_program",
    "locked_counter_program", "producer_consumer_program",
    "racy_counter_program", "region_then_lock_program",
    "single_race_program", "iriw_program",
    "locked_mutual_exclusion_program", "peterson_program",
    "store_buffering_program", "bounded_queue_program",
    "buggy_workqueue_program", "fixed_workqueue_program",
)]


@pytest.mark.parametrize("build", BUILDERS, ids=lambda b: b.__name__)
def test_wcp_filter_matches_the_scan_on_the_corpus(build, tmp_path):
    """Every model, seeds 0-3, and the seed-0 trace read back from its
    columnar file."""
    for model in ALL_MODEL_NAMES:
        for seed in range(4):
            trace = _trace_for(build(), model, seed)
            _assert_filter_matches_the_scan(trace)
            if seed == 0:
                path = tmp_path / f"{model}.wrct"
                to_columnar(trace, path)
                with open_columnar(path) as lazy:
                    _assert_filter_matches_the_scan(lazy)


@given(trace=traces(mixed=True))
@settings(max_examples=150, deadline=None)
def test_wcp_filter_matches_the_scan_on_generated_traces(trace):
    _assert_filter_matches_the_scan(trace)


@given(trace=reordered_traces())
@settings(max_examples=150, deadline=None)
def test_wcp_filter_matches_the_scan_on_reordered_traces(trace):
    _assert_filter_matches_the_scan(trace)


# ----------------------------------------------------------------------
# generated traces: the guarantees hold off the hand-built corpus too
# ----------------------------------------------------------------------

@given(trace=traces())
@settings(max_examples=60, deadline=None)
def test_shb_matches_baseline_on_generated_traces(trace):
    base = repro.detect(trace)
    shb = repro.detect(trace, detector="shb")
    assert _race_keys(shb.races) == _race_keys(base.races)
    race_set = {(r.a, r.b) for r in shb.data_races}
    assert all((r.a, r.b) in race_set for r in shb.sound_races)


@given(trace=traces())
@settings(max_examples=60, deadline=None)
def test_wcp_contains_baseline_on_generated_traces(trace):
    base = repro.detect(trace)
    wcp = repro.detect(trace, detector="wcp")
    assert _race_keys(wcp.observed_races) == _race_keys(base.races)
    assert set(_race_keys(base.races)) <= set(_race_keys(wcp.races))


# ----------------------------------------------------------------------
# both column forms, cyclic hb1
# ----------------------------------------------------------------------

def test_predictive_backends_agree_on_both_column_paths(tmp_path):
    """A big-endian host reads a columnar trace's columns as decoded
    tuples, a little-endian one as memoryview casts; both backends must
    report the object trace's races either way."""
    from repro.trace import columnar

    for build, model in ((lambda: racy_counter_program(3, 3), "WO"),
                         (lock_shadow_program, "WO")):
        trace = _trace_for(build(), model, seed=2)
        path = tmp_path / "t.wrct"
        columnar.to_columnar(trace, path)
        expected = {
            d: _race_keys(repro.detect(trace, detector=d).races)
            for d in ("shb", "wcp")
        }
        for byteorder in ("little", "big"):
            with mock.patch.object(columnar.sys, "byteorder", byteorder):
                with columnar.open_columnar(path) as lazy:
                    for d in ("shb", "wcp"):
                        report = repro.detect(lazy, detector=d)
                        assert _race_keys(report.races) == expected[d]


def test_predictive_backends_survive_cyclic_hb1():
    """A cyclic hb1 (§3.1) is clocked over its SCC condensation; the
    predictive layers must report the closure backend's races — and
    SHB, whose soundness theorem needs a linearizable order, must
    certify nothing instead of certifying from a cycle."""
    trace = _cyclic_trace()
    assert HappensBefore1(trace).cyclic
    base_races = definition_2_4_races(trace)
    shb = SHBDetector().analyze(trace)
    assert _race_keys(shb.races) == _race_keys(base_races)
    assert shb.sound_races == []
    wcp = WCPDetector().analyze(trace)
    assert set(_race_keys(base_races)) <= set(_race_keys(wcp.races))


# ----------------------------------------------------------------------
# the shared report protocol
# ----------------------------------------------------------------------

def _roundtrip(report):
    import json

    payload = json.loads(json.dumps(report.to_json()))
    return repro.report_from_json(payload)


def test_shb_report_roundtrip():
    trace = _trace_for(racy_counter_program(3, 3), seed=3)
    report = repro.detect(trace, detector="shb")
    assert report.sound_races  # exercise the interesting payload
    restored = _roundtrip(report)
    assert isinstance(restored, SHBReport)
    assert restored.to_json() == report.to_json()
    assert restored.certified_race_count == report.certified_race_count


def test_wcp_report_roundtrip():
    trace = _trace_for(lock_shadow_program(), seed=1)
    report = repro.detect(trace, detector="wcp")
    assert report.predicted_races  # exercise the interesting payload
    restored = _roundtrip(report)
    assert isinstance(restored, WCPReport)
    assert restored.to_json() == report.to_json()
    assert restored.certified_race_count == report.certified_race_count


@pytest.mark.parametrize("kind", [None, "garbage", "wcp-v9", 7])
def test_report_from_json_rejects_unknown_kinds(kind):
    """Satellite: dispatch on a missing/garbage/future kind is a
    ValueError naming the kind and listing every known one."""
    payload = {} if kind is None else {"kind": kind}
    with pytest.raises(ValueError) as err:
        repro.report_from_json(payload)
    message = str(err.value)
    assert repr(kind if kind is not None else None) in message
    for known in ("postmortem", "naive", "onthefly", "shb", "wcp"):
        assert known in message


def test_from_json_rejects_cross_kind_payloads():
    trace = _trace_for(racy_counter_program(2, 2), seed=0)
    shb_payload = repro.detect(trace, detector="shb").to_json()
    with pytest.raises(ValueError, match="expected a wcp report"):
        WCPReport.from_json(shb_payload)


# ----------------------------------------------------------------------
# satellite: the profile survives a raising detector
# ----------------------------------------------------------------------

class TestProfileOnError:
    def test_partial_profile_written_when_detector_raises(self, tmp_path):
        """detect(profile=<path>) used to lose the whole profile when
        the detector raised — exactly the run whose spans you need."""
        trace = _trace_for(racy_counter_program(2, 2), seed=0)
        path = tmp_path / "failing.jsonl"
        with pytest.raises(TypeError, match="ExecutionResult"):
            repro.detect(trace, detector="onthefly", profile=path)
        assert path.exists()
        assert obs.validate_profile(path) == []
        doc = obs.read_profile(path)
        assert doc["meta"]["detector"] == "onthefly"
        assert doc["meta"]["error"].startswith("TypeError")
        assert any(rec["path"] == "detect" for rec in doc["spans"])

    def test_no_error_meta_on_success(self, tmp_path):
        trace = _trace_for(racy_counter_program(2, 2), seed=0)
        path = tmp_path / "ok.jsonl"
        repro.detect(trace, detector="shb", profile=path)
        doc = obs.read_profile(path)
        assert "error" not in doc["meta"]
        assert any(
            rec["path"] == "detect/detect.shb" for rec in doc["spans"]
        )
