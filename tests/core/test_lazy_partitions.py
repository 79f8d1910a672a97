"""G' and the sync races on demand: a report computes both on first read.

A racy report builds G' inside its detector's span, since every reader
of a racy report reads its first partitions; a race-free report builds
it only when something asks, because its verdict, ``format()`` and
``certified_race_count`` never read it (Theorem 4.1).  Either way every
output must equal that of a report whose analysis was built eagerly.

The race sweep splits the same way.  The post-mortem detector sweeps
only the data half of the locations (those some computation event
touches), which holds every data race and so decides the verdict; the
sync half is swept when ``report.races`` (or G') is first read.  The
halves must be disjoint, merge into exactly one full sweep, add up to
its work counters whether ``find_races`` is handed the relation or
builds its own, and leave every report output equal to that of a report
swept eagerly, cyclic hb1 relations included.
"""

from __future__ import annotations

import dataclasses
import heapq

import pytest
from hypothesis import given, settings

import repro
from repro import obs
from repro.core.explain import explain_report
from repro.core.hb1 import HappensBefore1
from repro.core.partitions import partition_races
from repro.core.provenance import ProvenanceError, explain_races
from repro.core.races import HALVES, FrontierSweep, find_races
from repro.machine.models import ALL_MODEL_NAMES, make_model
from repro.machine.simulator import run_program
from repro.trace.build import build_trace
from repro.programs import (
    buggy_workqueue_program,
    figure1a_program,
    figure1b_program,
    iriw_program,
    lock_shadow_program,
    locked_counter_program,
    producer_consumer_program,
    racy_counter_program,
    run_figure2,
    single_race_program,
)
from repro.programs.kernels import (
    cas_counter_program,
    cas_slot_allocator_program,
    fanin_barrier_program,
    independent_work_program,
    region_then_lock_program,
)
from repro.programs.litmus import (
    locked_mutual_exclusion_program,
    peterson_program,
    store_buffering_program,
)
from repro.programs.random_programs import (
    random_drf_program,
    random_racy_program,
)
from tests.core.test_hb1_cycles import (
    _cyclic_trace,
    definition_2_4_races,
    reordered_traces,
)
from tests.properties.test_prop_traces import traces

DETECTORS = ("postmortem", "shb", "wcp")

CORPUS = [
    figure1a_program,
    figure1b_program,
    racy_counter_program,
    locked_counter_program,
    lock_shadow_program,
    producer_consumer_program,
    independent_work_program,
    single_race_program,
    cas_counter_program,
    cas_slot_allocator_program,
    region_then_lock_program,
    fanin_barrier_program,
    buggy_workqueue_program,
    store_buffering_program,
    locked_mutual_exclusion_program,
    peterson_program,
    iriw_program,
]


def _built(report) -> bool:
    return report.__dict__.get("_analysis") is not None


def _eager(report):
    """The same report with its analysis built before any read."""
    return dataclasses.replace(report, analysis=partition_races(
        report.trace, report.hb, report.observed_races))


def _outputs(report):
    """Everything a consumer reads, in the order the CLI reads it."""
    out = {
        "format": report.format(),
        "to_json": report.to_json(),
        "races": list(report.races),
        "data_races": report.data_races,
        "first_partitions": [
            (p.component_index, sorted(p.events), p.races)
            for p in report.first_partitions
        ],
        "certified": report.certified_race_count,
        "to_dot": report.to_dot(),
    }
    if not report.race_free:
        out["explain"] = explain_report(report)
        try:
            out["provenance"] = explain_races(report).to_json()
        except ProvenanceError as exc:  # WCP reports predicted races
            out["provenance"] = str(exc)
    return out


def _assert_lazy_equals_eager(execution):
    for name in DETECTORS:
        lazy = repro.detect(execution, detector=name)
        assert _built(lazy) == (not lazy.race_free), name
        if lazy.race_free:
            lazy.format(), lazy.certified_race_count
            assert not _built(lazy), f"{name}: a verdict read built G'"
        eager = _eager(lazy)
        assert _outputs(lazy) == _outputs(eager), name
        # A restored report derives its partitions the same way (its
        # text differs only in location labels: symbols are not saved).
        payload = eager.to_json()
        assert repro.report_from_json(payload).to_json() == payload, name


@pytest.mark.parametrize("model", ALL_MODEL_NAMES)
@pytest.mark.parametrize("build", CORPUS, ids=lambda p: p.__name__)
def test_corpus_lazy_equals_eager(build, model):
    _assert_lazy_equals_eager(run_program(build(), make_model(model), seed=3))


@pytest.mark.parametrize("model", ALL_MODEL_NAMES)
def test_figure2_lazy_equals_eager(model):
    _assert_lazy_equals_eager(run_figure2(make_model(model)))


@pytest.mark.parametrize("model", ALL_MODEL_NAMES)
@pytest.mark.parametrize("generate", [random_racy_program, random_drf_program],
                         ids=lambda g: g.__name__)
def test_random_programs_lazy_equals_eager(generate, model):
    for seed in range(6):
        _assert_lazy_equals_eager(
            run_program(generate(seed), make_model(model), seed=seed))


def _partition_paths(profiler):
    return [rec["path"] for rec in profiler.to_records()
            if rec["name"] == "races.partition"]


@pytest.mark.parametrize("detector", DETECTORS)
def test_race_free_report_partitions_on_first_read(detector):
    execution = run_program(locked_counter_program(), make_model("WO"),
                            seed=1)
    profiler = obs.Profiler()
    with profiler.activate():
        report = repro.detect(execution, detector=detector)
        assert report.race_free
        report.format(), report.certified_race_count
        assert _partition_paths(profiler) == []
        report.analysis
        report.first_partitions, report.to_json()
        assert _partition_paths(profiler) == ["races.partition"]


@pytest.mark.parametrize("detector", DETECTORS)
def test_racy_report_partitions_inside_its_detector_span(detector):
    execution = run_program(racy_counter_program(), make_model("WO"),
                            seed=1)
    profiler = obs.Profiler()
    report = repro.detect(execution, detector=detector, profile=profiler)
    assert not report.race_free
    report.format(), report.to_json()
    assert _partition_paths(profiler) == [
        f"detect/detect.{detector}/races.partition"]


# ----------------------------------------------------------------------
# the race sweep's two location halves
# ----------------------------------------------------------------------

def _sweep(trace, hb, half=None):
    """``find_races`` with the counters of its ``races.find`` spans."""
    profiler = obs.Profiler()
    with profiler.activate():
        races = find_races(trace, hb, half=half)
    counters = {}
    for rec in profiler.to_records():
        if rec["name"] != "races.find":
            continue  # the pairing and clock sweep of a relation
        for name, value in rec["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return races, counters


def _reference_sweep(trace, hb):
    """The full frontier sweep as it ran before the split: the frontier
    bound recomputed at every join.  Returns (races, pairs tested)."""
    sweep = FrontierSweep(trace.processor_count)
    for eid, clock in hb.clocks():
        prev = sweep.clock[eid.proc]
        sweep.clock[eid.proc] = clock
        if any(prev[q] != clock[q] for q in range(len(clock))
               if q != eid.proc):
            sweep.recompute_min()
        is_comp, reads, writes = trace.accesses(eid)
        sweep.access(eid.proc, eid.pos, is_comp, reads, writes, clock)
    return sweep.finish(), sweep.tested


def _assert_halves_partition_the_sweep(trace):
    hb = HappensBefore1(trace)
    reference = _reference_sweep(trace, hb)
    for relation in (hb, None):
        full, counters = _sweep(trace, relation)
        assert (full, counters["pairs_tested"]) == reference
        data, data_counters = _sweep(trace, relation, "data")
        sync, sync_counters = _sweep(trace, relation, "sync")
        assert not {r.events for r in data} & {r.events for r in sync}
        assert list(heapq.merge(data, sync, key=lambda r: r.events)) == full
        assert not any(race.is_data_race for race in sync)
        assert [r for r in full if r.is_data_race] == \
            [r for r in data if r.is_data_race]
        for name in ("pairs_tested", "pairs_reported", "data_races"):
            assert counters[name] == \
                data_counters[name] + sync_counters[name], name


def _eagerly_swept(report):
    """The same report with every race swept in one full sweep and
    passed in, as the detectors built reports before the split."""
    races = find_races(report.trace, report.hb)
    if report.kind == "wcp":
        races = sorted(races + report.predicted_races,
                       key=lambda r: r.events)
    return dataclasses.replace(report, races=races, data_half=None,
                               analysis=None)


def _assert_split_equals_eager(execution):
    for name in DETECTORS:
        report = repro.detect(execution, detector=name)
        swept = report.__dict__.get("_races") is not None
        # only a race-free post-mortem report defers its sync half
        assert swept == (name != "postmortem" or not report.race_free), name
        eager = _eagerly_swept(report)
        assert report.race_free == eager.race_free, name
        assert _outputs(report) == _outputs(eager), name


@pytest.mark.parametrize("model", ALL_MODEL_NAMES)
@pytest.mark.parametrize("build", CORPUS, ids=lambda p: p.__name__)
def test_corpus_halves_partition_the_sweep(build, model):
    execution = run_program(build(), make_model(model), seed=3)
    _assert_halves_partition_the_sweep(build_trace(execution))
    _assert_split_equals_eager(execution)


@pytest.mark.parametrize("model", ALL_MODEL_NAMES)
def test_figure2_halves_partition_the_sweep(model):
    execution = run_figure2(make_model(model))
    _assert_halves_partition_the_sweep(build_trace(execution))
    _assert_split_equals_eager(execution)


@pytest.mark.parametrize("model", ALL_MODEL_NAMES)
@pytest.mark.parametrize("generate", [random_racy_program, random_drf_program],
                         ids=lambda g: g.__name__)
def test_random_programs_halves_partition_the_sweep(generate, model):
    for seed in range(6):
        execution = run_program(generate(seed), make_model(model), seed=seed)
        _assert_halves_partition_the_sweep(build_trace(execution))
        _assert_split_equals_eager(execution)


@given(traces(mixed=True))
@settings(max_examples=150, deadline=None)
def test_synthetic_halves_partition_the_sweep(trace):
    """Arbitrary traces, including locations with both sync and data
    accesses (the simulated corpus has none)."""
    _assert_halves_partition_the_sweep(trace)
    report = repro.detect(trace)
    assert _outputs(report) == _outputs(_eagerly_swept(report))


def test_cyclic_trace_splits_on_the_closure_backend():
    """A cyclic hb1 is clocked over its SCC condensation; its halves
    and report are checked against Definition 2.4 with closure
    queries."""
    trace = _cyclic_trace()
    _assert_halves_partition_the_sweep(trace)
    report = repro.detect(trace)
    assert report.hb.cyclic
    assert report.races == definition_2_4_races(trace, report.hb)
    assert _outputs(report) == _outputs(_eagerly_swept(report))


@given(reordered_traces())
@settings(max_examples=150, deadline=None)
def test_reordered_halves_partition_the_sweep(trace):
    """Shuffled sync orders, often a cyclic hb1, split the same way."""
    _assert_halves_partition_the_sweep(trace)
    report = repro.detect(trace)
    assert _outputs(report) == _outputs(_eagerly_swept(report))


@pytest.mark.parametrize("build", CORPUS, ids=lambda p: p.__name__)
def test_closure_fallback_report_equals_eager(build):
    """A post-mortem report built eagerly from Definition 2.4's races
    (one closure query per conflicting pair) gives every output of the
    split report."""
    execution = run_program(build(), make_model("TSO"), seed=3)
    report = repro.detect(execution)
    oracle = dataclasses.replace(
        report, races=definition_2_4_races(report.trace, report.hb),
        data_half=None, analysis=None)
    assert _outputs(report) == _outputs(oracle)


@pytest.mark.parametrize("model", ("WO", "TSO"))
def test_columnar_trace_splits_like_its_object_trace(model, tmp_path):
    trace = build_trace(run_program(buggy_workqueue_program(),
                                    make_model(model), seed=2))
    path = tmp_path / "trace.wrct"
    repro.save_trace(trace, str(path), format="columnar")
    columnar = repro.load_trace(str(path))
    assert columnar.data_locations() == trace.data_locations()
    for half in (None,) + HALVES:
        assert find_races(columnar, HappensBefore1(columnar), half) == \
            find_races(trace, HappensBefore1(trace), half)
    report = repro.detect(str(path))
    assert _outputs(report) == _outputs(_eagerly_swept(report))


def test_unknown_half_is_rejected():
    trace = build_trace(run_program(figure1a_program(), make_model("WO")))
    with pytest.raises(ValueError, match="location half"):
        find_races(trace, half="both")


def _sweep_paths(profiler):
    return [rec["path"] for rec in profiler.to_records()
            if rec["name"] == "races.find"]


def test_race_free_report_sweeps_sync_half_on_first_read():
    execution = run_program(producer_consumer_program(), make_model("TSO"),
                            seed=1)
    profiler = obs.Profiler()
    with profiler.activate():
        report = repro.detect(execution)
        assert report.race_free
        report.format(), report.certified_race_count, report.data_races
        assert report.first_partitions == []
        assert _sweep_paths(profiler) == ["detect.postmortem/races.find"]
        assert report.races  # the sync races, swept now
        assert _sweep_paths(profiler) == [
            "detect.postmortem/races.find", "races.find"]
        report.races, report.to_json()
        assert len(_sweep_paths(profiler)) == 2


def test_racy_report_sweeps_both_halves_inside_its_detector_span():
    execution = run_program(racy_counter_program(), make_model("WO"),
                            seed=1)
    profiler = obs.Profiler()
    report = repro.detect(execution, profile=profiler)
    assert not report.race_free
    report.format(), report.races, report.to_json()
    assert _sweep_paths(profiler) == [
        "detect/detect.postmortem/races.find"] * 2


@pytest.mark.parametrize("detector", DETECTORS + ("naive",))
def test_clock_sweep_is_never_race_sweep_time(detector):
    """Each relation is clocked once, under its own ``hb1.vc_sweep``,
    which closes before any ``races.find`` opens, so the two spans'
    times never overlap."""
    execution = run_program(lock_shadow_program(), make_model("WO"), seed=0)
    profiler = obs.Profiler()
    report = repro.detect(execution, detector=detector, profile=profiler)
    report.races, report.to_json()
    paths = [rec["path"] for rec in profiler.to_records()
             if rec["name"] == "hb1.vc_sweep"]
    relations = {"shb": 2, "wcp": 2}.get(detector, 1)
    assert len(paths) == relations, paths
    assert not any("races.find" in path for path in paths), paths
