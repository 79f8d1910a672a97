"""G' on demand: a report's partition analysis is built on first read.

A racy report builds G' inside its detector's span, since every reader
of a racy report reads its first partitions; a race-free report builds
it only when something asks, because its verdict, ``format()`` and
``certified_race_count`` never read it (Theorem 4.1).  Either way every
output must equal that of a report whose analysis was built eagerly.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro
from repro import obs
from repro.core.explain import explain_report
from repro.core.partitions import partition_races
from repro.core.provenance import ProvenanceError, explain_races
from repro.machine.models import ALL_MODEL_NAMES, make_model
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
    run_figure2,
    single_race_program,
)
from repro.programs.kernels import (
    cas_counter_program,
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
