"""Naive baseline detector tests."""

from repro import detect, obs
from repro.core.detector import PostMortemDetector
from repro.machine.models import make_model
from repro.machine.simulator import run_program
from repro.programs.kernels import locked_counter_program


def test_reports_everything_figure2(figure2_result):
    naive = detect(figure2_result, detector="naive")
    ours = PostMortemDetector().analyze_execution(figure2_result)
    # The naive report includes the non-SC region race that the
    # first-partition method suppresses.
    assert len(naive.data_races) == len(ours.data_races)
    assert len(naive.data_races) > len(ours.reported_races)


def test_same_race_universe(figure2_result):
    naive = detect(figure2_result, detector="naive")
    ours = PostMortemDetector().analyze_execution(figure2_result)
    assert {(r.a, r.b) for r in naive.races} == {(r.a, r.b) for r in ours.races}


def test_clean_program_clean_report():
    result = run_program(locked_counter_program(2, 2), make_model("WO"), seed=0)
    naive = detect(result, detector="naive")
    assert naive.data_races == []
    assert "0 data race(s)" in naive.format()


def test_format_lists_races(figure2_result):
    text = detect(figure2_result, detector="naive").format()
    assert "data race" in text
    assert "Naive" in text


def test_naive_analysis_builds_no_closure(figure2_result, event_closures):
    """The naive report is the frontier sweep's race set, read off hb1's
    clocks; nothing builds a transitive closure of the event graph."""
    profiler = obs.Profiler()
    naive = detect(figure2_result, detector="naive", profile=profiler)
    assert naive.data_races
    names = [rec["name"] for rec in profiler.to_records()]
    assert "races.find" in names
    assert "hb1.vc_sweep" in names
    assert event_closures == []
