"""Detector pipeline and report tests."""

import pytest

from repro import detect
from repro.core.detector import PostMortemDetector
from repro.machine.models import make_model
from repro.machine.simulator import run_program
from repro.programs.figure1 import figure1a_program, figure1b_program
from repro.programs.kernels import locked_counter_program
from repro.trace.build import build_trace


def test_detect_accepts_trace_and_result(fig1a_sc_result):
    r1 = detect(fig1a_sc_result)
    r2 = detect(build_trace(fig1a_sc_result))
    assert len(r1.races) == len(r2.races)


def test_detect_rejects_other_types():
    with pytest.raises(TypeError):
        detect(42)


def test_race_free_report(detector):
    result = run_program(locked_counter_program(2, 2), make_model("WO"), seed=1)
    report = detector.analyze_execution(result)
    assert report.race_free
    assert report.execution_was_sequentially_consistent
    assert report.first_partitions == []
    assert report.reported_races == []
    text = report.format()
    assert "No data races detected" in text
    assert "sequentially consistent" in text


def test_racy_report_structure(figure2_report):
    assert not figure2_report.race_free
    assert len(figure2_report.first_partitions) == 1
    assert len(figure2_report.reported_races) == 1
    assert len(figure2_report.suppressed_races) == 1
    assert len(figure2_report.data_races) == 2


def test_report_format_sections(figure2_report):
    text = figure2_report.format()
    assert "First partition" in text
    assert "suppressed" in text
    assert "Q" in text and "QEmpty" in text


def test_report_counts_consistent(figure2_report):
    assert (
        len(figure2_report.reported_races)
        + len(figure2_report.suppressed_races)
        == len(figure2_report.data_races)
    )


def test_sync_races_separated(detector):
    # Two concurrent Unsets: a race, but not a data race.
    from repro.machine.program import ProgramBuilder
    b = ProgramBuilder()
    s = b.var("s")
    with b.thread() as t:
        t.unset(s)
    with b.thread() as t:
        t.unset(s)
    result = run_program(b.build(), make_model("SC"), seed=0)
    report = detector.analyze_execution(result)
    assert report.race_free            # no *data* races
    assert len(report.sync_races) == 1


def test_dot_output(figure2_report):
    dot = figure2_report.to_dot()
    assert dot.startswith("digraph")
    assert "dashed" in dot        # race edges
    assert "dir=" in dot or 'dir="both"' in dot
    assert "partition" in dot     # cluster labels
    assert "first" in dot


def test_dot_without_partitions(figure2_report):
    dot = figure2_report.to_dot(include_partitions=False)
    assert "cluster" not in dot


def test_figure1a_reported_under_every_model(detector):
    for model in ("SC", "WO", "RCsc", "DRF0", "DRF1"):
        result = run_program(figure1a_program(), make_model(model), seed=0)
        report = detector.analyze_execution(result)
        assert not report.race_free, model
        assert len(report.first_partitions) == 1, model


def test_figure1b_clean_under_every_model(detector):
    for model in ("SC", "WO", "RCsc", "DRF0", "DRF1"):
        for seed in range(3):
            result = run_program(figure1b_program(), make_model(model), seed=seed)
            report = detector.analyze_execution(result)
            assert report.race_free, (model, seed)
