"""The unified entry point ``repro.detect`` and the shared report
protocol (``to_json``/``from_json`` on every detector's report)."""

from __future__ import annotations

import json

import pytest

import repro
from repro import obs
from repro.analysis.naive import NaiveReport
from repro.core.onthefly import OnTheFlyReport
from repro.core.report import RaceReport
from repro.machine.models import make_model
from repro.machine.simulator import run_program
from repro.programs import racy_counter_program
from repro.trace.build import build_trace
from repro.trace.tracefile import write_trace


@pytest.fixture(scope="module")
def racy_result():
    return run_program(
        racy_counter_program(), make_model("WO"), seed=3
    )


@pytest.fixture(scope="module")
def racy_trace(racy_result):
    return build_trace(racy_result)


class TestDispatch:
    def test_execution_result_source(self, racy_result):
        report = repro.detect(racy_result)
        assert isinstance(report, RaceReport)
        assert not report.race_free

    def test_trace_source(self, racy_trace):
        report = repro.detect(racy_trace)
        assert isinstance(report, RaceReport)
        assert not report.race_free

    def test_path_sources(self, racy_trace, tmp_path):
        path = tmp_path / "racy.trace"
        write_trace(racy_trace, path)
        by_str = repro.detect(str(path))
        by_pathlike = repro.detect(path)
        assert len(by_str.data_races) == len(by_pathlike.data_races) \
            == len(repro.detect(racy_trace).data_races)

    def test_naive_detector(self, racy_trace):
        report = repro.detect(racy_trace, detector="naive")
        assert isinstance(report, NaiveReport)
        assert report.data_races

    def test_onthefly_detector(self, racy_result):
        report = repro.detect(racy_result, detector="onthefly")
        assert isinstance(report, OnTheFlyReport)
        assert report.races

    def test_onthefly_rejects_trace(self, racy_trace):
        with pytest.raises(TypeError, match="ExecutionResult"):
            repro.detect(racy_trace, detector="onthefly")

    def test_unknown_detector(self, racy_trace):
        with pytest.raises(ValueError, match="unknown detector"):
            repro.detect(racy_trace, detector="psychic")

    def test_unknown_source_type(self):
        with pytest.raises(TypeError, match="expected Trace"):
            repro.detect(42)

    def test_all_reports_share_the_protocol(self, racy_result):
        for detector in repro.DETECTOR_NAMES:
            report = repro.detect(racy_result, detector=detector)
            assert isinstance(report.format(), str)
            assert report.to_json()["kind"] == detector
            assert report.race_free is False


class TestReportRoundTrip:
    def _roundtrip(self, report):
        payload = json.loads(json.dumps(report.to_json()))
        return repro.report_from_json(payload)

    def test_postmortem_roundtrip(self, racy_result):
        report = repro.detect(racy_result)
        restored = self._roundtrip(report)
        assert isinstance(restored, RaceReport)
        assert restored.race_free == report.race_free
        assert [(r.a, r.b, r.locations) for r in restored.races] == \
            [(r.a, r.b, r.locations) for r in report.races]
        assert [p.is_first for p in restored.analysis.partitions] == \
            [p.is_first for p in report.analysis.partitions]
        assert restored.to_json() == report.to_json()

    def test_naive_roundtrip(self, racy_trace):
        report = repro.detect(racy_trace, detector="naive")
        restored = self._roundtrip(report)
        assert isinstance(restored, NaiveReport)
        assert restored.to_json() == report.to_json()

    def test_onthefly_roundtrip(self, racy_result):
        report = repro.detect(racy_result, detector="onthefly")
        restored = self._roundtrip(report)
        assert isinstance(restored, OnTheFlyReport)
        assert restored.to_json() == report.to_json()

    def test_from_json_rejects_wrong_kind(self, racy_trace):
        payload = repro.detect(racy_trace, detector="naive").to_json()
        with pytest.raises(ValueError, match="naive"):
            RaceReport.from_json(payload)
        payload["kind"] = "psychic"
        with pytest.raises(ValueError, match="unknown report kind"):
            repro.report_from_json(payload)


class TestProfileThreading:
    def test_profiler_records_pipeline_spans(self, racy_result):
        profiler = obs.Profiler()
        report = repro.detect(racy_result, profile=profiler)
        assert not report.race_free
        paths = {rec["path"] for rec in profiler.to_records()}
        assert "detect" in paths
        assert "detect/trace.build" in paths
        assert "detect/detect.postmortem/hb1.build" in paths
        assert "detect/detect.postmortem/races.find" in paths
        assert "detect/detect.postmortem/races.partition" in paths

    def test_profile_path_writes_jsonl(self, racy_result, tmp_path):
        path = tmp_path / "detect.jsonl"
        repro.detect(racy_result, detector="naive", profile=path)
        assert obs.validate_profile(path) == []
        doc = obs.read_profile(path)
        assert doc["meta"]["detector"] == "naive"
        assert any(
            rec["path"] == "detect/detect.naive" for rec in doc["spans"]
        )

    def test_profile_rejects_other_types(self, racy_trace):
        with pytest.raises(TypeError, match="profile"):
            repro.detect(racy_trace, profile=7)

    def test_disabled_by_default(self, racy_result):
        assert obs.active() is None
        repro.detect(racy_result)
        assert obs.active() is None
