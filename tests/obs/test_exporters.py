"""Prometheus exposition tests: golden rendering (TYPE/HELP lines,
label escaping, cumulative histogram buckets with +Inf), the vendored
strict parser as referee (render → parse round-trip), and the parser's
rejection cases — each golden expectation is validated against the
parser, never just eyeballed."""

import math

import pytest

from repro.obs.prometheus import (
    ExpositionError,
    main,
    parse_exposition,
    render_prometheus,
    render_records,
)
from repro.obs.metrics import MetricsRegistry


def _hunt_registry():
    reg = MetricsRegistry()
    reg.counter(
        "hunt_tries_total", "settled tries",
        labels=("policy", "status"),
    ).inc(3, policy="ring", status="racy")
    reg.counter(
        "hunt_tries_total", labels=("policy", "status"),
    ).inc(policy="stubborn", status="clean")
    reg.gauge("hunt_done", "completed jobs").set(4)
    reg.histogram(
        "hunt_job_duration_seconds", "per-job wall time",
        buckets=(0.01, 0.1, 1.0),
    ).observe(0.05)
    reg.histogram("hunt_job_duration_seconds").observe(7.0)
    reg.timeseries("hunt_throughput", "jobs/sec").record(1.0, 80.0)
    reg.timeseries("hunt_throughput").record(2.0, 120.0)
    return reg


# ----------------------------------------------------------------------
# golden rendering
# ----------------------------------------------------------------------

def test_render_counter_gauge_golden():
    text = render_prometheus(_hunt_registry())
    assert "# HELP hunt_tries_total settled tries" in text
    assert "# TYPE hunt_tries_total counter" in text
    assert 'hunt_tries_total{policy="ring",status="racy"} 3' in text
    assert 'hunt_tries_total{policy="stubborn",status="clean"} 1' in text
    assert "# TYPE hunt_done gauge" in text
    assert "hunt_done 4" in text
    # a timeseries exports as a gauge carrying the latest sample
    assert "# TYPE hunt_throughput gauge" in text
    assert "hunt_throughput 120" in text
    assert text.endswith("\n")


def test_render_histogram_cumulative_with_inf():
    text = render_prometheus(_hunt_registry())
    lines = text.splitlines()
    assert "# TYPE hunt_job_duration_seconds histogram" in lines
    # internal storage is per-bucket; exposition must be cumulative
    assert 'hunt_job_duration_seconds_bucket{le="0.01"} 0' in lines
    assert 'hunt_job_duration_seconds_bucket{le="0.1"} 1' in lines
    assert 'hunt_job_duration_seconds_bucket{le="1"} 1' in lines
    assert 'hunt_job_duration_seconds_bucket{le="+Inf"} 2' in lines
    assert "hunt_job_duration_seconds_count 2" in lines
    assert any(
        line.startswith("hunt_job_duration_seconds_sum ") for line in lines
    )


def test_render_escapes_label_values():
    reg = MetricsRegistry()
    reg.counter("errs", 'messages with "quotes"\nand newlines',
                labels=("msg",)).inc(msg='say "hi"\nback\\slash')
    text = render_prometheus(reg)
    assert '# HELP errs messages with "quotes"\\nand newlines' in text
    assert 'errs{msg="say \\"hi\\"\\nback\\\\slash"} 1' in text
    # the parser recovers the original value exactly
    families = parse_exposition(text)
    (sample,) = families["errs"].samples
    assert sample.labels["msg"] == 'say "hi"\nback\\slash'


def test_render_golden_validates_against_parser():
    families = parse_exposition(render_prometheus(_hunt_registry()))
    assert families["hunt_tries_total"].type == "counter"
    assert families["hunt_done"].type == "gauge"
    assert families["hunt_job_duration_seconds"].type == "histogram"
    tries = {
        (s.labels["policy"], s.labels["status"]): s.value
        for s in families["hunt_tries_total"].samples
    }
    assert tries == {("ring", "racy"): 3.0, ("stubborn", "clean"): 1.0}
    buckets = {
        s.labels["le"]: s.value
        for s in families["hunt_job_duration_seconds"].samples
        if s.name.endswith("_bucket")
    }
    assert buckets["+Inf"] == 2.0


def test_render_empty_registry_is_empty_exposition():
    assert render_prometheus(MetricsRegistry()) == ""
    assert parse_exposition("") == {}


def test_render_rejects_duplicate_family_and_bad_names():
    record = {"t": "metric", "kind": "counter", "name": "x",
              "labels": [], "series": []}
    with pytest.raises(ExpositionError, match="duplicate"):
        render_records([record, dict(record)])
    with pytest.raises(ExpositionError, match="invalid metric name"):
        render_records([dict(record, name="bad-name")])
    with pytest.raises(ExpositionError, match="reserved"):
        render_records([dict(record, labels=["le"])])
    with pytest.raises(ExpositionError, match="unexportable"):
        render_records([dict(record, kind="sparkline")])


def test_render_skips_foreign_records():
    assert render_records([{"t": "span", "name": "not-a-metric"}]) == ""


# ----------------------------------------------------------------------
# parser rejections
# ----------------------------------------------------------------------

@pytest.mark.parametrize("text,fragment", [
    ("x{-} 1\n", "malformed label block"),
    ('x{a="unterminated} 1\n', "unterminated label value"),
    ('x{a="v",a="w"} 1\n', "duplicate label"),
    ('x{a="bad\\q"} 1\n', "invalid escape"),
    ("x 1\nx 2\n", "duplicate sample"),
    ("# TYPE x counter\n# TYPE x counter\nx 1\n", "duplicate TYPE"),
    ("x 1\n# TYPE x counter\n", "after its samples"),
    ("# TYPE x flywheel\n", "unknown metric type"),
    ("# TYPE 9bad counter\n", "invalid TYPE metric name"),
    ("just words\n", "unparseable sample"),
    ("x notanumber\n", "unparseable sample value"),
    ('x{__name__="y"} 1\n', "reserved label name"),
])
def test_parse_rejects_spec_violations(text, fragment):
    with pytest.raises(ExpositionError, match=fragment):
        parse_exposition(text)


def test_parse_rejects_histogram_invariant_violations():
    missing_inf = (
        "# TYPE h histogram\n"
        'h_bucket{le="1"} 2\n'
        "h_count 2\n"
    )
    with pytest.raises(ExpositionError, match="no '\\+Inf' bucket"):
        parse_exposition(missing_inf)
    non_cumulative = (
        "# TYPE h histogram\n"
        'h_bucket{le="1"} 5\n'
        'h_bucket{le="2"} 3\n'
        'h_bucket{le="+Inf"} 5\n'
    )
    with pytest.raises(ExpositionError, match="non-cumulative"):
        parse_exposition(non_cumulative)
    inf_count_mismatch = (
        "# TYPE h histogram\n"
        'h_bucket{le="+Inf"} 5\n'
        "h_count 6\n"
    )
    with pytest.raises(ExpositionError, match="!= _count"):
        parse_exposition(inf_count_mismatch)
    missing_le = (
        "# TYPE h histogram\n"
        'h_bucket{x="1"} 5\n'
    )
    with pytest.raises(ExpositionError, match="without 'le'"):
        parse_exposition(missing_le)


def test_parse_accepts_timestamps_comments_and_inf_values():
    text = (
        "# a free comment\n"
        "# TYPE x gauge\n"
        "x 1.5 1700000000000\n"
        "y +Inf\n"
        "z NaN\n"
    )
    families = parse_exposition(text)
    assert families["x"].samples[0].value == 1.5
    assert families["y"].samples[0].value == math.inf
    assert math.isnan(families["z"].samples[0].value)


# ----------------------------------------------------------------------
# command-line validator (what CI runs on the scraped payload)
# ----------------------------------------------------------------------

def test_main_validates_files(tmp_path, capsys):
    good = tmp_path / "good.prom"
    good.write_text(render_prometheus(_hunt_registry()), encoding="utf-8")
    assert main([str(good)]) == 0
    out = capsys.readouterr().out
    assert "ok (" in out and "families" in out

    bad = tmp_path / "bad.prom"
    bad.write_text("x{-} 1\n", encoding="utf-8")
    assert main([str(bad)]) == 1
    assert "malformed exposition" in capsys.readouterr().err

    assert main([]) == 2
    assert main([str(tmp_path / "missing.prom")]) == 1
