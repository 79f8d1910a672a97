"""Metrics registry tests: instrument behavior, label discipline,
get-or-create semantics, the serialized records, and the module-level
activation slot."""

import pickle

import pytest

from repro.obs import metrics
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    TimeSeries,
)


# ----------------------------------------------------------------------
# counters
# ----------------------------------------------------------------------

def test_counter_accumulates_per_label_set():
    c = Counter("tries", labels=("policy", "status"))
    c.inc(policy="ring", status="racy")
    c.inc(2, policy="ring", status="racy")
    c.inc(policy="ring", status="clean")
    assert c.value(policy="ring", status="racy") == 3
    assert c.value(policy="ring", status="clean") == 1
    assert c.value(policy="lazy", status="racy") == 0
    assert c.total() == 4


def test_counter_rejects_decrease():
    c = Counter("tries")
    with pytest.raises(MetricError):
        c.inc(-1)


def test_counter_rejects_wrong_labels():
    c = Counter("tries", labels=("policy",))
    with pytest.raises(MetricError):
        c.inc()  # missing label
    with pytest.raises(MetricError):
        c.inc(policy="ring", status="racy")  # extra label
    with pytest.raises(MetricError):
        c.value(status="racy")  # wrong label name


def test_counter_series_is_sorted_and_labelled():
    c = Counter("tries", labels=("policy",))
    c.inc(policy="zeta")
    c.inc(3, policy="alpha")
    assert c.series() == [
        {"labels": {"policy": "alpha"}, "value": 3},
        {"labels": {"policy": "zeta"}, "value": 1},
    ]


# ----------------------------------------------------------------------
# gauges
# ----------------------------------------------------------------------

def test_gauge_set_add_value():
    g = Gauge("done")
    assert g.value() is None
    g.set(5)
    g.add(2)
    g.add(-3)
    assert g.value() == 4


# ----------------------------------------------------------------------
# histograms
# ----------------------------------------------------------------------

def test_histogram_buckets_count_sum_mean():
    h = Histogram("dur", buckets=(0.01, 0.1, 1.0))
    for value in (0.005, 0.05, 0.05, 0.5, 7.0):
        h.observe(value)
    assert h.count() == 5
    assert h.sum() == pytest.approx(7.605)
    assert h.mean() == pytest.approx(7.605 / 5)
    assert h.series()[0]["buckets"] == [1, 2, 1, 1]  # last = +inf


def test_histogram_quantile_interpolates_within_bucket():
    h = Histogram("dur", buckets=(0.01, 0.1, 1.0))
    for value in (0.005, 0.05, 0.05, 0.5):
        h.observe(value)
    # target rank 2 of 4 lands halfway into the (0.01, 0.1] bucket
    # (1 observation below it, 2 inside): 0.01 + 0.5 * (0.1 - 0.01)
    assert h.quantile(0.5) == pytest.approx(0.055)
    assert h.quantile(1.0) == pytest.approx(1.0)
    # estimate error is bounded by the bucket width: p50 differs from
    # the true quantile (0.05) by < 0.09
    assert abs(h.quantile(0.5) - 0.05) < 0.1 - 0.01
    # the +inf bucket answers with the largest finite bound
    h.observe(9.0)
    assert h.quantile(1.0) == 1.0
    # the lowest bucket interpolates up from zero
    low = Histogram("low", buckets=(0.01, 0.1))
    low.observe(0.004)
    low.observe(0.006)
    assert low.quantile(0.5) == pytest.approx(0.005)


def test_histogram_quantile_rejects_out_of_range():
    h = Histogram("dur", buckets=(0.01,))
    h.observe(0.005)
    with pytest.raises(MetricError):
        h.quantile(1.5)
    with pytest.raises(MetricError):
        h.quantile(-0.1)


def test_histogram_empty_quantile_and_mean():
    h = Histogram("dur")
    assert h.quantile(0.5) is None
    assert h.mean() is None
    assert h.count() == 0


def test_histogram_requires_buckets():
    with pytest.raises(MetricError):
        Histogram("dur", buckets=())


# ----------------------------------------------------------------------
# time series
# ----------------------------------------------------------------------

def test_timeseries_ring_buffer_drops_oldest():
    ts = TimeSeries("rate", capacity=3)
    for i in range(5):
        ts.record(float(i), float(i * 10))
    assert ts.points() == [(2.0, 20.0), (3.0, 30.0), (4.0, 40.0)]
    assert ts.latest() == (4.0, 40.0)


def test_timeseries_rejects_zero_capacity():
    with pytest.raises(MetricError):
        TimeSeries("rate", capacity=0)


# ----------------------------------------------------------------------
# registry: get-or-create and conflicts
# ----------------------------------------------------------------------

def test_registry_get_or_create_returns_same_instrument():
    reg = MetricsRegistry()
    a = reg.counter("tries", labels=("policy",))
    b = reg.counter("tries", labels=("policy",))
    assert a is b
    assert reg.get("tries") is a
    assert reg.get("missing") is None
    assert reg.names() == ["tries"]


def test_registry_rejects_type_conflict():
    reg = MetricsRegistry()
    reg.counter("tries")
    with pytest.raises(MetricError):
        reg.gauge("tries")


def test_registry_rejects_label_conflict():
    reg = MetricsRegistry()
    reg.counter("tries", labels=("policy",))
    with pytest.raises(MetricError):
        reg.counter("tries", labels=("policy", "status"))


# ----------------------------------------------------------------------
# records: what Prometheus rendering reads
# ----------------------------------------------------------------------

def _sample_registry(factor):
    reg = MetricsRegistry()
    reg.counter("tries", labels=("status",)).inc(2 * factor, status="racy")
    reg.gauge("done").set(10 * factor)
    h = reg.histogram("dur", buckets=(0.1, 1.0))
    h.observe(0.05 * factor)
    reg.timeseries("rate", capacity=4).record(float(factor), 100.0 * factor)
    return reg


def test_records_are_picklable_and_jsonable():
    import json

    records = _sample_registry(1).to_records()
    assert pickle.loads(pickle.dumps(records)) == records
    assert json.loads(json.dumps(records)) == records


# ----------------------------------------------------------------------
# module-level activation slot
# ----------------------------------------------------------------------

def test_collect_activates_and_restores():
    assert metrics.active() is None
    assert not metrics.enabled()
    with metrics.collect() as reg:
        assert metrics.active() is reg
        assert metrics.enabled()
        reg.counter("x").inc()
    assert metrics.active() is None
    assert reg.get("x").value() == 1


def test_collect_accepts_existing_registry_and_nests():
    outer = MetricsRegistry()
    inner = MetricsRegistry()
    with metrics.collect(outer):
        with metrics.collect(inner):
            assert metrics.active() is inner
        assert metrics.active() is outer
    assert metrics.active() is None
