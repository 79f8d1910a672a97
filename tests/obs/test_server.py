"""Telemetry-server tests: address parsing, ephemeral-port startup,
real HTTP scrapes of /metrics (validated by the strict exposition
parser), /status (hunt_id and snapshot schema), /healthz, 404s, and
the scrape counter — all against a server bound to 127.0.0.1:0."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs.prometheus import parse_exposition
from repro.obs.metrics import MetricsRegistry
from repro.obs.server import TelemetryServer, parse_serve_address
from repro.obs.top import TopSnapshot


@pytest.fixture
def served():
    registry = MetricsRegistry()
    registry.counter(
        "hunt_tries_total", "settled tries",
        labels=("policy", "status", "detector"),
    ).inc(2, policy="ring", status="racy", detector="postmortem")
    registry.gauge("hunt_done", "completed jobs").set(2)
    registry.gauge("hunt_total", "planned jobs").set(8)
    registry.gauge("hunt_racy", "racy runs").set(2)
    registry.gauge("hunt_coverage_fingerprints", "distinct traces").set(2)
    registry.gauge(
        "hunt_coverage_provenance_partitions", "distinct partitions").set(1)
    registry.histogram(
        "hunt_job_duration_seconds", "per-job wall time",
        buckets=(0.01, 0.1),
    ).observe(0.05)
    server = TelemetryServer(registry, info={
        "hunt_id": "cafe1234feed5678",
        "workload": "workqueue-buggy",
        "detector": "postmortem",
        "tries": 8,
    })
    url = server.start()
    try:
        yield server, registry, url
    finally:
        server.stop()


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, dict(response.headers), response.read()


# ----------------------------------------------------------------------
# address parsing
# ----------------------------------------------------------------------

def test_parse_serve_address():
    assert parse_serve_address("127.0.0.1:9099") == ("127.0.0.1", 9099)
    assert parse_serve_address("0.0.0.0:0") == ("0.0.0.0", 0)
    for bad in ("9099", ":9099", "host:", "host:abc", "host:70000"):
        with pytest.raises(ValueError):
            parse_serve_address(bad)


# ----------------------------------------------------------------------
# endpoints
# ----------------------------------------------------------------------

def test_ephemeral_port_resolved_on_start(served):
    server, _, url = served
    assert server.port != 0
    assert url == f"http://127.0.0.1:{server.port}"


def test_healthz(served):
    _, _, url = served
    status, _, body = _get(url + "/healthz")
    assert status == 200
    assert body == b"ok\n"


def test_metrics_endpoint_serves_valid_exposition(served):
    _, _, url = served
    status, headers, body = _get(url + "/metrics")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
    families = parse_exposition(body.decode("utf-8"))
    assert families["hunt_tries_total"].type == "counter"
    (sample,) = families["hunt_tries_total"].samples
    assert sample.labels == {
        "policy": "ring", "status": "racy", "detector": "postmortem",
    }
    assert sample.value == 2.0
    assert "hunt_job_duration_seconds" in families


def test_status_endpoint_carries_hunt_id_and_counters(served):
    _, _, url = served
    status, headers, body = _get(url + "/status")
    assert status == 200
    assert headers["Content-Type"] == "application/json"
    snapshot = json.loads(body)
    assert snapshot["t"] == "hunt_status"
    assert snapshot["hunt_id"] == "cafe1234feed5678"
    assert snapshot["hunt"]["workload"] == "workqueue-buggy"
    assert snapshot["seeds"] == {"settled": 2, "remaining": 6, "total": 8}
    assert snapshot["racy"] == 2
    assert snapshot["tries_by_policy"] == {"ring": 2}
    assert snapshot["tries_by_status"] == {"racy": 2}
    assert snapshot["tries_by_detector"] == {"postmortem": 2}
    assert snapshot["coverage"] == {
        "fingerprints": 2, "provenance_partitions": 1,
    }
    assert snapshot["job_duration_sec"]["count"] == 1


def test_unknown_path_is_404(served):
    _, _, url = served
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(url + "/nope")
    assert excinfo.value.code == 404


def test_scrapes_are_counted(served):
    _, registry, url = served
    _get(url + "/metrics")
    _get(url + "/metrics")
    _get(url + "/status")
    scrapes = registry.get("hunt_scrapes_total")
    # the first /metrics scrape counts itself before rendering
    assert scrapes.value(endpoint="metrics") == 2
    assert scrapes.value(endpoint="status") == 1


def test_stop_closes_the_listener(served):
    server, _, url = served
    server.stop()
    with pytest.raises((urllib.error.URLError, OSError)):
        urllib.request.urlopen(url + "/healthz", timeout=1)


# ----------------------------------------------------------------------
# /status snapshots of sparse registries
# ----------------------------------------------------------------------

def test_hunt_status_defaults_on_empty_registry():
    snapshot = TopSnapshot.from_registry(
        MetricsRegistry(), {"tries": 12}).to_json()
    assert snapshot["seeds"] == {"settled": 0, "remaining": 12, "total": 12}
    assert snapshot["throughput_per_sec"] is None
    assert snapshot["cache"]["hit_rate"] is None
    assert snapshot["job_duration_sec"] is None
    assert snapshot["hunt_id"] is None
