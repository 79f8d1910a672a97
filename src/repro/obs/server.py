"""repro.obs.server — a live telemetry endpoint for running hunts.

``weakraces hunt --serve HOST:PORT`` starts a :class:`TelemetryServer`
— a stdlib :class:`~http.server.ThreadingHTTPServer` on a daemon
thread — in the *parent* process.  The hunt's parent-side
:class:`~repro.obs.metrics.HuntMetrics` fold is the single metrics
producer, so serving adds zero per-try work on the worker side; the
only cross-thread coordination is the registry's reentrant
:meth:`~repro.obs.metrics.MetricsRegistry.hold` lock, taken briefly per
folded record and per scrape.

Three endpoints:

``/metrics``
    Prometheus text exposition 0.0.4 (see :mod:`repro.obs.prometheus`),
    content type ``text/plain; version=0.0.4``.
``/status``
    The hunt's :class:`~repro.obs.top.TopSnapshot` as JSON
    (:meth:`~repro.obs.top.TopSnapshot.to_json`; schema in
    ``docs/detection_pipeline.md``).
``/healthz``
    ``200 ok`` while the server thread is up — a liveness probe.

Port ``0`` binds an ephemeral port; the chosen one is in
:attr:`TelemetryServer.port` / :attr:`TelemetryServer.url` (the CLI
prints the URL to stderr so scripts can scrape it).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from . import metrics as _metrics
from .prometheus import render_prometheus
from .top import TopSnapshot

__all__ = [
    "TelemetryServer",
    "parse_serve_address",
]


def parse_serve_address(text: str) -> Tuple[str, int]:
    """``"HOST:PORT"`` → ``(host, port)``; port 0 means "pick one"."""
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"--serve expects HOST:PORT (e.g. 127.0.0.1:9099), got {text!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"--serve port must be an integer, got {port_text!r}")
    if not 0 <= port <= 65535:
        raise ValueError(f"--serve port out of range: {port}")
    return host, port


class TelemetryServer:
    """Serve a registry (and static hunt info) over HTTP.

    Lifecycle::

        server = TelemetryServer(registry, info={"hunt_id": hunt_id, ...})
        url = server.start()        # binds, spawns the daemon thread
        ...                         # hunt runs; scrapers GET url/metrics
        server.stop()               # shuts the listener down

    The handler never touches hunt state directly — only the registry
    (under its :meth:`~repro.obs.metrics.MetricsRegistry.hold` lock)
    and the immutable *info* dict — so a slow or hostile scraper cannot
    perturb the hunt beyond brief lock holds.
    """

    def __init__(self, registry: _metrics.MetricsRegistry,
                 info: Optional[Dict[str, object]] = None,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.registry = registry
        self.info: Dict[str, object] = dict(info or {})
        self.host = host
        self.port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------
    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> str:
        """Bind, start serving on a daemon thread, return the URL."""
        server = self

        class Handler(BaseHTTPRequestHandler):
            # silence the default stderr access log
            def log_message(self, format: str, *args) -> None:  # noqa: A002
                pass

            def do_GET(self) -> None:
                try:
                    server._handle(self)
                except (BrokenPipeError, ConnectionResetError):
                    pass  # scraper went away mid-response

        self._httpd = ThreadingHTTPServer((self.host, self.port), Handler)
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-telemetry",
            daemon=True,
        )
        self._thread.start()
        return self.url

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    # -- request handling ----------------------------------------------
    def _handle(self, request: BaseHTTPRequestHandler) -> None:
        path = request.path.split("?", 1)[0]
        if path == "/healthz":
            body = b"ok\n"
            content_type = "text/plain; charset=utf-8"
        elif path == "/metrics":
            with self.registry.hold():
                _metrics.count_scrape(self.registry, "metrics")
                body = render_prometheus(self.registry).encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        elif path == "/status":
            with self.registry.hold():
                _metrics.count_scrape(self.registry, "status")
                status = TopSnapshot.from_registry(self.registry, self.info)
            body = (json.dumps(status.to_json(), sort_keys=True)
                    + "\n").encode("utf-8")
            content_type = "application/json"
        else:
            body = b"not found\n"
            request.send_response(404)
            request.send_header("Content-Type", "text/plain; charset=utf-8")
            request.send_header("Content-Length", str(len(body)))
            request.end_headers()
            request.wfile.write(body)
            return
        request.send_response(200)
        request.send_header("Content-Type", content_type)
        request.send_header("Content-Length", str(len(body)))
        request.end_headers()
        request.wfile.write(body)
