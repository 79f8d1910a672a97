"""repro.obs.top — the hunt view-model and its terminal dashboard.

:class:`TopSnapshot` is the one view of a hunt's counts.  ``/status``
(:meth:`~TopSnapshot.to_json`), ``weakraces top`` (:func:`render_top`),
the ``hunt`` status line (:mod:`repro.obs.live`) and ``weakraces
events`` (:func:`render_summary`, :meth:`~TopSnapshot.breakdown`) all
render it, and its three sources all read one fold,
:class:`repro.obs.metrics.HuntMetrics`: a live registry
(:meth:`~TopSnapshot.from_registry`), a ``/status`` payload
(:meth:`~TopSnapshot.from_json` — ``top --attach`` makes one request
per frame), or an event log replayed through a fresh fold
(:meth:`~TopSnapshot.from_events`).

``done`` (progress) counts every resolved job, skipped ones included;
the racy share and the per-policy and per-detector cells cover only
the jobs that ran; duration quantiles and buckets come from the one
job-duration histogram.  :func:`run_top` is the curses-free repaint
loop, with ``--once`` for scripts.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from . import events as _events
from . import metrics as _metrics

__all__ = [
    "TopError",
    "TopSnapshot",
    "snapshot_from_http",
    "snapshot_from_events",
    "sparkline",
    "render_summary",
    "render_top",
    "run_top",
]

#: sparkline glyphs, lowest to highest
_SPARKS = "▁▂▃▄▅▆▇█"

#: try statuses that reached no verdict: early-stop skips, superseded retries
_UNRAN = ("skipped", "retried")


#: TopSnapshot field -> its dotted key path in the ``/status`` payload
_STATUS_KEYS = {
    "hunt_id": "hunt_id", "info": "hunt", "done": "seeds.settled",
    "total": "seeds.total", "racy": "racy", "elapsed_sec": "elapsed_sec",
    "throughput": "throughput_per_sec", "tries_by_status": "tries_by_status",
    "per_policy": "per_policy", "per_detector": "per_detector",
    "failures_by_kind": "failures_by_kind",
    "robust_by_verdict": "robustness_by_verdict", "cache_hits": "cache.hits",
    "coverage_fingerprints": "coverage.fingerprints",
    "coverage_partitions": "coverage.provenance_partitions",
    "duration_quantiles": "job_duration_sec",
    "duration_buckets": "job_duration_buckets",
}


class TopError(RuntimeError):
    """The dashboard could not fetch or parse its data source."""


@dataclass
class TopSnapshot:
    """One hunt's counts, whatever the source."""

    source: str = ""                  # "http://...", an events path, ...
    hunt_id: Optional[str] = None
    info: Dict[str, object] = field(default_factory=dict)
    done: int = 0
    total: int = 0
    racy: int = 0
    elapsed_sec: float = 0.0
    throughput: Optional[float] = None
    #: every try status, skipped and retried included
    tries_by_status: Dict[str, float] = field(default_factory=dict)
    #: {policy: {"tries", "racy"}} over jobs that ran
    per_policy: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: {detector: {"tries", "racy", "certified"}} over jobs that ran
    per_detector: Dict[str, Dict[str, float]] = field(default_factory=dict)
    failures_by_kind: Dict[str, float] = field(default_factory=dict)
    #: robustness verdict counts ({"robust": n, "non-robust": m});
    #: empty when the hunt did not verify robustness
    robust_by_verdict: Dict[str, float] = field(default_factory=dict)
    cache_hits: float = 0
    coverage_fingerprints: int = 0
    coverage_partitions: int = 0
    duration_quantiles: Optional[Dict[str, float]] = None
    # (upper_bound_label, count) per bucket, non-cumulative, +Inf last
    duration_buckets: List[Tuple[str, float]] = field(default_factory=list)
    finished: bool = False

    @property
    def ran(self) -> int:
        """Resolved jobs that ran to a verdict (``done`` minus skipped)."""
        return self.done - int(self.tries_by_status.get("skipped", 0))

    @property
    def ran_by_status(self) -> Dict[str, float]:
        return {status: count for status, count in self.tries_by_status.items()
                if status not in _UNRAN}

    # -- constructors --------------------------------------------------
    @classmethod
    def from_registry(cls, registry: _metrics.MetricsRegistry,
                      info: Optional[Dict[str, object]] = None,
                      source: str = "") -> "TopSnapshot":
        """The snapshot of a registry holding the hunt family, plus the
        static *info* (hunt_id, workload, ...); callers sharing the
        registry with a writer thread hold ``registry.hold()``."""
        info = dict(info or {})
        family = _metrics.hunt_family(registry)

        def gauge(attr: str) -> float:
            instrument = family[attr]
            return (instrument.value() or 0) if instrument is not None else 0

        def by_label(attr: str, label: str) -> Dict[str, float]:
            out: Dict[str, float] = {}
            instrument = family[attr]
            for entry in instrument.series() if instrument else ():
                key = entry["labels"][label]
                out[key] = out.get(key, 0) + entry["value"]
            return out

        snap = cls(
            source=source,
            hunt_id=info.get("hunt_id"),  # type: ignore[arg-type]
            info=info,
            done=int(gauge("done")),
            total=int(gauge("total") or info.get("tries") or 0),
            racy=int(gauge("racy")),
            elapsed_sec=float(gauge("elapsed")),
            failures_by_kind=by_label("failures", "kind"),
            robust_by_verdict=by_label("robust", "verdict"),
            coverage_fingerprints=int(gauge("fingerprints")),
            coverage_partitions=int(gauge("partitions")),
        )
        if family["cache_hits"] is not None:
            snap.cache_hits = family["cache_hits"].total()
        if family["throughput"] is not None:
            latest = family["throughput"].latest()
            if latest is not None:
                snap.throughput = latest[1]
        for entry in family["tries"].series() if family["tries"] else ():
            labels, count = entry["labels"], entry["value"]
            status = labels["status"]
            snap.tries_by_status[status] = \
                snap.tries_by_status.get(status, 0) + count
            if status in _UNRAN:
                continue
            for cells, key in ((snap.per_policy, labels["policy"]),
                               (snap.per_detector, labels["detector"])):
                if key:
                    cell = cells.setdefault(key, {"tries": 0, "racy": 0})
                    cell["tries"] += count
                    cell["racy"] += count if status == "racy" else 0
        certified = by_label("certified", "detector")
        for detector, cell in snap.per_detector.items():
            cell["certified"] = certified.get(detector, 0)
        duration = family["duration"]
        if duration is not None:
            bounds = [str(bound) for bound in duration.bounds] + ["+Inf"]
            snap.duration_buckets = list(zip(bounds, duration.buckets()))
            if duration.count() > 0:
                snap.duration_quantiles = {
                    "p50": duration.quantile(0.5),
                    "p90": duration.quantile(0.9),
                    "p99": duration.quantile(0.99),
                    "mean": duration.mean(),
                    "count": duration.count(),
                }
        return snap

    @classmethod
    def from_json(cls, status: dict, source: str = "") -> "TopSnapshot":
        """Invert :meth:`to_json` (a ``GET /status`` body)."""
        snap = cls(source=source)
        for name, path in _STATUS_KEYS.items():
            value = status
            for key in path.split("."):
                value = (value or {}).get(key)
            if value is not None:
                setattr(snap, name, value)
        snap.duration_buckets = [tuple(b) for b in snap.duration_buckets]
        return snap

    @classmethod
    def from_events(cls, loaded: Dict[str, object],
                    source: str = "") -> "TopSnapshot":
        """Replay a loaded event log (:func:`repro.obs.events.read_events`)
        through a fresh fold.  A try's detector resolves from its own
        record, falling back to the meta record's; logs with neither
        leave ``per_detector`` empty.  Records marked ``restored`` (a
        resumed hunt's restored jobs) fold like any other, as on the
        live registry."""
        meta: dict = loaded.get("meta") or {}  # type: ignore[assignment]
        planned = meta.get("tries")
        registry = _metrics.MetricsRegistry()
        fold = _metrics.HuntMetrics(
            registry, total=planned if isinstance(planned, int) else 0,
            model=str(meta.get("model") or ""),
            detector=str(meta.get("detector") or ""))
        for record in loaded.get("tries") or []:  # type: ignore
            fold.fold(record)
        info = {key: meta[key] for key in
                ("hunt_id", "workload", "model", "detector", "jobs",
                 "policies") if key in meta}
        snap = cls.from_registry(registry, info, source=source)
        if not isinstance(planned, int):
            snap.total = snap.ran
        summary = loaded.get("summary")
        if isinstance(summary, dict):
            snap.finished = True
            snap.elapsed_sec = float(summary.get("elapsed_sec") or 0.0)
            if snap.elapsed_sec > 0:
                snap.throughput = snap.done / snap.elapsed_sec
        return snap

    # -- JSON views ----------------------------------------------------
    def to_json(self) -> dict:
        """The ``/status`` payload: every field at its
        :data:`_STATUS_KEYS` path, plus the derived keys."""
        status: dict = {
            "t": "hunt_status",
            "seeds": {"remaining": max(0, self.total - self.done)},
            "cache": {"hit_rate": (self.cache_hits / self.done
                                   if self.done else None)},
            "tries_by_policy": {key: cell["tries"]
                                for key, cell in self.per_policy.items()},
            "tries_by_detector": {key: cell["tries"]
                                  for key, cell in self.per_detector.items()},
        }
        for name, path in _STATUS_KEYS.items():
            *parents, leaf = path.split(".")
            node = status
            for key in parents:
                node = node.setdefault(key, {})
            node[leaf] = getattr(self, name)
        return status

    def breakdown(self) -> dict:
        """The ``breakdown`` object of ``weakraces events --json``."""
        return {
            "tries": self.ran,
            "skipped": int(self.tries_by_status.get("skipped", 0)),
            "retried": int(self.tries_by_status.get("retried", 0)),
            "by_status": self.ran_by_status,
            "per_policy": self.per_policy,
            "per_detector": self.per_detector,
            "failures_by_kind": self.failures_by_kind,
            "cache_hits": self.cache_hits,
        }


# ----------------------------------------------------------------------
# sources
# ----------------------------------------------------------------------

def snapshot_from_http(base_url: str,
                       timeout: float = 5.0) -> TopSnapshot:
    """One frame from a live telemetry server (one ``GET /status``).
    Raises :class:`TopError` on connection or parse failures."""
    # lazy: every hunt's status line imports this module; only --attach fetches
    import urllib.error
    import urllib.request
    base = base_url.rstrip("/")
    if not base.startswith("http"):
        base = "http://" + base
    url = base + "/status"
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            body = response.read()
    except (urllib.error.URLError, OSError, ValueError) as exc:
        raise TopError(f"cannot fetch {url}: {exc}") from None
    try:
        return TopSnapshot.from_json(json.loads(body), source=base)
    except ValueError as exc:
        raise TopError(f"{url}: invalid JSON: {exc}") from None


def snapshot_from_events(path: str) -> TopSnapshot:
    """One frame from a ``hunt --events`` JSONL log (the tolerant
    reader skips a torn final line)."""
    if not os.path.exists(path):
        raise TopError(f"cannot read {path}: no such file")
    try:
        loaded = _events.read_events(path)
    except OSError as exc:
        raise TopError(f"cannot read {path}: {exc}") from None
    return TopSnapshot.from_events(loaded, source=str(path))


# ----------------------------------------------------------------------
# render layer (pure)
# ----------------------------------------------------------------------

def sparkline(counts: Sequence[float]) -> str:
    """Counts → one glyph per bucket (▁..█), linear in the max."""
    if not counts:
        return ""
    peak = max(counts)
    if peak <= 0:
        return _SPARKS[0] * len(counts)
    out = []
    for count in counts:
        index = 0 if count <= 0 else 1 + int(
            (count / peak) * (len(_SPARKS) - 2) + 0.5)
        out.append(_SPARKS[min(index, len(_SPARKS) - 1)])
    return "".join(out)


def _bar(fraction: float, width: int = 28) -> str:
    filled = int(max(0.0, min(1.0, fraction)) * width + 0.5)
    return "#" * filled + "-" * (width - filled)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _counts(counts: Dict[str, float]) -> str:
    """``"2 clean, 1 racy"`` — one ``count key`` per entry, sorted."""
    return ", ".join(f"{int(n)} {key}" for key, n in sorted(counts.items()))


def _rates(cells: Dict[str, Dict[str, float]], indent: str) -> List[str]:
    """``name: racy/tries racy[, n certified race(s)]`` per cell."""
    return [
        f"{indent}{name}: {int(cell['racy'])}/{int(cell['tries'])} racy"
        + (f", {int(cell['certified'])} certified race(s)"
           if "certified" in cell else "")
        for name, cell in sorted(cells.items())
    ]


def _quantiles(snap: TopSnapshot) -> str:
    quant = snap.duration_quantiles or {}
    return " ".join(f"{name}={quant[name] * 1000:.2f}ms"
                    for name in ("p50", "p90", "p99") if name in quant)


def render_top(snap: TopSnapshot) -> str:
    """The dashboard frame for *snap* (no I/O, no ANSI — the repaint
    loop adds cursor control)."""
    title = " ".join(str(snap.info[key]) for key in
                     ("workload", "model", "detector")
                     if snap.info.get(key)) or "hunt"
    fraction = _share(snap.done, snap.total)
    rate = (f"{snap.throughput:.1f}/s"
            if snap.throughput is not None else "-")
    lines = [
        f"weakraces top — {title}"
        + (f"  [hunt {snap.hunt_id}]" if snap.hunt_id else ""),
        f"source: {snap.source}" + ("  (finished)" if snap.finished else ""),
        f"progress [{_bar(fraction)}] {snap.done}/{snap.total} "
        f"({fraction:.0%})  rate {rate}  elapsed {snap.elapsed_sec:.1f}s",
        f"racy {snap.racy} ({_share(snap.racy, snap.ran):.0%})  "
        f"tries: {_counts(snap.tries_by_status) or 'none'}",
    ]
    if snap.robust_by_verdict:
        verified = sum(snap.robust_by_verdict.values())
        non_robust = snap.robust_by_verdict.get("non-robust", 0)
        verdict = "SOUNDNESS DEGRADED" if non_robust else "sc-justified"
        lines.append(
            f"robustness: "
            f"{int(snap.robust_by_verdict.get('robust', 0))} robust, "
            f"{int(non_robust)} non-robust of {int(verified)} verified "
            f"({verdict})"
        )
    lines.append(
        f"cache {int(snap.cache_hits)} hits "
        f"({_share(snap.cache_hits, snap.ran):.0%})  "
        f"coverage: {snap.coverage_fingerprints} fingerprint(s), "
        f"{snap.coverage_partitions} provenance partition(s)"
    )
    if snap.duration_buckets:
        counts = [count for _, count in snap.duration_buckets]
        lines.append(f"job duration {sparkline(counts)} "
                     f"(le {snap.duration_buckets[0][0]}s..+Inf)  "
                     f"{_quantiles(snap)}".rstrip())
    for header, cells in (("policies:", snap.per_policy),
                          ("detectors:", snap.per_detector)):
        if cells:
            lines += [header] + _rates(cells, "  ")
    if snap.failures_by_kind:
        lines.append(f"failures: {_counts(snap.failures_by_kind)}")
    return "\n".join(lines)


def render_summary(snap: TopSnapshot, loaded: Dict[str, object]) -> str:
    """The ``weakraces events`` text view: *snap*'s totals, per-policy
    and per-detector racy rates, cache hit rate and duration quantiles,
    plus the stage table and run totals of the *loaded* log."""
    meta = loaded.get("meta") or {}
    context = " ".join(f"{key}={meta[key]}"  # type: ignore[index]
                       for key in ("workload", "model", "jobs") if key in meta)
    skipped = int(snap.tries_by_status.get("skipped", 0))
    retried = int(snap.tries_by_status.get("retried", 0))
    lines = [
        f"hunt event log{': ' + context if context else ''}",
        f"  {snap.ran} tries ({_counts(snap.ran_by_status) or 'none'})"
        + (f", {skipped} skipped by early stop" if skipped else "")
        + (f", {retried} retried attempt(s)" if retried else ""),
    ]
    if snap.ran:
        lines.append(f"  trace cache: {int(snap.cache_hits)}/{snap.ran} hits "
                     f"({_share(snap.cache_hits, snap.ran):.0%})")
    if snap.duration_quantiles:
        lines.append(f"  job duration: {_quantiles(snap)}")
    lines += _rates(snap.per_policy, "  ")
    if snap.per_detector:
        lines += ["  detectors:"] + _rates(snap.per_detector, "    ")
    stages: List[dict] = loaded.get("stages") or []  # type: ignore[assignment]
    if stages:
        lines.append("  stages (aggregated across workers):")
        lines += [f"    {record['path']}: n={record['count']} "
                  f"total={record['total_sec'] * 1000:.2f}ms"
                  for record in stages]
    summary = loaded.get("summary")
    if isinstance(summary, dict) and "elapsed_sec" in summary:
        lines.append(
            f"  run total: {summary.get('tries')} tries in "
            f"{summary['elapsed_sec']}s "
            f"({summary.get('executions_per_sec', '?')} exec/s)"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# repaint loop
# ----------------------------------------------------------------------

def run_top(*, attach: Optional[str] = None,
            events_path: Optional[str] = None,
            interval: float = 1.0, once: bool = False,
            stream=None, clock=time.monotonic,
            sleep=time.sleep) -> int:
    """Drive the dashboard until interrupted.

    Exit status: 0 on a clean end (``--once``, Ctrl-C, or a live hunt
    that finished — the endpoint going away after at least one good
    frame), 2 when the source cannot be fetched or parsed at all.
    """
    import sys as _sys
    out = stream if stream is not None else _sys.stdout
    if (attach is None) == (events_path is None):
        print("top: exactly one of --attach or --events is required",
              file=_sys.stderr)
        return 2

    def take() -> TopSnapshot:
        if attach is not None:
            return snapshot_from_http(attach)
        return snapshot_from_events(events_path)

    painted_ok = False
    try:
        while True:
            try:
                snap = take()
            except TopError as exc:
                if painted_ok and attach is not None:
                    # the hunt (and its server) ended between polls
                    out.write("\nhunt finished (telemetry endpoint gone)\n")
                    out.flush()
                    return 0
                print(f"top: {exc}", file=_sys.stderr)
                return 2
            frame = render_top(snap)
            if once:
                out.write(frame + "\n")
                out.flush()
                return 0
            # home the cursor and clear to end-of-screen: flicker-free
            # repaint without curses
            out.write("\x1b[H\x1b[2J" if not painted_ok else "\x1b[H")
            out.write(frame + "\n\x1b[J")
            out.flush()
            painted_ok = True
            if snap.finished:
                out.write("hunt finished\n")
                out.flush()
                return 0
            sleep(max(interval, 0.1))
    except KeyboardInterrupt:
        out.write("\n")
        out.flush()
        return 0
