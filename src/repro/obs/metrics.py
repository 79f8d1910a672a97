"""repro.obs.metrics — a typed metrics registry for long-running work.

The span profiler (:mod:`repro.obs.profiler`) answers "where did the
time go" for one bounded run; this module answers "what is happening
right now, and at what rate" for work that keeps going — the ROADMAP's
production-scale hunts.  Four instrument types, all label-aware:

* :class:`Counter` — monotonically increasing totals
  (``hunt_tries_total{policy="ring", status="racy"}``);
* :class:`Gauge` — a value that goes up and down (``hunt_done``);
* :class:`Histogram` — observations bucketed by fixed upper bounds,
  with running count/sum (``hunt_job_duration_seconds``);
* :class:`TimeSeries` — a bounded ring buffer of ``(t, value)`` points
  for rate curves (``hunt_throughput``); old points fall off the front.

A :class:`MetricsRegistry` owns instruments by name.  Instruments are
get-or-create (:meth:`MetricsRegistry.counter` etc. return the existing
instrument when the name is already registered, and raise on a
type/label mismatch), so call sites never coordinate creation.

Like the profiler, collection is opt-in: the hunt engine folds
per-outcome metrics into a registry only when one is active (one
module-attribute check per *hunt*, not per job), so the disabled-mode
overhead budget of ``benchmarks/bench_profiling.py`` is unaffected.

The hunt metric family is declared once, in :data:`HUNT_FAMILY` at the
foot of this module — every hunt metric name lives here alone, and
``docs/detection_pipeline.md`` ("Observability") tabulates it.
:class:`HuntMetrics` folds try records (:func:`repro.obs.events.try_record`,
the event-log schema) into it, in the parent, one outcome at a time,
whatever the executor — so totals cannot depend on the worker count;
:meth:`repro.obs.top.TopSnapshot.from_registry` is its one reader.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "TimeSeries",
    "MetricsRegistry",
    "active",
    "collect",
    "enabled",
    "DEFAULT_BUCKETS",
    "HUNT_FAMILY",
    "HuntMetrics",
    "count_scrape",
    "hunt_family",
]

#: Default histogram bucket upper bounds (seconds-flavoured, like the
#: hunt's job durations); the implicit +inf bucket is always present.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
)

LabelValues = Tuple[str, ...]


class MetricError(ValueError):
    """Instrument misuse: wrong labels, or a name re-registered with a
    different type or label set."""


class _Instrument:
    """Shared label plumbing for all instrument types."""

    kind = "instrument"

    def __init__(self, name: str, help: str, labels: Sequence[str]) -> None:
        self.name = name
        self.help = help
        self.labels: Tuple[str, ...] = tuple(labels)

    def _key(self, label_kwargs: Dict[str, str]) -> LabelValues:
        if set(label_kwargs) != set(self.labels):
            raise MetricError(
                f"{self.kind} {self.name!r} takes labels "
                f"{list(self.labels)}, got {sorted(label_kwargs)}"
            )
        return tuple(str(label_kwargs[label]) for label in self.labels)

    def _label_dict(self, key: LabelValues) -> Dict[str, str]:
        return dict(zip(self.labels, key))


class Counter(_Instrument):
    """A monotonically increasing total, per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 labels: Sequence[str] = ()) -> None:
        super().__init__(name, help, labels)
        self._values: Dict[LabelValues, float] = {}

    def inc(self, n: float = 1, **labels: str) -> None:
        if n < 0:
            raise MetricError(
                f"counter {self.name!r} cannot decrease (inc({n}))"
            )
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0) + n

    def value(self, **labels: str) -> float:
        return self._values.get(self._key(labels), 0)

    def total(self) -> float:
        """Sum over every label set."""
        return sum(self._values.values())

    def series(self) -> List[dict]:
        return [
            {"labels": self._label_dict(key), "value": value}
            for key, value in sorted(self._values.items())
        ]


class Gauge(_Instrument):
    """A value that goes up and down, per label set."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 labels: Sequence[str] = ()) -> None:
        super().__init__(name, help, labels)
        self._values: Dict[LabelValues, float] = {}

    def set(self, value: float, **labels: str) -> None:
        self._values[self._key(labels)] = value

    def add(self, n: float = 1, **labels: str) -> None:
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0) + n

    def value(self, **labels: str) -> Optional[float]:
        return self._values.get(self._key(labels))

    def series(self) -> List[dict]:
        return [
            {"labels": self._label_dict(key), "value": value}
            for key, value in sorted(self._values.items())
        ]


class Histogram(_Instrument):
    """Observations bucketed by fixed upper bounds, with count and sum.

    Bucket counts are non-cumulative per bucket; quantile estimates
    interpolate within the bucket containing the target rank.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labels: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help, labels)
        bounds = tuple(sorted(buckets))
        if not bounds:
            raise MetricError(f"histogram {self.name!r} needs >=1 bucket")
        self.bounds = bounds
        # per label set: [per-bucket counts..., +inf count], count, sum
        self._data: Dict[LabelValues, Tuple[List[int], int, float]] = {}

    def _cell(self, key: LabelValues) -> Tuple[List[int], int, float]:
        cell = self._data.get(key)
        if cell is None:
            cell = ([0] * (len(self.bounds) + 1), 0, 0.0)
            self._data[key] = cell
        return cell

    def observe(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        counts, count, total = self._cell(key)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
        self._data[key] = (counts, count + 1, total + value)

    def count(self, **labels: str) -> int:
        cell = self._data.get(self._key(labels))
        return cell[1] if cell else 0

    def sum(self, **labels: str) -> float:
        cell = self._data.get(self._key(labels))
        return cell[2] if cell else 0.0

    def mean(self, **labels: str) -> Optional[float]:
        cell = self._data.get(self._key(labels))
        if not cell or cell[1] == 0:
            return None
        return cell[2] / cell[1]

    def buckets(self, **labels: str) -> List[int]:
        """Per-bucket (non-cumulative) counts, the +inf bucket last."""
        cell = self._data.get(self._key(labels))
        return list(cell[0]) if cell else [0] * (len(self.bounds) + 1)

    def quantile(self, q: float, **labels: str) -> Optional[float]:
        """Estimate the *q*-quantile (0..1) from the bucket counts.

        Ranks are assumed uniform within the bucket holding the target
        rank, so the estimate interpolates linearly between the
        bucket's bounds (the lowest bucket interpolates up from 0),
        like Prometheus's ``histogram_quantile``.  Error bound: the
        true quantile lies in the same bucket ``(lo, hi]``, so the
        estimate is off by at most the bucket width ``hi - lo`` — and
        is exact when observations really are uniform in the bucket.
        Ranks landing in the implicit +inf bucket clamp to the largest
        finite bound, which can under-estimate without bound; size the
        top bucket above the expected maximum.
        """
        if not 0.0 <= q <= 1.0:
            raise MetricError(
                f"histogram {self.name!r}: quantile {q} not in [0, 1]"
            )
        cell = self._data.get(self._key(labels))
        if not cell or cell[1] == 0:
            return None
        counts, count, _ = cell
        target = q * count
        lo = 0.0
        seen = 0
        for i, bound in enumerate(self.bounds):
            below = seen
            seen += counts[i]
            if seen >= target:
                if counts[i] == 0:
                    return bound
                frac = (target - below) / counts[i]
                return lo + (bound - lo) * min(max(frac, 0.0), 1.0)
            lo = bound
        return self.bounds[-1]

    def series(self) -> List[dict]:
        return [
            {
                "labels": self._label_dict(key),
                "buckets": list(counts),
                "count": count,
                "sum": total,
            }
            for key, (counts, count, total) in sorted(self._data.items())
        ]


class TimeSeries(_Instrument):
    """A bounded ring buffer of ``(t, value)`` samples, per label set.

    ``capacity`` bounds memory for arbitrarily long runs; recording the
    ``capacity + 1``-th point drops the oldest.
    """

    kind = "timeseries"

    def __init__(self, name: str, help: str = "",
                 labels: Sequence[str] = (), capacity: int = 256) -> None:
        super().__init__(name, help, labels)
        if capacity < 1:
            raise MetricError(f"timeseries {self.name!r} capacity must be >=1")
        self.capacity = capacity
        self._points: Dict[LabelValues, List[Tuple[float, float]]] = {}

    def record(self, t: float, value: float, **labels: str) -> None:
        points = self._points.setdefault(self._key(labels), [])
        points.append((t, value))
        if len(points) > self.capacity:
            del points[: len(points) - self.capacity]

    def points(self, **labels: str) -> List[Tuple[float, float]]:
        return list(self._points.get(self._key(labels), ()))

    def latest(self, **labels: str) -> Optional[Tuple[float, float]]:
        points = self._points.get(self._key(labels))
        return points[-1] if points else None

    def series(self) -> List[dict]:
        return [
            {
                "labels": self._label_dict(key),
                "points": [[t, v] for t, v in points],
            }
            for key, points in sorted(self._points.items())
        ]



class MetricsRegistry:
    """Instruments by name, with get-or-create accessors.

    Instruments themselves are not thread-safe; single-threaded folds
    (the hunt's parent-side ``observe`` callback) need no locking.  When
    another thread *reads* the registry concurrently — the telemetry
    server rendering ``/metrics`` while a hunt folds outcomes — both
    sides bracket their access with :meth:`hold`::

        with registry.hold():
            text = render_prometheus(registry)

    The lock is reentrant, so a writer already holding it can call
    helpers that take it again.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, _Instrument] = {}
        self._lock = threading.RLock()

    def hold(self) -> "threading.RLock":
        """Reentrant lock serialising cross-thread registry access."""
        return self._lock

    # -- get-or-create -------------------------------------------------
    def _get(self, cls, name: str, help: str,
             labels: Sequence[str], **extra) -> _Instrument:
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise MetricError(
                    f"{name!r} is registered as a {existing.kind}, "
                    f"not a {cls.kind}"
                )
            if existing.labels != tuple(labels):
                raise MetricError(
                    f"{existing.kind} {name!r} is registered with labels "
                    f"{list(existing.labels)}, not {list(labels)}"
                )
            return existing
        instrument = cls(name, help=help, labels=labels, **extra)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get(Histogram, name, help, labels, buckets=buckets)

    def timeseries(self, name: str, help: str = "",
                   labels: Sequence[str] = (),
                   capacity: int = 256) -> TimeSeries:
        return self._get(TimeSeries, name, help, labels, capacity=capacity)

    def get(self, name: str) -> Optional[_Instrument]:
        """The instrument registered under *name*, if any (no create)."""
        return self._instruments.get(name)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    # -- export --------------------------------------------------------
    def to_records(self) -> List[dict]:
        """One plain dict per instrument — picklable, JSONable; what
        Prometheus rendering reads."""
        records = []
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            record = {
                "t": "metric",
                "kind": instrument.kind,
                "name": name,
                "help": instrument.help,
                "labels": list(instrument.labels),
                "series": instrument.series(),
            }
            if isinstance(instrument, Histogram):
                record["bounds"] = list(instrument.bounds)
            if isinstance(instrument, TimeSeries):
                record["capacity"] = instrument.capacity
            records.append(record)
        return records


# ----------------------------------------------------------------------
# module-level active registry (mirrors the profiler's activation slot)
# ----------------------------------------------------------------------

_ACTIVE: Optional[MetricsRegistry] = None


def active() -> Optional[MetricsRegistry]:
    """The registry currently collecting in this process, if any."""
    return _ACTIVE


def enabled() -> bool:
    """True when a registry is collecting in this process."""
    return _ACTIVE is not None


class _Collection:
    """Sets/restores the module-level active registry."""

    __slots__ = ("_registry", "_previous")

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        self._previous: Optional[MetricsRegistry] = None

    def __enter__(self) -> MetricsRegistry:
        global _ACTIVE
        self._previous = _ACTIVE
        _ACTIVE = self._registry
        return self._registry

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _ACTIVE
        _ACTIVE = self._previous
        return False


def collect(registry: Optional[MetricsRegistry] = None) -> _Collection:
    """Context manager: make *registry* (or a fresh one) the active
    collection target::

        with metrics.collect() as reg:
            hunt_races(...)
        print(reg.counter("hunt_tries_total",
                          labels=("policy", "status", "detector")).total())
    """
    return _Collection(registry if registry is not None else MetricsRegistry())


# ----------------------------------------------------------------------
# the hunt family and its fold
# ----------------------------------------------------------------------

#: The hunt metric family, each instrument declared once: (fold
#: attribute, kind, name, help, labels).
HUNT_FAMILY = (
    ("tries", "counter", "hunt_tries_total",
     "hunt jobs by policy, outcome, and detector",
     ("policy", "status", "detector")),
    ("cache_hits", "counter", "hunt_trace_cache_hits_total",
     "analyses served from the trace cache", ()),
    ("certified", "counter", "hunt_certified_races_total",
     "certified races on racy hunt tries", ("detector",)),
    ("failures", "counter", "hunt_failures_total",
     "settled job failures by retry classification", ("kind",)),
    ("robust", "counter", "hunt_robust_tries_total",
     "robustness verdicts on verified hunt tries", ("model", "verdict")),
    ("duration", "histogram", "hunt_job_duration_seconds",
     "per-job wall time", ()),
    ("done", "gauge", "hunt_done", "completed jobs", ()),
    ("total", "gauge", "hunt_total", "planned jobs", ()),
    ("racy", "gauge", "hunt_racy", "racy runs so far", ()),
    ("elapsed", "gauge", "hunt_elapsed_seconds",
     "wall time since the hunt began", ()),
    ("throughput", "timeseries", "hunt_throughput",
     "(elapsed, jobs/sec) samples", ()),
    ("fingerprints", "gauge", "hunt_coverage_fingerprints",
     "distinct trace fingerprints seen this hunt", ()),
    ("partitions", "gauge", "hunt_coverage_provenance_partitions",
     "distinct first-race provenance partition signatures", ()),
    ("coverage", "timeseries", "hunt_coverage",
     "(elapsed, distinct count) growth curve", ("kind",)),
    ("info", "gauge", "hunt_info",
     "constant 1; labels join scrapes to events/checkpoints/results",
     ("hunt_id", "detector", "model")),
)


def hunt_family(registry: MetricsRegistry) -> Dict[str, Optional[_Instrument]]:
    """The family's instruments on *registry* by fold attribute, without
    creating any (``None`` where absent)."""
    return {attr: registry.get(name) for attr, _, name, _, _ in HUNT_FAMILY}


def count_scrape(registry: MetricsRegistry, endpoint: str) -> None:
    """Count one telemetry-server request for *endpoint*."""
    registry.counter(
        "hunt_scrapes_total",
        "Telemetry-server requests served, by endpoint.",
        labels=("endpoint",),
    ).inc(endpoint=endpoint)


class HuntMetrics:
    """The hunt family on one registry, and the fold of try records into
    it: ``done`` counts every resolved job (skipped ones included,
    superseded retry attempts not), ``racy`` every racy one, and skipped
    jobs add no duration sample.

    Construction registers the whole family, so a scrape racing the
    first record still sees every family; given a *hunt_id*,
    ``hunt_info`` joins the scrape to the hunt's other surfaces.  The
    coverage sets (fingerprints and provenance partitions of racy and
    clean tries) live here; the registry only sees their sizes.
    """

    def __init__(self, registry: MetricsRegistry, *, total: int = 0,
                 model: str = "", detector: str = "",
                 hunt_id: Optional[str] = None) -> None:
        self.registry = registry
        self.model = model
        self.detector = detector
        self.seen_fingerprints: set = set()
        self.seen_partitions: set = set()
        with registry.hold():  # uncontended unless a server shares it
            for attr, kind, name, help_text, labels in HUNT_FAMILY:
                setattr(self, attr, getattr(registry, kind)(
                    name, help_text, labels=labels))
            for gauge in (self.done, self.racy, self.elapsed,
                          self.fingerprints, self.partitions):
                gauge.set(0)
            self.total.set(total)
            if hunt_id is not None:
                self.info.set(1, hunt_id=hunt_id, detector=detector,
                              model=model)

    def fold(self, record: dict, elapsed: float = 0.0) -> None:
        """Fold one try record; *elapsed* (seconds since the hunt began,
        0 when replaying a log) drives the rate and growth curves."""
        status = record["status"]
        detector = record.get("detector") or self.detector
        with self.registry.hold():
            self.tries.inc(policy=record["policy"], status=status,
                           detector=detector)
            if status != "skipped":
                self.duration.observe(record["duration_sec"])
            if record["cache_hit"]:
                self.cache_hits.inc()
            if status == "error":
                self.failures.inc(
                    kind=record.get("failure_kind") or "unretried")
            elif status == "racy" and record.get("certified"):
                self.certified.inc(record["certified"], detector=detector)
            robust = record.get("robust")
            if robust is not None:
                self.robust.inc(model=self.model,
                                verdict="robust" if robust else "non-robust")
            if status != "retried":
                self.done.add()
            if status == "racy":
                self.racy.add()
            self.elapsed.set(elapsed)
            if elapsed > 0:
                self.throughput.record(elapsed, self.done.value() / elapsed)
            if status in ("racy", "clean"):
                self._cover(record, elapsed)

    def _cover(self, record: dict, elapsed: float) -> None:
        fingerprint = record.get("fingerprint")
        for seen, gauge, kind, keys in (
            (self.seen_fingerprints, self.fingerprints, "fingerprints",
             (fingerprint,) if fingerprint else ()),
            (self.seen_partitions, self.partitions, "partitions",
             record.get("partitions") or ()),
        ):
            fresh = set(keys) - seen
            if fresh:
                seen |= fresh
                gauge.set(len(seen))
                if elapsed > 0:
                    self.coverage.record(elapsed, len(seen), kind=kind)
