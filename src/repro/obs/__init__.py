"""repro.obs — pipeline observability: spans, metrics, events, profiles.

Two complementary layers:

* the span profiler (:mod:`repro.obs.profiler` + :mod:`repro.obs.export`)
  answers "where did the time go" for one bounded run;
* the telemetry layer answers "what is happening right now" for
  long-running hunts.  One outcome stream feeds one snapshot model:
  :mod:`repro.obs.events` builds each try record (and writes the
  structured JSONL event log); :mod:`repro.obs.metrics` holds the
  typed registry, the hunt metric family and the fold of try records
  into it; :mod:`repro.obs.top` turns a registry, a ``/status``
  payload or a replayed event log into one ``TopSnapshot``, which the
  dashboard, the :mod:`repro.obs.live` status line, ``weakraces
  events`` and the :mod:`repro.obs.server` HTTP endpoint all render.
  :mod:`repro.obs.prometheus` is the Prometheus text exposition (and
  its strict parser); :mod:`repro.obs.export` is the profile JSONL
  schema.

The hot path calls :func:`span`/:func:`count` (near-zero-cost no-ops
until a :class:`Profiler` is activated); CLI/API entry points activate
a profiler/registry and export JSONL.  See
``docs/detection_pipeline.md`` ("Observability") for span/metric names
and the file schemas.
"""

from .._lazy import lazy_exports

# prometheus, server and top are not exported: each is also an entry
# point or pulls in machinery the hot path never needs; import them as
# submodules (``from repro.obs import server``) on demand.
__all__ = lazy_exports(globals(), {
    ".": "events live metrics",
    "profiler": "NULL_SPAN AggregateRecord Profiler Span SpanRecord active "
                "aggregate_records count enabled merge_aggregate_maps span",
    "export": "PROFILE_FORMAT read_profile check_profile validate_profile "
              "write_profile",
})
