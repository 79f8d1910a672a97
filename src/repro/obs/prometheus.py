"""repro.obs.prometheus — Prometheus text exposition for the registry.

:func:`render_prometheus` turns a :class:`~repro.obs.metrics.MetricsRegistry`
(or its :meth:`~repro.obs.metrics.MetricsRegistry.to_records` payload) into
Prometheus text exposition format 0.0.4 — the format every scraper since
has accepted:

* one ``# HELP`` / ``# TYPE`` pair per family, samples after;
* label values escaped per spec (``\\`` → ``\\\\``, ``"`` → ``\\"``,
  newline → ``\\n``), HELP text escaped the same minus the quote;
* histograms rendered *cumulatively* with ``le`` bucket labels, a
  ``+Inf`` bucket equal to ``_count``, plus ``_sum`` and ``_count``
  series (internal storage is per-bucket, converted at render time);
* :class:`~repro.obs.metrics.TimeSeries` instruments export as a gauge
  carrying the latest sample (the ring buffer itself stays JSON-only).

:func:`parse_exposition` is the other half: a strict, vendored parser
used by the golden tests and the CI smoke job to prove the rendered
payload is well-formed *by construction checking, not by eyeballing* —
it validates names, label syntax, escape sequences, duplicate samples,
TYPE placement, and histogram invariants (cumulative buckets, ``+Inf``
present and equal to ``_count``).  ``python -m repro.obs.prometheus
FILE...`` runs it from the command line; CI curls ``/metrics`` from a
live hunt and feeds the payload through it.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from .metrics import MetricsRegistry

__all__ = [
    "ExpositionError",
    "MetricFamily",
    "Sample",
    "render_prometheus",
    "render_records",
    "parse_exposition",
    "main",
]

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: exposition kinds the parser accepts in ``# TYPE`` lines
_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


class ExpositionError(ValueError):
    """Malformed exposition text, or an unexportable registry."""


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(str(value))}"'
        for name, value in labels.items()
    )
    return "{" + inner + "}"


def _check_name(name: str) -> str:
    if not _METRIC_NAME_RE.match(name):
        raise ExpositionError(f"invalid metric name {name!r}")
    return name


def _check_labels(labels: Iterable[str]) -> None:
    for label in labels:
        if not _LABEL_NAME_RE.match(label) or label.startswith("__"):
            raise ExpositionError(f"invalid label name {label!r}")
        if label == "le":
            raise ExpositionError(
                "label name 'le' is reserved for histogram buckets"
            )


def render_records(records: Iterable[dict]) -> str:
    """Render serialized instruments (``MetricsRegistry.to_records``
    payloads — also what workers ship over the batch wire) as
    Prometheus text exposition 0.0.4."""
    lines: List[str] = []
    seen: set = set()
    for record in records:
        if record.get("t") != "metric":
            continue
        name = _check_name(record["name"])
        if name in seen:
            raise ExpositionError(f"duplicate metric family {name!r}")
        seen.add(name)
        _check_labels(record.get("labels", ()))
        kind = record["kind"]
        help_text = record.get("help", "")
        series = record.get("series", [])
        exposed = {
            "counter": "counter",
            "gauge": "gauge",
            "histogram": "histogram",
            "timeseries": "gauge",
        }.get(kind)
        if exposed is None:
            raise ExpositionError(f"unexportable instrument kind {kind!r}")
        if help_text:
            lines.append(f"# HELP {name} {_escape_help(help_text)}")
        lines.append(f"# TYPE {name} {exposed}")
        if kind in ("counter", "gauge"):
            for entry in series:
                lines.append(
                    f"{name}{_format_labels(entry['labels'])} "
                    f"{_format_value(entry['value'])}"
                )
        elif kind == "timeseries":
            # latest sample only; the full ring buffer is a JSON affair
            for entry in series:
                if entry["points"]:
                    _, value = entry["points"][-1]
                    lines.append(
                        f"{name}{_format_labels(entry['labels'])} "
                        f"{_format_value(value)}"
                    )
        else:  # histogram
            bounds = record.get("bounds", ())
            for entry in series:
                labels = entry["labels"]
                cumulative = 0
                for bound, count in zip(bounds, entry["buckets"]):
                    cumulative += count
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = _format_value(float(bound))
                    lines.append(
                        f"{name}_bucket{_format_labels(bucket_labels)} "
                        f"{_format_value(cumulative)}"
                    )
                inf_labels = dict(labels)
                inf_labels["le"] = "+Inf"
                lines.append(
                    f"{name}_bucket{_format_labels(inf_labels)} "
                    f"{_format_value(entry['count'])}"
                )
                lines.append(
                    f"{name}_sum{_format_labels(labels)} "
                    f"{_format_value(entry['sum'])}"
                )
                lines.append(
                    f"{name}_count{_format_labels(labels)} "
                    f"{_format_value(entry['count'])}"
                )
    return "\n".join(lines) + "\n" if lines else ""


def render_prometheus(registry: MetricsRegistry) -> str:
    """Render a live registry.  Callers sharing the registry with a
    writer thread should bracket this with ``registry.hold()``."""
    return render_records(registry.to_records())


# ----------------------------------------------------------------------
# vendored strict parser — the golden tests' and CI's referee
# ----------------------------------------------------------------------

@dataclass
class Sample:
    """One exposition sample line, parsed."""

    name: str
    labels: Dict[str, str]
    value: float


@dataclass
class MetricFamily:
    """All samples sharing a family name (histogram children included)."""

    name: str
    type: str = "untyped"
    help: str = ""
    samples: List[Sample] = field(default_factory=list)


def _unescape_label(value: str, line_no: int) -> str:
    out: List[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\":
            if i + 1 >= len(value):
                raise ExpositionError(
                    f"line {line_no}: dangling escape in label value"
                )
            nxt = value[i + 1]
            if nxt == "\\":
                out.append("\\")
            elif nxt == '"':
                out.append('"')
            elif nxt == "n":
                out.append("\n")
            else:
                raise ExpositionError(
                    f"line {line_no}: invalid escape '\\{nxt}' in label value"
                )
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _parse_labels(block: str, line_no: int) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    i = 0
    while i < len(block):
        match = re.match(r"\s*([a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*\"", block[i:])
        if not match:
            raise ExpositionError(
                f"line {line_no}: malformed label block at {block[i:]!r}"
            )
        name = match.group(1)
        if name in labels:
            raise ExpositionError(
                f"line {line_no}: duplicate label {name!r}"
            )
        i += match.end()
        # scan the quoted value, honouring escapes
        start = i
        while i < len(block):
            if block[i] == "\\":
                i += 2
                continue
            if block[i] == '"':
                break
            i += 1
        if i >= len(block):
            raise ExpositionError(
                f"line {line_no}: unterminated label value for {name!r}"
            )
        labels[name] = _unescape_label(block[start:i], line_no)
        i += 1  # past the closing quote
        rest = re.match(r"\s*(,)?\s*", block[i:])
        i += rest.end()
        if rest.group(1) is None and i < len(block):
            raise ExpositionError(
                f"line {line_no}: expected ',' between labels"
            )
    return labels


def _parse_value(text: str, line_no: int) -> float:
    text = text.strip()
    if text in ("+Inf", "Inf"):
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    try:
        return float(text)
    except ValueError:
        raise ExpositionError(
            f"line {line_no}: unparseable sample value {text!r}"
        ) from None


_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"       # metric name
    r"(?:\{(.*)\})?"                      # optional label block
    r"\s+(\S+)"                           # value
    r"(?:\s+(-?\d+))?\s*$"                # optional timestamp (ms)
)

_HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


def _family_of(name: str, types: Dict[str, str]) -> str:
    """Map a child sample name to its family (histogram suffixes)."""
    for suffix in _HISTOGRAM_SUFFIXES:
        if name.endswith(suffix):
            base = name[: -len(suffix)]
            if types.get(base) in ("histogram", "summary"):
                return base
    return name


def parse_exposition(text: str) -> Dict[str, MetricFamily]:
    """Parse (and strictly validate) exposition text.

    Returns ``{family_name: MetricFamily}``.  Raises
    :class:`ExpositionError` on any spec violation: bad names, bad
    escapes, duplicate samples, samples before their ``# TYPE``,
    non-cumulative histogram buckets, or a missing/mismatched ``+Inf``
    bucket.
    """
    families: Dict[str, MetricFamily] = {}
    types: Dict[str, str] = {}
    seen_samples: set = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            rest = line[len("# HELP "):]
            parts = rest.split(None, 1)
            name = parts[0] if parts else ""
            if not _METRIC_NAME_RE.match(name):
                raise ExpositionError(
                    f"line {line_no}: invalid HELP metric name {name!r}"
                )
            family = families.setdefault(name, MetricFamily(name))
            family.help = parts[1] if len(parts) > 1 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line[len("# TYPE "):].split()
            if len(parts) != 2:
                raise ExpositionError(f"line {line_no}: malformed TYPE line")
            name, kind = parts
            if not _METRIC_NAME_RE.match(name):
                raise ExpositionError(
                    f"line {line_no}: invalid TYPE metric name {name!r}"
                )
            if kind not in _TYPES:
                raise ExpositionError(
                    f"line {line_no}: unknown metric type {kind!r}"
                )
            if name in types:
                raise ExpositionError(
                    f"line {line_no}: duplicate TYPE for {name!r}"
                )
            family = families.setdefault(name, MetricFamily(name))
            if family.samples:
                raise ExpositionError(
                    f"line {line_no}: TYPE for {name!r} after its samples"
                )
            family.type = kind
            types[name] = kind
            continue
        if line.startswith("#"):
            continue  # comment
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ExpositionError(
                f"line {line_no}: unparseable sample line {line!r}"
            )
        name, label_block, value_text = match.group(1, 2, 3)
        labels = _parse_labels(label_block, line_no) if label_block else {}
        for label in labels:
            if label.startswith("__"):
                raise ExpositionError(
                    f"line {line_no}: reserved label name {label!r}"
                )
        value = _parse_value(value_text, line_no)
        dedup_key = (name, tuple(sorted(labels.items())))
        if dedup_key in seen_samples:
            raise ExpositionError(
                f"line {line_no}: duplicate sample for {name!r} "
                f"with labels {labels!r}"
            )
        seen_samples.add(dedup_key)
        family_name = _family_of(name, types)
        family = families.setdefault(family_name, MetricFamily(family_name))
        family.samples.append(Sample(name, labels, value))
    _validate_histograms(families)
    return families


def _validate_histograms(families: Dict[str, MetricFamily]) -> None:
    for family in families.values():
        if family.type != "histogram":
            continue
        buckets: Dict[Tuple[Tuple[str, str], ...],
                      List[Tuple[float, float]]] = {}
        counts: Dict[Tuple[Tuple[str, str], ...], float] = {}
        for sample in family.samples:
            if sample.name == family.name + "_bucket":
                if "le" not in sample.labels:
                    raise ExpositionError(
                        f"{family.name}: bucket sample without 'le' label"
                    )
                rest = tuple(sorted(
                    (k, v) for k, v in sample.labels.items() if k != "le"
                ))
                bound = _parse_value(sample.labels["le"], 0)
                buckets.setdefault(rest, []).append((bound, sample.value))
            elif sample.name == family.name + "_count":
                counts[tuple(sorted(sample.labels.items()))] = sample.value
        for rest, pairs in buckets.items():
            pairs.sort(key=lambda pair: pair[0])
            if not pairs or pairs[-1][0] != math.inf:
                raise ExpositionError(
                    f"{family.name}: series {dict(rest)!r} has no "
                    f"'+Inf' bucket"
                )
            last = -math.inf
            for bound, cumulative in pairs:
                if cumulative < last:
                    raise ExpositionError(
                        f"{family.name}: non-cumulative buckets in "
                        f"series {dict(rest)!r}"
                    )
                last = cumulative
            if rest in counts and pairs[-1][1] != counts[rest]:
                raise ExpositionError(
                    f"{family.name}: '+Inf' bucket ({pairs[-1][1]}) != "
                    f"_count ({counts[rest]}) in series {dict(rest)!r}"
                )


# ----------------------------------------------------------------------
# command line — ``python -m repro.obs.prometheus FILE...``
# ----------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    """Validate exposition files (e.g. a scraped ``/metrics`` payload);
    exit 1 on the first malformed one."""
    paths = list(sys.argv[1:] if argv is None else argv)
    if not paths:
        print("usage: python -m repro.obs.prometheus FILE...",
              file=sys.stderr)
        return 2
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                families = parse_exposition(handle.read())
        except OSError as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            return 1
        except ExpositionError as exc:
            print(f"{path}: malformed exposition: {exc}", file=sys.stderr)
            return 1
        samples = sum(len(f.samples) for f in families.values())
        print(f"{path}: ok ({len(families)} families, {samples} samples)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
