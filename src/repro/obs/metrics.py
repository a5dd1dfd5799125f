"""Process-local metrics: counters, gauges, and histograms.

A :class:`MetricsRegistry` hands out named instruments (optionally
labelled) and exports them as a plain dict (:meth:`~MetricsRegistry.to_dict`,
for :class:`~repro.obs.report.RunReport`) or in the Prometheus text
exposition format (:meth:`~MetricsRegistry.to_prometheus`, for
scraping once this grows a service endpoint).

Updating a counter is one dict lookup and an integer add, cheap
enough to leave on, but the library only touches metrics on coarse
events (cache hits, training runs, analyses), never per packet or per
block.  Latency histograms have no timer of their own: each sample is
a finished span's ``duration_s`` (:func:`observe_span`).
"""

from __future__ import annotations

import bisect
import re
import threading
from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "SPAN_HISTOGRAMS",
    "get_metrics",
    "observe_span",
    "set_metrics",
    "track_inflight",
    "validate_exposition",
]

#: default histogram bucket upper bounds (seconds-flavoured).
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

#: finer-grained bounds for per-call hot paths (``predictor.predict``,
#: one ILP solve, a K-means fit): these complete in micro- to
#: milliseconds, below the resolution of :data:`DEFAULT_BUCKETS`.
LATENCY_BUCKETS = (
    0.00001, 0.00005, 0.0001, 0.0005, 0.001, 0.005,
    0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition spec:
    backslash, double quote, and line feed must be written as ``\\\\``,
    ``\\"``, and ``\\n`` — raw, they corrupt the whole scrape (an
    error-message label with a quote would split the sample line)."""
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _label_str(key: _LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in key
    )
    return "{" + inner + "}"


class Counter:
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def to_value(self) -> float:
        return self.value


class Gauge:
    """A value that can go up and down (last write wins)."""

    kind = "gauge"

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def to_value(self) -> float:
        return self.value


class Histogram:
    """Cumulative-bucket histogram of observed values."""

    kind = "histogram"

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.bounds: Tuple[float, ...] = tuple(sorted(buckets))
        #: per-bucket counts; index len(bounds) is the +Inf bucket.
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def to_value(self) -> Dict[str, Any]:
        cumulative: Dict[str, int] = {}
        running = 0
        for bound, bucket_count in zip(self.bounds, self.counts):
            running += bucket_count
            cumulative[f"le_{bound:g}"] = running
        cumulative["le_inf"] = self.count
        return {"count": self.count, "sum": self.sum, "buckets": cumulative}


def _sample_value(value: float) -> str:
    """The shortest text that parses back to exactly ``value`` (integral
    values without ``.0``), spelling infinities and NaN as the
    exposition format does."""
    text = repr(float(value))
    text = {"inf": "+Inf", "-inf": "-Inf", "nan": "NaN"}.get(text, text)
    return text[:-2] if text.endswith(".0") else text


class MetricsRegistry:
    """Named instruments, created on first use, exportable as a dict
    or Prometheus text."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, _LabelKey], Any] = {}

    def _get(self, factory, name: str, labels: Optional[Mapping[str, Any]]):
        key = (name, _label_key(labels or {}))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = factory()
                self._metrics[key] = metric
            return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        return self._get(lambda: Histogram(buckets), name, labels)

    def to_dict(self) -> Dict[str, Any]:
        """``{"name{label=...}": value}`` — counters/gauges as numbers,
        histograms as ``{count, sum, buckets}`` dicts."""
        with self._lock:
            items = sorted(self._metrics.items())
        return {
            name + _label_str(label_key): metric.to_value()
            for (name, label_key), metric in items
        }

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (one sample per line,
        ``# TYPE`` headers per metric family)."""
        with self._lock:
            items = sorted(self._metrics.items())
        lines: List[str] = []
        seen_types: Dict[str, str] = {}
        for (name, label_key), metric in items:
            if name not in seen_types:
                seen_types[name] = metric.kind
                lines.append(f"# TYPE {name} {metric.kind}")
            labels = _label_str(label_key)
            if isinstance(metric, Histogram):
                running = 0
                for bound, bucket_count in zip(metric.bounds, metric.counts):
                    running += bucket_count
                    le = _label_key({"le": f"{bound:g}"})
                    lines.append(
                        f"{name}_bucket{_label_str(label_key + le)} {running}"
                    )
                inf = _label_key({"le": "+Inf"})
                lines.append(
                    f"{name}_bucket{_label_str(label_key + inf)} {metric.count}"
                )
                lines.append(f"{name}_sum{labels} {_sample_value(metric.sum)}")
                lines.append(f"{name}_count{labels} {metric.count}")
            else:
                lines.append(f"{name}{labels} {_sample_value(metric.to_value())}")
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()


# ---------------------------------------------------------------------------
# Exposition-format validation (tests + the CI serve-smoke scrape).
# ---------------------------------------------------------------------------

_METRIC_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_LABEL_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")
#: a quoted label value: any run of non-special chars or a valid
#: escape (the only legal ones are \\, \", and \n).
_LABEL_VALUE_RE = re.compile(r'(?:[^"\\\n]|\\\\|\\"|\\n)*')
_SAMPLE_VALUE_RE = re.compile(
    r"[+-]?(?:[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?|Inf|NaN)"
)
_TYPE_KINDS = ("counter", "gauge", "histogram", "summary", "untyped")
#: suffixes a histogram family's samples may carry.
_HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


def _parse_sample_line(line: str) -> Optional[str]:
    """``None`` when ``line`` is a well-formed sample, else the error.
    Strict: exactly ``name[{labels}] value`` (no timestamps — this
    library never emits them)."""
    match = _METRIC_NAME_RE.match(line)
    if match is None:
        return "sample does not start with a metric name"
    pos = match.end()
    if pos < len(line) and line[pos] == "{":
        pos += 1
        while True:
            lmatch = _LABEL_NAME_RE.match(line, pos)
            if lmatch is None:
                return f"bad label name at column {pos}"
            pos = lmatch.end()
            if not line.startswith('="', pos):
                return f'label not followed by ="..." at column {pos}'
            pos += 2
            vmatch = _LABEL_VALUE_RE.match(line, pos)
            pos = vmatch.end()
            if pos >= len(line) or line[pos] != '"':
                return f"unterminated/illegal label value at column {pos}"
            pos += 1
            if pos < len(line) and line[pos] == ",":
                pos += 1
                continue
            break
        if pos >= len(line) or line[pos] != "}":
            return f"unterminated label set at column {pos}"
        pos += 1
    if pos >= len(line) or line[pos] != " ":
        return "metric name/labels not followed by a value"
    value = line[pos + 1:]
    if _SAMPLE_VALUE_RE.fullmatch(value) is None:
        return f"unparseable sample value {value!r}"
    return None


def validate_exposition(text: str) -> List[str]:
    """Line-level validation of a Prometheus text-format payload.

    Returns a list of ``"line N: problem"`` strings (empty = valid).
    Checks that every ``# TYPE`` header is well formed, every sample
    line parses (names, label syntax, escaped label values, float
    value), and every sample belongs to a declared family — with
    histogram samples allowed only their ``_bucket``/``_sum``/
    ``_count`` suffixes.  Used by the metrics test suite and the CI
    serve-smoke scrape, so an escaping bug fails the build rather than
    a scraper at 3am.
    """
    errors: List[str] = []
    families: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in _TYPE_KINDS:
                    errors.append(f"line {lineno}: malformed TYPE header")
                elif _METRIC_NAME_RE.fullmatch(parts[2]) is None:
                    errors.append(f"line {lineno}: bad family name"
                                  f" {parts[2]!r}")
                elif parts[2] in families:
                    errors.append(f"line {lineno}: duplicate TYPE for"
                                  f" {parts[2]!r}")
                else:
                    families[parts[2]] = parts[3]
            # other comments (# HELP, free text) are legal and skipped
            continue
        problem = _parse_sample_line(line)
        if problem is not None:
            errors.append(f"line {lineno}: {problem}")
            continue
        name = _METRIC_NAME_RE.match(line).group(0)
        family = families.get(name)
        if family is None:
            for suffix in _HISTOGRAM_SUFFIXES:
                base = name[: -len(suffix)] if name.endswith(suffix) else None
                if base and families.get(base) in ("histogram", "summary"):
                    family = families[base]
                    break
        if family is None:
            errors.append(
                f"line {lineno}: sample {name!r} has no TYPE header"
            )
    return errors


_registry = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-local default registry instrumented code uses."""
    return _registry


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry (tests); returns the previous one."""
    global _registry
    previous = _registry
    _registry = registry
    return previous


class _InflightTracker:
    """Context manager holding a gauge up for the duration of a block
    (request handlers use one per endpoint so scrapes see concurrent
    load, not just completed counts)."""

    __slots__ = ("_gauge",)

    def __init__(self, gauge: Gauge) -> None:
        self._gauge = gauge

    def __enter__(self) -> "_InflightTracker":
        self._gauge.inc()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._gauge.dec()
        return False


def track_inflight(name: str, **labels: Any) -> _InflightTracker:
    """Count a block as in-flight on a gauge of the default registry::

        with track_inflight("http_inflight_requests", endpoint="/v1/analyze"):
            handle(request)

    The gauge goes up on entry and back down on every exit path, so its
    instantaneous value is the number of blocks currently executing.
    """
    return _InflightTracker(_registry.gauge(name, **labels))


#: span name -> (histogram, buckets, span attributes used as labels):
#: the only source of latency samples.
SPAN_HISTOGRAMS: Dict[str, Tuple[str, Tuple[float, ...], Tuple[str, ...]]] = {
    "http_request": ("http_request_seconds", DEFAULT_BUCKETS, ("endpoint",)),
    "analyze": ("analyze_latency_seconds", DEFAULT_BUCKETS, ()),
    "parallel_map": ("parallel_dispatch_latency_seconds", DEFAULT_BUCKETS, ("fn",)),
    "predict_model": ("predict_latency_seconds", LATENCY_BUCKETS, ()),
    "placement_solve": ("placement_solve_latency_seconds", LATENCY_BUCKETS, ("method",)),
    "kmeans_fit": ("kmeans_fit_latency_seconds", LATENCY_BUCKETS, ()),
}


def observe_span(span: Any) -> None:
    """Observe a finished span's ``duration_s`` into the default
    registry's histogram for its name, if :data:`SPAN_HISTOGRAMS` has
    one.  Every tracer calls this as each span ends."""
    entry = SPAN_HISTOGRAMS.get(span.name)
    if entry is not None:
        name, buckets, label_keys = entry
        labels = {key: span.attrs.get(key, "") for key in label_keys}
        _registry.histogram(name, buckets=buckets, **labels).observe(span.duration_s)
