"""Summary statistics of the benchmark, kept free of I/O so tests can
pin their definitions."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Sequence

#: A miss (failed or wrong response) has infinite latency.
MISS = math.inf


def percentile(latencies: Sequence[float], q: float, n_missed: int = 0) -> float:
    """Nearest-rank ``q``-th percentile of ``latencies`` plus
    ``n_missed`` misses counted as infinitely slow.  In a 100-sample
    run, p90 is the 90th smallest sample, with ten beyond it."""
    samples = sorted(latencies) + [MISS] * n_missed
    if not samples:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(samples)))
    return samples[rank - 1]


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of
    the median (``statistics.quantiles(values, n=4)``)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 for an empty base."""
    return numerator / denominator if denominator else 0.0


def coverage(layer_ms: Dict[str, List[float]], analyze_ms: List[float]) -> float:
    """``layers.coverage``: the time of every timed layer call summed
    over the replayed requests, divided by the summed time of the
    whole ``Clara.analyze`` calls for the same requests."""
    return ratio(sum(sum(v) for v in layer_ms.values()), sum(analyze_ms))


def median_difference(a: Iterable[float], b: Iterable[float]) -> float:
    """Median of the pairwise differences ``a[i] - b[i]``."""
    return statistics.median(x - y for x, y in zip(a, b, strict=True))


def counter_delta(before: Dict[str, float], after: Dict[str, float],
                  name: str) -> float:
    """How much a Prometheus counter (or histogram ``_sum``/``_count``)
    grew between two scrapes; absent series count as 0."""
    return after.get(name, 0.0) - before.get(name, 0.0)


def parse_prometheus(text: str) -> Dict[str, float]:
    """``{series: value}`` for every sample line of an exposition
    (labels stay part of the series name)."""
    out: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        try:
            out[series] = float(value)
        except ValueError:
            continue
    return out


def broker_metrics(before: Dict[str, float],
                   after: Dict[str, float]) -> Dict[str, float]:
    """The broker's mean wait per batch (ms) and jobs per batch over
    the interval between two ``/metrics`` scrapes."""
    batches = counter_delta(before, after, "serve_batches_total")
    waits = counter_delta(before, after, "serve_batch_wait_seconds_count")
    return {
        "serve.broker_wait_ms": ratio(
            counter_delta(before, after, "serve_batch_wait_seconds_sum") * 1e3,
            waits),
        "serve.broker_jobs_per_batch": ratio(
            counter_delta(before, after, "serve_batched_requests_total"),
            batches),
    }


def finite_or_max(value: float) -> float:
    """JSON has no infinity: a percentile that lands on a miss is
    reported as the largest float."""
    return value if math.isfinite(value) else 1.7976931348623157e308
