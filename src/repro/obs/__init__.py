"""Observability: stage tracing, metrics, run reports, log config.

The paper's evaluation is entirely about *measured* per-stage behavior
(prediction error, stage costs, placement latency); this package gives
the reproduction the same visibility over itself:

* :mod:`repro.obs.trace` — nested :func:`span` context managers over
  every pipeline stage, recording wall time, call counts, and
  arbitrary attributes.  Every span is timed, but the default
  :class:`TimingTracer` keeps no tree, so instrumentation stays in
  library code; record one with :func:`set_tracer`/:func:`use_tracer`.
* :mod:`repro.obs.metrics` — a process-local
  :class:`MetricsRegistry` (counters, gauges, histograms) with
  ``to_dict()`` and Prometheus-text export; :func:`get_metrics` is the
  default registry the library updates (artifact-cache hits/misses,
  training and analysis run counts).  Latency histograms are fed only
  by finished spans (:data:`~repro.obs.metrics.SPAN_HISTOGRAMS`).
* :mod:`repro.obs.report` — :class:`RunReport`, the versioned
  JSON-serializable record of one traced invocation (stage timings,
  span attributes, metric snapshot).  The CLI's ``--profile`` and
  ``--json-report`` render it.
* :mod:`repro.obs.logconfig` — :func:`configure` wires ``repro.*``
  loggers to stderr at a verbosity; :func:`get_logger` is what library
  modules use.  ``fmt="json"`` switches to structured JSON lines with
  request/span ids stamped on every record.
* :mod:`repro.obs.reqctx` — :class:`RequestContext`, the
  contextvars-based request-correlation context: one id follows a
  request through spans, events, logs, and cache lookups
  (:func:`use_request` / :func:`current_request_id`).
* :mod:`repro.obs.events` — :class:`EventJournal`, the bounded
  ring-buffer journal of typed, schema-versioned serving events
  (request start/finish, cache hit/miss, lazy trains, slow-request
  captures); ``GET /v1/events`` and ``clara events``
  read it.
* :mod:`repro.obs.slo` — :class:`SloTracker`, sliding-window
  p50/p95/p99 + error rate per endpoint, the ``/healthz`` ok/degraded
  verdict and the ``slo_*`` gauges on ``/metrics``.
* :mod:`repro.obs.traceexport` — :func:`write_chrome_trace` turns a
  recorded span forest into Chrome trace-event JSON for Perfetto /
  ``chrome://tracing`` (the CLI's ``--trace-out``).

Two submodules are not re-exported, so that importing the package
(every process does, the daemon included) does not load them; import
them by name:

* :mod:`repro.obs.sampling` — ``SamplingProfiler``, a signal-based
  sampling profiler emitting flamegraph-ready collapsed stacks.
* :mod:`repro.obs.bench` — the continuous-benchmarking harness behind
  ``clara bench``: ``run_suite`` times the declared pipeline workloads
  (median-of-N + MAD) into a schema-versioned ``BenchRun``, and
  ``compare_runs`` grades regressions against a baseline artifact.

Typical enablement::

    from repro import obs

    with obs.use_tracer(obs.Tracer()) as tracer:
        clara.train(TrainConfig.quick(), cache="auto")
    report = obs.RunReport.collect("train", tracer, obs.get_metrics())
    print(report.render_profile())
"""

from repro.obs.events import (
    EVENT_SCHEMA,
    Event,
    EventJournal,
    get_journal,
    set_journal,
)
from repro.obs.logconfig import JsonFormatter, configure, get_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
    get_metrics,
    set_metrics,
    track_inflight,
    validate_exposition,
)
from repro.obs.report import RUN_REPORT_SCHEMA, RunReport
from repro.obs.reqctx import (
    RequestContext,
    current_request,
    current_request_id,
    new_request_id,
    use_request,
)
from repro.obs.slo import SloTracker, get_slo_tracker, set_slo_tracker
from repro.obs.trace import (
    Span,
    TimingTracer,
    Tracer,
    current_span_id,
    get_tracer,
    set_tracer,
    span,
    use_scoped_tracer,
    use_tracer,
)
from repro.obs.traceexport import (
    chrome_trace_events,
    to_chrome_trace,
    write_chrome_trace,
)

__all__ = [
    "Counter",
    "EVENT_SCHEMA",
    "Event",
    "EventJournal",
    "Gauge",
    "Histogram",
    "JsonFormatter",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "RUN_REPORT_SCHEMA",
    "RequestContext",
    "RunReport",
    "SloTracker",
    "Span",
    "TimingTracer",
    "Tracer",
    "chrome_trace_events",
    "configure",
    "current_request",
    "current_request_id",
    "current_span_id",
    "get_journal",
    "get_logger",
    "get_metrics",
    "get_slo_tracker",
    "get_tracer",
    "new_request_id",
    "set_journal",
    "set_metrics",
    "set_slo_tracker",
    "set_tracer",
    "span",
    "to_chrome_trace",
    "track_inflight",
    "use_request",
    "use_scoped_tracer",
    "use_tracer",
    "validate_exposition",
    "write_chrome_trace",
]
