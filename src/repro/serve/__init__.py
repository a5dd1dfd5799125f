"""Clara-as-a-service: the warm analysis daemon and its wire API.

``clara analyze`` pays full process startup plus artifact load for a
single prediction; ``clara serve`` loads the trained advisors **once**
and then answers analyze/lint/colocation requests over JSON-over-HTTP,
each on its own thread.  The pieces:

* :mod:`repro.serve.schemas` — the versioned request dataclasses and
  the single response envelope shared *byte-for-byte* with the CLI's
  ``--json`` output (one serializer, two transports);
* :mod:`repro.serve.handlers` — :class:`ClaraService`, transport-
  agnostic request execution over one warm Clara;
* :mod:`repro.serve.server` — :class:`ClaraServer`, the stdlib
  threading HTTP daemon with ``/healthz`` readiness and ``/metrics``
  Prometheus endpoints.

In-process embedding (tests, bench, notebooks)::

    from repro.serve import ServeConfig, build_server

    server = build_server(trained_clara, ServeConfig(port=0))
    server.start()                      # background thread
    ... urllib.request.urlopen(server.url("/healthz")) ...
    server.shutdown()
"""

from repro.serve.handlers import ClaraService, run_lint_reports
from repro.serve.schemas import (
    WIRE_SCHEMA,
    AnalyzeRequest,
    ColocationRequest,
    LintRequest,
    analysis_result_payload,
    dump_envelope,
    envelope,
    error_envelope,
    lint_run_payload,
    port_config_to_dict,
    workload_from_dict,
    workload_to_dict,
)
from repro.serve.server import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    ClaraServer,
    ServeConfig,
    build_server,
)

__all__ = [
    "AnalyzeRequest",
    "ClaraServer",
    "ClaraService",
    "ColocationRequest",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "LintRequest",
    "ServeConfig",
    "WIRE_SCHEMA",
    "analysis_result_payload",
    "build_server",
    "dump_envelope",
    "envelope",
    "error_envelope",
    "lint_run_payload",
    "port_config_to_dict",
    "run_lint_reports",
    "workload_from_dict",
    "workload_to_dict",
]
