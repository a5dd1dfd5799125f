"""``clara serve``: the warm analysis daemon.

A stdlib :class:`~http.server.ThreadingHTTPServer` (one thread per
connection, daemonic) in front of a :class:`~repro.serve.handlers.
ClaraService`.  Endpoints:

* ``POST /v1/analyze``    — :class:`AnalyzeRequest` -> ``analysis_result``
* ``POST /v1/lint``       — :class:`LintRequest` -> ``lint_run``
* ``POST /v1/colocation`` — :class:`ColocationRequest` -> ``colocation_ranking``
* ``GET  /v1/events``     — the obs event journal (``?kind=``,
  ``?request_id=``, ``?since_seq=``, ``?n=`` filters); the poll
  itself is metered but not journaled, so polling cannot evict the
  events being observed
* ``GET  /healthz``       — readiness probe (200 warm / 503 cold),
  plus the sliding-window SLO verdict (ok/degraded, rolling
  p50/p95/p99 and error rate per endpoint)
* ``GET  /metrics``       — the process metrics registry, Prometheus text
  (including the ``slo_*`` gauges projected at scrape time)

Every response body is the versioned envelope of
:mod:`repro.serve.schemas`; :class:`~repro.errors.ClaraError`
subclasses map to their documented ``http_status``.  Per-endpoint
latency histograms (``http_request_seconds``), request counters
(``http_requests_total``), and in-flight gauges
(``http_inflight_requests``) feed the same registry ``/metrics``
exposes, so the daemon observes itself.  Each request has one
duration, its ``http_request`` span's, which all of these read.

Request correlation: every request runs under a
:class:`~repro.obs.reqctx.RequestContext` whose id comes from the
``X-Clara-Request-Id`` header (or is minted).  The id is echoed in the
``X-Clara-Request-Id`` response header and the envelope's
``request_id`` field, stamped on every span and JSON log line, and
carried by the journal events the request produces (start/finish,
cache hit/miss).  Each request also records its own
isolated span forest (a scoped tracer), which is what
``slow_request`` capture dumps into the journal when a request
exceeds :attr:`ServeConfig.slow_request_ms`.
"""

from __future__ import annotations

import json
import re
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.errors import (
    ClaraError,
    RequestTimeoutError,
    RequestTooLargeError,
    http_status_for,
)
from repro.obs import (
    RequestContext,
    Tracer,
    get_logger,
    get_metrics,
    span,
    track_inflight,
    use_request,
    use_scoped_tracer,
)
from repro.obs.events import get_journal
from repro.obs.slo import (
    DEFAULT_ERROR_RATE_THRESHOLD,
    DEFAULT_P99_THRESHOLD_S,
    DEFAULT_WINDOW_S,
    get_slo_tracker,
)
from repro.serve.handlers import ClaraService
from repro.serve.schemas import (
    AnalyzeRequest,
    ColocationRequest,
    LintRequest,
    dump_envelope,
    error_envelope,
)

__all__ = ["DEFAULT_HOST", "DEFAULT_PORT", "ClaraServer", "ServeConfig"]

log = get_logger(__name__)

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8787
#: largest request body the daemon reads; a longer declared
#: ``Content-Length`` is a 413 before any byte is read.  Real bodies
#: are a few KB (the largest, a lint request carrying a baseline).
MAX_BODY_BYTES = 1 << 20
#: socket timeout of each connection, seconds: a client that stops
#: sending a declared body gets a 408 instead of holding its handler
#: thread forever, one that stops reading its response is dropped
#: (499), and an idle keep-alive connection is closed.
REQUEST_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class ServeConfig:
    """Everything ``clara serve`` needs beyond a trained Clara."""

    host: str = DEFAULT_HOST
    port: int = DEFAULT_PORT
    #: ``batch_window_ms``, ``max_batch``, ``predict_cache`` and
    #: ``predictor_mode`` accept only their defaults (``ClaraService``
    #: rejects any other value): each request predicts on its own
    #: thread, one call per model invocation, through the always-on
    #: in-memory prediction cache, with the LSTM.
    batch_window_ms: float = 0.0
    max_batch: int = 1
    #: lazy colocation-ranker training sizes.
    colocation_programs: int = 12
    colocation_groups: int = 12
    #: pinned, like ``batch_window_ms`` above.
    predict_cache: bool = True
    predictor_mode: str = "lstm"
    #: a request slower than this (milliseconds) has its full span
    #: tree captured into the journal as a ``slow_request`` event
    #: (0 disables capture).
    slow_request_ms: float = 5000.0
    #: when set, each slow request additionally writes a Chrome
    #: trace-event file ``slow-<request id>.trace.json`` under this
    #: directory (created on demand).
    slow_trace_dir: Optional[str] = None
    #: sliding SLO window width, seconds.
    slo_window_s: float = DEFAULT_WINDOW_S
    #: windowed p99 above this marks an endpoint degraded, seconds.
    slo_p99_s: float = DEFAULT_P99_THRESHOLD_S
    #: windowed 5xx rate above this marks an endpoint degraded.
    slo_error_rate: float = DEFAULT_ERROR_RATE_THRESHOLD


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the owning :class:`ClaraServer`'s service."""

    server_version = "clara-serve/1"
    protocol_version = "HTTP/1.1"
    timeout = REQUEST_TIMEOUT_S

    # set by ClaraServer on the *server* object; typed here for clarity.
    @property
    def service(self) -> ClaraService:
        return self.server.clara_service  # type: ignore[attr-defined]

    # -- plumbing -------------------------------------------------------
    def log_message(self, fmt: str, *args: Any) -> None:
        log.debug("%s %s", self.address_string(), fmt % args)

    def _send(self, status: int, body: bytes,
              content_type: str = "application/json") -> None:
        from repro.obs import current_request_id

        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        request_id = current_request_id()
        if request_id is not None:
            self.send_header("X-Clara-Request-Id", request_id)
        self.end_headers()
        self.wfile.write(body)

    def _send_envelope(self, status: int, env: Dict[str, Any]) -> None:
        self._send(status, (dump_envelope(env) + "\n").encode("utf-8"))

    def _read_json(self) -> Dict[str, Any]:
        declared = self.headers.get("Content-Length") or "0"
        if not (declared.isascii() and declared.isdigit()):
            # Without a valid length the body's end is unknown, so the
            # connection cannot carry another request.
            self.close_connection = True
            raise ClaraError(
                "Content-Length must be a non-negative integer,"
                f" got {declared!r}"
            )
        length = int(declared)
        if length > MAX_BODY_BYTES:
            # The unread body would be parsed as the next request.
            self.close_connection = True
            raise RequestTooLargeError(
                f"request body of {length} bytes exceeds the"
                f" {MAX_BODY_BYTES}-byte limit"
            )
        try:
            raw = self.rfile.read(length) if length else b""
        except TimeoutError:
            # The rest of the body may yet arrive as the next request.
            self.close_connection = True
            raise RequestTimeoutError(
                f"request body of {length} bytes not received within"
                f" {self.timeout:g} s"
            ) from None
        if not raw:
            raise ClaraError("empty request body (expected JSON)")
        try:
            # Nesting past the parser's depth raises RecursionError.
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError,
                RecursionError) as exc:
            raise ClaraError(f"request body is not valid JSON: {exc}") \
                from None
        if not isinstance(payload, dict):
            raise ClaraError("request body must be a JSON object")
        return payload

    @property
    def _config(self) -> "ServeConfig":
        return self.server.clara_config  # type: ignore[attr-defined]

    def _instrumented(self, endpoint: str, fn,
                      emit_events: bool = True) -> None:
        """Run ``fn() -> (status, envelope)`` under a request context
        with the endpoint's in-flight gauge and request counter.

        The request id comes from the client's ``X-Clara-Request-Id``
        header (minted when absent) and scopes everything ``fn`` does:
        a per-request recording tracer (isolated from concurrent
        requests), journal start/finish events, SLO observation, and —
        when the request exceeds the slow threshold — a ``slow_request``
        journal event carrying the full captured span tree.  One
        ``http_request`` span covers the whole exchange, error envelopes
        included; its duration is the request's everywhere.

        ``emit_events=False`` keeps the request out of the journal
        (metrics and SLO observation still happen) — used for read-only
        observability endpoints like ``/v1/events``, where a steady
        poller would otherwise fill the ring with its own polling
        events and evict the serving events it is trying to observe.
        """
        metrics = get_metrics()
        journal = get_journal()
        ctx = RequestContext(
            request_id=self.headers.get("X-Clara-Request-Id"),
            endpoint=endpoint,
        )
        tracer = Tracer()
        status = 500
        with use_request(ctx), use_scoped_tracer(tracer):
            if emit_events:
                journal.emit("request_start", endpoint=endpoint,
                             method=self.command)
            try:
                with span("http_request", endpoint=endpoint) as root, \
                        track_inflight("http_inflight_requests",
                                       endpoint=endpoint):
                    try:
                        status, env = fn()
                        self._send_envelope(status, env)
                    except ClaraError as exc:
                        status = http_status_for(exc)
                        log.info("%s -> %d %s: %s", endpoint, status,
                                 type(exc).__name__, exc)
                        self._send_envelope(status, error_envelope(exc))
                    except (BrokenPipeError, TimeoutError):
                        # The client hung up, or stopped reading for the
                        # socket timeout: no envelope can reach it.
                        status = 499
                        self.close_connection = True
                        log.debug("%s: client disconnected mid-response",
                                  endpoint)
                        metrics.counter("http_client_disconnects_total",
                                        endpoint=endpoint).inc()
                    except Exception as exc:  # noqa: BLE001 - daemon must not die
                        status = 500
                        log.exception("%s: unhandled error", endpoint)
                        self._send_envelope(status, error_envelope(exc))
            finally:
                # The span has ended, so its duration is final.
                duration_s = root.duration_s
                metrics.counter("http_requests_total", endpoint=endpoint,
                                status=str(status)).inc()
                get_slo_tracker().observe(endpoint, duration_s,
                                          status=status)
                if emit_events:
                    journal.emit("request_finish", endpoint=endpoint,
                                 status=status,
                                 duration_s=round(duration_s, 6))
                self._capture_slow(endpoint, tracer, duration_s, status,
                                   emit_events=emit_events)

    def _capture_slow(self, endpoint: str, tracer: Tracer,
                      duration_s: float, status: int,
                      emit_events: bool = True) -> None:
        """Journal the request's span tree when it blew the latency
        threshold (and optionally dump a Chrome trace file)."""
        threshold_s = self._config.slow_request_ms / 1000.0
        if threshold_s <= 0 or duration_s < threshold_s:
            return
        log.warning("%s: slow request (%.3fs > %.3fs threshold)",
                    endpoint, duration_s, threshold_s)
        if not emit_events:  # observability polls stay out of the journal
            return
        trace_file = None
        if self._config.slow_trace_dir:
            import os

            from repro.obs import current_request_id, write_chrome_trace

            try:
                os.makedirs(self._config.slow_trace_dir, exist_ok=True)
                # The request id is client-controlled and may contain
                # path separators; only a safe charset reaches the
                # filename, so a hostile id cannot escape the trace dir.
                rid = current_request_id() or "unknown"
                safe_rid = re.sub(r"[^A-Za-z0-9._-]", "_", rid)
                trace_file = os.path.join(
                    self._config.slow_trace_dir,
                    f"slow-{safe_rid}.trace.json",
                )
                write_chrome_trace(tracer, trace_file)
            except OSError:  # diagnostics must never fail the request
                log.exception("slow-trace export failed")
                trace_file = None
        get_journal().emit(
            "slow_request",
            endpoint=endpoint,
            status=status,
            duration_s=round(duration_s, 6),
            threshold_s=threshold_s,
            spans=[root.to_dict() for root in tracer.roots],
            trace_file=trace_file,
        )

    # -- routes ---------------------------------------------------------
    _POST_ROUTES = {
        "/v1/analyze": (AnalyzeRequest, "analyze"),
        "/v1/lint": (LintRequest, "lint"),
        "/v1/colocation": (ColocationRequest, "colocation"),
    }

    @staticmethod
    def _query_int(query: Dict[str, Any], name: str) -> Optional[int]:
        values = query.get(name)
        if not values:
            return None
        try:
            return int(values[-1])
        except ValueError:
            raise ClaraError(
                f"query parameter {name!r} must be an integer"
            ) from None

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        url = urlsplit(self.path)
        if url.path == "/healthz":
            self._instrumented("/healthz", self.service.health)
        elif url.path == "/v1/events":
            query = parse_qs(url.query)

            def run() -> Tuple[int, Dict[str, Any]]:
                return 200, self.service.events(
                    kind=(query.get("kind") or [None])[-1],
                    request_id=(query.get("request_id") or [None])[-1],
                    since_seq=self._query_int(query, "since_seq"),
                    limit=self._query_int(query, "n"),
                )

            # emit_events=False: reading the journal must not write to
            # it, or pollers evict the events they came to observe.
            self._instrumented("/v1/events", run, emit_events=False)
        elif url.path == "/metrics":
            # Prometheus text, not an envelope (scrapers expect the
            # exposition format verbatim).  The SLO gauges are
            # projected from the sliding window at scrape time, so
            # they are as fresh as the scrape.
            with track_inflight("http_inflight_requests",
                                endpoint="/metrics"):
                get_slo_tracker().export_gauges(get_metrics())
                body = get_metrics().to_prometheus().encode("utf-8")
                self._send(200, body,
                           content_type="text/plain; version=0.0.4")
            get_metrics().counter("http_requests_total",
                                  endpoint="/metrics", status="200").inc()
        else:
            self._send_envelope(
                404,
                error_envelope(ClaraError(f"no such endpoint {self.path}")),
            )

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        route = self._POST_ROUTES.get(self.path)
        if route is None:
            self._send_envelope(
                404,
                error_envelope(ClaraError(f"no such endpoint {self.path}")),
            )
            return
        request_cls, method = route

        def run() -> Tuple[int, Dict[str, Any]]:
            request = request_cls.from_dict(self._read_json())
            return 200, getattr(self.service, method)(request)

        self._instrumented(self.path, run)


class ClaraServer:
    """The daemon: a threading HTTP server bound to a service.

    ``port=0`` binds an ephemeral port (tests, bench); read it back
    from :attr:`port`.  :meth:`start` serves from a background thread
    (in-process embedding); :meth:`serve_forever` serves from the
    calling thread (the CLI) until :meth:`shutdown` — which is safe to
    call from any *other* thread, e.g. a signal-triggered one.
    """

    def __init__(
        self,
        service: ClaraService,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        config: Optional[ServeConfig] = None,
    ) -> None:
        self.service = service
        self.config = config if config is not None \
            else ServeConfig(host=host, port=port)
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.clara_service = service  # type: ignore[attr-defined]
        self._httpd.clara_config = self.config  # type: ignore[attr-defined]
        # The SLO policy is daemon configuration applied to the
        # process-default tracker (mutated, not replaced, so events
        # and samples already recorded stay visible).
        tracker = get_slo_tracker()
        tracker.window_s = float(self.config.slo_window_s)
        tracker.p99_threshold_s = float(self.config.slo_p99_s)
        tracker.error_rate_threshold = float(self.config.slo_error_rate)
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    def url(self, path: str = "/") -> str:
        return f"http://{self.host}:{self.port}{path}"

    def start(self) -> "ClaraServer":
        """Serve from a daemon thread and return immediately."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="clara-serve", daemon=True,
        )
        self._thread.start()
        log.info("clara serve listening on %s", self.url())
        return self

    def serve_forever(self) -> None:
        """Serve from the calling thread until :meth:`shutdown`."""
        log.info("clara serve listening on %s", self.url())
        self._httpd.serve_forever()

    def shutdown(self) -> None:
        """Stop accepting and close the socket."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "ClaraServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False


def build_server(clara, config: ServeConfig) -> ClaraServer:
    """Wire a trained Clara into a ready-to-start server per
    ``config`` (the one construction path the CLI, tests, and bench
    share)."""
    service = ClaraService(
        clara,
        batch_window_s=config.batch_window_ms / 1000.0,
        max_batch=config.max_batch,
        colocation_programs=config.colocation_programs,
        colocation_groups=config.colocation_groups,
        predict_cache=config.predict_cache,
        predictor_mode=config.predictor_mode,
    )
    return ClaraServer(service, host=config.host, port=config.port,
                       config=config)
