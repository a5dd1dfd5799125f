"""End-to-end daemon tests: an in-process ``ClaraServer`` on an
ephemeral port, driven over real HTTP with urllib.

The load-bearing assertions: CLI ``--json`` output and server response
bodies are byte-identical (one serializer, two transports), concurrent
analyses return exactly the sequential answers, and every
``ClaraError`` maps to its documented HTTP status.
"""

import json
import threading
import urllib.error
import urllib.request
import uuid

import pytest

from repro.cli import main
from repro.serve import ServeConfig, build_server
from repro.serve.schemas import WIRE_SCHEMA
from repro.workload.spec import LARGE_FLOWS, SMALL_FLOWS

#: the wire form of the CLI's default workload at ``--packets 60``
#: (see ``_workload_from_args``), for byte-parity tests.
CLI_WORKLOAD_60 = {
    "name": "cli",
    "n_flows": 10_000,
    "packet_bytes": 256,
    "zipf_alpha": 1.0,
    "udp_fraction": 0.0,
    "n_packets": 60,
}


def http(server, path, payload=None, raw=None, method=None, headers=None):
    """``(status, headers, body_bytes)`` for one request; HTTP errors
    are returned, not raised."""
    if raw is None and payload is not None:
        raw = json.dumps(payload).encode("utf-8")
    all_headers = {"Content-Type": "application/json"} if raw else {}
    all_headers.update(headers or {})
    req = urllib.request.Request(
        server.url(path), data=raw, method=method, headers=all_headers,
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), err.read()


def body_json(body):
    return json.loads(body.decode("utf-8"))


def post_with_content_length(server, content_length):
    """``(status, envelope)`` for a bodiless ``POST /v1/analyze`` whose
    ``Content-Length`` header is sent verbatim.  The socket timeout
    makes a daemon that waits for a body fail the test, not hang it."""
    from http.client import HTTPConnection

    conn = HTTPConnection(server.host, server.port, timeout=5)
    try:
        conn.putrequest("POST", "/v1/analyze")
        conn.putheader("Content-Length", content_length)
        conn.endheaders()
        resp = conn.getresponse()
        return resp.status, body_json(resp.read())
    finally:
        conn.close()


def predictor_lookups(service):
    """Prediction-cache hits + misses so far, as ``/healthz`` reports
    them: every block a predictor call looked up."""
    status, env = service.health()
    assert status == 200
    cache = env["result"]["predictor"]["cache"]
    return cache["hits"] + cache["misses"]


def poll_journal(timeout_s=5.0, **filters):
    """Journal events matching ``filters``, polling briefly: finish and
    slow-capture events are emitted *after* the response is sent, so an
    immediate read can race the handler thread."""
    import time

    from repro.obs.events import get_journal

    deadline = time.monotonic() + timeout_s
    events = get_journal().snapshot(**filters)
    while not events and time.monotonic() < deadline:
        time.sleep(0.02)
        events = get_journal().snapshot(**filters)
    return events


def wait_for_journaled_requests(timeout_s=5.0):
    """Wait until every journaled ``request_start`` has its
    ``request_finish``.  A request records its histogram and SLO
    samples after its response is sent but before its finish event, so
    afterwards no earlier request can still add one."""
    import time
    from collections import Counter

    from repro.obs.events import get_journal

    deadline = time.monotonic() + timeout_s
    while True:
        pending = Counter()
        for event in get_journal().snapshot():
            if event.kind == "request_start":
                pending[event.request_id] += 1
            elif event.kind == "request_finish" and pending[event.request_id]:
                pending[event.request_id] -= 1
        pending = +pending
        if not pending:
            return
        assert time.monotonic() < deadline, f"requests still open: {pending}"
        time.sleep(0.02)


@pytest.fixture(scope="module")
def server(clara_artifacts):
    from repro.core import Clara

    clara = Clara.load(clara_artifacts["artifact"])
    config = ServeConfig(
        port=0,  # ephemeral
        colocation_programs=6,
        colocation_groups=4,
    )
    srv = build_server(clara, config)
    srv.start()
    yield srv
    srv.shutdown()


class TestHealthAndMetrics:
    def test_healthz_reports_ready(self, server):
        status, _headers, body = http(server, "/healthz")
        assert status == 200
        env = body_json(body)
        assert env["schema"] == WIRE_SCHEMA
        assert env["kind"] == "health"
        result = env["result"]
        assert result["ready"] is True and result["trained"] is True
        assert result["wire_schema"] == WIRE_SCHEMA
        assert "analyze_request" in result["request_kinds"]
        targets = result["targets"]
        assert targets["default"] == "nfp-4000"
        assert "dpu-offpath" in targets["available"]
        assert targets["warm"] == ["nfp-4000"]

    def test_healthz_cold_clara_is_503(self):
        from repro.core import Clara

        srv = build_server(Clara(seed=0), ServeConfig(port=0))
        srv.start()
        try:
            status, _headers, body = http(srv, "/healthz")
            assert status == 503
            assert body_json(body)["result"]["ready"] is False
        finally:
            srv.shutdown()

    def test_healthz_survives_a_concurrent_target_insert(
        self, clara_artifacts
    ):
        # clara_for inserts a lazily trained per-target Clara from
        # another request's thread while /healthz sums the warm
        # Claras' prediction caches.
        import sys

        from repro.core import Clara
        from repro.serve import ClaraService

        clara = Clara.load(clara_artifacts["artifact"])
        service = ClaraService(clara)
        stop = threading.Event()

        def churn():
            while not stop.is_set():
                with service._target_lock:
                    service._claras["churn-target"] = clara
                with service._target_lock:
                    del service._claras["churn-target"]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        thread = threading.Thread(target=churn)
        thread.start()
        try:
            for _ in range(5000):
                status, _env = service.health()
                assert status == 200
        finally:
            stop.set()
            thread.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()

    def test_metrics_is_prometheus_text(self, server):
        # Generate at least one instrumented request first.
        http(server, "/healthz")
        status, headers, body = http(server, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode("utf-8")
        assert "http_requests_total" in text
        assert "http_request_seconds" in text
        assert "http_inflight_requests" in text


class TestCliParity:
    """One serializer, two transports.  The envelope stamps the ambient
    request id, so parity needs both transports to carry the same one:
    the CLI's ``--request-id`` flag is the twin of the daemon's
    ``X-Clara-Request-Id`` header."""

    def test_analyze_body_matches_cli_json_bytes(
        self, server, clara_artifacts, capsys
    ):
        assert main(["analyze", "aggcounter", "--packets", "60", "--json",
                     "--request-id", "parity-1",
                     "--load", str(clara_artifacts["artifact"])]) == 0
        cli_bytes = capsys.readouterr().out.encode("utf-8")

        status, _headers, body = http(server, "/v1/analyze", payload={
            "schema": WIRE_SCHEMA,
            "kind": "analyze_request",
            "element": "aggcounter",
            "workload": CLI_WORKLOAD_60,
        }, headers={"X-Clara-Request-Id": "parity-1"})
        assert status == 200
        assert body == cli_bytes

    def test_lint_body_matches_cli_json_bytes(self, server, capsys):
        main(["lint", "aggcounter", "--json", "--request-id", "parity-2"])
        cli_bytes = capsys.readouterr().out.encode("utf-8")

        status, _headers, body = http(
            server, "/v1/lint", payload={"elements": ["aggcounter"]},
            headers={"X-Clara-Request-Id": "parity-2"},
        )
        assert status == 200
        assert body == cli_bytes
        env = body_json(body)
        assert env["kind"] == "lint_run"
        assert env["result"]["reports"][0]["module"] == "aggcounter"

    def test_dpu_lint_body_matches_cli_json_bytes(self, server, capsys):
        main(["lint", "loadbalancer", "--target", "dpu-offpath", "--json",
              "--request-id", "parity-3"])
        cli_bytes = capsys.readouterr().out.encode("utf-8")

        status, _headers, body = http(server, "/v1/lint", payload={
            "elements": ["loadbalancer"], "target": "dpu-offpath",
        }, headers={"X-Clara-Request-Id": "parity-3"})
        assert status == 200
        assert body == cli_bytes


class TestAnalyze:
    def test_concurrent_analyzes_equal_sequential(self, server):
        elements = ["aggcounter", "udpcount", "iplookup"]
        payloads = [
            {"element": name, "workload": {"name": "t", "n_packets": 50}}
            for name in elements
        ]
        def ask(payload):
            # Every request gets its own generated correlation id;
            # strip it so only the analysis content is compared.
            env = body_json(http(server, "/v1/analyze", payload=payload)[2])
            del env["request_id"]
            return env

        sequential = [ask(p) for p in payloads]

        # The sequential answers memoized each NF's static analysis, so
        # the concurrent repeats must not reach the predictor at all.
        before = predictor_lookups(server.service)
        barrier = threading.Barrier(len(payloads))
        concurrent = [None] * len(payloads)

        def worker(i):
            barrier.wait()
            concurrent[i] = ask(payloads[i])

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(len(payloads))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert concurrent == sequential
        assert predictor_lookups(server.service) == before

    def test_first_analysis_reaches_the_predictor(self, clara_artifacts):
        from repro.click.elements import build_element
        from repro.core import Clara
        from repro.core.prepare import prepare_element
        from repro.serve import ClaraService
        from repro.serve.schemas import AnalyzeRequest

        service = ClaraService(Clara.load(clara_artifacts["artifact"]))
        request = AnalyzeRequest.from_dict({
            "element": "udpcount",
            "workload": {"name": "t", "n_packets": 20},
        })
        n_blocks = len(prepare_element(build_element("udpcount")).blocks)
        assert n_blocks > 0
        first = service.analyze(request)
        assert predictor_lookups(service) == n_blocks
        # A repeat is answered from the memo.
        assert service.analyze(request) == first
        assert predictor_lookups(service) == n_blocks

    def test_concurrent_first_analyses_predict_on_request_threads(
        self, clara_artifacts
    ):
        from repro.click.elements import build_element
        from repro.core import Clara
        from repro.core.prepare import prepare_element
        from repro.obs.events import get_journal
        from repro.serve.schemas import (
            analysis_result_payload,
            dump_envelope,
            envelope,
            workload_from_dict,
        )

        names = ["firewall", "forcetcp", "heavyhitter", "iplookup",
                 "mazunat", "mininat", "tcpgen", "webtcp"]
        workload = {"name": "t", "n_packets": 20}
        rids = {name: f"first-{name}-{uuid.uuid4().hex}" for name in names}
        srv = build_server(Clara.load(clara_artifacts["artifact"]),
                           ServeConfig(port=0))
        srv.start()
        try:
            before = predictor_lookups(srv.service)
            barrier = threading.Barrier(len(names), timeout=30)
            responses = {}

            def worker(name):
                barrier.wait()
                responses[name] = http(
                    srv, "/v1/analyze",
                    payload={"element": name, "workload": workload},
                    headers={"X-Clara-Request-Id": rids[name]},
                )

            threads = [threading.Thread(target=worker, args=(name,))
                       for name in names]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            after = predictor_lookups(srv.service)
        finally:
            srv.shutdown()

        # Each answer equals a fresh Clara's sequential one, byte for
        # byte once the request id is stamped in.
        reference = Clara.load(clara_artifacts["artifact"])
        spec = workload_from_dict(workload)
        for name in names:
            status, _headers, body = responses[name]
            assert status == 200
            analysis = reference.analyze(name, spec)
            env = envelope("analysis_result", analysis_result_payload(
                analysis, reference.port_config(analysis)))
            env["request_id"] = rids[name]
            assert body == (dump_envelope(env) + "\n").encode("utf-8")
            # The prediction ran under the request's own context.
            kinds = {e.kind for e in get_journal().snapshot(
                request_id=rids[name])}
            assert kinds & {"cache_hit", "cache_miss"}, name
        # One predictor call per NF, each looking up all of its blocks.
        assert after - before == sum(
            len(prepare_element(build_element(name)).blocks)
            for name in names
        )

    def test_trace_seed_is_honored(self, server):
        def ask(seed):
            env = body_json(http(server, "/v1/analyze", payload={
                "element": "aggcounter",
                "workload": {"name": "t", "n_packets": 50},
                "trace_seed": seed,
            })[2])
            del env["request_id"]  # generated fresh per request
            return env

        assert ask(3) == ask(3)  # deterministic per seed


class TestColocation:
    def test_ranking_covers_all_pairs(self, server):
        elements = ["aggcounter", "udpcount", "iplookup"]
        status, _headers, body = http(server, "/v1/colocation", payload={
            "elements": elements,
            "workload": {"name": "t", "n_packets": 50},
        })
        assert status == 200
        env = body_json(body)
        assert env["kind"] == "colocation_ranking"
        pairs = env["result"]["pairs"]
        assert len(pairs) == 3  # C(3, 2)
        names = {(p["a"]["name"], p["b"]["name"]) for p in pairs}
        assert len(names) == 3
        assert [p["rank"] for p in pairs] == [0, 1, 2]

    @pytest.mark.parametrize("shape", ["large_flows", "small_flows"])
    def test_a_candidate_does_not_depend_on_the_order_of_elements(
        self, server, shape
    ):
        # Every NF profiles its own copy of the trace: the interpreter
        # rewrites packets (tcpack rewrites headers, udpcount drops
        # every TCP packet), so a shared trace leaked one NF's rewrites
        # into the next one's profile.
        elements = ["udpcount", "tcpack", "cmsketch", "mazunat"]
        spec = {"large_flows": LARGE_FLOWS, "small_flows": SMALL_FLOWS}[shape]
        workload = {
            "name": spec.name,
            "n_flows": spec.n_flows,
            "packet_bytes": spec.packet_bytes,
            "zipf_alpha": spec.zipf_alpha,
            "syn_fraction": spec.syn_fraction,
            "payload_bytes": spec.payload_bytes,
            "n_packets": 60,
        }

        def candidates(order):
            status, _headers, body = http(server, "/v1/colocation", payload={
                "elements": order, "workload": workload, "trace_seed": 1,
            })
            assert status == 200
            return {
                pair[side]["name"]: pair[side]
                for pair in body_json(body)["result"]["pairs"]
                for side in ("a", "b")
            }

        assert candidates(elements) == candidates(elements[::-1])

    def test_lazy_ranker_trains_once(self, server):
        status, _headers, body = http(server, "/healthz")
        assert status == 200
        assert body_json(body)["result"]["colocation_trained"] is True
        ranker = server.service.clara.colocation
        http(server, "/v1/colocation", payload={
            "elements": ["aggcounter", "udpcount"],
            "workload": {"name": "t", "n_packets": 50},
        })
        assert server.service.clara.colocation is ranker


class TestErrorMapping:
    def test_unknown_element_is_404(self, server):
        status, _headers, body = http(
            server, "/v1/analyze", payload={"element": "nope"}
        )
        assert status == 404
        error = body_json(body)["error"]
        assert error["type"] == "UnknownElementError"
        assert error["http_status"] == 404

    def test_invalid_workload_is_400(self, server):
        status, _headers, body = http(server, "/v1/analyze", payload={
            "element": "aggcounter", "workload": {"n_flows": 0},
        })
        assert status == 400
        assert body_json(body)["error"]["type"] == "InvalidWorkloadError"

    def test_negative_payload_is_400(self, server):
        # Was analyzed as UDP packets with an empty payload and a
        # uh_ulen of -32.
        status, _headers, body = http(server, "/v1/analyze", payload={
            "element": "udpcount",
            "workload": {"payload_bytes": -40, "udp_fraction": 1.0},
        })
        assert status == 400
        env = body_json(body)
        assert env["result"] is None
        assert env["error"]["type"] == "InvalidWorkloadError"
        assert "payload_bytes" in env["error"]["message"]

    def test_bad_wire_values_are_typed_400s(self, server):
        # Each of these was a 500 (or unbounded work) before the schema
        # checked JSON types and per-field ceilings.
        pair = ["aggcounter", "udpcount"]
        cases = [
            ("/v1/analyze", {"element": "aggcounter", "trace_seed": "abc"}),
            ("/v1/analyze", {"element": "aggcounter", "trace_seed": None}),
            ("/v1/analyze", {"element": "aggcounter", "trace_seed": -1}),
            ("/v1/analyze", {"element": "aggcounter",
                             "workload": {"n_packets": "5"}}),
            ("/v1/analyze", {"element": "aggcounter",
                             "workload": {"n_packets": 2.5}}),
            ("/v1/analyze", {"element": "aggcounter",
                             "workload": {"n_flows": 10**12}}),
            ("/v1/analyze", {"element": "aggcounter",
                             "workload": {"payload_bytes": 9_001}}),
            ("/v1/colocation", {"elements": pair, "trace_seed": True}),
            ("/v1/colocation", {"elements": pair,
                                "workload": {"n_packets": 100_001}}),
        ]
        for path, payload in cases:
            status, _headers, body = http(server, path, payload=payload)
            assert status == 400, payload
            env = body_json(body)
            assert env["result"] is None
            assert env["error"]["type"] in ("ClaraError", "InvalidWorkloadError")
            assert env["error"]["http_status"] == 400

    def test_unknown_workload_field_is_400(self, server):
        status, _headers, body = http(server, "/v1/analyze", payload={
            "element": "aggcounter", "workload": {"n_flowz": 7},
        })
        assert status == 400
        assert "n_flowz" in body_json(body)["error"]["message"]

    def test_bad_json_is_400(self, server):
        status, _headers, body = http(
            server, "/v1/analyze", raw=b"this is not json"
        )
        assert status == 400
        assert "JSON" in body_json(body)["error"]["message"]

    def test_empty_body_is_400(self, server):
        status, _headers, body = http(
            server, "/v1/analyze", raw=b"", method="POST"
        )
        assert status == 400
        assert "empty" in body_json(body)["error"]["message"]

    def test_non_numeric_content_length_is_400(self, server):
        status, env = post_with_content_length(server, "abc")
        assert status == 400
        assert env["error"]["type"] == "ClaraError"
        assert "Content-Length" in env["error"]["message"]

    def test_negative_content_length_is_400(self, server):
        # read(-1) would wait for the client to close the connection.
        status, env = post_with_content_length(server, "-1")
        assert status == 400
        assert "Content-Length" in env["error"]["message"]

    def test_oversized_content_length_is_413(self, server):
        # Read uncapped, a declared gigabyte that never arrives holds
        # the handler thread until the client's socket timeout fires.
        status, env = post_with_content_length(server, str(2**30))
        assert status == 413
        assert env["error"]["type"] == "RequestTooLargeError"
        assert env["error"]["http_status"] == 413
        assert http(server, "/healthz")[0] == 200

    @pytest.mark.parametrize("body", [
        b"[" * 100_000 + b"]" * 100_000,
        b'{"element": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
    ], ids=["bare", "in_object"])
    def test_deeply_nested_json_is_400(self, server, body):
        # The parser recurses per level; this depth was a 500.
        status, _headers, raw = http(server, "/v1/analyze", raw=body)
        assert status == 400
        env = body_json(raw)
        assert env["error"]["type"] == "ClaraError"
        assert "not valid JSON" in env["error"]["message"]

    def test_stalled_body_is_408(self, server, monkeypatch):
        # Without a socket timeout the handler waited forever for the
        # 90 bytes that never come.
        import socket
        import time

        from repro.serve.server import _Handler

        monkeypatch.setattr(_Handler, "timeout", 0.5)
        start = time.monotonic()
        with socket.create_connection((server.host, server.port),
                                      timeout=5) as sock:
            sock.sendall(b"POST /v1/analyze HTTP/1.1\r\n"
                         b"Host: clara\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: 100\r\n\r\n"
                         b'{"element"')
            response = b""
            while chunk := sock.recv(65536):  # the daemon closes
                response += chunk
        assert time.monotonic() - start < 5
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 408 ")
        env = body_json(body)
        assert env["error"]["type"] == "RequestTimeoutError"
        assert env["error"]["http_status"] == 408
        assert http(server, "/healthz")[0] == 200

    def test_response_send_timeout_is_499(self, server, monkeypatch):
        # A send timeout used to be logged as an unhandled 500, and a
        # second envelope was written to the same stuck socket.
        import socket

        from repro.obs import get_metrics
        from repro.serve.server import _Handler

        sends = []

        def stuck_send(self, status, body, content_type=None):
            sends.append(status)
            raise TimeoutError("timed out")

        def count(status):
            return get_metrics().counter(
                "http_requests_total", endpoint="/healthz",
                status=status).value

        before = count("499"), count("500")
        monkeypatch.setattr(_Handler, "_send", stuck_send)
        with socket.create_connection((server.host, server.port),
                                      timeout=5) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: clara\r\n\r\n")
            assert sock.recv(65536) == b""  # closed, nothing written
        monkeypatch.undo()
        assert sends == [200]
        assert (count("499"), count("500")) == (before[0] + 1, before[1])
        assert http(server, "/healthz")[0] == 200

    def test_unknown_request_field_is_400(self, server):
        status, _headers, body = http(server, "/v1/analyze", payload={
            "element": "aggcounter", "elemnt_typo": 1,
        })
        assert status == 400
        assert "elemnt_typo" in body_json(body)["error"]["message"]

    def test_mismatched_kind_is_400(self, server):
        status, _headers, body = http(server, "/v1/analyze", payload={
            "kind": "lint_request", "element": "aggcounter",
        })
        assert status == 400
        assert "expected kind" in body_json(body)["error"]["message"]

    def test_unknown_paths_are_404(self, server):
        for path, raw in (("/nope", None), ("/v1/nope", b"{}")):
            status, _headers, body = http(server, path, raw=raw)
            assert status == 404
            assert body_json(body)["error"]["type"] == "ClaraError"

    def test_unknown_target_is_404(self, server):
        for path, payload in (
            ("/v1/analyze", {"element": "aggcounter",
                             "target": "no-such-nic"}),
            ("/v1/lint", {"target": "no-such-nic"}),
        ):
            status, _headers, body = http(server, path, payload=payload)
            assert status == 404
            error = body_json(body)["error"]
            assert error["type"] == "UnknownTargetError"
            assert "no-such-nic" in error["message"]

    def test_bad_lint_rule_is_400_with_known_codes(self, server):
        status, _headers, body = http(
            server, "/v1/lint", payload={"only": ["CL999"]}
        )
        assert status == 400
        assert "CL001" in body_json(body)["error"]["message"]


class TestRequestCorrelation:
    """The tentpole acceptance path: one client-supplied request id is
    echoed in the response header and envelope, stamped on journal
    events, and visible in JSON log lines."""

    def test_client_id_echoed_in_header_and_envelope(self, server):
        status, headers, body = http(
            server, "/healthz",
            headers={"X-Clara-Request-Id": "abc"},
        )
        assert status == 200
        assert headers["X-Clara-Request-Id"] == "abc"
        assert body_json(body)["request_id"] == "abc"

    def test_id_minted_when_header_absent(self, server):
        _status, headers, body = http(server, "/healthz")
        rid = headers["X-Clara-Request-Id"]
        assert len(rid) == 32
        assert body_json(body)["request_id"] == rid

    def test_hostile_header_sanitized(self, server):
        _status, headers, _body = http(
            server, "/healthz",
            headers={"X-Clara-Request-Id": "x" * 500},
        )
        assert headers["X-Clara-Request-Id"] == "x" * 128

    def test_journal_events_carry_the_id(self, server):
        from repro.obs.events import get_journal

        # Unique per run: a repeated run must not read an earlier
        # run's events from the process-wide journal.
        rid = f"journal-e2e-{uuid.uuid4().hex}"
        http(server, "/v1/analyze", payload={
            "element": "aggcounter",
            "workload": {"name": "t", "n_packets": 50},
        }, headers={"X-Clara-Request-Id": rid})
        finish = poll_journal(kind="request_finish", request_id=rid)[0]
        kinds = [
            e.kind for e in get_journal().snapshot(request_id=rid)
        ]
        assert kinds[0] == "request_start"
        assert kinds[-1] == "request_finish"
        assert finish.data["endpoint"] == "/v1/analyze"
        assert finish.data["status"] == 200
        assert finish.data["duration_s"] > 0

    def test_json_log_lines_stamped_with_the_id(self, server):
        import io

        from repro import obs

        stream = io.StringIO()
        obs.configure(verbosity=2, stream=stream, fmt="json")
        try:
            http(server, "/healthz",
                 headers={"X-Clara-Request-Id": "log-e2e-1"})
        finally:
            obs.configure(verbosity=0)
        records = [
            json.loads(line) for line in stream.getvalue().splitlines()
        ]
        stamped = [r for r in records
                   if r.get("request_id") == "log-e2e-1"]
        assert stamped, records
        assert all("ts" in r and "level" in r for r in stamped)


class TestOneClock:
    """One request, one duration: the ``http_request`` span's
    ``duration_s`` is the SLO sample and the histogram sample, and the
    journal's ``request_finish`` carries it rounded to 6 decimals."""

    @pytest.mark.parametrize("path,raw,expected", [
        ("/healthz", None, 200),
        ("/v1/analyze", b"not json", 400),
    ])
    def test_span_slo_histogram_and_journal_agree(
        self, server, monkeypatch, path, raw, expected,
    ):
        from repro.obs import (
            MetricsRegistry,
            SloTracker,
            Tracer,
            current_request_id,
            set_metrics,
            set_slo_tracker,
        )
        from repro.serve import server as server_module

        tracers = []

        class KeptTracer(Tracer):
            def __init__(self):
                super().__init__()
                tracers.append(self)

        samples = []

        class KeptSlo(SloTracker):
            def observe(self, endpoint, duration_s, status=200, now=None):
                samples.append(
                    (current_request_id(), endpoint, duration_s, status)
                )
                super().observe(endpoint, duration_s, status, now)

        monkeypatch.setattr(server_module, "Tracer", KeptTracer)
        # The tracker and registry are process-global: an earlier
        # request still finishing would record into the swapped-in ones.
        wait_for_journaled_requests()
        registry = MetricsRegistry()
        previous_metrics = set_metrics(registry)
        previous_slo = set_slo_tracker(KeptSlo())
        # Unique per run: a repeated run must not find an earlier
        # run's finish event in the process-wide journal.
        rid = f"one-clock-{expected}-{uuid.uuid4().hex}"
        try:
            status, _headers, _body = http(
                server, path, raw=raw, headers={"X-Clara-Request-Id": rid}
            )
            (finish,) = poll_journal(kind="request_finish", request_id=rid)
        finally:
            set_metrics(previous_metrics)
            set_slo_tracker(previous_slo)
        assert status == expected
        (root,) = [tracer.roots[0] for tracer in tracers
                   if tracer.roots[0].attrs["request_id"] == rid]
        assert root.name == "http_request"
        duration_s = root.duration_s
        assert [sample[1:] for sample in samples if sample[0] == rid] == [
            (path, duration_s, expected)
        ]
        hist = registry.to_dict()[f'http_request_seconds{{endpoint="{path}"}}']
        assert hist["count"] == 1
        assert hist["sum"] == duration_s
        assert finish.data["duration_s"] == round(duration_s, 6)

    def test_lazy_train_duration_is_its_span(self, clara_artifacts):
        from repro.core import Clara
        from repro.obs import Tracer, use_tracer
        from repro.obs.events import get_journal
        from repro.serve import ClaraService
        from repro.serve.schemas import ColocationRequest

        service = ClaraService(Clara.load(clara_artifacts["artifact"]),
                               colocation_programs=6, colocation_groups=4)
        tracer = Tracer()
        try:
            with use_tracer(tracer):
                service.colocation(ColocationRequest.from_dict({
                    "elements": ["aggcounter", "udpcount"],
                    "workload": {"name": "t", "n_packets": 20},
                }))
        finally:
            service.close()
        (train,) = [sp for sp in tracer.iter_spans()
                    if sp.name == "colocation_train"]
        event = get_journal().snapshot(kind="colocation_train")[-1]
        assert event.data["duration_s"] == round(train.duration_s, 6)

    def test_default_tracer_holds_no_spans_after_traffic(self, server):
        import gc

        from repro.obs import TimingTracer, get_tracer
        from repro.obs.trace import Span

        def live_spans():
            gc.collect()
            return sum(isinstance(obj, Span) for obj in gc.get_objects())

        tracer = get_tracer()
        assert isinstance(tracer, TimingTracer)
        before = live_spans()
        for _ in range(100):
            assert http(server, "/healthz")[0] == 200
        assert list(tracer.iter_spans()) == []
        # One span per request would leave 100; allow the few requests
        # whose handler threads are still finishing.
        assert live_spans() - before < 10


class TestEventsEndpoint:
    def test_events_returned_with_counters(self, server):
        rid = "events-e2e-1"
        http(server, "/healthz", headers={"X-Clara-Request-Id": rid})
        poll_journal(kind="request_finish", request_id=rid)
        status, _headers, body = http(
            server, f"/v1/events?request_id={rid}"
        )
        assert status == 200
        env = body_json(body)
        assert env["kind"] == "events"
        result = env["result"]
        assert result["n_returned"] == len(result["events"]) >= 2
        assert {e["kind"] for e in result["events"]} >= {
            "request_start", "request_finish",
        }
        assert all(e["request_id"] == rid for e in result["events"])
        assert result["n_emitted"] >= result["n_returned"]
        assert "slow_request" in result["kinds"]

    def test_polling_events_is_not_journaled(self, server):
        import time

        from repro.obs.events import get_journal

        rid = "events-poller-1"
        status, headers, _body = http(
            server, "/v1/events", headers={"X-Clara-Request-Id": rid}
        )
        assert status == 200
        # Correlation still works (header echoed) but the poll itself
        # leaves no journal entries, so a steady poller cannot evict
        # the serving events it is observing.
        assert headers.get("X-Clara-Request-Id") == rid
        time.sleep(0.2)  # finish events are emitted post-response
        assert get_journal().snapshot(request_id=rid) == []

    def test_kind_filter_and_limit(self, server):
        http(server, "/healthz")
        status, _headers, body = http(
            server, "/v1/events?kind=request_finish&n=3"
        )
        assert status == 200
        events = body_json(body)["result"]["events"]
        assert 0 < len(events) <= 3
        assert all(e["kind"] == "request_finish" for e in events)

    def test_since_seq_pagination(self, server):
        status, _headers, body = http(server, "/v1/events")
        all_events = body_json(body)["result"]["events"]
        cursor = all_events[-1]["seq"]
        status, _headers, body = http(
            server, f"/v1/events?since_seq={cursor}"
        )
        newer = body_json(body)["result"]["events"]
        assert all(e["seq"] > cursor for e in newer)

    def test_unknown_kind_is_400(self, server):
        status, _headers, body = http(server, "/v1/events?kind=nope")
        assert status == 400
        assert "request_start" in body_json(body)["error"]["message"]

    def test_non_integer_since_seq_is_400(self, server):
        status, _headers, body = http(server, "/v1/events?since_seq=abc")
        assert status == 400
        assert "since_seq" in body_json(body)["error"]["message"]


class TestSloSurface:
    def test_healthz_carries_windowed_quantiles(self, server):
        http(server, "/healthz")  # at least one prior sample
        _status, _headers, body = http(server, "/healthz")
        slo = body_json(body)["result"]["slo"]
        assert slo["status"] in ("ok", "degraded")
        assert slo["window_s"] > 0
        assert set(slo["thresholds"]) == {"p99_s", "error_rate"}
        stats = slo["endpoints"]["/healthz"]
        assert stats["count"] >= 1
        assert 0 <= stats["p50_s"] <= stats["p95_s"] <= stats["p99_s"]
        assert stats["status"] in ("ok", "degraded")

    def test_metrics_has_slo_gauges_and_validates(self, server):
        from repro.obs import validate_exposition

        http(server, "/healthz")
        _status, _headers, body = http(server, "/metrics")
        text = body.decode("utf-8")
        assert validate_exposition(text) == []
        assert "slo_latency_seconds" in text
        assert 'quantile="p99"' in text
        assert "slo_degraded" in text
        assert "slo_window_requests" in text


class TestSlowRequestCapture:
    def test_span_tree_journaled_and_trace_written(self, tmp_path):
        from repro.core import Clara

        # Threshold of 1 microsecond: every request is "slow".
        srv = build_server(Clara(seed=0), ServeConfig(
            port=0, slow_request_ms=0.001,
            slow_trace_dir=str(tmp_path / "slow"),
        ))
        srv.start()
        rid = "slow-e2e-1"
        try:
            status, _headers, body = http(
                srv, "/healthz", headers={"X-Clara-Request-Id": rid}
            )
            events = poll_journal(kind="slow_request", request_id=rid)
        finally:
            srv.shutdown()
        assert len(events) == 1
        data = events[0].data
        assert data["endpoint"] == "/healthz"
        assert data["duration_s"] >= data["threshold_s"]
        # The captured forest: an http_request root stamped with the id.
        roots = data["spans"]
        assert roots and roots[0]["name"] == "http_request"
        assert roots[0]["attrs"]["request_id"] == rid
        assert roots[0]["span_id"]
        # And the Chrome trace file landed where configured.
        trace_file = data["trace_file"]
        assert trace_file and trace_file.endswith(f"slow-{rid}.trace.json")
        with open(trace_file, encoding="utf-8") as handle:
            assert json.load(handle)["traceEvents"]

    def test_hostile_request_id_cannot_escape_trace_dir(self, tmp_path):
        import os

        from repro.core import Clara

        trace_dir = tmp_path / "slow"
        srv = build_server(Clara(seed=0), ServeConfig(
            port=0, slow_request_ms=0.001,
            slow_trace_dir=str(trace_dir),
        ))
        srv.start()
        rid = "../../../../tmp/evil"
        try:
            http(srv, "/healthz", headers={"X-Clara-Request-Id": rid})
            events = poll_journal(kind="slow_request", request_id=rid)
        finally:
            srv.shutdown()
        assert len(events) == 1
        trace_file = events[0].data["trace_file"]
        assert trace_file is not None
        # The path separators were replaced, so the file landed inside
        # the configured directory — not four levels up.
        real_dir = os.path.realpath(str(trace_dir))
        assert os.path.realpath(trace_file).startswith(real_dir + os.sep)
        assert os.path.basename(trace_file) == \
            "slow-.._.._.._.._tmp_evil.trace.json"
        assert os.path.exists(trace_file)
        assert not (tmp_path / "tmp" / "evil").exists()

    def test_fast_requests_not_captured(self, server):
        from repro.obs.events import get_journal

        rid = "fast-e2e-1"
        http(server, "/healthz", headers={"X-Clara-Request-Id": rid})
        assert get_journal().snapshot(kind="slow_request",
                                      request_id=rid) == []

    def test_retrievable_over_the_wire(self, tmp_path):
        import time

        from repro.core import Clara

        srv = build_server(Clara(seed=0), ServeConfig(
            port=0, slow_request_ms=0.001,
        ))
        srv.start()
        rid = "slow-e2e-2"
        events = []
        try:
            http(srv, "/healthz", headers={"X-Clara-Request-Id": rid})
            # Capture happens after the response is sent (the duration
            # isn't known until then), so poll briefly.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                _s, _h, body = http(
                    srv, f"/v1/events?kind=slow_request&request_id={rid}"
                )
                events = body_json(body)["result"]["events"]
                if events:
                    break
                time.sleep(0.02)
        finally:
            srv.shutdown()
        assert len(events) == 1
        assert events[0]["data"]["spans"]


class TestEventsCli:
    def test_json_output_matches_http_body_bytes(self, server, capsys):
        http(server, "/healthz")
        query = "/v1/events?kind=request_finish&n=2"
        _s, _h, body = http(server, query)

        assert main(["events", "--url", server.url().rstrip("/"),
                     "--kind", "request_finish", "-n", "2",
                     "--json"]) == 0
        cli_out = capsys.readouterr().out.encode("utf-8")
        # Same envelope serializer; the CLI relays the body verbatim
        # (modulo its own request adding events between the two reads,
        # so compare shapes, not the event list).
        cli_env = json.loads(cli_out)
        http_env = body_json(body)
        assert cli_env["kind"] == http_env["kind"] == "events"
        assert cli_env["schema"] == http_env["schema"]
        assert set(cli_env["result"]) == set(http_env["result"])

    def test_table_output_and_jsonl_export(self, server, capsys, tmp_path):
        rid = "cli-events-1"
        http(server, "/healthz", headers={"X-Clara-Request-Id": rid})
        poll_journal(kind="request_finish", request_id=rid)
        out_path = tmp_path / "events.jsonl"
        assert main(["events", "--url", server.url().rstrip("/"),
                     "--for-request", rid,
                     "--jsonl", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "request_start" in out and "request_finish" in out
        assert rid in out
        lines = out_path.read_text().splitlines()
        assert len(lines) >= 2
        assert all(json.loads(line)["request_id"] == rid
                   for line in lines)

    def test_unreachable_daemon_is_clara_error(self, capsys):
        # Port 9 (discard) is never a clara daemon.
        code = main(["events", "--url", "http://127.0.0.1:9",
                     "--timeout", "0.5"])
        assert code != 0
        assert "cannot reach" in capsys.readouterr().err

    def test_bad_kind_surfaces_daemon_message(self, server, capsys):
        code = main(["events", "--url", server.url().rstrip("/"),
                     "--kind", "nope"])
        assert code != 0
        err = capsys.readouterr().err
        assert "HTTP 400" in err and "unknown event kind" in err
