#!/usr/bin/env python3
"""Smoke-drive the ``clara serve`` daemon end to end, out of process.

This is what CI's ``serve-smoke`` job runs: it exercises the daemon
exactly as an operator would —

1. launch ``python -m repro serve`` as a subprocess on a free port
   (pass a saved artifact path as ``argv[1]`` to skip training;
   otherwise the daemon trains quick-mode through the artifact cache);
2. poll ``GET /healthz`` until the daemon reports ready;
3. drive one request through every endpoint — analyze, lint,
   colocation — and check each response envelope; the analyze request
   carries an ``X-Clara-Request-Id`` and the echo is asserted (header
   and envelope);
3a. send the same analyze request again: the body must be
   byte-identical apart from its ``request_id``, and the prediction
   cache's hits + misses on ``/healthz`` must not move, because a warm
   daemon answers a repeat from its memo without touching the
   predictor;
4. confirm the error mapping (an unknown element must be a 404 with a
   typed error body, not a 500);
5. read the correlated events back from ``GET /v1/events`` and export
   the whole journal with ``clara events --jsonl serve_events.jsonl``
   (CI uploads the file as a build artifact);
6. scrape ``GET /metrics``, check the request counters moved, and run
   the payload through the strict exposition-format validator;
7. check that the daemon times each request once: the analyze latency
   histogram's count and sum match the journal's ``request_finish``
   events for ``/v1/analyze`` (whose durations are rounded to 6
   decimals, so the sums agree within 1e-6 per request);
8. SIGTERM the daemon and require a clean exit status 0.

Any failed check raises, which exits non-zero and fails the job.

Run:  python examples/serve_smoke.py [artifact.pkl]
"""

import json
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request

#: generous deadline: a cold cache means the daemon trains first.
READY_DEADLINE_S = 600


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def request(url, payload=None, timeout=120, request_id=None):
    """``(status, parsed_body)``; HTTP error statuses are returned.
    ``request_id`` rides the ``X-Clara-Request-Id`` header."""
    data = None
    headers = {}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    if request_id is not None:
        headers["X-Clara-Request-Id"] = request_id
    req = urllib.request.Request(url, data=data, headers=headers)
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, resp.read(), dict(resp.headers)
    except urllib.error.HTTPError as err:
        return err.code, err.read(), dict(err.headers)


#: wire schema this client speaks (see repro.serve.schemas.WIRE_SCHEMA)
WIRE_SCHEMA = 4


def envelope_of(body, expected_kind):
    env = json.loads(body.decode("utf-8"))
    assert env["schema"] == WIRE_SCHEMA, env
    assert env["kind"] == expected_kind, env
    assert env["error"] is None, env
    return env["result"]


def predictor_lookups(base):
    """Prediction-cache hits + misses so far, from ``/healthz``."""
    status, body, _headers = request(f"{base}/healthz")
    assert status == 200, (status, body)
    cache = envelope_of(body, "health")["predictor"]["cache"]
    return cache["hits"] + cache["misses"]


def wait_ready(base, proc):
    deadline = time.monotonic() + READY_DEADLINE_S
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(
                f"daemon exited early with status {proc.returncode}"
            )
        try:
            status, body, _headers = request(f"{base}/healthz", timeout=5)
        except (urllib.error.URLError, ConnectionError, TimeoutError):
            time.sleep(0.5)
            continue
        if status == 200:
            return envelope_of(body, "health")
        time.sleep(0.5)
    raise SystemExit(f"daemon not ready after {READY_DEADLINE_S}s")


def main() -> None:
    port = free_port()
    base = f"http://127.0.0.1:{port}"
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--port", str(port),
        "--colocation-programs", "6", "--colocation-groups", "4",
    ]
    if len(sys.argv) > 1:
        cmd += ["--load", sys.argv[1]]
    print(f"launching: {' '.join(cmd)}")
    proc = subprocess.Popen(cmd)
    try:
        health = wait_ready(base, proc)
        assert health["ready"] is True, health
        print(f"ready: wire schema {health['wire_schema']},"
              f" kinds {health['request_kinds']}")

        rid = "smoke-analyze-1"
        analyze = {
            "element": "aggcounter",
            "workload": {"name": "smoke", "n_flows": 4096,
                         "n_packets": 60},
        }
        status, body, headers = request(f"{base}/v1/analyze", analyze,
                                         request_id=rid)
        assert status == 200, (status, body)
        assert headers.get("X-Clara-Request-Id") == rid, headers
        env = json.loads(body.decode("utf-8"))
        assert env["request_id"] == rid, env
        result = envelope_of(body, "analysis_result")
        assert result["report"]["nf_name"] == "aggcounter", result
        assert result["port_config"]["cores"] >= 1, result
        print("analyze: ok (request id echoed)")

        lookups = predictor_lookups(base)
        repeat_rid = "smoke-analyze-2"
        status, repeat, _headers = request(f"{base}/v1/analyze", analyze,
                                           request_id=repeat_rid)
        assert status == 200, (status, repeat)
        assert repeat == body.replace(f'"{rid}"'.encode(),
                                      f'"{repeat_rid}"'.encode()), \
            "a repeated analyze changed its answer"
        assert predictor_lookups(base) == lookups, \
            "a repeated analyze reached the predictor"
        print("repeat analyze: ok (same bytes, predictor untouched)")

        status, body, _headers = request(f"{base}/v1/lint",
                                         {"elements": ["aggcounter"]})
        assert status == 200, (status, body)
        result = envelope_of(body, "lint_run")
        assert result["reports"][0]["module"] == "aggcounter", result
        print(f"lint: ok ({result['n_warnings']} warning(s))")

        status, body, _headers = request(f"{base}/v1/lint", {
            "elements": ["aggcounter"], "target": "dpu-offpath",
        })
        assert status == 200, (status, body)
        result = envelope_of(body, "lint_run")
        assert result["target"] == "dpu-offpath", result
        print("lint (dpu-offpath): ok")

        status, body, _headers = request(f"{base}/v1/colocation", {
            "elements": ["aggcounter", "udpcount", "iplookup"],
            "workload": {"name": "smoke", "n_packets": 50},
        })
        assert status == 200, (status, body)
        result = envelope_of(body, "colocation_ranking")
        assert len(result["pairs"]) == 3, result
        print("colocation: ok (3 ranked pairs)")

        status, body, _headers = request(f"{base}/v1/analyze",
                                         {"element": "nope"})
        assert status == 404, (status, body)
        error = json.loads(body.decode("utf-8"))["error"]
        assert error["type"] == "UnknownElementError", error
        print("error mapping: ok (unknown element -> 404)")

        status, body, _headers = request(f"{base}/v1/analyze", {
            "element": "aggcounter", "target": "no-such-nic",
        })
        assert status == 404, (status, body)
        error = json.loads(body.decode("utf-8"))["error"]
        assert error["type"] == "UnknownTargetError", error
        print("error mapping: ok (unknown target -> 404)")

        status, body, _headers = request(
            f"{base}/v1/events?request_id={rid}"
        )
        assert status == 200, (status, body)
        result = envelope_of(body, "events")
        kinds = [e["kind"] for e in result["events"]]
        assert "request_start" in kinds, kinds
        assert all(e["request_id"] == rid for e in result["events"]), \
            result["events"]
        print(f"events: ok ({result['n_returned']} event(s) for {rid})")

        # The CLI client over the same endpoint, exporting the full
        # journal as JSON lines (CI uploads this as a build artifact).
        subprocess.run(
            [sys.executable, "-m", "repro", "events", "--url", base,
             "--jsonl", "serve_events.jsonl"],
            check=True,
        )
        with open("serve_events.jsonl", encoding="utf-8") as handle:
            n_lines = sum(1 for _ in handle)
        assert n_lines > 0, "empty event journal export"
        print(f"clara events: ok ({n_lines} journal line(s) exported)")

        status, body, _headers = request(f"{base}/metrics")
        assert status == 200, status
        text = body.decode("utf-8")
        assert "http_requests_total" in text, text[:400]
        assert 'endpoint="/v1/analyze"' in text, text[:400]
        assert "slo_latency_seconds" in text, text[:400]
        from repro.obs import validate_exposition

        problems = validate_exposition(text)
        assert not problems, problems
        print("metrics: ok (exposition format validated)")

        status, body, _headers = request(
            f"{base}/v1/events?kind=request_finish"
        )
        assert status == 200, (status, body)
        durations = [
            e["data"]["duration_s"]
            for e in envelope_of(body, "events")["events"]
            if e["data"]["endpoint"] == "/v1/analyze"
        ]
        samples = dict(line.rsplit(" ", 1) for line in text.splitlines()
                       if not line.startswith("#"))
        series = '{endpoint="/v1/analyze"}'
        hist_count = int(samples["http_request_seconds_count" + series])
        hist_sum = float(samples["http_request_seconds_sum" + series])
        assert hist_count == len(durations) > 0, (hist_count, durations)
        assert abs(hist_sum - sum(durations)) <= 1e-6 * len(durations), \
            (hist_sum, durations)
        print(f"one clock: ok ({hist_count} analyze request(s), histogram"
              f" sum {hist_sum} = journal sum within 1e-6 each)")
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        returncode = proc.wait(timeout=30)
    assert returncode == 0, f"daemon exited {returncode}, expected 0"
    print("serve smoke: all checks passed, clean shutdown")


if __name__ == "__main__":
    main()
