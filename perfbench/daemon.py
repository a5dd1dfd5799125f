"""Driving ``clara serve`` from outside: process lifecycle, one
closed-loop load generator, response checks and ``/proc`` readings."""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from perfbench.workloads import Request

HOST = "127.0.0.1"
#: a daemon that is not listening by then has failed to start.
LISTEN_TIMEOUT_S = 60.0
#: longest single analyze the workloads send is ~2 s; anything far
#: beyond that is a hung daemon.
REQUEST_TIMEOUT_S = 60.0
_LISTEN_RE = re.compile(r"listening on http://[^:]+:(\d+)/")
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class DaemonError(RuntimeError):
    """The daemon failed to start, answer or stop."""


class Daemon:
    """One ``python -m repro serve --load <artifact> --port 0`` process
    with default serving flags.  Its stderr is drained by a thread, so
    a chatty daemon can never block on a full pipe."""

    def __init__(self, root: str, artifact: str, env: Dict[str, str]) -> None:
        self.port: Optional[int] = None
        self._stderr: List[str] = []
        self._listening = threading.Event()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--load", artifact,
             "--port", "0"],
            cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self._drain = threading.Thread(target=self._read_stderr, daemon=True)
        self._drain.start()

    def _read_stderr(self) -> None:
        assert self.proc.stderr is not None
        for line in self.proc.stderr:
            if len(self._stderr) < 200:
                self._stderr.append(line.rstrip())
            match = _LISTEN_RE.search(line)
            if match and self.port is None:
                self.port = int(match.group(1))
                self._listening.set()
        self._listening.set()  # EOF: the daemon exited

    def wait_listening(self) -> int:
        if not self._listening.wait(LISTEN_TIMEOUT_S) or self.port is None:
            raise DaemonError(
                "daemon did not start listening:\n" + "\n".join(self._stderr)
            )
        return self.port

    def get(self, path: str) -> bytes:
        status, _rid, body = http_call(self.wait_listening(), "GET", path)
        if status != 200:
            raise DaemonError(f"GET {path} -> HTTP {status}")
        return body

    def cpu_seconds(self) -> float:
        """User + system CPU time of the daemon so far."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        """The daemon's VmHWM (peak resident set), MiB."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise DaemonError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Kill the daemon and return once it and its reader have
        ended.  SIGKILL, not SIGTERM: a clean shutdown waits out the
        server's 0.5 s poll interval, and the daemon keeps no state
        worth flushing."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._drain.join(timeout=10)
        self.proc.stderr.close()


def http_call(port: int, method: str, path: str, body: Optional[bytes] = None,
              request_id: Optional[str] = None
              ) -> Tuple[int, Optional[str], bytes]:
    """One request on a fresh connection, as every client of the
    daemon in the repo makes them: ``(status, echoed id, body)``."""
    conn = http.client.HTTPConnection(HOST, port, timeout=REQUEST_TIMEOUT_S)
    try:
        headers = {}
        if body is not None:
            headers["Content-Type"] = "application/json"
        if request_id is not None:
            headers["X-Clara-Request-Id"] = request_id
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        data = resp.read()
        return resp.status, resp.getheader("X-Clara-Request-Id"), data
    finally:
        conn.close()


@dataclass
class Checker:
    """Checks every analyze response as it arrives.

    A response passes when it is HTTP 200 with kind
    ``analysis_result``, echoes the request id in the header and the
    envelope, and its body minus the id is byte-identical to every
    other response to the same request in the run.  One body per
    request is kept for the in-process parity check."""

    digests: Dict[Request, str] = field(default_factory=dict)
    bodies: Dict[Request, Tuple[str, bytes]] = field(default_factory=dict)
    #: requests whose responses disagreed (each such response failed).
    inconsistent: set = field(default_factory=set)
    errors: List[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def check(self, request: Request, rid: str, status: int,
              echoed: Optional[str], body: bytes) -> bool:
        with self._lock:
            return self._check(request, rid, status, echoed, body)

    def _check(self, request: Request, rid: str, status: int,
               echoed: Optional[str], body: bytes) -> bool:
        try:
            env = json.loads(body)
        except ValueError:
            return self.fail(f"{rid}: body is not JSON (HTTP {status})")
        if status != 200 or env.get("kind") != "analysis_result" \
                or env.get("error") is not None:
            return self.fail(f"{rid}: HTTP {status} kind={env.get('kind')}"
                              f" error={env.get('error')}")
        if echoed != rid or env.get("request_id") != rid:
            return self.fail(f"{rid}: request id not echoed"
                              f" (header {echoed!r},"
                              f" envelope {env.get('request_id')!r})")
        marker = json.dumps(rid).encode()
        if body.count(marker) != 1:
            return self.fail(f"{rid}: request id appears"
                              f" {body.count(marker)} times in the body")
        digest = hashlib.sha256(body.replace(marker, b"")).hexdigest()
        first = self.digests.setdefault(request, digest)
        if first != digest:
            self.inconsistent.add(request)
            return self.fail(f"{rid}: result differs from an earlier"
                              f" response to {request}")
        self.bodies.setdefault(request, (rid, body))
        return True

    def fail(self, message: str) -> bool:
        """Record why a response failed (the first 20 reasons)."""
        if len(self.errors) < 20:
            self.errors.append(message)
        return False


@dataclass
class Sample:
    request: Request
    rid: str
    latency_s: float
    ok: bool


def send(port: int, request: Request, rid: str,
         checker: Checker) -> Sample:
    """POST one analyze request and check the response; a transport
    error is a failed sample."""
    payload = json.dumps(request.wire()).encode()
    t0 = time.perf_counter()
    try:
        status, echoed, body = http_call(port, "POST", "/v1/analyze",
                                         payload, rid)
    except (OSError, http.client.HTTPException) as exc:
        checker.fail(f"{rid}: {type(exc).__name__}: {exc}")
        return Sample(request, rid, time.perf_counter() - t0, False)
    latency = time.perf_counter() - t0
    return Sample(request, rid, latency,
                  checker.check(request, rid, status, echoed, body))


class LoadGenerator:
    """A closed loop over one request stream: ``clients`` threads each
    send the stream's next request as soon as their previous one is
    complete.  The timed phase is run as segments (:meth:`segment`)
    that continue the same stream, so the phase can be spread through
    a run; the samples, wall time and client CPU time add up."""

    def __init__(self, port: int, stream: Iterator[Request], clients: int,
                 round_size: int, checker: Checker, rid_prefix: str) -> None:
        self.port = port
        self.stream = stream
        self.clients = clients
        self.round_size = round_size
        self.checker = checker
        self.rid_prefix = rid_prefix
        self.samples: List[Sample] = []
        self.wall_s = 0.0
        self.client_cpu_s = 0.0
        self._issued = 0
        self._lock = threading.Lock()

    def segment(self, seconds: float, finish_round: bool = False) -> None:
        """Send for ``seconds`` (then, with ``finish_round``, on to the
        next round boundary, a multiple of ``round_size`` requests);
        requests in flight at the end complete and count."""
        start = time.perf_counter()
        deadline = start + seconds
        cpu0 = time.process_time()
        threads = [threading.Thread(target=self._client,
                                    args=(deadline, finish_round))
                   for _ in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.wall_s += time.perf_counter() - start
        self.client_cpu_s += time.process_time() - cpu0

    def _client(self, deadline: float, finish_round: bool) -> None:
        while True:
            with self._lock:
                if time.perf_counter() >= deadline and not (
                        finish_round and self._issued % self.round_size):
                    return
                request = next(self.stream)
                rid = f"{self.rid_prefix}-{self._issued}"
                self._issued += 1
            sample = send(self.port, request, rid, self.checker)
            with self._lock:
                self.samples.append(sample)
