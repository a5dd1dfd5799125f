#!/usr/bin/env python3
"""Benchmark of the ``clara serve`` analysis daemon.

One run starts ``python -m repro serve --load <artifact>`` with its
default flags, drives it with one closed-loop load generator for
``--seconds`` seconds, checks every response, and prints the run's
metrics as the last line of stdout::

    python3 perfbench/run.py --workload serve_short_trace --seed 1 \\
        --seconds 32 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same traffic and then replays it in-process, printing the per-layer
metrics instead.  ``--repeat N`` runs one workload N times on
consecutive seeds and prints each end-to-end metric's median and
quartile spread next to its bound in ``BENCHMARK.json``.

Run from anywhere; the checkout is the parent of this directory.  See
``perfbench/README.md`` for the workloads, metrics and layer map.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import daemon as dm  # noqa: E402
from perfbench import inprocess  # noqa: E402
from perfbench import stats  # noqa: E402
from perfbench import workloads as wl  # noqa: E402

SRC = ROOT / "src"
#: where artifacts and per-run scratch live, inside the checkout.
WORK = ROOT / ".perfbench"
#: the timed phase runs as this many segments, each followed by a
#: timed set-up start; with the serving daemon's own start that makes
#: SEGMENTS + 1 set-up samples.
SEGMENTS = 4
#: set-up probes of the traced run (fresh processes).
SETUP_PROBES = 3
#: the load generator may use at most this share of one core.
MAX_CLIENT_CORE_SHARE = 0.10

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_rps": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {
    **{name: "ms" for name in inprocess.LAYERS},
    "click.interp_us_per_packet": "us",
    "core.predictor.cache_hit_ratio": "ratio",
    "ml.lstm.infer_ms": "ms",
    "serve.overhead_ms": "ms",
    "serve.broker_wait_ms": "ms",
    "serve.broker_jobs_per_batch": "count",
    "serve.daemon_cpu_util": "ratio",
    "setup.import_s": "s",
    "setup.load_s": "s",
    "setup.first_analyze_ms": "ms",
    "core.analyze_ms": "ms",
    "layers.coverage": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no result is printed)."""


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# -- the checkout -----------------------------------------------------------
def source_digest() -> str:
    """Content hash of the program's sources: an artifact is reused
    only by the exact code that trained it."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def program_env(cache_dir: Path) -> Dict[str, str]:
    """The daemon's environment: this checkout's sources and a private
    artifact cache (never ``~/.cache/repro-clara``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CLARA_CACHE"] = str(cache_dir)
    return env


def ensure_artifact() -> Path:
    """Train the quick artifact once per checkout, outside all
    timing; later runs of the same sources reuse it."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(f"no program sources under {SRC}")
    WORK.mkdir(exist_ok=True)
    artifact = WORK / f"clara-quick-{source_digest()}.pkl"
    with open(WORK / "train.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if artifact.is_file():
            return artifact
        log(f"training the quick artifact {artifact.name} (once per checkout)")
        scratch = Path(tempfile.mkdtemp(prefix="train-", dir=WORK))
        try:
            partial = scratch / "clara.pkl"
            subprocess.run(
                [sys.executable, "-m", "repro", "train", "--quick",
                 "--save", str(partial)],
                cwd=ROOT, env=program_env(scratch / "cache"),
                stdout=subprocess.DEVNULL, check=True, timeout=800,
            )
            os.replace(partial, artifact)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    return artifact


def host_probe_ms() -> float:
    """A fixed pure-Python loop, best of three (context only)."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


# -- one run ------------------------------------------------------------------
class Run:
    def __init__(self, args, artifact: Path, scratch: Path) -> None:
        self.args = args
        self.workload = wl.WORKLOADS[args.workload]
        self.artifact = str(artifact)
        self.env = program_env(scratch / "cache")
        self.checker = dm.Checker()
        self.record: Dict[str, object] = {}
        self.problems: List[str] = []
        self._n_starts = 0
        #: the traced run's in-process ClaraService (closed by close()).
        self.service = None

    def close(self) -> None:
        if self.service is not None:
            self.service.close()

    def start_daemon(self):
        self._n_starts += 1
        return dm.Daemon(str(ROOT), self.artifact, self.env)

    def first_answer(self, daemon: dm.Daemon, t0: float) -> float:
        """Seconds from ``t0`` (the launch) to the first correct answer
        to the fixed set-up request."""
        port = daemon.wait_listening()
        sample = dm.send(port, wl.SETUP_REQUEST, f"setup-{self._n_starts}",
                         self.checker)
        if not sample.ok:
            raise dm.DaemonError("set-up request failed: "
                                 + "; ".join(self.checker.errors[-1:]))
        return time.perf_counter() - t0

    def setup_start(self) -> float:
        t0 = time.perf_counter()
        daemon = self.start_daemon()
        try:
            return self.first_answer(daemon, t0)
        finally:
            daemon.stop()

    def execute(self) -> Dict[str, object]:
        args, workload = self.args, self.workload
        run_t0 = time.perf_counter()
        self.record["host_probe_before_ms"] = round(host_probe_ms(), 3)
        # Untimed priming start (page cache, first-touch costs); the
        # benchmark's own import of the program overlaps it.
        t0 = time.perf_counter()
        priming = self.start_daemon()
        try:
            inprocess.import_program(str(SRC))
            self.first_answer(priming, t0)
        finally:
            priming.stop()

        # The serving daemon's start is the first set-up sample; the
        # timed phase runs as segments with a set-up start after each,
        # so both are spread through the run and see the host's slow
        # speed drift alike.  The traced run skips the set-up starts.
        setup_s: List[float] = []
        between = (lambda: None) if args.trace else \
            (lambda: setup_s.append(self.setup_start()))
        t0 = time.perf_counter()
        daemon = self.start_daemon()
        try:
            setup_s.append(self.first_answer(daemon, t0))
            port = daemon.wait_listening()
            for i, request in enumerate(wl.warmup_requests(workload)):
                if not dm.send(port, request, f"warm-{i}", self.checker).ok:
                    self.problems.append(f"warm-up request {request} failed")
            before = stats.parse_prometheus(daemon.get("/metrics").decode())
            cache_before = json.loads(daemon.get("/healthz"))["result"][
                "predictor"]["cache"]
            phase = dm.LoadGenerator(
                port, wl.request_stream(workload, args.seed),
                min(workload.clients, os.cpu_count() or 1),
                len(workload.nfs), self.checker, rid_prefix=f"pb{args.seed}")
            daemon_cpu = 0.0
            for i in range(SEGMENTS):
                cpu0 = daemon.cpu_seconds()
                phase.segment(args.seconds / SEGMENTS,
                              finish_round=i == SEGMENTS - 1)
                daemon_cpu += daemon.cpu_seconds() - cpu0
                if i < SEGMENTS - 1:
                    between()
            after = stats.parse_prometheus(daemon.get("/metrics").decode())
            cache_after = json.loads(daemon.get("/healthz"))["result"][
                "predictor"]["cache"]
            peak_rss_mb = daemon.peak_rss_mb()
            overhead_ms = self.overhead_probe(port) if args.trace else None
        finally:
            daemon.stop()
        between()

        failed_requests = self.parity_check(phase)
        ok = [s for s in phase.samples
              if s.ok and s.request not in failed_requests
              and s.request not in self.checker.inconsistent]
        n_failed = len(phase.samples) - len(ok)
        self.check_client(phase)
        self.record.update({
            "clients": phase.clients,
            "timed_phase_s": round(phase.wall_s, 3),
            "requests_sent": len(phase.samples),
            "requests_failed": n_failed,
            "setup_samples_s": [round(s, 4) for s in setup_s],
        })

        if args.trace:
            hits = cache_after["hits"] - cache_before["hits"]
            misses = cache_after["misses"] - cache_before["misses"]
            metrics = self.layer_metrics(phase, before, after, hits, misses,
                                         daemon_cpu, overhead_ms)
            units = PER_LAYER_UNITS
        else:
            latencies_ms = [s.latency_s * 1e3 for s in ok]
            metrics = {
                "latency_p50_ms": stats.percentile(latencies_ms, 50, n_failed),
                "latency_p90_ms": stats.percentile(latencies_ms, 90, n_failed),
                "throughput_rps": len(ok) / phase.wall_s,
                "setup_s": statistics.median(setup_s),
                "peak_rss_mb": peak_rss_mb,
            }
            units = END_TO_END_UNITS
        self.record["host_probe_after_ms"] = round(host_probe_ms(), 3)
        self.record["run_wall_s"] = round(time.perf_counter() - run_t0, 2)
        self.problems += self.checker.errors
        return {
            "correct": not self.problems and n_failed == 0,
            "attempted": len(phase.samples),
            "failed": n_failed,
            "metrics": {
                name: {"value": stats.finite_or_max(metrics[name]),
                       "unit": units[name]}
                for name in units
            },
        }

    def check_client(self, phase: dm.LoadGenerator) -> None:
        """The load generator must stay a small load on the host."""
        share = phase.client_cpu_s / phase.wall_s
        self.record["client_cpu_ms_per_request"] = round(
            stats.ratio(phase.client_cpu_s * 1e3, len(phase.samples)), 3)
        self.record["client_core_share"] = round(share, 4)
        if share > MAX_CLIENT_CORE_SHARE:
            self.problems.append(
                f"load generator used {share:.1%} of a core"
                f" (limit {MAX_CLIENT_CORE_SHARE:.0%}): figures are invalid")

    def parity_check(self, phase: dm.LoadGenerator) -> set:
        """Compare a seeded sample covering every NF (timed-phase
        requests where the phase reached the NF, warm-up requests
        otherwise) plus the set-up request with the in-process library
        path: no broker, no cache.  Returns the requests whose
        responses disagreed."""
        clara = inprocess.load_clara(self.artifact)
        timed = wl.parity_sample(
            [s.request for s in phase.samples if s.ok], self.workload,
            self.args.seed)
        covered = {r.nf for r in timed}
        sample = timed + [r for r in wl.warmup_requests(self.workload)
                          if r.nf not in covered] + [wl.SETUP_REQUEST]
        wrong = set()
        for request in sample:
            kept = self.checker.bodies.get(request)
            if kept is None:
                self.problems.append(f"no correct response to {request}")
                continue
            rid, body = kept
            if inprocess.expected_body(clara, request, rid) != body:
                wrong.add(request)
                self.problems.append(
                    f"HTTP response differs from the in-process result"
                    f" for {request}")
        self.record["parity_checked"] = len(sample)
        return wrong

    # -- the traced run -------------------------------------------------
    def overhead_probe(self, port: int) -> float:
        """``serve.overhead_ms``: one-client HTTP latency minus
        in-process ``ClaraService.analyze`` + ``dump_envelope`` for the
        same request.  Each of the workload's warm-up requests is
        measured in HTTP, local, local, HTTP order (so both sides see
        the same host speed), five times if it takes under 0.1 s and
        once otherwise; the metric is the median over all pairs, so the
        cheap requests, whose differences host noise disturbs least,
        dominate it.  The service built and warmed here is the one the
        layer replay then uses."""
        self.service = inprocess.serving_service(
            inprocess.load_clara(self.artifact))
        for request in wl.warmup_requests(self.workload):
            inprocess.service_call_ms(self.service, request)
        http_ms: List[float] = []
        local_ms: List[float] = []
        for i, request in enumerate(wl.warmup_requests(self.workload)):
            for rep in range(5):
                if rep and local_ms[-1] >= 100.0:
                    break
                a = dm.send(port, request, f"probe-{i}-{rep}a", self.checker)
                b1 = inprocess.service_call_ms(self.service, request)
                b2 = inprocess.service_call_ms(self.service, request)
                c = dm.send(port, request, f"probe-{i}-{rep}b", self.checker)
                if not (a.ok and c.ok):
                    self.problems.append(f"overhead probe {request} failed")
                http_ms.append((a.latency_s + c.latency_s) * 1e3 / 2)
                local_ms.append((b1 + b2) / 2)
        self.record["overhead_pairs"] = len(http_ms)
        return stats.median_difference(http_ms, local_ms)

    def layer_metrics(self, phase, before, after, hits, misses, daemon_cpu,
                      overhead_ms) -> Dict[str, float]:
        layer_ms, whole_ms = inprocess.replay(
            self.service.clara, [s.request for s in phase.samples],
            round_size=len(self.workload.nfs),
            budget_s=self.args.seconds)
        requests = [s.request for s in phase.samples][:len(whole_ms)]
        infer_ms = inprocess.lstm_infer_ms(
            inprocess.load_clara(self.artifact), self.workload.nfs)
        probes = [
            inprocess.setup_probe(str(ROOT), self.env, self.artifact)
            for _ in range(SETUP_PROBES)
        ]
        per_packet_us = [
            ms * 1e3 / r.n_packets
            for ms, r in zip(layer_ms["click.interp_ms"], requests)
        ]
        self.record.update({
            "replayed_requests": len(requests),
            "coverage_base": {
                "layers_total_ms": round(sum(map(sum, layer_ms.values())), 3),
                "analyze_total_ms": round(sum(whole_ms), 3),
            },
            "cache_hit_ratio_base": {"hits": hits, "misses": misses},
            "broker_base": {
                name: stats.counter_delta(before, after, name)
                for name in ("serve_batches_total",
                             "serve_batched_requests_total",
                             "serve_batch_wait_seconds_sum",
                             "serve_batch_wait_seconds_count")
            },
            "daemon_cpu_base": {"cpu_s": round(daemon_cpu, 3),
                                "wall_s": round(phase.wall_s, 3)},
            "layer_medians_ms": {name: round(statistics.median(v), 3)
                                 for name, v in layer_ms.items()},
        })
        # Layer times are means per request, not medians: means add up
        # to core.analyze_ms, while the median of a bimodal mix picks
        # one mode and hides the other (serve_large_nf's lint).
        metrics: Dict[str, float] = {
            name: statistics.fmean(values)
            for name, values in layer_ms.items()
        }
        metrics.update({
            "click.interp_us_per_packet": statistics.median(per_packet_us),
            "core.predictor.cache_hit_ratio": stats.ratio(
                hits, hits + misses),
            "ml.lstm.infer_ms": infer_ms,
            "serve.overhead_ms": overhead_ms,
            **stats.broker_metrics(before, after),
            "serve.daemon_cpu_util": daemon_cpu / phase.wall_s,
            "setup.import_s": statistics.median(p["import_s"] for p in probes),
            "setup.load_s": statistics.median(p["load_s"] for p in probes),
            "setup.first_analyze_ms": statistics.median(
                p["first_analyze_ms"] for p in probes),
            "core.analyze_ms": statistics.fmean(whole_ms),
            "layers.coverage": stats.coverage(layer_ms, whole_ms),
        })
        return metrics


# -- steadiness tooling -------------------------------------------------------
def repeat(args) -> int:
    """Run one workload ``--repeat`` times on consecutive seeds and
    print each end-to-end metric's median and quartile spread next to
    its bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    values: Dict[str, List[float]] = {name: [] for name in bounds}
    for i in range(args.repeat):
        seed = args.seed + i
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
            return 1
        result = json.loads(lines[-1])
        record = next((json.loads(line.split(" ", 1)[1]) for line in lines
                       if line.startswith("record ")), {})
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: correct={result['correct']}"
              f" sent={result['attempted']} failed={result['failed']} "
              + " ".join(f"{n}={result['metrics'][n]['value']:.4g}"
                         for n in bounds)
              + f" probe={record.get('host_probe_before_ms')}/"
              f"{record.get('host_probe_after_ms')}ms"
              f" wall={record.get('run_wall_s')}s", flush=True)
    if args.repeat < 2:
        return 0
    print(f"\n{args.workload}: {args.repeat} runs of {seconds}s")
    print(f"{'metric':16s} {'median':>10s} {'spread':>8s} {'bound':>6s}"
          f"  verdict")
    for name, bound in bounds.items():
        spread = stats.spread(values[name])
        verdict = ("steady" if spread < bound / 3
                   else "within bound" if spread <= bound else "TOO WIDE")
        if name == "setup_s":
            verdict += " (spread not gated)"
        print(f"{name:16s} {statistics.median(values[name]):10.4g}"
              f" {spread:8.3f} {bound:6.2f}  {verdict}")
    return 0


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase (default: run_seconds"
                             " of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: this many runs on consecutive"
                             " seeds, then a spread table")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    # A terminated run still stops its daemons: SIGTERM unwinds through
    # the ``finally`` blocks like an exception.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.repeat:
        return repeat(args)
    if args.seconds is None:
        args.seconds = json.loads(
            (ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    try:
        artifact = ensure_artifact()
        WORK.mkdir(exist_ok=True)
        scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        try:
            run = Run(args, artifact, scratch)
            run.record.update({
                "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "PYTHONDONTWRITEBYTECODE":
                    os.environ.get("PYTHONDONTWRITEBYTECODE", ""),
            })
            try:
                result = run.execute()
            finally:
                run.close()
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    except (BenchError, dm.DaemonError, subprocess.SubprocessError,
            OSError) as exc:
        log(f"error: {type(exc).__name__}: {exc}")
        return 2
    for problem in run.problems:
        log(problem)
    print("record " + json.dumps(run.record, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  requests sent {result['attempted']}, failed {result['failed']},"
          f" correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
