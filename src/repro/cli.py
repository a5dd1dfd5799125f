"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``inventory`` — print the Table-2-style element inventory;
* ``render <element>`` — show an element's Click-style source;
* ``train`` — run the one-time learning phases (optionally parallel
  via ``--workers``) and persist the artifact (``--save PATH`` and/or
  the content-addressed cache);
* ``analyze <element>`` — print the offloading-insight report for a
  workload, reusing a cached or ``--load``-ed trained Clara
  (``--json`` for the stable machine-readable schema);
* ``sweep <element>`` — core-count sweep of the naive port on the
  simulated NIC (with ``--load``, also prints Clara's predicted knee;
  ``--json`` for machine-readable output);
* ``explain`` — print the interpretability report for a trained
  (cached or ``--load``-ed) identifier/cost model;
* ``serve`` — the warm analysis daemon: load (or train) the advisors
  once, then answer ``analyze``/``lint``/``colocation`` requests over
  a JSON-over-HTTP API (``POST /v1/<kind>``); ``GET /healthz`` is the
  readiness probe and ``GET /metrics`` the Prometheus endpoint.
  Responses use the same versioned envelope the CLI's ``--json``
  flags print (see :mod:`repro.serve.schemas`); SIGINT/SIGTERM shut
  it down cleanly with exit status 0;
* ``lint [elements...]`` — run the static offload linter over library
  elements (all of them by default): ``--json`` for the schema-stable
  lint reports, ``--sarif`` for SARIF 2.1.0, ``--only``/``--disable``
  to select rules, ``--list-rules`` to print the rule table.  Exits 0
  when clean (or notes only), ``LINT_EXIT_WARNING`` (8) on warnings,
  ``LINT_EXIT_ERROR`` (9) on error-severity findings — distinct from
  the ClaraError exit codes so scripts can tell NF portability
  problems from tool failures;
* ``events`` — poll a running ``clara serve`` daemon's event journal
  (``GET /v1/events``): filter by ``--kind``/``--for-request``/
  ``--since-seq``, export JSON lines with ``--jsonl``, or print the
  daemon's envelope verbatim with ``--json``;
* ``bench [cases...]`` — time the declared suite of pipeline
  workloads (median-of-N + MAD) and write a schema-versioned
  ``BENCH_<git-sha>.json`` trajectory artifact; ``--compare
  BASELINE.json`` grades regressions and exits
  ``BENCH_EXIT_WARNING`` (10) on warn-grade or ``BENCH_EXIT_ERROR``
  (11) on error-grade slowdowns, for CI gating.  ``--flame-out``
  samples the suite with the signal profiler.

NIC targets: ``train``/``analyze``/``sweep``/``explain``/``serve``/
``lint``/``bench`` accept ``--target NAME`` to model a registered NIC
backend other than the default ``nfp-4000`` (see
:mod:`repro.nic.targets`); ``analyze --target all`` trains one advisor
per registered target and emits the cross-target comparison ranking
("which NIC should this NF be offloaded to?").  Unknown target names
exit with the :class:`~repro.errors.UnknownTargetError` status.

Observability (every command): ``--profile`` prints a per-stage
wall-clock table after the command, ``--json-report PATH`` writes the
full :class:`~repro.obs.RunReport` (span tree, metrics, cache
hits/misses) as JSON, ``--trace-out PATH`` exports the span forest as
Chrome trace-event JSON for Perfetto, ``--metrics PATH`` dumps the
metrics registry in Prometheus text format, and ``-v``/``-q`` adjust
``repro.*`` log verbosity via :func:`repro.obs.configure`.
``--log-format json`` switches log lines to structured JSON and
``--request-id ID`` runs the command under a request-correlation
context (ids stamped on spans, events, logs, and ``--json``
envelopes — the CLI twin of the daemon's ``X-Clara-Request-Id``).

Errors derived from :class:`repro.errors.ClaraError` exit with a
distinct status per class (see ``EXIT_CODES`` in docs/API.md) and a
one-line ``error:`` message instead of a traceback.

Training commands consult the artifact cache (``--cache auto`` by
default where a trained Clara is needed), so repeated invocations stop
silently retraining from scratch.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.errors import (
    ArtifactError,
    ClaraError,
    LINT_EXIT_ERROR,
    LINT_EXIT_WARNING,
)


def _obs_parent() -> argparse.ArgumentParser:
    """The observability flags every subcommand inherits (one shared
    parent parser instead of per-subcommand copies — new subcommands
    get ``--profile``/``--json-report``/``--trace-out``/``--metrics``/
    ``-v``/``-q`` by listing this in ``parents``)."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("observability")
    group.add_argument("--profile", action="store_true",
                       help="print a per-stage wall-clock table after"
                            " the command")
    group.add_argument("--json-report", metavar="PATH", default=None,
                       help="write the full RunReport JSON to PATH")
    group.add_argument("--trace-out", metavar="PATH", default=None,
                       help="write the span forest as Chrome trace-event"
                            " JSON (view in https://ui.perfetto.dev)")
    group.add_argument("--metrics", metavar="PATH", default=None,
                       help="write the metrics registry in Prometheus"
                            " text format after the run")
    group.add_argument("--request-id", metavar="ID", default=None,
                       help="run under a request-correlation context:"
                            " the id is stamped on spans, JSON log"
                            " lines, journal events, and the --json"
                            " envelope (same mechanics as the daemon's"
                            " X-Clara-Request-Id header)")
    group.add_argument("--log-format", choices=("text", "json"),
                       default="text",
                       help="log line format: text (default) or json"
                            " (one JSON object per line, request/span"
                            " ids stamped on)")
    group.add_argument("-v", "--verbose", action="count", default=0,
                       help="log more (-v info, -vv debug)")
    group.add_argument("-q", "--quiet", action="store_true",
                       help="log errors only")
    return parent


def _train_source_parent() -> argparse.ArgumentParser:
    """Flags shared by every command that needs a trained Clara."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("training source")
    group.add_argument("--load", metavar="PATH", default=None,
                       help="load a saved Clara artifact instead of training")
    group.add_argument("--workers", type=int, default=1,
                       help="worker processes for dataset synthesis"
                            " (0 = all cores)")
    group.add_argument("--cache", choices=("auto", "off", "require"),
                       default="auto",
                       help="artifact-cache mode (default auto: load when"
                            " present, store after training)")
    return parent


def _target_parent(allow_all: bool = False) -> argparse.ArgumentParser:
    """The ``--target`` flag selecting a registered NIC backend."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("NIC target")
    extra = ", or 'all' for a cross-target comparison" if allow_all else ""
    group.add_argument("--target", metavar="NAME", default=None,
                       help="registered NIC target to model (default:"
                            f" nfp-4000{extra}; see docs/API.md"
                            " 'Targets')")
    return parent


def _workload_parent() -> argparse.ArgumentParser:
    """Flags describing the analyzed traffic profile."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("workload")
    group.add_argument("--flows", type=int, default=10_000,
                       help="concurrent flows (default 10000)")
    group.add_argument("--packet-bytes", type=int, default=256,
                       help="packet size in bytes (default 256)")
    group.add_argument("--zipf", type=float, default=1.0,
                       help="flow popularity skew (default 1.0)")
    group.add_argument("--udp", action="store_true",
                       help="UDP traffic instead of TCP")
    group.add_argument("--packets", type=int, default=300,
                       help="profiled trace length (default 300)")
    return parent


def _obtain_clara(args, quick: bool = True) -> "Clara":
    """A trained Clara per the common flags: ``--load`` wins, else
    train (cache-backed, quick mode unless the command says otherwise)."""
    from repro.core import Clara, TrainConfig

    target = getattr(args, "target", None)
    if getattr(args, "load", None):
        print(f"Loading Clara artifact from {args.load}...", file=sys.stderr)
        try:
            clara = Clara.load(args.load)
        except FileNotFoundError:
            raise ArtifactError(f"no artifact at {args.load}") from None
        if target and clara.nic.target.name != target:
            raise ClaraError(
                f"artifact at {args.load} was trained for target"
                f" {clara.nic.target.name!r}, not {target!r}"
            )
        return clara
    config = TrainConfig.quick() if quick else TrainConfig()
    print("Training Clara (quick mode)..." if quick else "Training Clara...",
          file=sys.stderr)
    return Clara(seed=args.seed, target=target).train(
        config, workers=args.workers, cache=args.cache
    )


def _workload_from_args(args) -> "WorkloadSpec":
    from repro.workload.spec import WorkloadSpec

    return WorkloadSpec(
        name="cli",
        n_flows=args.flows,
        packet_bytes=args.packet_bytes,
        zipf_alpha=args.zipf,
        udp_fraction=1.0 if args.udp else 0.0,
        n_packets=args.packets,
    )


def cmd_inventory(_args) -> int:
    from repro.click.elements import ELEMENT_BUILDERS, build_element
    from repro.click.render import element_loc
    from repro.core.prepare import prepare_element
    from repro.nic.compiler import compile_module

    print(f"{'element':14s} {'LoC':>5s} {'NIC instr':>9s} {'state':>6s}"
          f" {'mem':>5s} {'api':>4s}")
    for name in sorted(ELEMENT_BUILDERS):
        element = build_element(name)
        prepared = prepare_element(element)
        program = compile_module(prepared.module)
        print(
            f"{name:14s} {element_loc(element):5d}"
            f" {program.handler.n_total:9d}"
            f" {'yes' if element.is_stateful else 'no':>6s}"
            f" {prepared.annotation.n_mem_stateful:5d}"
            f" {prepared.annotation.n_api:4d}"
        )
    return 0


def cmd_render(args) -> int:
    from repro.click.elements import build_element
    from repro.click.render import render_element

    print(render_element(build_element(args.element)), end="")
    return 0


def cmd_train(args) -> int:
    from dataclasses import replace

    from repro.core import Clara, TrainConfig, train_cache_key

    config = TrainConfig.quick() if args.quick else TrainConfig()
    overrides = {
        key: value
        for key, value in {
            "n_predictor_programs": args.predictor_programs,
            "n_scaleout_programs": args.scaleout_programs,
            "predictor_epochs": args.epochs,
        }.items()
        if value is not None
    }
    config = replace(config, **overrides)
    clara = Clara(seed=args.seed, target=args.target)
    key = train_cache_key(config, seed=args.seed, nic=clara.nic)
    print(f"Training Clara for target {clara.nic.target.name}"
          f" (cache key {key})...", file=sys.stderr)
    clara.train(config, workers=args.workers, cache=args.cache)
    print(f"trained: predictor vocab={clara.predictor.vocab.size} tokens,"
          f" scaleout samples={len(clara.scaleout.samples)}")
    if args.save:
        path = clara.save(args.save)
        print(f"artifact saved to {path}")
    return 0


def _cmd_analyze_all(args, spec) -> int:
    """``analyze --target all``: train one Clara per registered target
    and emit the cross-target comparison ranking."""
    from repro.core import Clara, TrainConfig
    from repro.core.compare import compare_targets
    from repro.nic.targets import list_targets

    if getattr(args, "load", None):
        raise ClaraError(
            "--target all trains one advisor per registered target and"
            " cannot reuse a single --load artifact"
        )
    claras = {}
    caches = []
    for name in list_targets():
        print(f"Training Clara for target {name} (quick mode)...",
              file=sys.stderr)
        clara = Clara(seed=args.seed, target=name).train(
            TrainConfig.quick(), workers=args.workers, cache=args.cache
        )
        cache = _apply_predict_cache(clara, args)
        if cache is not None:
            caches.append(cache)
        claras[name] = clara
    comparison = compare_targets(claras, args.element, spec)
    for cache in caches:
        cache.flush()
    payload = comparison.to_dict()
    if args.json:
        from repro.serve.schemas import dump_envelope, envelope

        print(dump_envelope(envelope("cross_target_comparison", payload)))
        return 0
    print(f"Cross-target comparison: {args.element}")
    print(f"{'rank':>4s} {'target':14s} {'tput(Mpps)':>11s} {'lat(us)':>9s}"
          f" {'bound':>8s} {'cores':>6s} {'lint':>7s}")
    for entry in payload["ranking"]:
        lint = (f"{entry['lint']['n_errors']}E/"
                f"{entry['lint']['n_warnings']}W")
        print(f"{entry['rank']:4d} {entry['target']:14s}"
              f" {entry['throughput_mpps']:11.2f}"
              f" {entry['latency_us']:9.2f} {entry['bound']:>8s}"
              f" {entry['cores']:6d} {lint:>7s}")
    rec = payload["recommendation"]
    print(f"\nrecommendation: {rec['target']} -- {rec['reason']}")
    return 0


def _apply_predict_cache(clara, args) -> "Any":
    """Apply ``--predict-cache`` to a trained Clara; returns the
    attached cache (or ``None``) so the caller can flush it after the
    run."""
    if args.predict_cache == "auto":
        from repro.core.artifacts import ArtifactCache

        return clara.enable_prediction_cache(store=ArtifactCache())
    return None


def cmd_analyze(args) -> int:
    spec = _workload_from_args(args)
    if args.target == "all":
        return _cmd_analyze_all(args, spec)
    clara = _obtain_clara(args)
    cache = _apply_predict_cache(clara, args)
    analysis = clara.analyze(args.element, spec)
    config = clara.port_config(analysis)
    if cache is not None:
        cache.flush()
    if args.json:
        from repro.serve.schemas import (
            analysis_result_payload,
            dump_envelope,
            envelope,
        )

        print(dump_envelope(envelope(
            "analysis_result", analysis_result_payload(analysis, config)
        )))
        return 0
    print(analysis.report.render(), end="")
    print("\nSuggested port configuration:")
    print(f"  checksum engine : {config.use_checksum_accel}")
    print(f"  CRC-substituted : {len(config.crc_accel_blocks)} blocks")
    print(f"  LPM-substituted : {len(config.lpm_accel_blocks)} blocks")
    print(f"  cores           : {config.cores}")
    return 0


def cmd_sweep(args) -> int:
    from repro.click.elements import build_element, initial_state, install_state
    from repro.click.frontend import lower_element
    from repro.click.interp import Interpreter
    from repro.nic.compiler import compile_module
    from repro.nic.machine import NICModel
    from repro.obs import span
    from repro.workload import characterize, iter_trace

    spec = _workload_from_args(args)
    element = build_element(args.element)
    module = lower_element(element)
    interp = Interpreter(module)
    install_state(interp, initial_state(element))
    with span("profile_on_host", nf=element.name):
        profile = interp.run_trace(iter_trace(spec, seed=args.seed))
    freq = {b: c / profile.packets for b, c in profile.block_counts.items()}
    model = NICModel(target=args.target)
    with span("sweep_cores", nf=element.name, target=model.target.name):
        sweep = model.sweep_cores(
            compile_module(module, target=model.target), freq,
            characterize(spec, hierarchy=model.hierarchy),
        )
    knee = model.optimal_cores(sweep)
    core_counts = tuple(
        c for c in (1, 2, 4, 8, 16, 24, 32, 40, 48, 60)
        if c <= model.n_cores
    ) or (model.n_cores,)
    if model.n_cores not in core_counts:
        core_counts += (model.n_cores,)
    predicted_knee = None
    if args.load:
        from repro.core import Clara

        try:
            clara = Clara.load(args.load)
        except FileNotFoundError:
            raise ArtifactError(f"no artifact at {args.load}") from None
        analysis = clara.analyze(element, spec, trace_seed=args.seed)
        predicted_knee = analysis.report.suggested_cores
    if args.json:
        from repro.serve.schemas import dump_envelope, envelope

        result = {
            "element": element.name,
            "knee": knee,
            "predicted_knee": predicted_knee,
            "points": [
                {
                    "cores": cores,
                    "throughput_mpps": round(sweep[cores].throughput_mpps, 4),
                    "latency_us": round(sweep[cores].latency_us, 4),
                }
                for cores in core_counts
            ],
        }
        print(dump_envelope(envelope("core_sweep", result)))
        return 0
    print(f"{'cores':>6s} {'tput(Mpps)':>11s} {'lat(us)':>9s}")
    for cores in core_counts:
        perf = sweep[cores]
        marker = "  <-- knee" if cores == knee else ""
        print(f"{cores:6d} {perf.throughput_mpps:11.2f}"
              f" {perf.latency_us:9.2f}{marker}")
    if predicted_knee is not None:
        print(f"\nClara's predicted knee: {predicted_knee} cores")
    return 0


def cmd_lint(args) -> int:
    from repro.nfir.analysis import default_registry, sarif_report
    from repro.serve.handlers import run_lint_reports
    from repro.serve.schemas import (
        dump_envelope,
        envelope,
        lint_run_payload,
    )

    if args.list_rules:
        registry = default_registry()
        print(f"{'code':6s} {'name':24s} description")
        for pass_ in sorted(registry, key=lambda p: p.code):
            print(f"{pass_.code:6s} {pass_.name:24s} {pass_.description}")
        return 0

    only = args.only.split(",") if args.only else None
    disable = args.disable.split(",") if args.disable else None
    baseline = None
    if args.baseline:
        from repro.nfir.analysis.baseline import LintBaseline

        baseline = LintBaseline.load(args.baseline)
    registry, reports, stats = run_lint_reports(
        elements=args.elements or None, only=only, disable=disable,
        target=args.target, cache=args.cache, baseline=baseline,
    )

    if args.write_baseline:
        from repro.nfir.analysis.baseline import baseline_from_reports
        from repro.nic.targets import resolve_target

        snapshot = baseline_from_reports(
            reports, target=resolve_target(args.target).name
        )
        path = snapshot.save(args.write_baseline)
        print(
            f"lint baseline written to {path}"
            f" ({snapshot.n_fingerprints} accepted finding(s))"
        )
        return 0

    n_errors = sum(r.n_errors for r in reports)
    n_warnings = sum(r.n_warnings for r in reports)
    if args.sarif:
        print(json.dumps(
            sarif_report(reports, registry), indent=2
        ))
    elif args.json:
        print(dump_envelope(envelope(
            "lint_run",
            lint_run_payload(reports, target=args.target, stats=stats),
        )))
    else:
        for report in reports:
            print(report.render(), end="")
        n_suppressed = sum(len(r.suppressed) for r in reports)
        summary = (
            f"{len(reports)} element(s): {n_errors} error(s),"
            f" {n_warnings} warning(s)"
        )
        if n_suppressed:
            summary += f", {n_suppressed} suppressed"
        if baseline is not None:
            summary += f", {stats['n_baselined']} baselined"
        if stats["cache"] != "off":
            summary += (
                f" [cache: {stats['hits']} hit(s),"
                f" {stats['misses']} miss(es)]"
            )
        print(summary)
    if n_errors:
        return LINT_EXIT_ERROR
    if n_warnings:
        return LINT_EXIT_WARNING
    return 0


def cmd_explain(args) -> int:
    from repro.core.explain import render_explanations

    clara = _obtain_clara(args)
    print(render_explanations(clara.scaleout.model, clara.identifier), end="")
    return 0


def cmd_serve(args) -> int:
    import signal
    import threading

    from repro.serve import ServeConfig, build_server

    clara = _obtain_clara(args)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        colocation_programs=args.colocation_programs,
        colocation_groups=args.colocation_groups,
        slow_request_ms=args.slow_request_ms,
        slow_trace_dir=args.slow_trace_dir,
        slo_window_s=args.slo_window_s,
        slo_p99_s=args.slo_p99_s,
        slo_error_rate=args.slo_error_rate,
    )
    server = build_server(clara, config)
    print(f"clara serve listening on {server.url()}", file=sys.stderr)

    def request_stop(signum, _frame):
        # shutdown() must not run on the serving thread; hand it off.
        print(f"clara serve: caught signal {signum}, shutting down...",
              file=sys.stderr)
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {
        sig: signal.signal(sig, request_stop)
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        server.serve_forever()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    print("clara serve: clean shutdown", file=sys.stderr)
    return 0


def cmd_events(args) -> int:
    """``clara events``: poll a running daemon's event journal.

    A thin HTTP client over ``GET /v1/events`` — the printed ``--json``
    body is the daemon's response byte-for-byte (same envelope, same
    serializer), so scripts can treat both transports identically.
    ``--jsonl PATH`` additionally re-exports the returned events one
    JSON object per line for ingestion pipelines.
    """
    import urllib.error
    import urllib.parse
    import urllib.request

    params = {}
    if args.kind:
        params["kind"] = args.kind
    if args.for_request:
        params["request_id"] = args.for_request
    if args.since_seq is not None:
        params["since_seq"] = str(args.since_seq)
    if args.n is not None:
        params["n"] = str(args.n)
    url = args.url.rstrip("/") + "/v1/events"
    if params:
        url += "?" + urllib.parse.urlencode(params)
    request = urllib.request.Request(url)
    if args.request_id:
        request.add_header("X-Clara-Request-Id", args.request_id)
    try:
        with urllib.request.urlopen(request, timeout=args.timeout) as resp:
            body = resp.read()
    except urllib.error.HTTPError as exc:
        body = exc.read()
        message = body.decode("utf-8", "replace").strip()
        try:
            message = json.loads(message)["error"]["message"]
        except Exception:  # noqa: BLE001 - non-envelope error body
            pass
        raise ClaraError(
            f"daemon at {args.url} rejected the request"
            f" (HTTP {exc.code}): {message}"
        ) from None
    except (urllib.error.URLError, OSError) as exc:
        reason = getattr(exc, "reason", exc)
        raise ClaraError(
            f"cannot reach clara serve at {args.url}: {reason}"
        ) from None

    envelope_ = json.loads(body.decode("utf-8"))
    result = envelope_.get("result", {})
    events = result.get("events", [])
    if args.jsonl:
        with open(args.jsonl, "w", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
        print(f"{len(events)} event(s) written to {args.jsonl}",
              file=sys.stderr)
    if args.json:
        sys.stdout.buffer.write(body)
        if not body.endswith(b"\n"):
            sys.stdout.write("\n")
        return 0
    print(f"{'seq':>6s} {'kind':16s} {'request':34s} data")
    for event in events:
        rid = event.get("request_id") or "-"
        data = json.dumps(event.get("data", {}), sort_keys=True)
        print(f"{event['seq']:6d} {event['kind']:16s} {rid:34s} {data}")
    print(
        f"\n{result.get('n_returned', len(events))} of"
        f" {result.get('n_emitted', '?')} emitted event(s)"
        f" ({result.get('n_dropped', 0)} dropped by the ring buffer)"
    )
    return 0


def cmd_bench(args) -> int:
    from contextlib import nullcontext

    from repro.obs import bench as bench_mod

    if args.list_cases:
        print(f"{'case':20s} description")
        for name in bench_mod.default_case_names():
            case = bench_mod.get_case(name)
            print(f"{case.name:20s} {case.description}")
        return 0

    profiler = nullcontext()
    if args.flame_out:
        from repro.obs.sampling import SamplingProfiler

        profiler = SamplingProfiler(interval_s=0.002)
    with profiler:
        run = bench_mod.run_suite(
            names=args.cases or None,
            repeats=args.repeats,
            quick=args.quick,
            seed=args.seed,
            target=args.target,
        )
    if args.flame_out:
        profiler.write(args.flame_out)
        print(f"collapsed stacks written to {args.flame_out}",
              file=sys.stderr)

    if not args.no_out:
        out_path = args.out or run.default_artifact_name()
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(run.to_json() + "\n")
        print(f"bench artifact written to {out_path}", file=sys.stderr)

    if args.json:
        print(run.to_json())
    else:
        print(run.render(), end="")

    if args.compare:
        baseline = bench_mod.BenchRun.load(args.compare)
        comparison = bench_mod.compare_runs(
            baseline, run,
            rel_threshold=(bench_mod.DEFAULT_REL_THRESHOLD
                           if args.rel_threshold is None
                           else args.rel_threshold),
            mad_k=(bench_mod.DEFAULT_MAD_K
                   if args.mad_k is None else args.mad_k),
        )
        print()
        print(comparison.render(), end="")
        return comparison.exit_code
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Clara (SOSP'21) reproduction: SmartNIC offloading insights",
    )
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared flag groups: every subcommand inherits observability; the
    # training-source and workload groups attach where they apply.
    obs = _obs_parent()
    train_source = _train_source_parent()
    workload = _workload_parent()
    target = _target_parent()
    target_or_all = _target_parent(allow_all=True)

    sub.add_parser("inventory", help="element inventory (Table 2)",
                   parents=[obs])

    p_render = sub.add_parser("render", help="print element source",
                              parents=[obs])
    p_render.add_argument("element")

    p_train = sub.add_parser(
        "train",
        help="run the learning phases, optionally saving the artifact",
        parents=[target, obs],
    )
    p_train.add_argument("--quick", action="store_true",
                        help="small dataset sizes (fast, lower fidelity)")
    p_train.add_argument("--save", metavar="PATH", default=None,
                        help="write the trained artifact to PATH")
    p_train.add_argument("--predictor-programs", type=int, default=None,
                        help="override TrainConfig.n_predictor_programs")
    p_train.add_argument("--scaleout-programs", type=int, default=None,
                        help="override TrainConfig.n_scaleout_programs")
    p_train.add_argument("--epochs", type=int, default=None,
                        help="override TrainConfig.predictor_epochs")
    p_train.add_argument("--workers", type=int, default=1,
                        help="worker processes for dataset synthesis"
                             " (0 = all cores)")
    p_train.add_argument("--cache", choices=("auto", "off", "require"),
                        default="auto",
                        help="artifact-cache mode (default auto)")

    p_analyze = sub.add_parser("analyze", help="offloading insights",
                               parents=[workload, train_source,
                                        target_or_all, obs])
    p_analyze.add_argument("element")
    p_analyze.add_argument("--json", action="store_true",
                           help="emit the versioned JSON envelope instead"
                                " of the human report")
    p_analyze.add_argument("--predict-cache", choices=("auto", "off"),
                           default="off",
                           help="content-addressed prediction cache: auto"
                                " persists block predictions in the"
                                " artifact cache across runs (default off;"
                                " results are bit-identical either way)")

    p_sweep = sub.add_parser("sweep", help="core-count sweep",
                             parents=[workload, target, obs])
    p_sweep.add_argument("element")
    p_sweep.add_argument("--json", action="store_true",
                         help="emit the versioned JSON envelope instead of"
                              " the table")
    p_sweep.add_argument("--load", metavar="PATH", default=None,
                         help="also print the predicted knee from a saved"
                              " Clara artifact")

    sub.add_parser("explain", help="model interpretability report",
                   parents=[train_source, target, obs])

    p_serve = sub.add_parser(
        "serve",
        help="long-running analysis daemon (JSON-over-HTTP API)",
        parents=[train_source, target, obs],
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8787,
                         help="TCP port, 0 for ephemeral (default 8787)")
    p_serve.add_argument("--colocation-programs", type=int, default=12,
                         help="candidate-pool size for the lazily trained"
                              " colocation ranker (default 12)")
    p_serve.add_argument("--colocation-groups", type=int, default=12,
                         help="ranking groups for the lazily trained"
                              " colocation ranker (default 12)")
    p_serve.add_argument("--slow-request-ms", type=float, default=5000.0,
                         help="requests slower than this capture their"
                              " full span tree into the event journal"
                              " (default 5000)")
    p_serve.add_argument("--slow-trace-dir", metavar="DIR", default=None,
                         help="also write each slow request's span tree"
                              " as a Chrome trace file under DIR")
    p_serve.add_argument("--slo-window-s", type=float, default=300.0,
                         help="sliding window for the rolling latency"
                              " quantiles and error rate (default 300)")
    p_serve.add_argument("--slo-p99-s", type=float, default=2.0,
                         help="windowed p99 above this marks /healthz"
                              " degraded (default 2.0)")
    p_serve.add_argument("--slo-error-rate", type=float, default=0.05,
                         help="windowed 5xx rate above this marks"
                              " /healthz degraded (default 0.05)")

    p_events = sub.add_parser(
        "events",
        help="poll a running clara serve daemon's event journal",
        parents=[obs],
    )
    p_events.add_argument("--url", default="http://127.0.0.1:8787",
                          help="daemon base URL (default"
                               " http://127.0.0.1:8787)")
    p_events.add_argument("--kind", default=None,
                          help="only events of this kind (e.g."
                               " request_finish, cache_miss,"
                               " slow_request)")
    p_events.add_argument("--for-request", metavar="ID", default=None,
                          help="only events stamped with this request id")
    p_events.add_argument("--since-seq", type=int, default=None,
                          help="only events with seq > N (incremental"
                               " polling)")
    p_events.add_argument("-n", type=int, default=None,
                          help="at most N events (newest kept)")
    p_events.add_argument("--jsonl", metavar="PATH", default=None,
                          help="also export the returned events as JSON"
                               " lines to PATH")
    p_events.add_argument("--timeout", type=float, default=10.0,
                          help="HTTP timeout in seconds (default 10)")
    p_events.add_argument("--json", action="store_true",
                          help="print the daemon's envelope verbatim"
                               " instead of the table")

    p_lint = sub.add_parser(
        "lint", help="static offload-portability diagnostics",
        parents=[target, obs],
    )
    p_lint.add_argument("elements", nargs="*",
                        help="library element names (default: all)")
    output = p_lint.add_mutually_exclusive_group()
    output.add_argument("--json", action="store_true",
                        help="emit the schema-stable lint reports as JSON")
    output.add_argument("--sarif", action="store_true",
                        help="emit a SARIF 2.1.0 document")
    p_lint.add_argument("--only", metavar="RULES", default=None,
                        help="comma-separated rule codes/names to run"
                             " exclusively")
    p_lint.add_argument("--disable", metavar="RULES", default=None,
                        help="comma-separated rule codes/names to skip")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    p_lint.add_argument("--write-baseline", metavar="FILE", default=None,
                        help="record every current finding as accepted"
                             " and write the baseline file")
    p_lint.add_argument("--baseline", metavar="FILE", default=None,
                        help="report (and gate on) only findings absent"
                             " from this baseline file")
    p_lint.add_argument("--cache", choices=("auto", "off"), default="off",
                        help="incremental lint through the artifact cache"
                             " (default off)")

    p_bench = sub.add_parser(
        "bench", help="continuous benchmarking of Clara's own hot paths",
        parents=[target, obs],
    )
    p_bench.add_argument("cases", nargs="*",
                         help="bench case names (default: the whole"
                              " declared suite)")
    p_bench.add_argument("--quick", action="store_true",
                         help="shrunken workload sizes (CI smoke profile)")
    p_bench.add_argument("--repeats", type=int, default=None,
                         help="timed repetitions per case (default: 5,"
                              " or 3 with --quick)")
    p_bench.add_argument("--out", metavar="PATH", default=None,
                         help="artifact path (default BENCH_<git-sha>.json)")
    p_bench.add_argument("--no-out", action="store_true",
                         help="skip writing the BENCH_*.json artifact")
    p_bench.add_argument("--json", action="store_true",
                         help="print the bench run as JSON instead of the"
                              " human table")
    p_bench.add_argument("--compare", metavar="BASELINE", default=None,
                         help="grade this run against a BENCH_*.json"
                              " baseline; exit 10 on warn-grade and 11 on"
                              " error-grade regressions")
    p_bench.add_argument("--rel-threshold", type=float, default=None,
                         help="relative slowdown that counts as a"
                              " regression (default 0.25)")
    p_bench.add_argument("--mad-k", type=float, default=None,
                         help="noise guard: slowdown must also exceed"
                              " K*MAD (default 4.0)")
    p_bench.add_argument("--flame-out", metavar="PATH", default=None,
                         help="sample the suite with the signal profiler"
                              " and write collapsed stacks to PATH")
    p_bench.add_argument("--list-cases", action="store_true",
                         help="print the declared case table and exit")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "inventory": cmd_inventory,
        "render": cmd_render,
        "train": cmd_train,
        "analyze": cmd_analyze,
        "sweep": cmd_sweep,
        "explain": cmd_explain,
        "serve": cmd_serve,
        "lint": cmd_lint,
        "bench": cmd_bench,
        "events": cmd_events,
    }

    from repro import obs

    obs.configure(verbosity=-1 if getattr(args, "quiet", False)
                  else getattr(args, "verbose", 0),
                  fmt=getattr(args, "log_format", "text"))
    want_report = bool(
        getattr(args, "profile", False)
        or getattr(args, "json_report", None)
        or getattr(args, "trace_out", None)
    )
    tracer = obs.Tracer() if want_report else None
    previous = obs.set_tracer(tracer) if tracer is not None else None

    # --request-id installs the same correlation context the daemon
    # builds from X-Clara-Request-Id: spans, journal events, JSON log
    # lines, and --json envelopes all carry the id, so a CLI run and an
    # HTTP request with matching ids produce byte-identical bodies.
    from contextlib import nullcontext

    request_id = getattr(args, "request_id", None)
    reqctx = (
        obs.use_request(obs.RequestContext(request_id=request_id))
        if request_id else nullcontext()
    )

    status, code = "ok", 0
    obs.get_metrics().counter("cli_invocations", command=args.command).inc()
    try:
        with reqctx, obs.span(f"cli.{args.command}"):
            code = handlers[args.command](args)
    except ClaraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        status = type(exc).__name__
        code = exc.exit_code
    finally:
        if tracer is not None:
            obs.set_tracer(previous)

    if tracer is not None:
        report = obs.RunReport.collect(
            command=args.command,
            tracer=tracer,
            metrics=obs.get_metrics(),
            status=status,
            exit_code=code,
        )
        if args.profile:
            print()
            print(report.render_profile(), end="")
        if args.json_report:
            with open(args.json_report, "w", encoding="utf-8") as handle:
                handle.write(report.to_json() + "\n")
            print(f"run report written to {args.json_report}",
                  file=sys.stderr)
        if args.trace_out:
            obs.write_chrome_trace(tracer, args.trace_out)
            print(f"chrome trace written to {args.trace_out}"
                  " (view in https://ui.perfetto.dev)", file=sys.stderr)
    if getattr(args, "metrics", None):
        with open(args.metrics, "w", encoding="utf-8") as handle:
            handle.write(obs.get_metrics().to_prometheus())
        print(f"metrics written to {args.metrics}", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
