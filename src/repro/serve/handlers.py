"""Request execution, independent of transport.

:class:`ClaraService` owns one warm :class:`~repro.core.Clara` and
turns validated wire requests into response envelopes.  The HTTP
server calls it from its worker threads; the CLI's ``--json`` paths
call the same serializers — one implementation, two transports, so the
payloads cannot drift apart.

Thread model: each request runs on its own handler thread, and
analyze/lint/colocation only *read* the fitted advisors (each call
builds its own interpreter and profile), so concurrent execution is
safe.  Analyses of an NF share one memoized static analysis (lowered
module, predictions, accelerator regions, lint report) per warm Clara,
which no request mutates; the memo is lock-guarded inside
:class:`~repro.core.Clara`.  An NF's first analysis runs its one LSTM
call on its own request thread: inference only reads the fitted
weights, so concurrent first analyses of different NFs predict side by
side, as the lazily trained per-target Claras always have.  The
mutating operations — training the colocation ranker and the
per-target Claras — are serialized behind locks.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ClaraError
from repro.obs import get_logger, span
from repro.obs.events import EVENT_KINDS, get_journal
from repro.obs.slo import get_slo_tracker
from repro.serve.schemas import (
    REQUEST_KINDS,
    WIRE_SCHEMA,
    AnalyzeRequest,
    ColocationRequest,
    LintRequest,
    analysis_result_payload,
    envelope,
    lint_run_payload,
)

__all__ = ["ClaraService", "run_lint_reports"]

log = get_logger(__name__)


def run_lint_reports(
    elements: Optional[Sequence[str]] = None,
    only: Optional[Sequence[str]] = None,
    disable: Optional[Sequence[str]] = None,
    target: Optional[str] = None,
    cache: Any = "off",
    baseline: Any = None,
):
    """Run the offload linter over library elements and return
    ``(registry, reports, stats)`` — the one lint execution path behind
    both ``clara lint`` and ``POST /v1/lint``.  ``target`` selects the
    NIC backend whose capacity thresholds the rules check (``None``
    means the registry default).

    ``cache`` enables incremental lint: ``"auto"`` uses the default
    :class:`~repro.core.artifacts.ArtifactCache`, ``"off"``/``None``
    disables caching, anything else is used as a cache object directly.
    ``baseline`` filters accepted legacy findings: a
    :class:`~repro.nfir.analysis.baseline.LintBaseline` or a flat
    iterable of fingerprint strings (the wire form).  ``stats`` reports
    ``hits``/``misses``/``n_baselined`` for the run.
    """
    from repro.click.elements import ELEMENT_BUILDERS, build_element
    from repro.core.prepare import prepare_element
    from repro.nfir.analysis import default_registry
    from repro.nfir.analysis.lint_cache import cached_lint_run
    from repro.nic.targets import resolve_target

    registry = default_registry()
    target_desc = resolve_target(target)
    only = list(only) if only else None
    disable = list(disable) if disable else None
    try:
        registry.select(only=only, disable=disable)
    except KeyError as exc:
        raise ClaraError(
            f"{exc.args[0]} (known: {', '.join(registry.codes)})"
        ) from None
    cache_obj: Any = None
    if cache == "auto":
        from repro.core.artifacts import ArtifactCache

        cache_obj = ArtifactCache()
    elif cache not in (None, "off"):
        cache_obj = cache
    names = list(elements) if elements else sorted(ELEMENT_BUILDERS)
    reports = []
    stats = {
        "cache": "off" if cache_obj is None else "on",
        "hits": 0,
        "misses": 0,
        "n_baselined": 0,
    }
    with span("lint_corpus", n_elements=len(names),
              target=target_desc.name) as sp:
        for name in names:
            prepared = prepare_element(build_element(name))
            report, outcome = cached_lint_run(
                prepared.module, registry, cache_obj,
                only=only, disable=disable, target=target_desc,
            )
            if outcome == "hit":
                stats["hits"] += 1
            elif outcome == "miss":
                stats["misses"] += 1
            reports.append(report)
        if baseline is not None:
            from repro.nfir.analysis.baseline import (
                LintBaseline,
                apply_baseline,
            )

            if not isinstance(baseline, LintBaseline):
                # Wire form: a flat fingerprint list. Fingerprints hash
                # the module name, so sharing the set across modules
                # cannot cross-match.
                flat = {str(f) for f in baseline}
                baseline = LintBaseline(fingerprints={
                    r.module_name: flat for r in reports
                })
            reports, stats["n_baselined"] = apply_baseline(reports, baseline)
        sp.set("n_diagnostics", sum(len(r.diagnostics) for r in reports))
        sp.set("cache_hits", stats["hits"])
        sp.set("n_baselined", stats["n_baselined"])
    return registry, reports, stats


class ClaraService:
    """One warm Clara answering analyze/lint/colocation requests.

    The colocation ranker is trained lazily — on the first
    ``colocation`` request — with ``colocation_programs``/
    ``colocation_groups`` sized deployments, behind a lock so
    concurrent first requests train once.

    Each warm Clara (the primary and every lazily trained per-target
    one) memoizes its NFs' static analyses, so only an NF's first
    analyze request per process reaches the predictor; repeats answer
    from the memo with byte-identical envelopes.  Every warm Clara's
    predictor carries an in-memory content-addressed prediction cache,
    so a first analysis answers the blocks the model has already seen
    from it (results are bit-identical either way).

    ``batch_window_s``, ``max_batch``, ``predict_cache`` and
    ``predictor_mode`` each accept only their default, which states
    what the service does: no batching window, one call per model
    invocation, the prediction cache on, the LSTM predictor.  Any
    other value raises :class:`~repro.errors.ClaraError`.
    """

    def __init__(
        self,
        clara,
        batch_window_s: float = 0.0,
        max_batch: int = 1,
        colocation_programs: int = 12,
        colocation_groups: int = 12,
        predict_cache: bool = True,
        predictor_mode: str = "lstm",
    ) -> None:
        # perfbench/inprocess.py is the only reader of these four; each
        # stays, pinned, until the benchmark stops passing it.
        for name, value, pinned in (
            ("batch_window_s", batch_window_s, 0.0),
            ("max_batch", max_batch, 1),
            ("predict_cache", predict_cache, True),
            ("predictor_mode", predictor_mode, "lstm"),
        ):
            if value != pinned:
                raise ClaraError(
                    f"{name} must be {pinned!r}, got {value!r}"
                )
        self.clara = clara
        self.colocation_programs = int(colocation_programs)
        self.colocation_groups = int(colocation_groups)
        self._colocation_lock = threading.Lock()
        #: per-target warm Claras; the primary serves its own target.
        self._claras: Dict[str, Any] = {clara.nic.target.name: clara}
        self._target_lock = threading.Lock()
        self._configure_predictor(clara)

    def _configure_predictor(self, clara) -> None:
        """Attach the service's in-memory prediction cache to one warm
        Clara."""
        # A cold Clara (healthz 503 until trained) has no weights to
        # fingerprint yet — the cache only attaches to fitted models.
        if clara.predictor.model is not None:
            clara.enable_prediction_cache()

    def clara_for(self, target: Optional[str]):
        """The warm Clara for ``target`` (``None`` = the primary's).

        Non-primary targets are trained lazily on first use — same
        config and seed as the primary, artifact-cache backed — behind
        a lock, like the colocation ranker.
        """
        if target is None or target == self.clara.nic.target.name:
            return self.clara
        existing = self._claras.get(target)
        if existing is not None:
            return existing
        with self._target_lock:
            existing = self._claras.get(target)
            if existing is None:
                from repro.core.artifacts import TrainConfig
                from repro.core.pipeline import Clara

                config = self.clara.train_config or TrainConfig.quick()
                log.info(
                    "target %s cold: training a Clara for it (%s)",
                    target, config,
                )
                with span("target_train", target=target) as sp:
                    existing = Clara(seed=self.clara.seed, target=target)
                    existing.train(config, cache="auto")
                    self._configure_predictor(existing)
                self._claras[target] = existing
                get_journal().emit(
                    "target_train", target=target,
                    duration_s=round(sp.duration_s, 6),
                )
        return existing

    # -- endpoints ------------------------------------------------------
    def analyze(self, request: AnalyzeRequest) -> Dict[str, Any]:
        clara = self.clara_for(request.target)
        analysis = clara.analyze(
            request.element, request.workload, trace_seed=request.trace_seed
        )
        config = clara.port_config(analysis)
        return envelope(
            "analysis_result", analysis_result_payload(analysis, config)
        )

    def lint(self, request: LintRequest) -> Dict[str, Any]:
        target = request.target or self.clara.nic.target.name
        _registry, reports, stats = run_lint_reports(
            elements=request.elements,
            only=request.only,
            disable=request.disable,
            target=target,
            cache="auto",
            baseline=request.baseline or None,
        )
        return envelope(
            "lint_run",
            lint_run_payload(reports, target=target, stats=stats),
        )

    def colocation(self, request: ColocationRequest) -> Dict[str, Any]:
        from repro.core.colocation import ranking_to_dict

        self._ensure_colocation()
        candidates = self._build_candidates(
            request.elements, request.workload, request.trace_seed
        )
        pairs = list(itertools.combinations(candidates, 2))
        ranked = self.clara.rank_colocations(pairs)
        return envelope("colocation_ranking", ranking_to_dict(ranked))

    def events(
        self,
        kind: Optional[str] = None,
        request_id: Optional[str] = None,
        since_seq: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> Dict[str, Any]:
        """The ``events`` envelope for ``GET /v1/events``: the
        journal's retained events (oldest-first, optionally filtered)
        plus the counters a poller needs to detect a slid window."""
        if kind is not None and kind not in EVENT_KINDS:
            raise ClaraError(
                f"unknown event kind {kind!r}"
                f" (known: {', '.join(EVENT_KINDS)})"
            )
        journal = get_journal()
        dicts = journal.to_dicts(
            kind=kind, request_id=request_id,
            since_seq=since_seq, limit=limit,
        )
        return envelope("events", {
            "events": dicts,
            "n_returned": len(dicts),
            "n_emitted": journal.n_emitted,
            "n_dropped": journal.n_dropped,
            "capacity": journal.capacity,
            "kinds": list(EVENT_KINDS),
        })

    def health(self) -> Tuple[int, Dict[str, Any]]:
        """``(http_status, envelope)`` for the readiness probe: 200
        once the advisors are warm, 503 while they are not.  The
        ``slo`` section carries the sliding-window latency quantiles
        and the ok/degraded verdict — degradation does *not* flip the
        status code (readiness is for load balancers; degradation is
        for operators and alerting)."""
        from repro.click.elements import ELEMENT_BUILDERS
        from repro.nic.targets import list_targets

        trained = bool(getattr(self.clara, "trained", False))
        result = {
            "ready": trained,
            "trained": trained,
            "slo": get_slo_tracker().snapshot(),
            "colocation_trained": self.clara.colocation is not None,
            "n_elements": len(ELEMENT_BUILDERS),
            "wire_schema": WIRE_SCHEMA,
            "request_kinds": list(REQUEST_KINDS),
            "targets": {
                "default": self.clara.nic.target.name,
                "available": list(list_targets()),
                "warm": sorted(self._claras),
            },
            "predictor": self._predictor_health(),
        }
        return (200 if trained else 503), envelope("health", result)

    def _predictor_health(self) -> Dict[str, Any]:
        """Prediction-cache stats, summed over every warm Clara."""
        hits = misses = entries = 0
        # A snapshot: clara_for may add a per-target Clara meanwhile,
        # and taking its lock would wait out a whole training run.
        for clara in tuple(self._claras.values()):
            cache = clara.predictor.prediction_cache
            if cache is not None:
                hits += cache.hits
                misses += cache.misses
                entries += len(cache)
        return {
            "cache": {
                "hits": hits,
                "misses": misses,
                "entries": entries,
            },
        }

    # -- internals ------------------------------------------------------
    def _ensure_colocation(self) -> None:
        if self.clara.colocation is not None:
            return
        with self._colocation_lock:
            if self.clara.colocation is None:
                log.info(
                    "colocation ranker cold: training (%d programs,"
                    " %d groups)",
                    self.colocation_programs, self.colocation_groups,
                )
                with span("colocation_train") as sp:
                    self.clara.train_colocation(
                        n_programs=self.colocation_programs,
                        n_groups=self.colocation_groups,
                    )
                get_journal().emit(
                    "colocation_train",
                    n_programs=self.colocation_programs,
                    n_groups=self.colocation_groups,
                    duration_s=round(sp.duration_s, 6),
                )

    def _build_candidates(
        self,
        names: Sequence[str],
        spec,
        trace_seed: int,
    ) -> List[Any]:
        from repro.click.elements import (
            build_element,
            initial_state,
            install_state,
        )
        from repro.click.interp import Interpreter
        from repro.core.colocation import make_candidate
        from repro.core.prepare import prepare_element
        from repro.workload import generate_trace

        trace = generate_trace(spec, seed=trace_seed)
        candidates = []
        with span("build_colocation_candidates", n_elements=len(names)):
            for name in names:
                element = build_element(name)
                prepared = prepare_element(element)
                interp = Interpreter(prepared.module, seed=trace_seed)
                install_state(interp, initial_state(element))
                # A fresh copy per NF: the interpreter rewrites packets.
                profile = interp.run_trace(p.copy() for p in trace)
                candidates.append(make_candidate(
                    prepared, profile, self.clara.nic, spec.packet_bytes
                ))
        return candidates

    def close(self) -> None:
        """Does nothing: the service holds no thread or resource to
        release.  Kept for callers that close what they build."""
