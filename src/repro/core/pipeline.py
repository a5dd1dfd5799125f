"""The end-to-end Clara pipeline (paper Figure 2).

``Clara.train()`` performs the one-time learning phases (instruction
prediction on synthesized pairs, algorithm-identification corpus,
scale-out cost model).  Training is driven by a
:class:`~repro.core.artifacts.TrainConfig`, can fan dataset synthesis
out over worker processes (``workers=N``), and can persist/restore its
fitted advisors through the content-addressed artifact cache
(``cache="auto"``) or explicit ``Clara.save()`` / ``Clara.load()``
calls — a second ``train()`` with the same config is a sub-second load
instead of a retrain.

``Clara.analyze()`` then takes an *unported* ClickScript element plus
a workload spec and produces the full insight report.  Its
request-invariant half (lowering, per-block prediction, algorithm
identification and the offload lint) is computed once per element
content and kept in a small per-Clara LRU; only the half that reads
the host profile of the traffic runs on every call.

``Clara.port_config()`` turns the insights into a
:class:`~repro.nic.port.PortConfig` — the "Clara porting" strategy the
evaluation benchmarks against naive porting and expert emulation.
"""

from __future__ import annotations

import copy
import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.click.ast import ElementDef
from repro.click.elements import build_element, initial_state, install_state
from repro.click.interp import ExecutionProfile, Interpreter
from repro.core.algorithms import AlgorithmIdentifier, build_algorithm_corpus
from repro.core.artifacts import (
    ArtifactCache,
    ArtifactCacheMiss,
    TrainConfig,
    load_state,
    save_state,
    train_cache_key,
)
from repro.core.coalescing import CoalescingAdvisor
from repro.core.insights import INSIGHT_REPORT_SCHEMA, Insight, InsightReport
from repro.core.placement import PlacementAdvisor
from repro.core.predictor import InstructionPredictor, PredictorDataset
from repro.core.prepare import PreparedNF, prepare_element
from repro.core.scaleout import ScaleoutAdvisor
from repro.errors import NotTrainedError
from repro.nfir.analysis import LintReport, lint_module
from repro.nic.machine import NICModel, WorkloadCharacter
from repro.nic.port import PortConfig
from repro.nic.targets import TargetDescription
from repro.obs import get_logger, get_metrics, span
from repro.workload import characterize, generate_trace
from repro.workload.spec import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.colocation import ColocationAdvisor, NFCandidate

log = get_logger(__name__)

#: valid values of ``Clara.train(cache=...)``.
CACHE_MODES = ("auto", "off", "require")

#: most distinct elements whose :class:`StaticAnalysis` one
#: :class:`Clara` keeps (the library has 24 NFs); the least recently
#: used is dropped first.
STATIC_MEMO_SIZE = 64


def element_key(element: ElementDef) -> str:
    """Content key of an element: equal definitions share it, whatever
    their identity.  The AST is a tree of dataclasses whose ``repr``
    covers every field; a plain ``initial_state`` attribute is not part
    of it, because profiling reads that from the requesting element."""
    return hashlib.sha256(repr(element).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class StaticAnalysis:
    """The request-invariant half of one NF's analysis: what
    :meth:`Clara.analyze` derives from the element, the target and the
    fitted advisors alone (paper Figure 3's lowering, per-block
    prediction and algorithm identification, plus the offload lint).
    One record serves every analysis of an equal element, from any
    thread, so nothing in it may be mutated."""

    prepared: PreparedNF
    #: the predictor's compute/memory/api insights, in report order.
    insights: Tuple[Insight, ...]
    #: ``(region, accelerator label, blocks)`` per identified region.
    accelerators: Tuple[Tuple[str, str, Tuple[str, ...]], ...]
    lint: LintReport


@dataclass
class AnalysisResult:
    """One NF's analysis under one workload.

    ``report``, ``profile`` and ``workload`` belong to this result.
    ``prepared`` is shared: its module, annotation and tokens come from
    the analyzing :class:`Clara`'s memo and serve every analysis of an
    equal element, on any thread, so treat it as read-only."""

    report: InsightReport
    prepared: PreparedNF
    profile: ExecutionProfile
    workload: WorkloadCharacter
    #: registry name of the NIC target the analysis ran against.
    target: str = "nfp-4000"

    @property
    def block_freq(self) -> Dict[str, float]:
        packets = max(self.profile.packets, 1)
        return {
            b: c / packets for b, c in self.profile.block_counts.items()
        }

    def to_dict(self) -> Dict[str, Any]:
        """Stable JSON layout (``"schema": 2``): the insight report
        plus the host-profile and workload facts it was derived from."""
        return {
            "schema": INSIGHT_REPORT_SCHEMA,
            "kind": "analysis_result",
            "target": self.target,
            "report": self.report.to_dict(),
            "block_freq": {
                name: round(freq, 6)
                for name, freq in sorted(self.block_freq.items())
            },
            "profile": {
                "packets": int(self.profile.packets),
                "sent": int(self.profile.sent),
                "dropped": int(self.profile.dropped),
                "api_counts": {
                    api: int(count)
                    for api, count in sorted(self.profile.api_counts.items())
                },
            },
            "workload": {
                "name": self.workload.name,
                "packet_bytes": int(self.workload.packet_bytes),
                "emem_cache_hit_rate": float(
                    self.workload.emem_cache_hit_rate
                ),
                "flow_cache_hit_rate": float(
                    self.workload.flow_cache_hit_rate
                ),
            },
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


class Clara:
    """Automated SmartNIC offloading insights."""

    def __init__(
        self,
        seed: int = 0,
        target: "str | TargetDescription | None" = None,
    ) -> None:
        """``target`` selects the registered NIC backend the pipeline
        models (default ``nfp-4000``); every advisor prices its advice
        on that target's model."""
        self.nic = NICModel(target)
        self.seed = seed
        self.predictor = InstructionPredictor(seed=seed)
        self.identifier = AlgorithmIdentifier(seed=seed)
        self.scaleout = ScaleoutAdvisor(self.nic, seed=seed)
        self.placement = PlacementAdvisor(self.nic.hierarchy)
        self.coalescing = CoalescingAdvisor(seed=seed)
        #: trained lazily by :meth:`train_colocation`.
        self.colocation: Optional["ColocationAdvisor"] = None
        #: the config of the last (or loaded) training run.
        self.train_config: Optional[TrainConfig] = None
        self.trained = False
        #: element key -> StaticAnalysis, least recently used first.
        #: Deployment state: never part of :meth:`state_dict`.
        self._static_memo: "OrderedDict[str, StaticAnalysis]" = OrderedDict()
        self._static_lock = threading.Lock()

    # -- one-time training phases ---------------------------------------
    def train(
        self,
        config: Optional[TrainConfig] = None,
        *,
        workers: int = 1,
        cache: str = "off",
        cache_dir: Optional[str] = None,
    ) -> "Clara":
        """Run all learning phases for ``config`` (default
        :class:`TrainConfig`; use ``TrainConfig.quick()`` for tests).

        ``workers`` fans dataset synthesis out over processes —
        parallel and serial synthesis produce identical datasets, so
        the choice is invisible to everything downstream.  ``cache``
        selects artifact-cache behavior: ``"off"`` always retrains,
        ``"auto"`` loads a previously stored artifact for the same
        (config, seed, NIC) and stores fresh ones, ``"require"``
        raises :class:`ArtifactCacheMiss` instead of retraining.

        :class:`TrainConfig` is the only way to size a run — the
        pre-1.0 ``n_predictor_programs``/``n_scaleout_programs``/
        ``predictor_epochs``/``quick`` kwargs (deprecated since the
        artifact-cache release) are gone.

        Drops every memoized :class:`StaticAnalysis`.
        """
        if config is None:
            config = TrainConfig()
        if cache not in CACHE_MODES:
            raise ValueError(
                f"cache must be one of {CACHE_MODES}, got {cache!r}"
            )
        self.train_config = config
        self._drop_static_memo()

        with span("train", cache_mode=cache, workers=workers) as train_sp:
            get_metrics().counter("train_runs").inc()
            store: Optional[ArtifactCache] = None
            key: Optional[str] = None
            if cache != "off":
                store = ArtifactCache(cache_dir)
                key = train_cache_key(config, seed=self.seed, nic=self.nic)
                state = store.load(key)
                if state is not None:
                    train_sp.set("cache", "hit")
                    log.info("train: cache hit for key %s", key)
                    return self.load_state_dict(state)
                train_sp.set("cache", "miss")
                if cache == "require":
                    raise ArtifactCacheMiss(
                        f"no cached Clara artifact for key {key}"
                        f" under {store.root}"
                    )
            log.info("train: learning phases for config %s", config)

            with span("synthesize_predictor") as sp:
                dataset = PredictorDataset.synthesize(
                    n_programs=config.n_predictor_programs,
                    seed=self.seed,
                    workers=workers,
                    target=self.nic.target.name,
                )
                sp.set("n_samples", len(dataset))
            with span("fit_predictor") as sp:
                self.predictor.epochs = config.predictor_epochs
                self.predictor.fit(dataset)
                sp.set("vocab_size", self.predictor.vocab.size)
                sp.set("epochs", config.predictor_epochs)
            with span("build_algorithm_corpus") as sp:
                corpus = build_algorithm_corpus(
                    seed=self.seed, n_negatives=config.n_negatives
                )
                sp.set("n_samples", len(corpus.sequences))
            with span("fit_identifier"):
                self.identifier.fit(corpus)
            with span("build_scaleout_set") as sp:
                self.scaleout.build_training_set(
                    n_programs=config.n_scaleout_programs,
                    trace_packets=config.scaleout_trace_packets,
                    workers=workers,
                )
                sp.set("n_samples", len(self.scaleout.samples))
            with span("fit_scaleout"):
                self.scaleout.fit()
            self.trained = True
            if store is not None and key is not None:
                store.store(key, self.state_dict())
        return self

    def train_colocation(
        self,
        n_programs: int = 20,
        n_groups: int = 30,
        objective: str = "total_throughput_loss",
    ) -> "Clara":
        """Train the colocation ranker (Section 4.5).  Separate from
        :meth:`train` because colocation analysis is only needed when
        several NFs compete for one NIC."""
        from repro.core.colocation import ColocationAdvisor

        with span("train_colocation", n_programs=n_programs,
                  n_groups=n_groups, objective=objective):
            advisor = ColocationAdvisor(
                self.nic, objective=objective, seed=self.seed
            )
            with span("build_candidate_pool"):
                pool, workload = advisor.build_candidate_pool(
                    n_programs=n_programs
                )
            with span("fit_colocation"):
                advisor.fit(pool, workload, n_groups=n_groups)
        self.colocation = advisor
        return self

    def rank_colocations(
        self,
        candidates: Sequence[Tuple["NFCandidate", "NFCandidate"]],
    ) -> List[Tuple["NFCandidate", "NFCandidate"]]:
        """Rank (a, b) NFCandidate pairs friendliest-first; requires
        :meth:`train_colocation` to have run."""
        from repro.core.colocation import NFCandidate

        if self.colocation is None:
            raise NotTrainedError("call Clara.train_colocation() first")
        pairs = list(candidates)
        for position, pair in enumerate(pairs):
            if not (
                isinstance(pair, tuple)
                and len(pair) == 2
                and all(isinstance(nf, NFCandidate) for nf in pair)
            ):
                raise TypeError(
                    f"candidates[{position}] is not an (NFCandidate,"
                    f" NFCandidate) pair: {pair!r}"
                )
        if not pairs:
            return []
        with span("rank_colocations", n_pairs=len(pairs)):
            get_metrics().counter("colocation_rankings").inc()
            order = self.colocation.rank_pairs(pairs)
            return [pairs[i] for i in order]

    # -- serving fast paths ---------------------------------------------
    def enable_prediction_cache(
        self, store: Optional[ArtifactCache] = None
    ) -> "Any":
        """Attach the content-addressed prediction cache to the fitted
        predictor, namespaced to this pipeline's NIC target.  Pass
        ``store`` to page previously flushed predictions in from disk;
        without it the cache is purely in-memory (what ``clara serve``
        uses).  Returns the attached
        :class:`~repro.core.artifacts.PredictionCache`."""
        return self.predictor.attach_prediction_cache(
            store=store, nic=self.nic
        )

    # -- artifact persistence -------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """The fitted state of every advisor, picklable, sufficient to
        reproduce bit-identical analyses via :meth:`load_state_dict`."""
        return {
            "seed": self.seed,
            "trained": self.trained,
            "train_config": self.train_config,
            "target": self.nic.target.to_dict(),
            "advisors": {
                "predictor": self.predictor.state_dict(),
                "identifier": self.identifier.state_dict(),
                "scaleout": self.scaleout.state_dict(),
                "placement": self.placement.state_dict(),
                "coalescing": self.coalescing.state_dict(),
                "colocation": (
                    None if self.colocation is None
                    else self.colocation.state_dict()
                ),
            },
        }

    def load_state_dict(self, state: Mapping[str, object]) -> "Clara":
        """Restore the fitted advisors from :meth:`state_dict` output
        and drop every memoized :class:`StaticAnalysis`.  The memo is
        only dropped here and by :meth:`train`: after any other direct
        change to an advisor's fitted state, call
        ``clara.load_state_dict(clara.state_dict())`` before the next
        :meth:`analyze`."""
        self._drop_static_memo()
        advisors = state["advisors"]
        self.predictor.load_state_dict(advisors["predictor"])
        self.identifier.load_state_dict(advisors["identifier"])
        self.scaleout.load_state_dict(advisors["scaleout"])
        self.placement.load_state_dict(advisors["placement"])
        self.coalescing.load_state_dict(advisors["coalescing"])
        colocation_state = advisors.get("colocation")
        if colocation_state is None:
            self.colocation = None
        else:
            from repro.core.colocation import ColocationAdvisor

            advisor = ColocationAdvisor(self.nic, seed=self.seed)
            advisor.load_state_dict(colocation_state)
            self.colocation = advisor
        self.seed = int(state.get("seed", self.seed))
        self.train_config = state.get("train_config")
        self.trained = bool(state.get("trained", True))
        return self

    def save(self, path) -> Path:
        """Serialize the trained advisors to ``path`` for explicit
        artifact shipping (``Clara.load(path)`` restores them)."""
        return save_state(self.state_dict(), path)

    @classmethod
    def load(cls, path) -> "Clara":
        """A Clara restored from a :meth:`save` artifact, modelling the
        target description the artifact recorded.  Artifacts saved
        before the target registry recorded none; they model the
        default NFP."""
        state = load_state(path)
        payload = state.get("target")
        target = (
            None if payload is None else TargetDescription.from_dict(payload)
        )
        clara = cls(seed=int(state.get("seed", 0)), target=target)
        return clara.load_state_dict(state)

    # -- per-NF analysis ---------------------------------------------------
    def profile_on_host(
        self,
        prepared: PreparedNF,
        spec: WorkloadSpec,
        state: Optional[Mapping[str, object]] = None,
        trace_seed: int = 0,
    ) -> ExecutionProfile:
        """Run the NF on the host against the workload (Section 4.3)."""
        with span("profile_on_host", nf=prepared.name,
                  workload=spec.name) as sp:
            interp = Interpreter(prepared.module, seed=trace_seed)
            if prepared.element is not None:
                install_state(interp, initial_state(prepared.element))
            if state:
                install_state(interp, state)
            profile = interp.run_trace(generate_trace(spec, seed=trace_seed))
            sp.set("packets", profile.packets)
        return profile

    def analyze(
        self,
        element: Union[ElementDef, str],
        spec: WorkloadSpec,
        state: Optional[Mapping[str, object]] = None,
        trace_seed: int = 0,
    ) -> AnalysisResult:
        """The full insight pipeline for one NF under one workload.

        ``element`` is either an :class:`~repro.click.ast.ElementDef`
        or a library element *name* (resolved via
        :func:`~repro.click.elements.build_element`).

        Two halves.  The static half (``prepare``, ``predict``,
        ``identify``, ``lint``) depends only on the element's content,
        the target and the fitted advisors; it runs once per distinct
        element and is then served from a bounded per-Clara LRU (see
        :class:`StaticAnalysis`).  The per-workload half
        (``profile_on_host``, ``characterize``, ``scaleout``,
        ``placement``, ``coalescing``) runs on every call and builds a
        fresh report from copies of the memoized insights.  Both halves
        open their stage spans every time; the static stages carry
        ``memo="hit"`` or ``memo="miss"``.

        Re-entrant: every call builds its own interpreter, profile,
        and report, and the fitted advisors are only *read* — so
        ``clara serve`` calls this concurrently from its request
        threads.  The memo is guarded by a lock and filled outside it,
        so two concurrent first analyses of one element may both
        compute it (with identical results).  Only
        :meth:`train`/:meth:`load_state_dict` mutate advisor state,
        and they must not overlap with analyses.
        """
        if not self.trained:
            raise NotTrainedError("call Clara.train() before analyze()")
        if isinstance(element, str):
            element = build_element(element)
        with span("analyze", nf=element.name, workload=spec.name):
            get_metrics().counter("analyze_runs").inc()
            static = self._static_analysis(element)
            # The memoized lowering, profiled with the requesting
            # element's own initial state.
            prepared = replace(static.prepared, element=element)
            profile = self.profile_on_host(prepared, spec, state, trace_seed)
            with span("characterize"):
                workload = characterize(spec, self.nic.hierarchy)

            # Copies, so nothing this request adds or sets reaches the
            # memo.
            report = InsightReport(
                nf_name=prepared.name,
                workload_name=spec.name,
                insights=[
                    Insight(i.type, i.subject, copy.copy(i.value), i.detail)
                    for i in static.insights
                ],
                diagnostics=[
                    replace(diag, data=dict(diag.data))
                    for diag in static.lint.diagnostics
                ],
            )

            # Accelerator opportunities (Section 4.1).
            for region, label, blocks in static.accelerators:
                report.add(
                    "accelerator",
                    region,
                    {"accel": label, "blocks": list(blocks)},
                    detail=f"blocks: {','.join(blocks[:4])}"
                    + ("..." if len(blocks) > 4 else ""),
                )

            # Scale-out suggestion (Section 4.2).
            with span("scaleout") as sp:
                cores = self.scaleout.advise(
                    prepared, profile, workload,
                    block_compute=report.predicted_compute,
                )
                sp.set("cores", cores)
            report.add("scaleout", "cores", cores, detail="GBDT cost model")

            # State placement (Section 4.3).
            with span("placement") as sp:
                solution = self.placement.advise(prepared, profile, workload)
                sp.set("method", solution.method)
            for name, region in solution.assignment.items():
                report.add(
                    "placement", name, region,
                    detail=f"ILP ({solution.method})",
                )

            # Coalescing (Section 4.4).
            with span("coalescing") as sp:
                plan = self.coalescing.advise(prepared, profile, workload)
                sp.set("n_packs", len(plan.packs))
            for pack in plan.packs:
                report.add(
                    "coalescing",
                    "+".join(pack.variables),
                    pack.access_bytes,
                    detail="K-means access-vector cluster",
                )

        log.info(
            "analyze: %s under %s -> %d insights",
            element.name, spec.name, len(report.insights),
        )
        return AnalysisResult(
            report, prepared, profile, workload, target=self.nic.target.name
        )

    def _static_analysis(self, element: ElementDef) -> StaticAnalysis:
        """The static half of :meth:`analyze`, from the memo when an
        equal element was analyzed before.  A hit opens the same stage
        spans, with the same attributes, around no work, and counts the
        stored lint diagnostics again."""
        key = element_key(element)
        with self._static_lock:
            record = self._static_memo.get(key)
            if record is not None:
                self._static_memo.move_to_end(key)
        memo = "miss" if record is None else "hit"
        with span("prepare", memo=memo) as sp:
            prepared = (
                prepare_element(element) if record is None
                else record.prepared
            )
            sp.set("n_blocks", len(prepared.blocks))
        with span("predict", memo=memo) as sp:
            insights = (
                tuple(self.predictor.advise(prepared).insights)
                if record is None else record.insights
            )
            sp.set("n_insights", len(insights))
        # Accelerator opportunities (Section 4.1).
        with span("identify", memo=memo) as sp:
            accelerators = (
                tuple(
                    (region, label, tuple(blocks))
                    for region, (label, blocks)
                    in self.identifier.advise(prepared).items()
                )
                if record is None else record.accelerators
            )
            sp.set("n_regions", len(accelerators))
        # Offload lint (static portability diagnostics).
        with span("lint", memo=memo) as sp:
            lint = (
                lint_module(prepared.module, target=self.nic.target)
                if record is None else record.lint
            )
            sp.set("n_diagnostics", len(lint.diagnostics))
            sp.set("n_errors", lint.n_errors)
            sp.set("n_suppressed", len(lint.suppressed))
            metrics = get_metrics()
            for diag in lint.diagnostics:
                metrics.counter(
                    "lint_diagnostics",
                    severity=diag.severity,
                    rule=diag.rule,
                ).inc()
                if diag.data.get("downgraded_by"):
                    metrics.counter(
                        "lint_downgrades",
                        rule=diag.rule,
                        by=str(diag.data["downgraded_by"]),
                    ).inc()
        if record is None:
            record = StaticAnalysis(prepared, insights, accelerators, lint)
            with self._static_lock:
                # A concurrent first analysis may have stored an equal
                # record meanwhile; keep that one.
                record = self._static_memo.setdefault(key, record)
                self._static_memo.move_to_end(key)
                while len(self._static_memo) > STATIC_MEMO_SIZE:
                    self._static_memo.popitem(last=False)
        return record

    def _drop_static_memo(self) -> None:
        with self._static_lock:
            self._static_memo.clear()

    # -- turning insights into a port ---------------------------------------
    def port_config(self, analysis: AnalysisResult) -> PortConfig:
        """The "Clara porting" strategy: apply every insight."""
        report = analysis.report
        crc_blocks: List[str] = []
        lpm_blocks: List[str] = []
        crypto_blocks: List[str] = []
        for insight in report.of_type("accelerator"):
            value = insight.value
            # Only helper bodies and natural loops are mechanically
            # substitutable; a label on the residual "main" region is a
            # rewrite *suggestion* for the developer, not a safe
            # automated transformation.
            if not (
                insight.subject.startswith("helper:")
                or insight.subject.startswith("loop:")
            ):
                continue
            if value["accel"] == "crc":
                crc_blocks.extend(value["blocks"])
            elif value["accel"] == "lpm":
                lpm_blocks.extend(value["blocks"])
            elif value["accel"] == "crypto":
                crypto_blocks.extend(value["blocks"])
        packs = []
        from repro.nic.port import CoalescePack

        for insight in report.of_type("coalescing"):
            packs.append(
                CoalescePack(tuple(insight.subject.split("+")), int(insight.value))
            )
        uses_checksum = any(
            api.startswith("checksum_update") for api in analysis.prepared.api_set
        )
        return PortConfig(
            use_checksum_accel=uses_checksum,
            crc_accel_blocks=frozenset(crc_blocks),
            crypto_accel_blocks=frozenset(crypto_blocks),
            lpm_accel_blocks=frozenset(lpm_blocks),
            placement=dict(report.placement),
            packs=packs,
            cores=report.suggested_cores or self.nic.n_cores,
        )
