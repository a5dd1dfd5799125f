"""Continuous benchmarking of Clara's own hot paths (``clara bench``).

Clara's pitch is that offloading decisions must rest on *measured*
performance, not intuition — this module holds the repo to the same
standard.  A declared suite of pipeline workloads (dataset synthesis,
predictor train/infer, host interpretation, algorithm identification,
scale-out GBDT, placement ILP, coalescing K-means, colocation ranking,
corpus lint, warm-daemon analyze over HTTP) is timed as **median-of-N
with MAD dispersion** and written to a schema-versioned
``BENCH_<git-sha>.json`` trajectory artifact, so PR N can be compared
against PR N-1::

    clara bench --quick --out BENCH_now.json
    clara bench --quick --compare results/BENCH_baseline.json

:func:`compare_runs` grades each case: a slowdown is a regression
when it exceeds ``max(rel_threshold * baseline_median, mad_k * MAD)``
— the MAD guard keeps pure timing noise from tripping the relative
threshold on microsecond-scale cases.  Warn-grade regressions exceed
the threshold; error-grade exceed twice it.  The CLI exits
:data:`repro.errors.BENCH_EXIT_WARNING` / ``BENCH_EXIT_ERROR``
accordingly, mirroring the lint gate's 8/9 split, so CI can tolerate
warnings and fail hard on errors.

Cases share untimed setup through a :class:`BenchContext` (a memo of
prepared elements, profiles, fitted models), and each case's timed
thunk runs under a ``bench.<name>`` span — ``clara bench --trace-out``
shows the whole suite on a Perfetto timeline, and ``--flame-out``
wraps it in the :mod:`repro.obs.sampling` profiler.

Heavy imports stay inside case setups so importing :mod:`repro.obs`
stays light.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.errors import (
    BENCH_EXIT_ERROR,
    BENCH_EXIT_WARNING,
    ClaraError,
)
from repro.obs.trace import span

__all__ = [
    "BENCH_SCHEMA",
    "BenchCase",
    "BenchCaseResult",
    "BenchComparison",
    "BenchRun",
    "CaseComparison",
    "DEFAULT_MAD_K",
    "DEFAULT_REL_THRESHOLD",
    "compare_runs",
    "default_case_names",
    "register_case",
    "run_suite",
]

#: bump when the BENCH_*.json layout changes incompatibly.
BENCH_SCHEMA = 1

#: relative slowdown that counts as a regression (fraction of the
#: baseline median).
DEFAULT_REL_THRESHOLD = 0.25

#: noise guard: the slowdown must also exceed ``mad_k`` times the
#: larger of the two runs' MADs.
DEFAULT_MAD_K = 4.0


# ---------------------------------------------------------------------------
# Suite declaration.
# ---------------------------------------------------------------------------

class BenchContext:
    """Shared, memoized, *untimed* setup state for one suite run.

    ``target`` is the registered NIC backend the suite models
    (``None`` = the registry default); cases that compile or simulate
    read it, and per-target fixtures key their memo entries on it so
    a mixed-target suite never shares a trained model across backends.
    """

    def __init__(self, quick: bool = False, seed: int = 0,
                 target: Optional[str] = None) -> None:
        from repro.nic.machine import NICModel

        self.quick = quick
        self.seed = seed
        self.target = target
        #: the model of ``target`` that cases price on.
        self.nic = NICModel(target)
        self._memo: Dict[str, Any] = {}

    def memo(self, key: str, factory: Callable[[], Any]) -> Any:
        """``factory()`` once per suite run, cached under ``key``."""
        if key not in self._memo:
            self._memo[key] = factory()
        return self._memo[key]

    # -- shared fixtures used by several cases --------------------------
    def prepared(self, name: str):
        """A prepared library element."""
        def build():
            from repro.click.elements import build_element
            from repro.core.prepare import prepare_element

            return prepare_element(build_element(name))
        return self.memo(f"prepared:{name}", build)

    def host_profile(self, name: str, n_packets: int = 120):
        """(profile, workload) of ``name`` under a small bench trace."""
        def build():
            from repro.click.elements import (
                build_element,
                initial_state,
                install_state,
            )
            from repro.click.interp import Interpreter
            from repro.workload import characterize, iter_trace
            from repro.workload.spec import WorkloadSpec

            spec = WorkloadSpec(
                name="bench", n_flows=4096, n_packets=n_packets
            )
            interp = Interpreter(self.prepared(name).module, seed=self.seed)
            install_state(interp, initial_state(build_element(name)))
            profile = interp.run_trace(iter_trace(spec, seed=self.seed))
            return profile, characterize(spec, self.nic.hierarchy)
        return self.memo(f"profile:{name}:{n_packets}", build)

    def predictor_dataset(self):
        """A synthesized predictor dataset sized for the mode."""
        def build():
            from repro.core.predictor import PredictorDataset

            return PredictorDataset.synthesize(
                n_programs=6 if self.quick else 16, seed=self.seed
            )
        return self.memo("predictor_dataset", build)

    def fitted_predictor(self):
        """An :class:`InstructionPredictor` fitted on the bench dataset."""
        def build():
            from repro.core.predictor import InstructionPredictor

            predictor = InstructionPredictor(
                epochs=4 if self.quick else 10, seed=self.seed
            )
            return predictor.fit(self.predictor_dataset())
        return self.memo("fitted_predictor", build)

    def trained_clara(self, target: Optional[str] = None):
        """A fully trained Clara sized for the mode (no cache: bench
        measures this process, not the artifact store).  ``target``
        overrides the suite-level target for cross-target cases."""
        target = target or self.target

        def build():
            from repro.core import Clara, TrainConfig

            config = TrainConfig(
                n_predictor_programs=6,
                n_scaleout_programs=3,
                predictor_epochs=4,
                n_negatives=6,
                scaleout_trace_packets=80,
            ) if self.quick else TrainConfig.quick()
            return Clara(seed=self.seed, target=target).train(config)
        return self.memo(f"trained_clara:{target or 'default'}", build)

    def warm_server(self):
        """An in-process ``clara serve`` daemon on an ephemeral port.

        The server thread is daemonic and lives for the rest of the
        process.
        """
        def build():
            from repro.serve import ServeConfig, build_server

            server = build_server(self.trained_clara(), ServeConfig(port=0))
            return server.start()
        return self.memo("warm_server", build)


@dataclass(frozen=True)
class BenchCase:
    """One declared workload: ``prepare(ctx)`` does the untimed setup
    and returns the zero-argument thunk that gets timed."""

    name: str
    description: str
    prepare: Callable[[BenchContext], Callable[[], Any]]


#: the declared suite, in registration (= report) order.
_CASES: Dict[str, BenchCase] = {}


def register_case(name: str, description: str):
    """Decorator declaring a bench case (also the extension point for
    out-of-tree suites and tests)."""
    def wrap(prepare: Callable[[BenchContext], Callable[[], Any]]):
        _CASES[name] = BenchCase(name, description, prepare)
        return prepare
    return wrap


def default_case_names() -> List[str]:
    return list(_CASES)


def get_case(name: str) -> BenchCase:
    try:
        return _CASES[name]
    except KeyError:
        raise ClaraError(
            f"unknown bench case {name!r}"
            f" (known: {', '.join(_CASES)})"
        ) from None


# ---------------------------------------------------------------------------
# The built-in suite (pipeline stage per case; quick mode shrinks sizes).
# ---------------------------------------------------------------------------

@register_case("synthesis", "ClickGen dataset synthesis + NIC compilation")
def _case_synthesis(ctx: BenchContext) -> Callable[[], Any]:
    from repro.core.predictor import PredictorDataset

    n_programs = 3 if ctx.quick else 10

    def run():
        return PredictorDataset.synthesize(
            n_programs=n_programs, seed=ctx.seed
        )
    return run


@register_case("predictor_train", "LSTM instruction-predictor fit")
def _case_predictor_train(ctx: BenchContext) -> Callable[[], Any]:
    from repro.core.predictor import InstructionPredictor

    dataset = ctx.predictor_dataset()
    epochs = 4 if ctx.quick else 10

    def run():
        return InstructionPredictor(epochs=epochs, seed=ctx.seed).fit(dataset)
    return run


@register_case("predictor_infer", "per-NF instruction prediction (hot path)")
def _case_predictor_infer(ctx: BenchContext) -> Callable[[], Any]:
    predictor = ctx.fitted_predictor()
    sequences = ctx.prepared("aggcounter").block_token_sequences()

    def run():
        return predictor.predict_direct(sequences)
    return run


@register_case("predictor_infer_cached",
               "per-NF prediction served from the prediction cache")
def _case_predictor_infer_cached(ctx: BenchContext) -> Callable[[], Any]:
    from repro.core.predictor import InstructionPredictor

    base = ctx.fitted_predictor()
    # Clone through the state dict so the cache attaches to a private
    # predictor — the shared fixture must stay cache-free for the
    # uncached predictor_infer case.
    predictor = InstructionPredictor().load_state_dict(base.state_dict())
    predictor.attach_prediction_cache()
    sequences = ctx.prepared("aggcounter").block_token_sequences()
    # Populate during setup; every timed repeat is then a pure
    # content-addressed hit (bit-identical to the uncached result).
    predictor.predict_direct(sequences)

    def run():
        return predictor.predict_direct(sequences)
    return run


@register_case("host_interp",
               "host interpreter over fresh 2000-packet traces")
def _case_host_interp(ctx: BenchContext) -> Callable[[], Any]:
    from dataclasses import replace

    from repro.click.elements import (
        build_element,
        initial_state,
        install_state,
    )
    from repro.click.interp import Interpreter, precompile
    from repro.workload import iter_trace
    from repro.workload.spec import SMALL_FLOWS

    spec = replace(SMALL_FLOWS, n_packets=2000)
    nfs = [
        (ctx.prepared(name).module, initial_state(build_element(name)))
        for name in ("mazunat", "firewall")
    ]
    for module, _state in nfs:
        # As Clara.analyze's prepare stage does.
        precompile(module)

    def run():
        # What Clara.profile_on_host does per NF: stream a fresh trace
        # (the interpreter rewrites packets) into the interpreter.
        profiles = []
        for module, state in nfs:
            interp = Interpreter(module, seed=ctx.seed)
            install_state(interp, state)
            profiles.append(
                interp.run_trace(iter_trace(spec, seed=ctx.seed))
            )
        return profiles
    return run


@register_case("algorithm_id", "algorithm identification over a profiled NF")
def _case_algorithm_id(ctx: BenchContext) -> Callable[[], Any]:
    from repro.core.algorithms import AlgorithmIdentifier, build_algorithm_corpus

    identifier = ctx.memo(
        "fitted_identifier",
        lambda: AlgorithmIdentifier(seed=ctx.seed).fit(
            build_algorithm_corpus(
                seed=ctx.seed, n_negatives=6 if ctx.quick else 20
            )
        ),
    )
    prepared = ctx.prepared("aggcounter")
    profile, workload = ctx.host_profile("aggcounter")

    def run():
        return identifier.advise(prepared, profile, workload)
    return run


@register_case("scaleout_gbdt", "scale-out GBDT cost-model fit")
def _case_scaleout_gbdt(ctx: BenchContext) -> Callable[[], Any]:
    from repro.core.scaleout import ScaleoutAdvisor

    advisor = ScaleoutAdvisor(ctx.nic, seed=ctx.seed)
    advisor.build_training_set(
        n_programs=2 if ctx.quick else 6,
        trace_packets=60 if ctx.quick else 150,
    )

    def run():
        return advisor.fit()
    return run


@register_case("placement_ilp", "state-placement ILP solve")
def _case_placement_ilp(ctx: BenchContext) -> Callable[[], Any]:
    import numpy as np

    from repro.core.placement import PlacementProblem, solve_ilp

    k = 10 if ctx.quick else 16
    rng = np.random.default_rng(ctx.seed)
    problem = PlacementProblem(
        names=[f"state_{i}" for i in range(k)],
        sizes=[int(v) for v in rng.integers(8, 4096, size=k)],
        frequencies=[float(v) for v in rng.random(k)],
        hierarchy=ctx.nic.hierarchy,
    )

    def run():
        return solve_ilp(problem)
    return run


@register_case("coalescing_kmeans", "coalescing K-means cluster selection")
def _case_coalescing_kmeans(ctx: BenchContext) -> Callable[[], Any]:
    import numpy as np

    from repro.ml.kmeans import choose_k_by_cutoff

    n, dims = (40, 8) if ctx.quick else (120, 12)
    rng = np.random.default_rng(ctx.seed)
    centers = rng.random((4, dims))
    vectors = np.concatenate(
        [center + 0.05 * rng.standard_normal((n // 4, dims))
         for center in centers]
    )

    def run():
        return choose_k_by_cutoff(vectors, k_max=6, cutoff=0.45,
                                  seed=ctx.seed)
    return run


@register_case("colocation_rank", "colocation learning-to-rank fit")
def _case_colocation_rank(ctx: BenchContext) -> Callable[[], Any]:
    from repro.click.elements import (
        build_element,
        initial_state,
        install_state,
    )
    from repro.click.interp import Interpreter
    from repro.core.colocation import ColocationAdvisor, make_candidate
    from repro.workload import characterize, generate_trace
    from repro.workload.spec import WorkloadSpec

    spec = WorkloadSpec(
        name="coloc_bench", n_flows=50_000, zipf_alpha=0.4, n_packets=100
    )
    trace = generate_trace(spec, seed=ctx.seed)
    workload = characterize(spec, ctx.nic.hierarchy)
    pool = []
    for name in ("aggcounter", "udpcount", "mininat", "ratelimiter",
                 "mazunat"):
        element = build_element(name)
        prepared_nf = ctx.prepared(name)
        interp = Interpreter(prepared_nf.module, seed=ctx.seed)
        install_state(interp, initial_state(element))
        # A fresh copy per NF: the interpreter rewrites packets.
        profile = interp.run_trace(p.copy() for p in trace)
        pool.append(
            make_candidate(prepared_nf, profile, ctx.nic, spec.packet_bytes)
        )
    n_groups = 2 if ctx.quick else 6

    def run():
        return ColocationAdvisor(ctx.nic, seed=ctx.seed).fit(
            pool, workload, n_groups=n_groups, group_size=3
        )
    return run


@register_case("serve_analyze", "warm-daemon analyze request over HTTP")
def _case_serve_analyze(ctx: BenchContext) -> Callable[[], Any]:
    import urllib.request

    # After the first run, every run is a memo hit of the static half.
    server = ctx.warm_server()
    url = server.url("/v1/analyze")
    body = json.dumps({
        "element": "aggcounter",
        "workload": {"name": "bench", "n_flows": 4096, "n_packets": 60},
    }).encode("utf-8")

    def run():
        request = urllib.request.Request(
            url, data=body,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=120) as resp:
            if resp.status != 200:
                raise ClaraError(
                    f"serve_analyze got HTTP {resp.status}"
                )
            return resp.read()
    return run


@register_case("corpus_lint", "offload lint over library elements")
def _case_corpus_lint(ctx: BenchContext) -> Callable[[], Any]:
    from repro.click.elements import ELEMENT_BUILDERS
    from repro.nfir.analysis import default_registry
    from repro.nic.targets import resolve_target

    registry = default_registry()
    target = resolve_target(ctx.target)
    names = sorted(ELEMENT_BUILDERS)
    if ctx.quick:
        names = names[:4]
    modules = [ctx.prepared(name).module for name in names]

    def run():
        return [registry.run(module, target=target) for module in modules]
    return run


@register_case("lint_absint",
               "interval + footprint abstract interpretation")
def _case_lint_absint(ctx: BenchContext) -> Callable[[], Any]:
    from repro.click.elements import ELEMENT_BUILDERS
    from repro.nfir.analysis import (
        IntervalAnalysis,
        loop_trip_bounds,
        module_footprints,
    )

    names = sorted(ELEMENT_BUILDERS)
    if ctx.quick:
        names = names[:4]
    modules = [ctx.prepared(name).module for name in names]

    def run():
        out = []
        for module in modules:
            analyses = {}
            for function in module.functions.values():
                analysis = IntervalAnalysis(function)
                analyses[function.name] = analysis
                out.append(loop_trip_bounds(function, analysis))
            out.append(module_footprints(module, analyses=analyses))
        return out
    return run


@register_case("dpu_analyze",
               "end-to-end analyze on the dpu-offpath target")
def _case_dpu_analyze(ctx: BenchContext) -> Callable[[], Any]:
    from repro.workload.spec import WorkloadSpec

    # After the first run, every run is a memo hit of the static half.
    clara = ctx.trained_clara(target="dpu-offpath")
    spec = WorkloadSpec(name="bench", n_flows=4096, n_packets=60)

    def run():
        return clara.analyze("aggcounter", spec, trace_seed=ctx.seed)
    return run


# ---------------------------------------------------------------------------
# Running and recording.
# ---------------------------------------------------------------------------

@dataclass
class BenchCaseResult:
    """Median-of-N timing of one case."""

    name: str
    repeats: int
    median_s: float
    mad_s: float
    mean_s: float
    min_s: float
    max_s: float
    samples_s: List[float] = field(default_factory=list)

    @classmethod
    def from_samples(
        cls, name: str, samples: Sequence[float]
    ) -> "BenchCaseResult":
        samples = [float(s) for s in samples]
        median = statistics.median(samples)
        mad = statistics.median(abs(s - median) for s in samples)
        return cls(
            name=name,
            repeats=len(samples),
            median_s=round(median, 9),
            mad_s=round(mad, 9),
            mean_s=round(statistics.fmean(samples), 9),
            min_s=round(min(samples), 9),
            max_s=round(max(samples), 9),
            samples_s=[round(s, 9) for s in samples],
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "repeats": self.repeats,
            "median_s": self.median_s,
            "mad_s": self.mad_s,
            "mean_s": self.mean_s,
            "min_s": self.min_s,
            "max_s": self.max_s,
            "samples_s": list(self.samples_s),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BenchCaseResult":
        return cls(
            name=str(data["name"]),
            repeats=int(data.get("repeats", 0)),
            median_s=float(data["median_s"]),
            mad_s=float(data.get("mad_s", 0.0)),
            mean_s=float(data.get("mean_s", data["median_s"])),
            min_s=float(data.get("min_s", data["median_s"])),
            max_s=float(data.get("max_s", data["median_s"])),
            samples_s=[float(s) for s in data.get("samples_s", [])],
        )


def _git_sha() -> str:
    """The current short git sha (``CLARA_BENCH_SHA`` overrides; falls
    back to ``unknown`` outside a checkout)."""
    override = os.environ.get("CLARA_BENCH_SHA")
    if override:
        return override
    for cwd in (Path(__file__).resolve().parent, Path.cwd()):
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=cwd, capture_output=True, text=True, timeout=10,
            )
        except (OSError, subprocess.SubprocessError):
            continue
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    return "unknown"


@dataclass
class BenchRun:
    """One suite execution: the ``BENCH_<sha>.json`` trajectory point."""

    git_sha: str
    quick: bool
    repeats: int
    seed: int
    created_unix: float
    host: Dict[str, Any]
    results: List[BenchCaseResult]
    #: registered NIC target the suite modelled (suite default when
    #: absent in an older artifact).
    target: str = "nfp-4000"

    def result(self, name: str) -> Optional[BenchCaseResult]:
        for entry in self.results:
            if entry.name == name:
                return entry
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": BENCH_SCHEMA,
            "kind": "bench_run",
            "git_sha": self.git_sha,
            "quick": self.quick,
            "repeats": self.repeats,
            "seed": self.seed,
            "target": self.target,
            "created_unix": self.created_unix,
            "host": dict(self.host),
            "results": [entry.to_dict() for entry in self.results],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BenchRun":
        schema = data.get("schema")
        if schema != BENCH_SCHEMA:
            raise ClaraError(
                f"unsupported bench schema {schema!r}"
                f" (expected {BENCH_SCHEMA})"
            )
        return cls(
            git_sha=str(data.get("git_sha", "unknown")),
            quick=bool(data.get("quick", False)),
            repeats=int(data.get("repeats", 0)),
            seed=int(data.get("seed", 0)),
            target=str(data.get("target", "nfp-4000")),
            created_unix=float(data.get("created_unix", 0.0)),
            host=dict(data.get("host", {})),
            results=[
                BenchCaseResult.from_dict(entry)
                for entry in data.get("results", [])
            ],
        )

    @classmethod
    def from_json(cls, text: str) -> "BenchRun":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path) -> "BenchRun":
        try:
            return cls.from_json(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ClaraError(f"no bench baseline at {path}") from None
        except json.JSONDecodeError as exc:
            raise ClaraError(f"unreadable bench JSON at {path}: {exc}") \
                from None

    def default_artifact_name(self) -> str:
        return f"BENCH_{self.git_sha}.json"

    def render(self) -> str:
        """The human table (cases in suite order, µs-precision)."""
        mode = "quick" if self.quick else "full"
        lines = [
            f"Bench run @ {self.git_sha} ({mode}, target {self.target},"
            f" median of {self.repeats}):",
            f"{'case':20s} {'median(ms)':>11s} {'mad(ms)':>9s}"
            f" {'min(ms)':>9s} {'max(ms)':>9s}",
        ]
        for entry in self.results:
            lines.append(
                f"{entry.name:20s} {entry.median_s * 1e3:11.3f}"
                f" {entry.mad_s * 1e3:9.3f} {entry.min_s * 1e3:9.3f}"
                f" {entry.max_s * 1e3:9.3f}"
            )
        return "\n".join(lines) + "\n"


def run_suite(
    names: Optional[Sequence[str]] = None,
    repeats: Optional[int] = None,
    quick: bool = False,
    seed: int = 0,
    warmup: int = 1,
    target: Optional[str] = None,
) -> BenchRun:
    """Time the declared cases and return the :class:`BenchRun`.

    Setup (model fitting for inference cases, element preparation,
    trace generation) happens once per case outside the timed region;
    every timed repeat then runs the case's thunk once.  ``warmup``
    untimed calls absorb first-call effects (lazy imports, allocator
    warm-up) before sampling starts.
    """
    from repro.nic.targets import resolve_target

    selected = [get_case(name) for name in (names or default_case_names())]
    if repeats is None:
        repeats = 3 if quick else 5
    if repeats < 1:
        raise ClaraError("bench repeats must be >= 1")
    target_name = resolve_target(target).name
    ctx = BenchContext(quick=quick, seed=seed, target=target)
    results: List[BenchCaseResult] = []
    for case in selected:
        with span(f"bench.{case.name}", repeats=repeats) as sp:
            with span("bench.setup", case=case.name):
                thunk = case.prepare(ctx)
            for _ in range(warmup):
                thunk()
            samples: List[float] = []
            for _ in range(repeats):
                start = time.perf_counter()
                thunk()
                samples.append(time.perf_counter() - start)
            entry = BenchCaseResult.from_samples(case.name, samples)
            sp.set("median_s", entry.median_s)
            sp.set("mad_s", entry.mad_s)
        results.append(entry)
    return BenchRun(
        git_sha=_git_sha(),
        quick=quick,
        repeats=repeats,
        seed=seed,
        target=target_name,
        created_unix=time.time(),
        host={
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "argv0": sys.argv[0],
        },
        results=results,
    )


# ---------------------------------------------------------------------------
# Regression detection.
# ---------------------------------------------------------------------------

@dataclass
class CaseComparison:
    """One case's baseline-vs-current verdict."""

    name: str
    grade: str                    # ok | improved | warn | error | missing | new
    baseline_s: Optional[float]
    current_s: Optional[float]
    delta_s: float = 0.0
    threshold_s: float = 0.0

    @property
    def ratio(self) -> Optional[float]:
        if not self.baseline_s or self.current_s is None:
            return None
        return self.current_s / self.baseline_s

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "grade": self.grade,
            "baseline_s": self.baseline_s,
            "current_s": self.current_s,
            "delta_s": round(self.delta_s, 9),
            "threshold_s": round(self.threshold_s, 9),
            "ratio": None if self.ratio is None else round(self.ratio, 4),
        }


@dataclass
class BenchComparison:
    """The full regression report for ``clara bench --compare``."""

    baseline_sha: str
    current_sha: str
    rel_threshold: float
    mad_k: float
    entries: List[CaseComparison]

    @property
    def n_errors(self) -> int:
        return sum(1 for e in self.entries if e.grade == "error")

    @property
    def n_warnings(self) -> int:
        return sum(1 for e in self.entries if e.grade == "warn")

    @property
    def exit_code(self) -> int:
        """0 clean, ``BENCH_EXIT_WARNING`` on warn-grade regressions
        only, ``BENCH_EXIT_ERROR`` when any error-grade regression."""
        if self.n_errors:
            return BENCH_EXIT_ERROR
        if self.n_warnings:
            return BENCH_EXIT_WARNING
        return 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": BENCH_SCHEMA,
            "kind": "bench_comparison",
            "baseline_sha": self.baseline_sha,
            "current_sha": self.current_sha,
            "rel_threshold": self.rel_threshold,
            "mad_k": self.mad_k,
            "n_errors": self.n_errors,
            "n_warnings": self.n_warnings,
            "entries": [entry.to_dict() for entry in self.entries],
        }

    def render(self) -> str:
        lines = [
            f"Bench compare: {self.baseline_sha} -> {self.current_sha}"
            f" (warn > {self.rel_threshold:.0%}, error > "
            f"{2 * self.rel_threshold:.0%}, noise guard"
            f" {self.mad_k:g}*MAD):",
            f"{'case':20s} {'base(ms)':>9s} {'cur(ms)':>9s}"
            f" {'ratio':>7s}  verdict",
        ]
        for entry in self.entries:
            base = "-" if entry.baseline_s is None \
                else f"{entry.baseline_s * 1e3:.3f}"
            cur = "-" if entry.current_s is None \
                else f"{entry.current_s * 1e3:.3f}"
            ratio = "-" if entry.ratio is None else f"{entry.ratio:.2f}x"
            lines.append(
                f"{entry.name:20s} {base:>9s} {cur:>9s} {ratio:>7s}"
                f"  {entry.grade}"
            )
        lines.append(
            f"{self.n_errors} error-grade, {self.n_warnings} warn-grade"
            " regression(s)"
        )
        return "\n".join(lines) + "\n"


def compare_runs(
    baseline: BenchRun,
    current: BenchRun,
    rel_threshold: float = DEFAULT_REL_THRESHOLD,
    mad_k: float = DEFAULT_MAD_K,
) -> BenchComparison:
    """Grade ``current`` against ``baseline`` case by case.

    A case regresses when ``current_median - baseline_median`` exceeds
    ``max(rel_threshold * baseline_median, mad_k * max(MADs))`` —
    warn-grade above the threshold, error-grade above twice it.  A
    symmetric speed-up is reported as ``improved``.  Cases present in
    only one run surface as ``missing``/``new`` without affecting the
    exit code.
    """
    if rel_threshold <= 0:
        raise ClaraError("rel_threshold must be positive")
    entries: List[CaseComparison] = []
    for base in baseline.results:
        cur = current.result(base.name)
        if cur is None:
            entries.append(CaseComparison(
                name=base.name, grade="missing",
                baseline_s=base.median_s, current_s=None,
            ))
            continue
        delta = cur.median_s - base.median_s
        threshold = max(
            rel_threshold * base.median_s,
            mad_k * max(base.mad_s, cur.mad_s),
        )
        if delta > 2 * threshold:
            grade = "error"
        elif delta > threshold:
            grade = "warn"
        elif delta < -threshold:
            grade = "improved"
        else:
            grade = "ok"
        entries.append(CaseComparison(
            name=base.name, grade=grade,
            baseline_s=base.median_s, current_s=cur.median_s,
            delta_s=delta, threshold_s=threshold,
        ))
    baseline_names = {entry.name for entry in baseline.results}
    for cur in current.results:
        if cur.name not in baseline_names:
            entries.append(CaseComparison(
                name=cur.name, grade="new",
                baseline_s=None, current_s=cur.median_s,
            ))
    return BenchComparison(
        baseline_sha=baseline.git_sha,
        current_sha=current.git_sha,
        rel_threshold=rel_threshold,
        mad_k=mad_k,
        entries=entries,
    )
