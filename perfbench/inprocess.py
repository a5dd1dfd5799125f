"""The benchmark's in-process side: the CLI↔HTTP parity check and the
traced run's per-layer replay.

Everything here calls the program's public API from the benchmark's
own code, with the checkout's ``src`` first on ``sys.path``.  Layer
times are taken around each public call that ``Clara.analyze`` makes,
on the inputs it would give them; no span inside the program is used.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Sequence, Tuple

from perfbench.workloads import Request

#: The per-request layer calls of ``Clara.analyze``, in call order.
LAYERS: Tuple[str, ...] = (
    "click.prepare_ms",
    "workload.trace_ms",
    "click.interp_ms",
    "workload.characterize_ms",
    "core.predictor.advise_ms",
    "core.algorithms.identify_ms",
    "core.scaleout.advise_ms",
    "core.placement.advise_ms",
    "core.coalescing.advise_ms",
    "nfir.analysis.lint_ms",
)

#: Runs in a fresh interpreter, like a daemon start: import what
#: ``clara serve`` imports, load the artifact, answer one request.
_SETUP_PROBE = """
import json, sys, time
t0 = time.perf_counter()
import repro.cli, repro.core, repro.serve
t1 = time.perf_counter()
clara = repro.core.Clara.load(sys.argv[1])
t2 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
from perfbench import inprocess, workloads
service = inprocess.serving_service(clara)
request = workloads.SETUP_REQUEST
t3 = time.perf_counter()
inprocess.service_call_ms(service, request)
t4 = time.perf_counter()
service.close()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1,
                  "first_analyze_ms": (t4 - t3) * 1e3}))
"""


def import_program(src: str) -> None:
    """Import the parts of ``repro`` this module calls, from the
    checkout being measured."""
    if src not in sys.path:
        sys.path.insert(0, src)
    import repro.click.interp  # noqa: F401
    import repro.core  # noqa: F401
    import repro.nfir.analysis  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.workload  # noqa: F401


def load_clara(artifact: str):
    """A Clara from the artifact with neither cache nor broker: the
    plain library path ``clara analyze --load`` takes."""
    from repro.core import Clara

    return Clara.load(artifact)


def serving_service(clara):
    """``clara`` in a ``ClaraService`` configured as ``clara serve``'s
    defaults configure it: prediction cache attached, 2 ms broker
    window, ``lstm`` mode."""
    from repro.serve import ClaraService, ServeConfig

    config = ServeConfig()
    return ClaraService(
        clara,
        batch_window_s=config.batch_window_ms / 1000.0,
        max_batch=config.max_batch,
        predict_cache=config.predict_cache,
        predictor_mode=config.predictor_mode,
    )


def _spec(request: Request):
    from repro.serve.schemas import workload_from_dict

    return workload_from_dict(request.wire()["workload"])


def expected_body(clara, request: Request, rid: str) -> bytes:
    """The response body the daemon owes ``request``: the same
    analysis through the library, rendered by the one envelope
    serializer both transports share."""
    from repro.serve.schemas import (
        analysis_result_payload,
        dump_envelope,
        envelope,
    )

    analysis = clara.analyze(request.nf, _spec(request),
                             trace_seed=request.trace_seed)
    env = envelope("analysis_result",
                   analysis_result_payload(analysis, clara.port_config(analysis)))
    env["request_id"] = rid
    return (dump_envelope(env) + "\n").encode("utf-8")


def service_call_ms(service, request: Request) -> float:
    """In-process ``ClaraService.analyze`` + ``dump_envelope``, ms."""
    from repro.serve.schemas import AnalyzeRequest, dump_envelope

    parsed = AnalyzeRequest.from_dict(request.wire())
    t0 = time.perf_counter()
    dump_envelope(service.analyze(parsed))
    return (time.perf_counter() - t0) * 1e3


def time_layers(clara, request: Request) -> Dict[str, float]:
    """Each layer call of one ``Clara.analyze``, ms."""
    from repro.click.elements import build_element, initial_state, install_state
    from repro.click.interp import Interpreter
    from repro.core.prepare import prepare_element
    from repro.nfir.analysis import lint_module
    from repro.workload import characterize, generate_trace

    spec = _spec(request)
    clock = time.perf_counter
    marks = [clock()]
    element = build_element(request.nf)
    prepared = prepare_element(element)
    marks.append(clock())
    trace = generate_trace(spec, seed=request.trace_seed)
    marks.append(clock())
    interp = Interpreter(prepared.module, seed=request.trace_seed)
    install_state(interp, initial_state(element))
    profile = interp.run_trace(trace)
    marks.append(clock())
    workload = characterize(spec, hierarchy=clara.nic.hierarchy)
    marks.append(clock())
    report = clara.predictor.advise(prepared, profile, workload)
    marks.append(clock())
    clara.identifier.advise(prepared, profile, workload)
    marks.append(clock())
    clara.scaleout.advise(prepared, profile, workload,
                          block_compute=report.predicted_compute)
    marks.append(clock())
    clara.placement.advise(prepared, profile, workload)
    marks.append(clock())
    clara.coalescing.advise(prepared, profile, workload)
    marks.append(clock())
    lint_module(prepared.module, target=clara.nic.target)
    marks.append(clock())
    return {
        name: (end - start) * 1e3
        for name, start, end in zip(LAYERS, marks, marks[1:])
    }


def analyze_ms(clara, request: Request) -> float:
    """One whole ``Clara.analyze``, ms."""
    spec = _spec(request)
    t0 = time.perf_counter()
    clara.analyze(request.nf, spec, trace_seed=request.trace_seed)
    return (time.perf_counter() - t0) * 1e3


def replay(clara, requests: Sequence[Request], round_size: int,
           budget_s: float) -> Tuple[Dict[str, List[float]], List[float]]:
    """Per request, time every layer call and the whole analyze back to
    back, so both see the same host speed; the order alternates so that
    neither side always runs second on warm CPU caches.  Replays
    ``requests`` in order and stops at the first end of a round
    (``round_size`` requests, the workload's whole mix) after
    ``budget_s`` seconds."""
    layer_ms: Dict[str, List[float]] = {name: [] for name in LAYERS}
    whole_ms: List[float] = []
    start = time.perf_counter()
    for i, request in enumerate(requests):
        if i % round_size == 0 and i and time.perf_counter() - start > budget_s:
            break
        if i % 2:
            whole_ms.append(analyze_ms(clara, request))
        for name, ms in time_layers(clara, request).items():
            layer_ms[name].append(ms)
        if not i % 2:
            whole_ms.append(analyze_ms(clara, request))
    return layer_ms, whole_ms


def lstm_infer_ms(clara, nfs: Sequence[str], repeats: int = 3) -> float:
    """Median over ``nfs`` of one NF's block predictions through
    ``predict_direct`` on a predictor with no cache attached (the cold
    path of a daemon's first requests)."""
    from repro.click.elements import build_element
    from repro.core.prepare import prepare_element

    predictor = clara.predictor
    if predictor.prediction_cache is not None:
        raise ValueError("lstm_infer_ms needs a predictor without a cache")
    per_nf = []
    for nf in nfs:
        sequences = prepare_element(build_element(nf)).block_token_sequences()
        runs = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            predictor.predict_direct(sequences)
            runs.append((time.perf_counter() - t0) * 1e3)
        per_nf.append(statistics.median(runs))
    return statistics.median(per_nf)


def setup_probe(root: str, env: Dict[str, str],
                artifact: str) -> Dict[str, float]:
    """Import, load and first-analyze (of the set-up request) times of
    one fresh process."""
    out = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, artifact, root],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])
