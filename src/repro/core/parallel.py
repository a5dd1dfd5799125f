"""Deterministic multiprocessing fan-out for the one-time learning phases.

Clara's dataset synthesis is embarrassingly parallel *per generated
program*: ClickGen generation, NIC compilation for ground-truth
instruction counts, and per-program trace profiling share nothing with
each other.  The sticking point is determinism — a single RNG threaded
through a serial loop cannot be split across workers without changing
the stream.  So each program is generated from a **child seed** derived
from ``(run seed, program index)`` (:meth:`ClickGen.for_program`),
which makes the dataset a pure function of ``(seed, n_programs)``:
``workers=N`` and ``workers=1`` return byte-identical results, and the
artifact cache in :mod:`repro.core.artifacts` can key on the training
config alone without recording how many workers produced it.

Workers are plain top-level functions over picklable argument tuples,
so both the ``fork`` and ``spawn`` start methods work.  Heavy IR
objects never cross the process boundary — workers return plain rows
(token lists, floats, feature vectors).
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.obs import get_logger, get_metrics, span

log = get_logger(__name__)

__all__ = [
    "child_seed",
    "parallel_map",
    "resolve_workers",
    "synthesize_predictor_rows",
    "build_scaleout_samples",
]


def child_seed(seed: int, index: int) -> int:
    """The deterministic per-program seed: independent of worker count
    and of every other program's generation."""
    from repro.synthesis.generator import program_seed

    return program_seed(seed, index)


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a ``workers`` argument: ``None``/``0`` means "use all
    cores"; anything else is taken literally (minimum 1)."""
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    return max(1, int(workers))


def parallel_map(
    fn: Callable[[Any], Any],
    jobs: Sequence[Any],
    workers: Optional[int] = 1,
) -> List[Any]:
    """``[fn(j) for j in jobs]``, fanned out over ``workers`` processes.

    Results come back in job order regardless of completion order, so
    callers see identical output for any worker count.  ``workers<=1``
    (or a single job) runs inline with no pool overhead — this is also
    the reference stream the determinism tests compare against.
    """
    workers = resolve_workers(workers)
    name = getattr(fn, "__name__", repr(fn))
    with span("parallel_map", fn=name, jobs=len(jobs)) as sp:
        get_metrics().counter("parallel_map_jobs").inc(len(jobs))
        if workers <= 1 or len(jobs) <= 1:
            sp.set("mode", "inline")
            return [fn(job) for job in jobs]
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0]
        )
        n_procs = min(workers, len(jobs))
        sp.set("workers", n_procs)
        try:
            with ctx.Pool(processes=n_procs) as pool:
                sp.set("mode", "pool")
                return pool.map(fn, jobs, chunksize=1)
        except (OSError, PermissionError) as exc:
            # Restricted environments (no /dev/shm, seccomp'd clone):
            # degrade to the serial reference stream rather than failing.
            log.warning(
                "process pool unavailable (%s); running %d jobs serially",
                exc, len(jobs),
            )
            sp.set("mode", "serial_fallback")
            return [fn(job) for job in jobs]


# ---------------------------------------------------------------------------
# Predictor dataset synthesis (Section 3.2).
# ---------------------------------------------------------------------------

def _predictor_program_job(
    args: Tuple[Any, int, int, str, str]
) -> List[Tuple[List[str], float, str]]:
    """Generate + compile the ``index``-th synthesized program and
    return its (token sequence, compute count, group) rows.  ``target``
    travels as a registry name (plain string, picklable) so each worker
    compiles against the right backend's register budget and engines."""
    stats, seed, index, prefix, target = args
    # Imports stay inside the worker: they keep this module import-light
    # and break the predictor <-> parallel import cycle.
    from repro.core.predictor import iter_block_samples
    from repro.core.prepare import prepare_element
    from repro.nic.compiler import compile_module
    from repro.nic.port import PortConfig
    from repro.synthesis.generator import ClickGen

    gen = ClickGen.for_program(stats, seed=seed, index=index)
    element = gen.element(f"{prefix}_{index}")
    prepared = prepare_element(element)
    program = compile_module(prepared.module, PortConfig(), target=target)
    return [
        (list(tokens), count, group)
        for tokens, count, group in iter_block_samples(prepared, program)
    ]


def synthesize_predictor_rows(
    stats: Any,
    n_programs: int,
    seed: int,
    workers: Optional[int] = 1,
    prefix: str = "synth",
    target: Optional[str] = None,
) -> List[Tuple[List[str], float, str]]:
    """All (sequence, target, group) rows for ``n_programs`` synthesized
    programs, in program order, compiled for registry target ``target``
    (``None`` means the default NFP)."""
    jobs = [
        (stats, seed, index, prefix, target) for index in range(n_programs)
    ]
    rows: List[Tuple[List[str], float, str]] = []
    for program_rows in parallel_map(_predictor_program_job, jobs, workers):
        rows.extend(program_rows)
    return rows


# ---------------------------------------------------------------------------
# Scale-out training-set construction (Section 4.2).
# ---------------------------------------------------------------------------

def _scaleout_program_job(args: Tuple[Any, ...]) -> List[Any]:
    """One synthesized program deployed on the simulated NIC under every
    training workload; returns its :class:`ScaleoutSample` rows."""
    stats, nic, seed, index, specs, trace_packets, prefix = args
    from dataclasses import replace

    from repro.click.interp import Interpreter
    from repro.core.prepare import prepare_element
    from repro.core.scaleout import ScaleoutSample, scaleout_features
    from repro.nic.compiler import compile_module
    from repro.nic.port import PortConfig
    from repro.synthesis.generator import ClickGen
    from repro.workload import characterize, generate_trace

    gen = ClickGen.for_program(stats, seed=seed, index=index)
    element = gen.element(f"{prefix}_{index}")
    prepared = prepare_element(element)
    program = compile_module(prepared.module, PortConfig(), target=nic.target)
    # Ground-truth per-block compute from the compiled program
    # (training programs ARE deployed, Section 4.2).
    block_compute = {
        b.name: float(b.n_compute) for b in program.handler.blocks
    }
    samples: List[ScaleoutSample] = []
    for spec in specs:
        spec_small = replace(spec, n_packets=trace_packets)
        interp = Interpreter(prepared.module, seed=seed)
        profile = interp.run_trace(generate_trace(spec_small, seed=seed))
        workload = characterize(spec_small, nic.hierarchy)
        features = scaleout_features(
            prepared, block_compute, profile, workload, nic
        )
        packets = max(profile.packets, 1)
        freq = {b: c / packets for b, c in profile.block_counts.items()}
        sweep = nic.sweep_cores(program, freq, workload)
        optimal = nic.optimal_cores(sweep)
        samples.append(
            ScaleoutSample(features, optimal, element.name, spec.name)
        )
    return samples


def build_scaleout_samples(
    stats: Any,
    nic: Any,
    n_programs: int,
    workloads: Sequence[Any],
    trace_packets: int,
    seed: int,
    workers: Optional[int] = 1,
    prefix: str = "scale",
) -> List[Any]:
    """Flattened scale-out samples for ``n_programs`` programs, in
    (program, workload) order."""
    jobs = [
        (stats, nic, seed, index, tuple(workloads), trace_packets, prefix)
        for index in range(n_programs)
    ]
    samples: List[Any] = []
    for program_samples in parallel_map(_scaleout_program_job, jobs, workers):
        samples.extend(program_samples)
    return samples
