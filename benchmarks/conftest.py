"""Shared fixtures for the evaluation benchmarks.

Every benchmark regenerates one table or figure of the paper's Section
5, writes its rows into ``results/<artifact>.txt``, and asserts the
paper's qualitative claims (who wins, by roughly what factor, where
crossovers fall).  Heavy artifacts — the trained Clara instance, host
profiles — are session-scoped.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.click.elements import build_element, initial_state, install_state
from repro.click.frontend import lower_element
from repro.click.interp import Interpreter
from repro.core.artifacts import TrainConfig
from repro.core.pipeline import Clara
from repro.nic.machine import NICModel
from repro.workload import generate_trace
from repro.workload.spec import WorkloadSpec

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def write_result(results_dir):
    def _write(name: str, text: str) -> None:
        (results_dir / f"{name}.txt").write_text(text)
        print(f"\n{text}")

    return _write


@pytest.fixture(scope="session")
def nic_model() -> NICModel:
    return NICModel()


#: One config for every benchmark module, so a single cached artifact
#: (under ``$REPRO_CLARA_CACHE`` / ``~/.cache/repro-clara``) serves all
#: of them — and subsequent benchmark runs skip training entirely.
BENCHMARK_TRAIN_CONFIG = TrainConfig(
    n_predictor_programs=160,
    n_scaleout_programs=60,
    predictor_epochs=40,
)


@pytest.fixture(scope="session")
def clara() -> Clara:
    """A fully trained Clara instance (the expensive one-time phase,
    parallelized and artifact-cached)."""
    instance = Clara(seed=0)
    instance.train(
        BENCHMARK_TRAIN_CONFIG,
        workers=min(os.cpu_count() or 1, 8),
        cache="auto",
    )
    return instance


def profile_element(name, spec: WorkloadSpec, state=None, seed=0,
                    mutate=None, **params):
    """Lower + host-profile one element; returns (element, module,
    profile, block frequency map).  ``mutate(packet, index)`` can
    adjust trace packets (e.g. to direct traffic at a generator NF's
    configured flow)."""
    element = build_element(name, **params)
    module = lower_element(element)
    interp = Interpreter(module, seed=seed)
    install_state(interp, initial_state(element))
    if state:
        install_state(interp, state)
    trace = generate_trace(spec, seed=seed)
    if mutate is not None:
        for i, packet in enumerate(trace):
            mutate(packet, i)
    profile = interp.run_trace(trace)
    freq = {b: c / profile.packets for b, c in profile.block_counts.items()}
    return element, module, profile, freq


@pytest.fixture(scope="session")
def profiler():
    return profile_element
