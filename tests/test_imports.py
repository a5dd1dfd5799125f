"""The package's import graph stays free of modules it does not need at
start-up.

scipy (one ``milp`` call) and networkx (CFG queries) each dominated
start-up time and memory until they were replaced in pure Python; a
stray top-level import would bring either back without failing
anything else.  Likewise the bench harness and the sampling profiler
serve only ``clara bench``, so neither may load with the package, the
serving daemon included, and neither may the paper-baseline models that
only the evaluation benchmarks use.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

DROPPED = ("scipy", "networkx")
BENCH_ONLY = ("repro.obs.bench", "repro.obs.sampling")
BASELINE_MODELS = tuple(
    f"repro.ml.{name}" for name in ("mlp", "cnn", "knn", "forest", "pca", "automl")
)


def _loaded_by_package_import(modules):
    """Which of ``modules`` a fresh ``import repro.cli, repro.core,
    repro.serve`` loads."""
    code = (
        "import sys\n"
        "import repro.cli, repro.core, repro.serve\n"
        f"print(','.join(m for m in {tuple(modules)!r} if m in sys.modules))\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return result.stdout.strip()


def test_package_imports_neither_scipy_nor_networkx():
    assert _loaded_by_package_import(DROPPED) == ""


def test_package_import_does_not_load_the_bench_harness():
    assert _loaded_by_package_import(BENCH_ONLY) == ""


def test_package_import_does_not_load_the_baseline_models():
    assert _loaded_by_package_import(BASELINE_MODELS) == ""


def test_baseline_models_still_import_from_the_package():
    from repro.ml import AutoMLRegressor, CNNRegressor, PCA
    from repro.ml.automl import AutoMLRegressor as direct

    assert AutoMLRegressor is direct
    assert CNNRegressor.__module__ == "repro.ml.cnn"
    assert PCA.__module__ == "repro.ml.pca"
