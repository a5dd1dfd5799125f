"""Trained-model artifacts: the config, the cache, and (de)serialization.

Clara's learning phases are a pure function of the training
configuration, the seed, and the simulated NIC's constants — so their
output can be **content-addressed**: the cache key is a SHA-256 over
exactly those inputs plus a code-version tag, and a second
``Clara.train()`` with the same :class:`TrainConfig` becomes a
sub-second load from ``~/.cache/repro-clara/`` instead of minutes of
synthesis and fitting.

Three pieces live here:

* :class:`TrainConfig` — the one typed description of a training run
  (the loose ``n_predictor_programs/.../quick`` kwargs it replaced
  were removed after their deprecation cycle);
* :func:`save_state` / :func:`load_state` — pickle an advisor
  ``state_dict()`` tree to disk with format/version validation;
* :class:`ArtifactCache` — the content-addressed store.  Corrupt or
  stale entries are evicted and reported as misses, so callers always
  fall back to retraining.

Cache busting: bump :data:`ARTIFACT_VERSION` whenever training code or
learned-state layout changes meaning; delete the cache directory (or
point ``REPRO_CLARA_CACHE`` elsewhere) to force cold retrains by hand.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import threading
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, Optional

from repro.errors import ArtifactCacheMiss, ArtifactError
from repro.obs import get_logger, get_metrics, span

log = get_logger(__name__)

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "ArtifactCache",
    "ArtifactCacheMiss",
    "ArtifactError",
    "PredictionCache",
    "TrainConfig",
    "default_cache_dir",
    "load_state",
    "save_state",
    "sequence_key",
    "train_cache_key",
]

#: On-disk container layout (the outer dict written by ``save_state``).
ARTIFACT_FORMAT = 1

#: Code-relevant version tag.  Part of every cache key: bump it when
#: the synthesis pipeline, model architectures, or state_dict layouts
#: change in a way that invalidates previously trained weights.
ARTIFACT_VERSION = "clara-artifacts-3"

#: Environment variable overriding the default cache directory.
ENV_CACHE_DIR = "REPRO_CLARA_CACHE"


# ArtifactError / ArtifactCacheMiss moved to repro.errors (the typed
# exception hierarchy); imported above and re-exported here for
# backwards compatibility.


@dataclass(frozen=True)
class TrainConfig:
    """Everything ``Clara.train()`` learns from, in one hashable value.

    The only way to size a training run (the loose
    ``n_predictor_programs / n_scaleout_programs / predictor_epochs /
    quick`` kwargs completed their deprecation cycle and were
    removed).  Two equal configs trained at the same seed on the same
    NIC produce identical models — which is what makes the artifact
    cache sound.
    """

    #: synthesized programs for the instruction predictor (Section 3.2).
    n_predictor_programs: int = 120
    #: synthesized programs for the scale-out cost model (Section 4.2).
    n_scaleout_programs: int = 60
    #: LSTM training epochs.
    predictor_epochs: int = 35
    #: negative examples in the algorithm-identification corpus (4.1).
    n_negatives: int = 40
    #: host-profiled trace length per scale-out training deployment.
    scaleout_trace_packets: int = 400

    @classmethod
    def quick(cls) -> "TrainConfig":
        """Shrunken config for tests and CLI smoke runs
        (minutes -> seconds, at some accuracy cost)."""
        return cls(
            n_predictor_programs=12,
            n_scaleout_programs=6,
            predictor_epochs=8,
            n_negatives=10,
            scaleout_trace_packets=150,
        )

    def key_dict(self) -> Dict[str, Any]:
        return asdict(self)


def default_cache_dir() -> Path:
    """``$REPRO_CLARA_CACHE`` if set, else ``~/.cache/repro-clara``."""
    override = os.environ.get(ENV_CACHE_DIR)
    if override:
        return Path(override).expanduser()
    return Path.home() / ".cache" / "repro-clara"


def _nic_fingerprint(nic: Any) -> Dict[str, Any]:
    """The NIC constants the learned models depend on.

    Includes the full target description (register budget, accelerator
    latency table, host-DMA hop, ...) — models trained for ``nfp-4000``
    and ``dpu-offpath`` must never share a cache key — plus the
    model-level topology/hierarchy fields, which callers can override
    independently of the target for ablations.
    """
    if nic is None:
        return {}
    target = getattr(nic, "target", None)
    target_payload: Dict[str, Any] = {}
    if target is not None:
        from repro.nic.targets import target_fingerprint

        target_payload = target_fingerprint(target)
    hierarchy = getattr(nic, "hierarchy", None)
    regions = []
    if hierarchy is not None:
        for name in sorted(hierarchy.regions):
            region = hierarchy.regions[name]
            regions.append(
                [
                    region.name,
                    int(region.capacity_bytes),
                    int(region.latency_cycles),
                    float(region.bandwidth_ops),
                ]
            )
    return {
        "target": target_payload,
        "n_cores": getattr(nic, "n_cores", None),
        "threads_per_core": getattr(nic, "threads_per_core", None),
        "freq_hz": getattr(nic, "freq_hz", None),
        "line_rate_gbps": getattr(nic, "line_rate_gbps", None),
        "regions": regions,
    }


def train_cache_key(
    config: TrainConfig, seed: int = 0, nic: Any = None
) -> str:
    """Content address of a training run: hash of (version tag, config,
    seed, NIC constants).  Worker count is deliberately absent —
    parallel and serial synthesis produce identical datasets."""
    payload = json.dumps(
        {
            "version": ARTIFACT_VERSION,
            "config": config.key_dict(),
            "seed": int(seed),
            "nic": _nic_fingerprint(nic),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


# ---------------------------------------------------------------------------
# (De)serialization of state_dict trees.
# ---------------------------------------------------------------------------

def save_state(state: Dict[str, Any], path: "os.PathLike | str") -> Path:
    """Atomically write a ``state_dict()`` tree to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    container = {
        "format": ARTIFACT_FORMAT,
        "version": ARTIFACT_VERSION,
        "state": state,
    }
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            pickle.dump(container, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # pragma: no cover - only on write failure
            tmp.unlink()
    return path


def load_state(path: "os.PathLike | str") -> Dict[str, Any]:
    """Read a ``state_dict()`` tree written by :func:`save_state`.

    Raises :class:`ArtifactError` on any corruption or version skew —
    callers that want graceful degradation (the cache) catch it.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            container = pickle.load(handle)
    except FileNotFoundError:
        raise
    except Exception as exc:  # noqa: BLE001 - any unpickling failure
        raise ArtifactError(f"unreadable artifact {path}: {exc}") from exc
    if not isinstance(container, dict) or "state" not in container:
        raise ArtifactError(f"{path} is not a Clara artifact")
    if container.get("format") != ARTIFACT_FORMAT:
        raise ArtifactError(
            f"{path}: unsupported artifact format {container.get('format')!r}"
        )
    if container.get("version") != ARTIFACT_VERSION:
        raise ArtifactError(
            f"{path}: artifact version {container.get('version')!r} does not"
            f" match code version {ARTIFACT_VERSION!r}"
        )
    return container["state"]


def sequence_key(tokens: Any) -> str:
    """Content address of one block token sequence (prediction-cache
    row key).  JSON framing keeps distinct sequences distinct even when
    tokens contain each other's separators."""
    payload = json.dumps(list(tokens), separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


class PredictionCache:
    """Content-addressed per-block prediction memo.

    Maps ``sequence_key(block tokens)`` to the predicted instruction
    count, valid only within one ``namespace`` — a hash of the model
    fingerprint and the target fingerprint (see
    ``InstructionPredictor.prediction_namespace``), so predictions
    never leak across retrained weights or NIC targets.

    Lookups and inserts hit an in-memory dict; pass ``store`` (an
    :class:`ArtifactCache`) to additionally page the map in from disk
    at construction and persist it on :meth:`flush`.  Cached values are
    the exact doubles the model produced, so cached and uncached
    predictions are bit-identical.  Concurrent lookups (one per
    serving request thread) keep exact ``hits``/``misses`` totals.
    """

    def __init__(
        self,
        namespace: str,
        store: Optional["ArtifactCache"] = None,
    ) -> None:
        self.namespace = namespace
        self.hits = 0
        self.misses = 0
        self._counts_lock = threading.Lock()
        self._store = store
        self._mem: Dict[str, float] = {}
        self._dirty = False
        if store is not None:
            state = store.load(self._store_key())
            if state is not None:
                self._mem.update(state.get("predictions", {}))

    def __len__(self) -> int:
        return len(self._mem)

    def _store_key(self) -> str:
        return f"pred-{self.namespace}"

    def lookup(self, keys: "list[str]") -> "list[Optional[float]]":
        """Cached prediction per key (``None`` on miss), counting
        hits/misses in the obs registry and journaling one
        ``cache_hit``/``cache_miss`` event per lookup (stamped with the
        ambient request id, so a request's cache behaviour is visible
        in ``GET /v1/events``)."""
        from repro.obs.events import emit

        out: "list[Optional[float]]" = []
        hits = misses = 0
        for key in keys:
            value = self._mem.get(key)
            if value is None:
                misses += 1
            else:
                hits += 1
            out.append(value)
        with self._counts_lock:
            self.hits += hits
            self.misses += misses
        metrics = get_metrics()
        if hits:
            metrics.counter(
                "prediction_cache_requests", result="hit"
            ).inc(hits)
            emit("cache_hit", n_keys=hits, cache="prediction")
        if misses:
            metrics.counter(
                "prediction_cache_requests", result="miss"
            ).inc(misses)
            emit("cache_miss", n_keys=misses, cache="prediction")
        return out

    def insert(self, keys: "list[str]", values: "list[float]") -> None:
        for key, value in zip(keys, values):
            self._mem[key] = float(value)
        if keys:
            self._dirty = True

    def flush(self) -> Optional[Path]:
        """Persist the map through the backing store, if any (no-op for
        purely in-memory caches or when nothing changed)."""
        if self._store is None or not self._dirty:
            return None
        path = self._store.store(
            self._store_key(), {"predictions": dict(self._mem)}
        )
        self._dirty = False
        return path


class ArtifactCache:
    """Content-addressed store of trained states under one directory."""

    def __init__(self, root: "os.PathLike | str | None" = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

    def path_for(self, key: str) -> Path:
        return self.root / f"clara-{key}.pkl"

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored state for ``key``, or ``None`` on miss.  Corrupt
        and version-skewed entries are evicted and count as misses."""
        path = self.path_for(key)
        with span("artifact_cache.load", key=key) as sp:
            try:
                state = load_state(path)
            except FileNotFoundError:
                result = "miss"
                state = None
            except ArtifactError as exc:
                log.warning("evicting bad cache entry %s: %s", path, exc)
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - concurrent eviction
                    pass
                result = "evicted"
                state = None
            else:
                result = "hit"
            sp.set("result", result)
        get_metrics().counter("artifact_cache_requests", result=result).inc()
        log.info("artifact cache %s for key %s", result, key)
        return state

    def store(self, key: str, state: Dict[str, Any]) -> Path:
        with span("artifact_cache.store", key=key):
            path = save_state(state, self.path_for(key))
        get_metrics().counter("artifact_cache_stores").inc()
        log.info("artifact stored at %s", path)
        return path
