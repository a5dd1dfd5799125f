"""Training artifacts: TrainConfig, the content-addressed cache,
parallel synthesis determinism, and explicit save/load."""

from __future__ import annotations

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.click.elements import build_element
from repro.core import (
    ArtifactCacheMiss,
    Clara,
    PredictorDataset,
    TrainConfig,
    train_cache_key,
)
from repro.core.artifacts import ArtifactCache
from repro.core.colocation import ColocationAdvisor
from repro.core.scaleout import ScaleoutAdvisor
from repro.nic.machine import NICModel
from repro.workload.spec import WorkloadSpec

#: Smallest configuration that still exercises every learning phase.
TINY = TrainConfig(
    n_predictor_programs=6,
    n_scaleout_programs=3,
    predictor_epochs=4,
    n_negatives=6,
    scaleout_trace_packets=80,
)
SEED = 11

SPEC = WorkloadSpec(name="t", n_flows=500, packet_bytes=128,
                    zipf_alpha=1.0, udp_fraction=0.0, n_packets=120)


def _analysis_fingerprint(clara: Clara):
    analysis = clara.analyze(build_element("iplookup"), SPEC)
    return (
        analysis.report.render(),
        dict(analysis.report.predicted_compute),
    )


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("artifact-cache")


@pytest.fixture(scope="module")
def trained(cache_dir) -> Clara:
    """Cold training run that populates the cache."""
    return Clara(seed=SEED).train(TINY, cache="auto", cache_dir=cache_dir)


class TestArtifactCache:
    def test_cold_run_stores_artifact(self, trained, cache_dir):
        key = train_cache_key(TINY, seed=SEED, nic=trained.nic)
        assert ArtifactCache(cache_dir).path_for(key).exists()

    def test_cache_hit_is_bit_identical(self, trained, cache_dir):
        warm = Clara(seed=SEED).train(TINY, cache="auto", cache_dir=cache_dir)
        assert warm.trained
        assert warm.train_config == TINY
        assert _analysis_fingerprint(warm) == _analysis_fingerprint(trained)

    def test_require_hits_after_cold_run(self, trained, cache_dir):
        warm = Clara(seed=SEED).train(
            TINY, cache="require", cache_dir=cache_dir
        )
        assert warm.trained

    def test_require_raises_on_empty_cache(self, tmp_path):
        with pytest.raises(ArtifactCacheMiss):
            Clara(seed=SEED).train(TINY, cache="require", cache_dir=tmp_path)

    def test_key_depends_on_config_and_seed(self, trained):
        nic = trained.nic
        base = train_cache_key(TINY, seed=SEED, nic=nic)
        other_cfg = train_cache_key(
            replace(TINY, predictor_epochs=5), seed=SEED, nic=nic,
        )
        other_seed = train_cache_key(TINY, seed=SEED + 1, nic=nic)
        assert len({base, other_cfg, other_seed}) == 3

    def test_corrupt_entry_falls_back_to_retrain(self, trained, tmp_path):
        key = train_cache_key(TINY, seed=SEED, nic=trained.nic)
        store = ArtifactCache(tmp_path)
        store.path_for(key).write_bytes(b"not a pickle")
        clara = Clara(seed=SEED).train(TINY, cache="auto", cache_dir=tmp_path)
        assert clara.trained
        # The broken entry was evicted and replaced by a good one.
        assert store.load(key) is not None

    def test_version_skew_is_a_miss(self, trained, tmp_path):
        key = train_cache_key(TINY, seed=SEED, nic=trained.nic)
        path = ArtifactCache(tmp_path).path_for(key)
        path.write_bytes(pickle.dumps(
            {"format": 999, "version": "other", "state": {}}
        ))
        with pytest.raises(ArtifactCacheMiss):
            Clara(seed=SEED).train(TINY, cache="require", cache_dir=tmp_path)

    def test_bad_cache_mode_rejected(self):
        with pytest.raises(ValueError, match="cache"):
            Clara(seed=SEED).train(TINY, cache="always")


class TestSaveLoad:
    def test_explicit_save_load_round_trip(self, trained, tmp_path):
        path = trained.save(tmp_path / "clara.pkl")
        loaded = Clara.load(path)
        assert loaded.trained
        assert loaded.seed == SEED
        assert loaded.train_config == TINY
        assert _analysis_fingerprint(loaded) == _analysis_fingerprint(trained)

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Clara.load(tmp_path / "nope.pkl")

    def test_state_dict_round_trips_through_pickle(self, trained):
        state = pickle.loads(pickle.dumps(trained.state_dict()))
        clone = Clara(seed=SEED).load_state_dict(state)
        assert _analysis_fingerprint(clone) == _analysis_fingerprint(trained)


class TestParallelDeterminism:
    def test_predictor_dataset_parallel_equals_serial(self):
        serial = PredictorDataset.synthesize(n_programs=8, seed=3, workers=1)
        fanout = PredictorDataset.synthesize(n_programs=8, seed=3, workers=4)
        assert fanout.sequences == serial.sequences
        assert fanout.targets == serial.targets
        assert fanout.groups == serial.groups

    def test_scaleout_samples_parallel_equals_serial(self):
        def build(workers):
            advisor = ScaleoutAdvisor(NICModel(), seed=5)
            return advisor.build_training_set(
                n_programs=2, trace_packets=60, workers=workers
            )

        serial, fanout = build(1), build(3)
        assert len(serial) == len(fanout)
        for a, b in zip(serial, fanout):
            assert a.program_name == b.program_name
            assert a.workload_name == b.workload_name
            assert a.optimal_cores == b.optimal_cores
            np.testing.assert_array_equal(a.features, b.features)

    def test_workers_zero_means_all_cores(self):
        dataset = PredictorDataset.synthesize(n_programs=4, seed=7, workers=0)
        assert len(dataset) > 0


class TestTrainConfigIsTheOnlyEntryPoint:
    """The pre-TrainConfig ``train(**kwargs)`` shim finished its
    deprecation cycle: the kwargs are gone, not just warned about."""

    def test_legacy_kwargs_are_rejected(self, tmp_path):
        clara = Clara(seed=SEED)
        with pytest.raises(TypeError):
            clara.train(quick=True, cache="require", cache_dir=tmp_path)

    def test_legacy_sizing_kwargs_are_rejected(self):
        with pytest.raises(TypeError):
            Clara(seed=SEED).train(n_predictor_programs=33)

    def test_from_legacy_is_gone(self):
        assert not hasattr(TrainConfig, "from_legacy")

    def test_train_config_still_accepted(self, tmp_path):
        clara = Clara(seed=SEED)
        with pytest.raises(ArtifactCacheMiss):
            clara.train(TINY, cache="require", cache_dir=tmp_path)
        assert clara.train_config == TINY


class TestRankColocations:
    def test_untrained_raises_runtime_error(self):
        with pytest.raises(RuntimeError, match="train_colocation"):
            Clara(seed=SEED).rank_colocations([])

    def test_rejects_non_candidate_pairs(self):
        clara = Clara(seed=SEED)
        clara.colocation = ColocationAdvisor(nic=clara.nic, seed=SEED)
        with pytest.raises(TypeError, match=r"candidates\[0\]"):
            clara.rank_colocations([("a", "b")])

    def test_empty_candidates_return_empty_list(self):
        clara = Clara(seed=SEED)
        clara.colocation = ColocationAdvisor(nic=clara.nic, seed=SEED)
        assert clara.rank_colocations([]) == []
