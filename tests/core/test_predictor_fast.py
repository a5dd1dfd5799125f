"""Predictor serving fast paths: generator safety, chunk boundaries,
the content-addressed prediction cache, and broker == direct == cached
equality.

Session fixtures (``trained_predictor``) are never mutated — every test
that attaches a cache works on a clone rebuilt from ``state_dict()``.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core.artifacts import ArtifactCache, PredictionCache, sequence_key
from repro.core.predictor import (
    MAX_BLOCK_LEN,
    InstructionPredictor,
    PredictorDataset,
)
from repro.errors import NotTrainedError
from repro.nic.machine import NICModel
from repro.serve.broker import PredictBroker


def clone_of(predictor: InstructionPredictor) -> InstructionPredictor:
    return InstructionPredictor().load_state_dict(predictor.state_dict())


@pytest.fixture()
def predictor(trained_predictor):
    return clone_of(trained_predictor)


@pytest.fixture(scope="module")
def corpus():
    return PredictorDataset.synthesize(n_programs=6, seed=21).sequences


class TestInputHandling:
    def test_generator_input_matches_list_input(self, predictor, corpus):
        """predict_direct used to iterate its argument twice, silently
        turning generator inputs into all-zero predictions."""
        from_list = predictor.predict_direct(corpus)
        from_gen = predictor.predict_direct(seq for seq in corpus)
        assert len(from_list) == len(corpus)
        assert np.any(from_list > 0.0)
        np.testing.assert_array_equal(from_gen, from_list)

    def test_empty_sequence_and_all_empty_batch(self, predictor):
        one = predictor.predict_direct([[]])
        assert one.shape == (1,) and np.isfinite(one).all()
        batch = predictor.predict_direct([[], [], []])
        np.testing.assert_array_equal(batch, np.repeat(one, 3))

    def test_zero_sequence_batch(self, predictor):
        assert predictor.predict_direct([]).shape == (0,)

    def test_batch_composition_is_irrelevant(self, predictor, corpus):
        full = predictor.predict_direct(corpus)
        for seq, expected in zip(corpus, full):
            np.testing.assert_array_equal(
                predictor.predict_direct([seq]), [expected]
            )


class TestChunkBoundary:
    @staticmethod
    def block(n):
        return [("add" if i % 2 else "load") for i in range(n)]

    def test_block_at_exactly_max_len_is_one_chunk(self, predictor):
        """A block of exactly ``max_len`` tokens must not grow a
        spurious empty second chunk."""
        exact = self.block(MAX_BLOCK_LEN)
        alone = predictor.predict_direct([exact])
        with_extra = predictor.predict_direct(
            [exact, self.block(3), self.block(MAX_BLOCK_LEN + 5)]
        )
        np.testing.assert_array_equal(with_extra[0], alone[0])
        # One kernel invocation, no chunk summation involved.
        from repro.ml.encoding import encode_block_ids

        ids, mask = encode_block_ids(predictor.vocab, [exact],
                                     predictor.max_len)
        assert alone[0] == predictor.model.predict_ids(ids, mask)[0]

    def test_long_block_is_sum_of_its_chunks(self, predictor):
        """Chunked summation at the boundary: batch invariance makes
        the split exactly reproducible from the standalone chunks."""
        for n in (MAX_BLOCK_LEN + 1, 2 * MAX_BLOCK_LEN,
                  2 * MAX_BLOCK_LEN + 7):
            seq = self.block(n)
            whole = predictor.predict_direct([seq])[0]
            chunks = [seq[i : i + MAX_BLOCK_LEN]
                      for i in range(0, n, MAX_BLOCK_LEN)]
            parts = predictor.predict_direct(chunks)
            assert whole == parts.sum()


class TestPredictionCache:
    def test_miss_then_hit_is_bit_identical(self, predictor, corpus):
        baseline = predictor.predict_direct(corpus)
        cache = predictor.attach_prediction_cache()
        cold = predictor.predict_direct(corpus)
        warm = predictor.predict_direct(corpus)
        np.testing.assert_array_equal(cold, baseline)
        np.testing.assert_array_equal(warm, baseline)
        assert cache.misses == len(corpus)
        assert cache.hits == len(corpus)
        assert len(cache) == len({sequence_key(s) for s in corpus})

    def test_partial_hits_mix_exactly(self, predictor, corpus):
        predictor.attach_prediction_cache()
        predictor.predict_direct(corpus[:2])  # warm a subset
        mixed = predictor.predict_direct(corpus)
        predictor.detach_prediction_cache()
        np.testing.assert_array_equal(
            mixed, predictor.predict_direct(corpus)
        )

    def test_duplicate_sequences_in_one_batch(self, predictor, corpus):
        cache = predictor.attach_prediction_cache()
        doubled = [corpus[0], corpus[0], corpus[1], corpus[0]]
        out = predictor.predict_direct(doubled)
        assert out[0] == out[1] == out[3]
        assert len(cache) == 2

    def test_detach_restores_uncached_path(self, predictor, corpus):
        predictor.attach_prediction_cache()
        predictor.detach_prediction_cache()
        assert predictor.prediction_cache is None
        assert len(predictor.predict_direct(corpus)) == len(corpus)

    def test_namespace_tracks_model_and_target(self, predictor):
        nfp, dpu = NICModel(), NICModel(target="dpu-offpath")
        base = predictor.prediction_namespace(nfp)
        assert clone_of(predictor).prediction_namespace(nfp) == base
        assert predictor.prediction_namespace(dpu) != base
        # clone_of shares the session fixture's LSTMRegressor, so only
        # a deep copy may have its weights changed.
        retrained = copy.deepcopy(predictor)
        retrained.model.params["b"][0] += 1.0
        assert retrained.prediction_namespace(nfp) != base
        assert predictor.prediction_namespace(nfp) == base

    def test_unfitted_predictor_cannot_attach(self):
        with pytest.raises(NotTrainedError):
            InstructionPredictor().attach_prediction_cache()

    def test_flush_and_reload_round_trip(self, predictor, corpus, tmp_path):
        store = ArtifactCache(root=tmp_path)
        cache = predictor.attach_prediction_cache(store=store)
        warm = predictor.predict_direct(corpus)
        path = cache.flush()
        assert path is not None and path.exists()
        assert cache.flush() is None  # clean cache: no rewrite

        reloaded = PredictionCache(predictor.prediction_namespace(),
                                   store=store)
        assert len(reloaded) == len(cache)
        hits = reloaded.lookup([sequence_key(s) for s in corpus])
        np.testing.assert_array_equal(np.asarray(hits, dtype=float), warm)
        assert reloaded.hits == len(corpus) and reloaded.misses == 0


class TestBrokerEquality:
    def test_broker_batched_equals_direct_equals_cached(
        self, predictor, corpus
    ):
        direct = predictor.predict_direct(corpus)
        broker = PredictBroker.for_predictor(predictor, window_s=0.001)
        try:
            import concurrent.futures as cf

            singles = list(corpus)
            with cf.ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(predictor.predict_sequences, [seq])
                           for seq in singles]
                merged = np.concatenate([f.result() for f in futures])
            np.testing.assert_array_equal(merged, direct)

            # Layer the cache under the broker: still bit-identical.
            cache = predictor.attach_prediction_cache()
            np.testing.assert_array_equal(
                predictor.predict_sequences(corpus), direct
            )
            np.testing.assert_array_equal(
                predictor.predict_sequences(corpus), direct
            )
            assert cache.hits >= len(corpus)
        finally:
            broker.close()
        assert len(predictor.predict_sequences(corpus)) == len(corpus)
