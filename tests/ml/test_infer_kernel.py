"""Batched LSTM inference kernel: bit-exactness guarantees.

The prediction cache and chunked inference are only sound because the
kernel's output for a row does not depend on which other rows share
its batch.  These tests pin that property down, along with the
id-gather == one-hot-matmul identity the integer encoding relies on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.encoding import (
    InstructionVocabulary,
    encode_block_ids,
    encode_blocks,
)
from repro.ml.lstm import LSTMRegressor


@pytest.fixture(scope="module")
def fitted():
    """A small fitted model plus encodings of a mixed-length corpus."""
    rng = np.random.default_rng(11)
    token_seqs = []
    for _ in range(60):
        n = int(rng.integers(0, 13))
        token_seqs.append(
            [f"tok{int(rng.integers(0, 30))}" for _ in range(n)]
        )
    token_seqs[0] = []  # force an all-masked row into the corpus
    vocab = InstructionVocabulary().fit(token_seqs)
    max_len = 14
    X, mask = encode_blocks(vocab, token_seqs, max_len)
    ids, ids_mask = encode_block_ids(vocab, token_seqs, max_len)
    model = LSTMRegressor(input_dim=vocab.size, hidden_dim=12, seed=5)
    model.fit(X, mask, rng.uniform(0.0, 30.0, size=len(token_seqs)),
              epochs=2)
    return {
        "model": model, "vocab": vocab, "max_len": max_len,
        "X": X, "mask": mask, "ids": ids, "ids_mask": ids_mask,
        "token_seqs": token_seqs,
    }


class TestIdGather:
    def test_masks_identical(self, fitted):
        np.testing.assert_array_equal(fitted["mask"], fitted["ids_mask"])

    def test_ids_equal_one_hot_bitwise(self, fitted):
        one_hot = fitted["model"].predict(fitted["X"], fitted["mask"])
        gathered = fitted["model"].predict_ids(fitted["ids"], fitted["mask"])
        np.testing.assert_array_equal(gathered, one_hot)


class TestBatchInvariance:
    def test_row_slices_are_stable(self, fitted):
        model, ids, mask = fitted["model"], fitted["ids"], fitted["mask"]
        full = model.predict_ids(ids, mask)
        for n in (1, 2, 3, 7, len(ids)):
            np.testing.assert_array_equal(
                model.predict_ids(ids[:n], mask[:n]), full[:n]
            )

    def test_chunk_rows_never_changes_results(self, fitted):
        model, ids, mask = fitted["model"], fitted["ids"], fitted["mask"]
        full = model.predict_ids(ids, mask)
        for chunk_rows in (1, 2, 5, 17, 1000):
            np.testing.assert_array_equal(
                model.predict_ids(ids, mask, chunk_rows=chunk_rows), full
            )
            np.testing.assert_array_equal(
                model.predict(fitted["X"], mask, chunk_rows=chunk_rows),
                full,
            )

    def test_invalid_chunk_rows_rejected(self, fitted):
        with pytest.raises(ValueError):
            fitted["model"].predict_ids(
                fitted["ids"], fitted["mask"], chunk_rows=0
            )

    def test_empty_row_invariant_to_neighbours(self, fitted):
        vocab, max_len = fitted["vocab"], fitted["max_len"]
        model = fitted["model"]
        alone = model.predict_ids(*encode_block_ids(vocab, [[]], max_len))
        crowd = model.predict_ids(
            *encode_block_ids(vocab, [[], ["tok1", "tok2"], []], max_len)
        )
        assert np.isfinite(crowd).all()
        np.testing.assert_array_equal(crowd[0], alone[0])
        np.testing.assert_array_equal(crowd[2], alone[0])

    def test_zero_row_batch(self, fitted):
        out = fitted["model"].predict_ids(
            *encode_block_ids(fitted["vocab"], [], fitted["max_len"])
        )
        assert out.shape == (0,)
