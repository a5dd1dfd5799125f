"""Cross-platform performance prediction (paper Section 3, Figure 3).

Predicts, for an *unported* NF, the per-block number of compute
instructions the closed-source NIC compiler would emit (LSTM+FC over
vocabulary-compacted instruction sequences) and counts stateful memory
accesses directly from the IR (which the paper reports is already
96.4%-100% accurate).  Framework APIs are profiled through reverse
porting instead of prediction.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.click.elements import all_elements
from repro.core.artifacts import (
    ArtifactCache,
    PredictionCache,
    _nic_fingerprint,
    sequence_key,
)
from repro.core.insights import InsightReport
from repro.errors import NotTrainedError
from repro.core.parallel import synthesize_predictor_rows
from repro.core.prepare import PreparedNF
from repro.ml.encoding import (
    InstructionVocabulary,
    encode_block_ids,
    encode_blocks,
    histogram_features,
)
from repro.ml.lstm import LSTMRegressor
from repro.ml.metrics import wmape
from repro.nic.compiler import compile_module
from repro.nic.isa import NICProgram
from repro.nic.libnfp import api_cost
from repro.nic.port import PortConfig
from repro.obs import span
from repro.synthesis.stats import extract_stats

#: Sequence length cap for block encodings (longer blocks truncate).
MAX_BLOCK_LEN = 112


def iter_block_samples(prepared: PreparedNF, program: NICProgram):
    """Yield ``(tokens, compute_count, group)`` for every handler block
    of a prepared NF with its compiled ground-truth instruction count —
    the unit of dataset construction, shared by the serial path and the
    parallel synthesis workers."""
    for block_asm in program.handler.blocks:
        tokens = prepared.tokens.get(block_asm.name)
        if tokens is None or not tokens:
            continue
        yield tokens, float(block_asm.n_compute), prepared.name


@dataclass
class PredictorDataset:
    """(IR token sequence -> NIC instruction count) pairs, per block.

    ``groups`` names the source program of each sample so evaluation
    can split by program (the paper trains on synthesized programs and
    tests on real NFs).
    """

    sequences: List[List[str]] = field(default_factory=list)
    targets: List[float] = field(default_factory=list)
    groups: List[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.sequences)

    def extend_from_prepared(
        self, prepared: PreparedNF, program: Optional[NICProgram] = None
    ) -> None:
        """Add every handler block of a prepared NF with its compiled
        ground-truth compute-instruction count."""
        if program is None:
            program = compile_module(prepared.module, PortConfig())
        for tokens, target, group in iter_block_samples(prepared, program):
            self.sequences.append(tokens)
            self.targets.append(target)
            self.groups.append(group)

    @classmethod
    def synthesize(
        cls,
        n_programs: int = 80,
        seed: int = 0,
        corpus=None,
        workers: int = 1,
        target: Optional[str] = None,
    ) -> "PredictorDataset":
        """The data-synthesis pipeline of Section 3.2: generate guided
        Click programs, compile each with both toolchains, and pair
        per-block IR sequences with NIC instruction counts.

        Each program is generated from a child seed of ``(seed,
        index)``, so the dataset is identical for every ``workers``
        count (see :mod:`repro.core.parallel`).
        """
        corpus = corpus if corpus is not None else all_elements()
        stats = extract_stats(corpus)
        dataset = cls()
        rows = synthesize_predictor_rows(
            stats, n_programs=n_programs, seed=seed, workers=workers,
            target=target,
        )
        for tokens, target, group in rows:
            dataset.sequences.append(tokens)
            dataset.targets.append(target)
            dataset.groups.append(group)
        return dataset

    def split_by_group(
        self, test_fraction: float = 0.2, seed: int = 0
    ) -> Tuple["PredictorDataset", "PredictorDataset"]:
        rng = np.random.default_rng(seed)
        names = sorted(set(self.groups))
        rng.shuffle(names)
        n_test = max(1, int(len(names) * test_fraction))
        test_names = set(names[:n_test])
        train, test = PredictorDataset(), PredictorDataset()
        for seq, target, group in zip(self.sequences, self.targets, self.groups):
            bucket = test if group in test_names else train
            bucket.sequences.append(seq)
            bucket.targets.append(target)
            bucket.groups.append(group)
        return train, test


class InstructionPredictor:
    """The LSTM+FC instruction predictor (Figure 6)."""

    def __init__(
        self,
        hidden_dim: int = 40,
        max_len: int = MAX_BLOCK_LEN,
        epochs: int = 35,
        seed: int = 0,
    ) -> None:
        self.max_len = max_len
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.seed = seed
        self.vocab = InstructionVocabulary()
        self.model: Optional[LSTMRegressor] = None
        self._prediction_cache: Optional[PredictionCache] = None

    def fit(self, dataset: PredictorDataset) -> "InstructionPredictor":
        self.vocab.fit(dataset.sequences)
        X, mask = encode_blocks(self.vocab, dataset.sequences, self.max_len)
        y = np.asarray(dataset.targets)
        self.model = LSTMRegressor(
            input_dim=self.vocab.size,
            hidden_dim=self.hidden_dim,
            seed=self.seed,
        )
        self.model.fit(X, mask, y, epochs=self.epochs, seed=self.seed)
        return self

    # -- prediction cache ----------------------------------------------
    def model_fingerprint(self) -> str:
        """Content hash of the fitted weights + vocabulary + encoding
        geometry: two predictors with identical fingerprints produce
        identical predictions."""
        if self.model is None:
            raise NotTrainedError("predictor is not fitted")
        digest = hashlib.sha256()
        digest.update(
            json.dumps(
                {
                    "hidden_dim": self.hidden_dim,
                    "max_len": self.max_len,
                    "vocab": self.vocab.tokens(),
                },
                sort_keys=True,
            ).encode("utf-8")
        )
        for name in sorted(self.model.params):
            digest.update(name.encode("utf-8"))
            digest.update(np.ascontiguousarray(self.model.params[name]).tobytes())
        return digest.hexdigest()[:24]

    def prediction_namespace(self, nic: Any = None) -> str:
        """Cache namespace: model fingerprint x target fingerprint.
        Any change to what a token sequence would predict lands in a
        fresh namespace."""
        payload = {
            "model": self.model_fingerprint(),
            "nic": _nic_fingerprint(nic),
        }
        blob = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]

    def attach_prediction_cache(
        self,
        store: Optional[ArtifactCache] = None,
        nic: Any = None,
    ) -> PredictionCache:
        """Enable the content-addressed prediction cache (consulted by
        :meth:`predict_direct` before any encoding happens).  Pass
        ``store`` to page the namespace in from disk and allow
        :meth:`~repro.core.artifacts.PredictionCache.flush`; ``nic``
        scopes the namespace to a target."""
        self._prediction_cache = PredictionCache(
            self.prediction_namespace(nic), store=store
        )
        return self._prediction_cache

    def detach_prediction_cache(self) -> None:
        self._prediction_cache = None

    @property
    def prediction_cache(self) -> Optional[PredictionCache]:
        return self._prediction_cache

    # -- uniform advisor protocol --------------------------------------
    def advise(
        self, prepared: PreparedNF, profile=None, workload=None
    ) -> InsightReport:
        """Uniform advisor entry point; prediction is static, so the
        profile and workload are unused."""
        return self.analyze(prepared)

    def state_dict(self) -> dict:
        return {
            "hidden_dim": self.hidden_dim,
            "max_len": self.max_len,
            "epochs": self.epochs,
            "seed": self.seed,
            "vocab": self.vocab,
            "model": self.model,
        }

    def load_state_dict(self, state: dict) -> "InstructionPredictor":
        self.hidden_dim = int(state["hidden_dim"])
        self.max_len = int(state["max_len"])
        self.epochs = int(state["epochs"])
        self.seed = int(state["seed"])
        self.vocab = state["vocab"]
        self.model = state["model"]
        return self

    def predict_direct(self, sequences: Sequence[Sequence[str]]) -> np.ndarray:
        """Predict per-sequence counts by running the model on
        ``sequences`` in the calling thread — re-entrant and
        thread-safe (the fitted weights are only read), so concurrent
        requests each predict on their own thread.  The input is
        materialized exactly once, so single-pass iterables
        (generators) are safe.  When a prediction cache is attached,
        each sequence's content hash is consulted before any encoding
        happens and only misses reach the model; the kernel is
        batch-composition-invariant, so cached and uncached
        predictions are bit-identical."""
        if self.model is None:
            raise NotTrainedError("predictor is not fitted")
        with span("predict_model"):
            seqs = [list(seq) for seq in sequences]
            out = np.zeros(len(seqs))
            cache = self._prediction_cache
            if cache is None:
                missing = list(range(len(seqs)))
                keys: List[str] = []
            else:
                keys = [sequence_key(seq) for seq in seqs]
                cached = cache.lookup(keys)
                missing = []
                for i, value in enumerate(cached):
                    if value is None:
                        missing.append(i)
                    else:
                        out[i] = value
            if missing:
                values = self._predict_uncached([seqs[i] for i in missing])
                for i, value in zip(missing, values):
                    out[i] = value
                if cache is not None:
                    cache.insert(
                        [keys[i] for i in missing],
                        [float(v) for v in values],
                    )
            return out

    def _predict_uncached(self, seqs: List[List[str]]) -> np.ndarray:
        """Model inference for already-materialized sequences (the
        cache-miss path).  Blocks longer than ``max_len`` are chunked
        and their chunk predictions summed — instruction selection is
        local, so a long straight-line block compiles to roughly the
        concatenation of its windows.  Integer-id encoding feeds
        :meth:`~repro.ml.lstm.LSTMRegressor.predict_ids` — bit-identical
        to the one-hot matmul without materializing the dense
        ``[n, max_len, vocab]`` tensor."""
        chunks: List[List[str]] = []
        owners: List[int] = []
        for i, seq in enumerate(seqs):
            if not seq:
                chunks.append(seq)
                owners.append(i)
                continue
            for start in range(0, len(seq), self.max_len):
                chunks.append(seq[start : start + self.max_len])
                owners.append(i)
        ids, mask = encode_block_ids(self.vocab, chunks, self.max_len)
        chunk_preds = self.model.predict_ids(ids, mask)
        out = np.zeros(len(seqs))
        for owner, value in zip(owners, chunk_preds):
            out[owner] += value
        return out

    def evaluate(self, dataset: PredictorDataset) -> float:
        """WMAPE against ground truth (the paper's Section 5.2 metric)."""
        pred = self.predict_direct(dataset.sequences)
        return wmape(np.asarray(dataset.targets), pred)

    # -- Figure 3: PREDICTOFFLOADINGPERF ------------------------------
    def analyze(self, prepared: PreparedNF) -> InsightReport:
        """Generate the prediction-class insights for an unported NF."""
        report = InsightReport(nf_name=prepared.name)
        sequences = prepared.block_token_sequences()
        predictions = self.predict_direct(sequences)
        for block, pred in zip(prepared.blocks, predictions):
            report.add(
                "compute",
                block.name,
                float(round(float(pred), 2)),
                detail="LSTM-predicted NIC compute instructions",
            )
            # Memory accesses are counted, not learned (Section 3.2).
            report.add(
                "memory",
                block.name,
                block.n_mem_stateful,
                detail="stateful loads/stores counted from IR",
            )
        for api in prepared.api_set:
            cost = api_cost(api)
            n_accesses = sum(count for _k, _s, count in cost.accesses)
            report.add(
                "api",
                api,
                {"cycles": cost.cycles, "mem_accesses": n_accesses},
                detail="reverse-ported profile (NIC library semantics)",
            )
        return report


def histogram_dataset(
    vocab: InstructionVocabulary, dataset: PredictorDataset
) -> Tuple[np.ndarray, np.ndarray]:
    """Bag-of-words features for the DNN/AutoML/kNN baselines."""
    X = histogram_features(vocab, dataset.sequences)
    return X, np.asarray(dataset.targets)
