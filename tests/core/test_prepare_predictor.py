"""Program preparation and instruction-prediction tests."""

import numpy as np
import pytest

from repro.click.elements import build_element
from repro.core.predictor import (
    InstructionPredictor,
    PredictorDataset,
    histogram_dataset,
)
from repro.core.prepare import prepare_element
from repro.ml.metrics import wmape
from repro.nic.compiler import compile_module


class TestPrepare:
    def test_prepare_produces_blocks_and_tokens(self):
        prepared = prepare_element(build_element("mininat"))
        assert prepared.name == "mininat"
        assert len(prepared.blocks) == len(prepared.module.handler.blocks)
        for block in prepared.blocks:
            assert prepared.tokens[block.name]

    def test_api_set_collected(self):
        prepared = prepare_element(build_element("mininat"))
        assert "hashmap_find" in prepared.api_set
        assert "checksum_update_ip" in prepared.api_set

    def test_helpers_inlined_before_analysis(self):
        prepared = prepare_element(build_element("cmsketch"))
        assert any(b.name.startswith("inl.") for b in prepared.module.handler.blocks)


class TestDataset:
    def test_synthesis_produces_labelled_blocks(self, small_dataset):
        assert len(small_dataset) > 50
        assert all(t >= 0 for t in small_dataset.targets)
        assert len(set(small_dataset.groups)) == 12

    def test_targets_are_compiled_compute_counts(self):
        prepared = prepare_element(build_element("aggcounter"))
        ds = PredictorDataset()
        ds.extend_from_prepared(prepared)
        program = compile_module(prepared.module)
        by_name = {b.name: b.n_compute for b in program.handler.blocks}
        for seq, target, _g in zip(ds.sequences, ds.targets, ds.groups):
            assert target in by_name.values()

    def test_split_by_group_is_disjoint(self, small_dataset):
        train, test = small_dataset.split_by_group(0.25, seed=1)
        assert set(train.groups).isdisjoint(set(test.groups))
        assert len(train) + len(test) == len(small_dataset)


class TestPredictor:
    def test_fits_and_beats_trivial_baseline(self, small_dataset, trained_predictor):
        pred = trained_predictor.predict_sequences(small_dataset.sequences)
        y = np.asarray(small_dataset.targets)
        model_wmape = wmape(y, pred)
        mean_wmape = wmape(y, np.full_like(y, y.mean()))
        assert model_wmape < mean_wmape * 0.6

    def test_predictions_nonnegative(self, small_dataset, trained_predictor):
        pred = trained_predictor.predict_sequences(small_dataset.sequences[:20])
        assert (pred >= 0).all()

    def test_chunked_prediction_of_long_blocks(self, trained_predictor):
        max_len = trained_predictor.max_len
        window = [["add i32 VAR INT"] * max_len]
        double = [["add i32 VAR INT"] * (2 * max_len)]
        p_window = trained_predictor.predict_sequences(window)[0]
        p_double = trained_predictor.predict_sequences(double)[0]
        # A block of exactly two identical windows predicts exactly the
        # sum of the two chunk predictions.
        assert p_double == pytest.approx(2.0 * p_window)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            InstructionPredictor().predict_sequences([["add i32 VAR INT"]])

    def test_analyze_emits_all_insight_classes(self, trained_predictor):
        prepared = prepare_element(build_element("udpcount"))
        report = trained_predictor.analyze(prepared)
        assert report.predicted_compute
        assert report.counted_memory
        apis = {i.subject for i in report.of_type("api")}
        assert "hashmap_find" in apis

    def test_memory_insights_match_annotation(self, trained_predictor):
        """Memory accesses are *counted*, so they must be exact
        (the paper's 96.4%-100% accuracy comes from counting)."""
        prepared = prepare_element(build_element("aggcounter"))
        report = trained_predictor.analyze(prepared)
        for block in prepared.blocks:
            assert report.counted_memory[block.name] == block.n_mem_stateful

    def test_real_nf_wmape_within_paper_band(self, trained_predictor):
        """Even the quick test-sized model must land in a sane band on
        a real NF (the full-sized model in benchmarks does better)."""
        prepared = prepare_element(build_element("aggcounter"))
        program = compile_module(prepared.module)
        gt = {b.name: b.n_compute for b in program.handler.blocks}
        pred = trained_predictor.predict_sequences(
            prepared.block_token_sequences()
        )
        y = np.array([gt[b.name] for b in prepared.blocks])
        assert wmape(y, pred) < 0.8

    def test_histogram_features_align(self, small_dataset, trained_predictor):
        X, y = histogram_dataset(trained_predictor.vocab, small_dataset)
        assert X.shape == (len(small_dataset), trained_predictor.vocab.size)
        assert len(y) == len(small_dataset)
