"""Figure 8 + Section 5.2: cross-platform instruction prediction.

"Clara outperforms DNN, CNN and AutoML in instruction prediction" —
WMAPE per NF, LSTM vs the histogram-feature baselines, trained on the
same synthesized dataset; plus the memory-counting accuracy claim
(96.4%+) and overall WMAPE (paper: 10.74% on synthesized, 6.0%-22.3%
across real NFs).
"""

import numpy as np
import pytest

from repro.click.elements import build_element
from repro.core.predictor import histogram_dataset, PredictorDataset
from repro.core.prepare import prepare_element
from repro.ml.automl import AutoMLRegressor
from repro.ml.cnn import CNNRegressor
from repro.ml.encoding import encode_blocks, histogram_features
from repro.ml.metrics import wmape
from repro.ml.mlp import MLPRegressor
from repro.nic.compiler import compile_module

#: The representative NFs of Figure 8.
FIG8_NFS = (
    "tcpack",
    "udpipencap",
    "timefilter",
    "anonipaddr",
    "tcpresp",
    "forcetcp",
    "aggcounter",
    "tcpgen",
)


@pytest.fixture(scope="module")
def baselines(clara):
    """DNN/CNN/AutoML trained on exactly Clara's synthesized data."""
    dataset = PredictorDataset.synthesize(n_programs=80, seed=0)
    vocab = clara.predictor.vocab
    X_hist, y = histogram_dataset(vocab, dataset)
    dnn = MLPRegressor(X_hist.shape[1], hidden=(64, 32), lr=2e-3)
    dnn.fit(X_hist, y, epochs=60, seed=0)
    automl = AutoMLRegressor(seed=0).fit(X_hist, y)
    X_seq, mask = encode_blocks(
        vocab, dataset.sequences, clara.predictor.max_len
    )
    cnn = CNNRegressor(vocab.size, n_filters=16, seed=0)
    cnn.fit(X_seq, mask, y, epochs=30, seed=0)
    return {"vocab": vocab, "dnn": dnn, "cnn": cnn, "automl": automl}


def _nf_ground_truth(name):
    prepared = prepare_element(build_element(name))
    program = compile_module(prepared.module)
    gt = {b.name: float(b.n_compute) for b in program.handler.blocks}
    sequences = prepared.block_token_sequences()
    y = np.array([gt[b.name] for b in prepared.blocks])
    return prepared, sequences, y


def test_fig8_prediction(clara, baselines, write_result, benchmark):
    rows = [
        "Figure 8: instruction-prediction WMAPE per NF (lower is better)",
        f"{'NF':12s} {'Clara':>7s} {'DNN':>7s} {'CNN':>7s} {'AutoML':>7s}",
    ]
    per_model = {"clara": [], "dnn": [], "cnn": [], "automl": []}
    for name in FIG8_NFS:
        prepared, sequences, y = _nf_ground_truth(name)
        clara_pred = clara.predictor.predict_direct(sequences)
        X_hist = histogram_features(baselines["vocab"], sequences)
        dnn_pred = baselines["dnn"].predict(X_hist)
        automl_pred = baselines["automl"].predict(X_hist)
        X_seq, mask = encode_blocks(
            baselines["vocab"], sequences, clara.predictor.max_len
        )
        cnn_pred = baselines["cnn"].predict(X_seq, mask)
        scores = {
            "clara": wmape(y, clara_pred),
            "dnn": wmape(y, dnn_pred),
            "cnn": wmape(y, cnn_pred),
            "automl": wmape(y, automl_pred),
        }
        for key, value in scores.items():
            per_model[key].append(value)
        rows.append(
            f"{name:12s} {scores['clara']:7.3f} {scores['dnn']:7.3f}"
            f" {scores['cnn']:7.3f} {scores['automl']:7.3f}"
        )
    means = {k: float(np.mean(v)) for k, v in per_model.items()}
    rows.append(
        f"{'MEAN':12s} {means['clara']:7.3f} {means['dnn']:7.3f}"
        f" {means['cnn']:7.3f} {means['automl']:7.3f}"
    )
    write_result("fig8_prediction", "\n".join(rows))

    # Timed kernel: LSTM inference over one NF's blocks.
    prepared, sequences, _y = _nf_ground_truth("tcpack")
    benchmark(lambda: clara.predictor.predict_direct(sequences))

    # Paper claims: Clara wins on average; per-NF errors in a sane band.
    assert means["clara"] < means["dnn"]
    assert means["clara"] < means["cnn"]
    assert means["clara"] < means["automl"]
    assert means["clara"] < 0.30  # paper: 6.0%-22.3% per NF
    assert max(per_model["clara"]) < 0.55


def test_fig8_synthetic_holdout_wmape(clara, write_result, benchmark):
    """Held-out synthesized programs: the paper's converged WMAPE is
    10.74%; ours must land under 20%."""
    holdout = PredictorDataset.synthesize(n_programs=15, seed=99)
    score = benchmark.pedantic(
        lambda: clara.predictor.evaluate(holdout), rounds=1, iterations=1
    )
    write_result(
        "fig8_holdout",
        f"Held-out synthesized-program WMAPE: {score:.4f}"
        f" (paper: 0.1074 after convergence)",
    )
    assert score < 0.20


def test_memory_counting_accuracy(clara, write_result, benchmark):
    """Section 3.2: counting loads/stores is 96.4%-100% accurate.  In
    the simulator the stateful-memory mapping is 1:1 by construction,
    so counting must be exact on every library NF."""
    from repro.click.elements import ELEMENT_BUILDERS

    rows = ["Memory access counting vs compiled mem ops (Section 3.2)"]
    exact = 0
    total = 0
    for name in sorted(ELEMENT_BUILDERS):
        prepared = prepare_element(build_element(name))
        program = compile_module(prepared.module)
        for block, asm in zip(prepared.blocks, program.handler.blocks):
            counted = block.n_mem_stateful
            compiled = sum(
                1 for i in asm.instructions
                if i.is_memory and (i.region or "").startswith("state:")
            )
            total += 1
            if counted == compiled:
                exact += 1
    accuracy = exact / total
    rows.append(f"blocks exact: {exact}/{total} = {accuracy:.3%}")
    write_result("memory_counting", "\n".join(rows))
    benchmark(lambda: prepare_element(build_element("aggcounter")))
    assert accuracy >= 0.964  # the paper's lower bound
