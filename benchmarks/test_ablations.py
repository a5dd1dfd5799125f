"""Ablations of Clara's design choices (Section 6, "Experience with ML
models", plus DESIGN.md's ablation inventory).

* Vocabulary compaction: "Our prior experience of applying LSTM
  without vocabulary compaction shows much lower performance."
* Reverse porting: replacing the reverse-ported API profiles with a
  naive calls-are-free assumption wrecks cost estimates for stateful
  NFs.
* Guided synthesis: training the predictor on baseline-synthesized
  (distribution-unaware) programs degrades real-NF prediction.
"""

import numpy as np

from repro.click.elements import build_element
from repro.click.frontend import lower_element
from repro.core.predictor import InstructionPredictor, PredictorDataset
from repro.core.prepare import prepare_element
from repro.ml.encoding import InstructionVocabulary, block_tokens, encode_blocks
from repro.ml.lstm import LSTMRegressor
from repro.ml.metrics import wmape
from repro.nfir.annotate import annotate_module
from repro.nic.compiler import compile_module
from repro.nic.libnfp import api_cost, sw_checksum_cycles
from repro.synthesis.generator import ClickGen, baseline_stats
from repro.synthesis.stats import extract_stats

EVAL_NFS = ("tcpack", "aggcounter", "timefilter", "mazunat", "udpcount")


def _raw_token_dataset(n_programs=40, seed=0):
    """Predictor dataset with compaction DISABLED (concrete operands)."""
    from repro.click.elements import all_elements
    from repro.nic.port import PortConfig

    stats = extract_stats(all_elements())
    gen = ClickGen(stats, seed=seed)
    sequences, targets = [], []
    for element in gen.elements(n_programs):
        module = lower_element(element)
        annotate_module(module)
        program = compile_module(module, PortConfig())
        for block, asm in zip(module.handler.blocks, program.handler.blocks):
            tokens = block_tokens(block, compact=False)
            if tokens:
                sequences.append(tokens)
                targets.append(float(asm.n_compute))
    return sequences, targets


def test_ablation_vocabulary_compaction(write_result, benchmark):
    """Train the same LSTM with and without vocabulary compaction and
    compare real-NF WMAPE (compaction must win by a wide margin)."""
    compact_ds = PredictorDataset.synthesize(n_programs=40, seed=0)
    compact = InstructionPredictor(epochs=20, seed=0).fit(compact_ds)

    raw_sequences, raw_targets = _raw_token_dataset(n_programs=40, seed=0)
    raw_vocab = InstructionVocabulary().fit(raw_sequences)
    X, mask = encode_blocks(raw_vocab, raw_sequences, compact.max_len)
    raw_model = LSTMRegressor(raw_vocab.size, hidden_dim=32, seed=0)
    raw_model.fit(X, mask, np.asarray(raw_targets), epochs=20, seed=0)

    rows = [
        "Ablation: vocabulary compaction (real-NF WMAPE, lower=better)",
        f"compact vocabulary size: {compact.vocab.size}",
        f"raw vocabulary size:     {raw_vocab.size}",
        f"{'NF':12s} {'compacted':>10s} {'raw':>8s}",
    ]
    compact_scores, raw_scores = [], []
    for nf in EVAL_NFS:
        prepared = prepare_element(build_element(nf))
        program = compile_module(prepared.module)
        y = np.array([float(b.n_compute) for b in program.handler.blocks])
        c_pred = compact.predict_direct(prepared.block_token_sequences())
        raw_seqs = [
            block_tokens(b, compact=False)
            for b in prepared.module.handler.blocks
        ]
        Xr, mr = encode_blocks(raw_vocab, raw_seqs, compact.max_len)
        r_pred = raw_model.predict(Xr, mr)
        compact_scores.append(wmape(y, c_pred))
        raw_scores.append(wmape(y, r_pred))
        rows.append(
            f"{nf:12s} {compact_scores[-1]:10.3f} {raw_scores[-1]:8.3f}"
        )
    rows.append(
        f"{'MEAN':12s} {np.mean(compact_scores):10.3f}"
        f" {np.mean(raw_scores):8.3f}"
    )
    write_result("ablation_vocab", "\n".join(rows))
    benchmark(lambda: None)

    # The raw vocabulary explodes and generalization collapses.
    assert raw_vocab.size > compact.vocab.size * 3
    assert np.mean(compact_scores) < np.mean(raw_scores)


def test_ablation_reverse_porting(write_result, benchmark):
    """Per-packet cycle estimates with reverse-ported API profiles vs
    treating framework calls as free: the profile-less estimate
    collapses for stateful NFs (the point of Section 3.3)."""
    from repro.click.elements import initial_state, install_state
    from repro.click.interp import Interpreter
    from repro.nic.machine import NICModel, WorkloadCharacter
    from repro.nic.port import PortConfig
    from repro.workload import generate_trace
    from repro.workload.spec import WorkloadSpec

    model = NICModel()
    spec = WorkloadSpec(name="ab", n_flows=2000, n_packets=250)
    rows = [
        "Ablation: reverse-ported API profiles vs calls-are-free",
        f"{'NF':10s} {'true cyc':>9s} {'with RP':>9s} {'without':>9s}",
    ]
    errors_with, errors_without = [], []
    for nf in ("mazunat", "udpcount", "dnsproxy"):
        nf_spec = spec if nf == "mazunat" else WorkloadSpec(
            name="ab", n_flows=2000, n_packets=250, udp_fraction=1.0
        )
        element = build_element(nf)
        module = lower_element(element)
        interp = Interpreter(module)
        install_state(interp, initial_state(element))
        profile = interp.run_trace(generate_trace(nf_spec, seed=0))
        freq = {
            b: c / profile.packets for b, c in profile.block_counts.items()
        }
        program = compile_module(module, PortConfig())
        wc = WorkloadCharacter(packet_bytes=nf_spec.packet_bytes)
        truth = model.simulate(program, freq, wc, cores=8).per_packet_cycles

        # Estimate A: compute + memory + reverse-ported profiles for
        # the APIs that compile to library calls (stateful structures,
        # software checksums).  Inline-compiled packet APIs are already
        # visible in the assembly and are not re-priced.
        packets = max(profile.packets, 1)
        base = 120.0
        for block, asm in zip(module.handler.blocks, program.handler.blocks):
            f = freq.get(block.name, 0.0)
            base += f * asm.n_compute
            for instr in asm.memory_accesses():
                region = instr.region or ""
                latency = 200.0 if region.startswith("state:") else 55.0
                base += f * latency
        with_rp = base
        for api, count in profile.api_counts.items():
            per_pkt = count / packets
            if api.startswith("checksum_update"):
                with_rp += per_pkt * sw_checksum_cycles(nf_spec.packet_bytes)
            elif api.startswith(("hashmap_", "vector_")):
                cost = api_cost(api)
                with_rp += per_pkt * (
                    cost.cycles
                    + 200.0 * sum(c for _k, _s, c in cost.accesses)
                )
        without_rp = base  # library calls assumed free

        rows.append(
            f"{nf:10s} {truth:9.0f} {with_rp:9.0f} {without_rp:9.0f}"
        )
        errors_with.append(abs(with_rp - truth) / truth)
        errors_without.append(abs(without_rp - truth) / truth)
    rows.append(
        f"mean relative error: with RP {np.mean(errors_with):.1%},"
        f" without {np.mean(errors_without):.1%}"
    )
    write_result("ablation_reverse_port", "\n".join(rows))
    benchmark(lambda: None)
    assert np.mean(errors_with) < np.mean(errors_without)
    assert np.mean(errors_with) < 0.45


def test_ablation_guided_synthesis(write_result, benchmark):
    """Training the predictor on distribution-unaware programs hurts
    real-NF prediction (Table 1's fidelity translated into accuracy)."""
    guided_ds = PredictorDataset.synthesize(n_programs=40, seed=0)
    guided = InstructionPredictor(epochs=20, seed=0).fit(guided_ds)

    base_ds = PredictorDataset.synthesize(
        n_programs=40, seed=0, corpus=None
    )
    # Build the baseline dataset from the unguided generator.
    base_ds = PredictorDataset()
    gen = ClickGen(baseline_stats(), seed=0)
    for element in gen.elements(40):
        base_ds.extend_from_prepared(prepare_element(element))
    baseline = InstructionPredictor(epochs=20, seed=0).fit(base_ds)

    guided_scores, base_scores = [], []
    rows = [
        "Ablation: guided vs baseline synthesis for predictor training",
        f"{'NF':12s} {'guided':>8s} {'baseline':>9s}",
    ]
    for nf in EVAL_NFS:
        prepared = prepare_element(build_element(nf))
        program = compile_module(prepared.module)
        y = np.array([float(b.n_compute) for b in program.handler.blocks])
        sequences = prepared.block_token_sequences()
        guided_scores.append(wmape(y, guided.predict_direct(sequences)))
        base_scores.append(wmape(y, baseline.predict_direct(sequences)))
        rows.append(
            f"{nf:12s} {guided_scores[-1]:8.3f} {base_scores[-1]:9.3f}"
        )
    rows.append(
        f"{'MEAN':12s} {np.mean(guided_scores):8.3f}"
        f" {np.mean(base_scores):9.3f}"
    )
    write_result("ablation_synthesis", "\n".join(rows))
    benchmark(lambda: None)
    assert np.mean(guided_scores) < np.mean(base_scores)
