"""Coalescing (Section 4.4 / Figures 13, 16) and scale-out
(Section 4.2 / Figure 11) advisor tests."""

import numpy as np
import pytest

from repro.click.elements import build_element, install_state
from repro.click.frontend import lower_element
from repro.click.interp import Interpreter
from repro.core.coalescing import CoalescingAdvisor, _partitions
from repro.core.prepare import prepare_element
from repro.core.scaleout import ScaleoutAdvisor, scaleout_features
from repro.nic.compiler import compile_module
from repro.nic.machine import NICModel, WorkloadCharacter
from repro.nic.port import PortConfig
from repro.workload import characterize, generate_trace
from repro.workload.spec import WorkloadSpec


def tcpgen_profile(n_packets=300):
    element = build_element("tcpgen")
    module = lower_element(element)
    interp = Interpreter(module)
    install_state(interp, {"sport": 80, "dport": 1234, "iss": 1000})
    spec = WorkloadSpec(name="t", n_flows=100, n_packets=n_packets)
    trace = generate_trace(spec, seed=0)
    # Make a share of the traffic hit the generator's flow so the
    # ACK-processing path executes.
    for i, p in enumerate(trace):
        if i % 2 == 0 and p.tcp is not None:
            p.tcp["th_sport"] = 1234
            p.tcp["th_dport"] = 80
            p.tcp["th_ack"] = 1001
    profile = interp.run_trace(trace)
    return element, module, profile


class TestCoalescing:
    def test_paper_clusters_recovered(self):
        """Section 5.6's concrete example, adapted to this element's
        access patterns: the ACK-processing variables send_next and
        recv_next cluster together, the indexing ports cluster
        together, and good_pkt/bad_pkt — never accessed in the same
        block — are kept apart."""
        _el, module, profile = tcpgen_profile()
        advisor = CoalescingAdvisor(seed=0)
        plan = advisor.advise(module, profile)
        assert plan.packs, "expected at least one pack"
        clusters = plan.clusters
        assert clusters["send_next"] == clusters["recv_next"]
        assert clusters["sport"] == clusters["dport"]
        assert clusters["good_pkt"] != clusters["bad_pkt"]

    def test_pack_sizes_match_member_footprint(self):
        _el, module, profile = tcpgen_profile()
        plan = CoalescingAdvisor(seed=0).advise(module, profile)
        for pack in plan.packs:
            expected = sum(
                module.globals[m].size_bytes for m in pack.variables
            )
            assert pack.access_bytes == expected
            assert pack.access_bytes <= 64

    def test_no_singleton_packs(self):
        _el, module, profile = tcpgen_profile()
        plan = CoalescingAdvisor(seed=0).advise(module, profile)
        assert all(len(p.variables) >= 2 for p in plan.packs)

    def test_stateless_nf_gets_no_packs(self):
        module = lower_element(build_element("tcpack"))
        interp = Interpreter(module)
        spec = WorkloadSpec(name="t", n_flows=10, n_packets=50)
        profile = interp.run_trace(generate_trace(spec, seed=0))
        plan = CoalescingAdvisor().advise(module, profile)
        assert plan.packs == []

    def test_packs_reduce_simulated_memory_ops(self):
        _el, module, profile = tcpgen_profile()
        plan = CoalescingAdvisor(seed=0).advise(module, profile)
        freq = {
            b: c / profile.packets for b, c in profile.block_counts.items()
        }
        model = NICModel()
        wc = WorkloadCharacter(emem_cache_hit_rate=0.2)
        naive = model.simulate(compile_module(module, PortConfig()), freq, wc, cores=8)
        packed = model.simulate(
            compile_module(module, PortConfig(packs=plan.packs)), freq, wc, cores=8
        )
        assert packed.latency_us < naive.latency_us

    def test_partitions_enumeration(self):
        parts = list(_partitions(["a", "b", "c"]))
        # Bell(3) == 5 partitions.
        canon = {
            tuple(sorted(tuple(sorted(g)) for g in p)) for p in parts
        }
        assert len(canon) == 5

    def test_expert_search_at_least_as_good(self):
        _el, module, profile = tcpgen_profile()
        advisor = CoalescingAdvisor(seed=0)
        plan = advisor.advise(module, profile)
        freq = {
            b: c / profile.packets for b, c in profile.block_counts.items()
        }
        model = NICModel()
        wc = WorkloadCharacter(emem_cache_hit_rate=0.2)

        def evaluate(packs):
            program = compile_module(module, PortConfig(packs=list(packs)))
            return model.simulate(program, freq, wc, cores=8).latency_us

        expert_packs, expert_score = CoalescingAdvisor.expert_search(
            module, profile, evaluate, top_n=5
        )
        clara_score = evaluate(plan.packs)
        # The expert sweeps only the hottest variables' groupings
        # (Section 5.8) — it beats no-packing, and lands within a few
        # percent of Clara either way (Figure 16's "remains
        # competitive" in both directions).
        assert expert_score <= evaluate([]) + 1e-9
        assert expert_score <= clara_score * 1.15
        assert clara_score <= expert_score * 1.15


class TestScaleoutFeatures:
    def test_features_shape_and_content(self):
        element = build_element("aggcounter")
        prepared = prepare_element(element)
        interp = Interpreter(prepared.module)
        spec = WorkloadSpec(name="t", n_flows=50, n_packets=100)
        profile = interp.run_trace(generate_trace(spec, seed=0))
        program = compile_module(prepared.module)
        block_compute = {b.name: float(b.n_compute) for b in program.handler.blocks}
        model = NICModel()
        wc = characterize(spec, model.hierarchy)
        features = scaleout_features(prepared, block_compute, profile, wc,
                                     model)
        assert features.shape == (10,)
        assert features[0] > 0  # compute per packet
        assert features[1] > 0  # stateful accesses per packet
        assert 0 <= features[5] <= 1  # emem cache hit rate
        assert features[7] > 120  # estimated issue cycles include overhead
        assert features[9] > 0  # analytic core estimate


class TestScaleoutAdvisor:
    @pytest.fixture(scope="class")
    def trained_advisor(self):
        advisor = ScaleoutAdvisor(NICModel(), seed=1)
        advisor.build_training_set(n_programs=8, trace_packets=120)
        advisor.fit()
        return advisor

    def test_training_set_spans_intensities(self, trained_advisor):
        intensities = [s.features[4] for s in trained_advisor.samples]
        assert max(intensities) > 2 * min(intensities)

    def test_predictions_in_core_range(self, trained_advisor):
        element = build_element("mazunat")
        prepared = prepare_element(element)
        interp = Interpreter(prepared.module)
        spec = WorkloadSpec(name="t", n_flows=1000, n_packets=150)
        profile = interp.run_trace(generate_trace(spec, seed=0))
        program = compile_module(prepared.module)
        block_compute = {b.name: float(b.n_compute) for b in program.handler.blocks}
        cores = trained_advisor.predict_cores(
            prepared, block_compute, profile,
            characterize(spec, trained_advisor.nic.hierarchy),
        )
        assert 1 <= cores <= 60

    def test_model_beats_fixed_guess_on_training_set(self, trained_advisor):
        X = np.stack([s.features for s in trained_advisor.samples])
        y = np.array([s.optimal_cores for s in trained_advisor.samples])
        pred = trained_advisor.model.predict(X)
        model_mae = np.abs(pred - y).mean()
        fixed_mae = np.abs(y.mean() - y).mean()
        assert model_mae <= fixed_mae

    def test_measure_optimal_matches_sweep(self, trained_advisor):
        element = build_element("aggcounter")
        prepared = prepare_element(element)
        interp = Interpreter(prepared.module)
        spec = WorkloadSpec(name="t", n_flows=50, n_packets=100)
        profile = interp.run_trace(generate_trace(spec, seed=0))
        wc = characterize(spec, trained_advisor.nic.hierarchy)
        opt = trained_advisor.measure_optimal(prepared, profile, wc)
        model = trained_advisor.nic
        program = compile_module(prepared.module, PortConfig())
        freq = {b: c / profile.packets for b, c in profile.block_counts.items()}
        sweep = model.sweep_cores(program, freq, wc)
        assert opt == model.optimal_cores(sweep)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            ScaleoutAdvisor(NICModel()).fit()
