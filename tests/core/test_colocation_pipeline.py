"""Colocation advisor (Section 4.5 / Figure 14) and end-to-end Clara
pipeline integration tests."""

import numpy as np
import pytest

from repro.click.elements import build_element
from repro.core.colocation import (
    ColocationAdvisor,
    OBJECTIVES,
    make_candidate,
    pair_features,
)
from repro.core.pipeline import Clara, TrainConfig
from repro.core.prepare import prepare_element
from repro.click.interp import Interpreter
from repro.nic.machine import NICModel
from repro.workload import generate_trace
from repro.workload.spec import WorkloadSpec


@pytest.fixture(scope="module")
def candidate_pool():
    advisor = ColocationAdvisor(NICModel(), seed=2)
    pool, workload = advisor.build_candidate_pool(n_programs=10)
    return advisor, pool, workload


class TestCandidates:
    def test_pool_has_profiles(self, candidate_pool):
        _advisor, pool, _wc = candidate_pool
        # 10 generated programs plus the parametric compute/mem/ctm grid.
        assert len(pool) == 10 + 24
        for cand in pool:
            assert cand.compute_per_pkt > 0
            assert cand.arithmetic_intensity > 0

    def test_pair_features_symmetric(self, candidate_pool):
        advisor, pool, _wc = candidate_pool
        a, b = pool[0], pool[1]
        assert np.allclose(pair_features(a, b, advisor.nic),
                           pair_features(b, a, advisor.nic))

    def test_real_nf_candidate(self):
        prepared = prepare_element(build_element("mazunat"))
        interp = Interpreter(prepared.module)
        spec = WorkloadSpec(name="t", n_flows=200, n_packets=150)
        profile = interp.run_trace(generate_trace(spec, seed=0))
        cand = make_candidate(prepared, profile, NICModel())
        assert cand.name == "mazunat"
        assert cand.memory_per_pkt > 0


class TestMeasurement:
    def test_losses_nonnegative(self, candidate_pool):
        advisor, pool, wc = candidate_pool
        result = advisor.measure_pair(pool[0], pool[1], wc)
        # Fixed-point convergence leaves ~1e-6 residue; losses must be
        # nonnegative up to that tolerance.
        assert result.total_throughput_loss >= -1e-4
        assert result.average_throughput_loss >= -1e-4
        assert result.total_latency_loss >= -1e-4

    def test_objective_selection(self, candidate_pool):
        advisor, pool, wc = candidate_pool
        result = advisor.measure_pair(pool[0], pool[1], wc)
        original = advisor.objective
        try:
            for objective in OBJECTIVES:
                advisor.objective = objective
                assert isinstance(advisor.pair_loss(result), float)
        finally:
            advisor.objective = original  # the fixture is shared

    def test_invalid_objective_rejected(self):
        with pytest.raises(ValueError):
            ColocationAdvisor(NICModel(), objective="vibes")


class TestRanking:
    def test_trained_ranker_beats_random(self, candidate_pool):
        from repro.core.colocation import ranking_accuracy

        advisor, pool, wc = candidate_pool
        advisor.fit(pool, wc, n_groups=12, group_size=4)
        rng = np.random.default_rng(7)
        losses_per_query, rankings = [], []
        for _ in range(12):
            idx = rng.choice(len(pool), size=(4, 2))
            pairs = [(pool[i], pool[j]) for i, j in idx if i != j]
            if len(pairs) < 3:
                continue
            losses_per_query.append(
                [
                    advisor.pair_loss(advisor.measure_pair(a, b, wc))
                    for a, b in pairs
                ]
            )
            rankings.append(advisor.rank_pairs(pairs))
        top1 = ranking_accuracy(losses_per_query, rankings, k=1)
        assert top1 > 0.5  # well above random over ~3-4 candidates

    def test_rank_is_permutation(self, candidate_pool):
        advisor, pool, wc = candidate_pool
        advisor.fit(pool, wc, n_groups=6, group_size=4)
        pairs = [(pool[0], pool[1]), (pool[1], pool[2]), (pool[2], pool[3])]
        order = advisor.rank_pairs(pairs)
        assert sorted(order) == [0, 1, 2]


class TestClaraPipeline:
    @pytest.fixture(scope="class")
    def clara(self):
        return Clara(seed=0).train(TrainConfig.quick())

    def test_requires_training(self):
        untrained = Clara(seed=0)
        with pytest.raises(RuntimeError, match="train"):
            untrained.analyze(
                build_element("aggcounter"),
                WorkloadSpec(name="t", n_packets=50),
            )

    def test_full_analysis_has_all_insight_classes(self, clara):
        spec = WorkloadSpec(name="t", n_flows=500, n_packets=200,
                            udp_fraction=1.0)
        result = clara.analyze(build_element("udpcount"), spec)
        report = result.report
        assert report.of_type("compute")
        assert report.of_type("memory")
        assert report.of_type("api")
        assert report.of_type("scaleout")
        assert report.of_type("placement")
        assert report.suggested_cores is not None

    def test_accelerator_insight_for_cmsketch(self, clara):
        spec = WorkloadSpec(name="t", n_flows=100, n_packets=150)
        result = clara.analyze(build_element("cmsketch"), spec)
        accels = result.report.of_type("accelerator")
        assert any(a.value["accel"] == "crc" for a in accels)

    def test_port_config_applies_insights(self, clara):
        spec = WorkloadSpec(name="t", n_flows=100, n_packets=150)
        result = clara.analyze(build_element("cmsketch"), spec)
        config = clara.port_config(result)
        assert config.crc_accel_blocks  # CRC helper blocks substituted
        assert config.placement  # every stateful global placed
        assert 1 <= config.cores <= 60
        config.validate(list(result.prepared.module.globals))

    def test_checksum_accel_enabled_when_api_used(self, clara):
        spec = WorkloadSpec(name="t", n_flows=100, n_packets=100)
        result = clara.analyze(build_element("mininat"), spec)
        config = clara.port_config(result)
        assert config.use_checksum_accel

    def test_report_renders(self, clara):
        spec = WorkloadSpec(name="t", n_flows=100, n_packets=100)
        result = clara.analyze(build_element("aggcounter"), spec)
        text = result.report.render()
        assert "aggcounter" in text
        assert "[scaleout]" in text

    def test_clara_port_beats_naive_port(self, clara):
        """The headline claim: applying Clara's insights improves
        ported performance over the naive port."""
        from repro.nic.compiler import compile_module
        from repro.nic.port import PortConfig

        spec = WorkloadSpec(name="t", n_flows=2000, n_packets=250,
                            udp_fraction=1.0)
        result = clara.analyze(
            build_element("udpcount", flow_entries=262_144), spec
        )
        config = clara.port_config(result)
        freq = result.block_freq
        naive_prog = compile_module(result.prepared.module, PortConfig())
        clara_prog = compile_module(result.prepared.module, config)
        naive = clara.nic.simulate(naive_prog, freq, result.workload, cores=16)
        tuned = clara.nic.simulate(clara_prog, freq, result.workload, cores=16)
        assert tuned.latency_us < naive.latency_us
        assert tuned.throughput_mpps >= naive.throughput_mpps


class TestClaraColocationFacade:
    def test_requires_colocation_training(self):
        clara = Clara(seed=0)
        with pytest.raises(RuntimeError, match="train_colocation"):
            clara.rank_colocations([])

    def test_train_and_rank(self):
        clara = Clara(seed=1)
        clara.train_colocation(n_programs=6, n_groups=8)
        assert clara.colocation is not None
        pool = clara.colocation  # advisor
        candidates, wc = pool.build_candidate_pool(n_programs=4)
        pairs = [(candidates[0], candidates[1]),
                 (candidates[2], candidates[3])]
        ranked = clara.rank_colocations(pairs)
        assert len(ranked) == 2
        assert set(map(id, (p for pair in ranked for p in pair))) <= set(
            map(id, (p for pair in pairs for p in pair))
        )
