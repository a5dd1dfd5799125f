"""Tests for the extension modules: partial offloading (paper §6
future work) and model interpretability."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.click.elements import build_element, install_state
from repro.click.interp import Interpreter
from repro.core.explain import (
    COLOCATION_FEATURE_NAMES,
    SCALEOUT_FEATURE_NAMES,
    gbdt_feature_importance,
    render_explanations,
    svm_top_patterns,
)
from repro.core.partition import PartitionAdvisor, PCIE_CROSSING_CYCLES
from repro.core.prepare import prepare_element
from repro.ml.gbdt import GBDTRegressor
from repro.nic.machine import NICModel, WorkloadCharacter
from repro.workload import generate_trace
from repro.workload.spec import WorkloadSpec


def firewall_profiled(n_packets=300, syn_fraction=0.05):
    """A firewall whose SYN slow path (ACL walk + insert) is rare —
    the canonical partial-offload candidate."""
    element = build_element("firewall")
    prepared = prepare_element(element)
    interp = Interpreter(prepared.module)
    install_state(
        interp,
        {
            "n_acl": 1,
            "acl_prefix": [0],
            "acl_mask": [0],
            "acl_action": [1],
        },
    )
    spec = WorkloadSpec(
        name="t", n_flows=30, n_packets=n_packets, syn_fraction=syn_fraction
    )
    profile = interp.run_trace(generate_trace(spec, seed=0))
    return prepared, profile


class TestPathTracking:
    def test_paths_partition_packets(self):
        prepared, profile = firewall_profiled()
        assert sum(profile.path_counts.values()) == profile.packets

    def test_distinct_paths_for_distinct_behaviour(self):
        prepared, profile = firewall_profiled()
        # Fast path (established) and slow path (SYN setup) differ.
        assert len(profile.path_counts) >= 2

    def test_paths_are_subsets_of_blocks(self):
        prepared, profile = firewall_profiled()
        names = {b.name for b in prepared.blocks}
        for path in profile.path_counts:
            assert set(path) <= names


class TestPartitionAdvisor:
    def test_full_offload_always_candidate(self):
        prepared, profile = firewall_profiled()
        advisor = PartitionAdvisor(NICModel(), cores=12)
        wc = WorkloadCharacter()
        best, evaluated = advisor.advise(prepared, profile, wc)
        assert any(p.is_full_offload for p in evaluated)
        assert best.throughput_mpps > 0

    def test_punt_fraction_consistency(self):
        prepared, profile = firewall_profiled(syn_fraction=0.2)
        advisor = PartitionAdvisor(NICModel(), cores=12)
        wc = WorkloadCharacter()
        _best, evaluated = advisor.advise(prepared, profile, wc)
        for partition in evaluated:
            assert 0.0 <= partition.punt_fraction <= 1.0
            if partition.is_full_offload:
                assert partition.punt_fraction == 0.0

    def test_punting_costs_pcie(self):
        prepared, profile = firewall_profiled(syn_fraction=0.3)
        advisor = PartitionAdvisor(NICModel(), cores=12)
        wc = WorkloadCharacter()
        full = advisor.evaluate(frozenset(), prepared, profile, wc)
        all_blocks = frozenset(b.name for b in prepared.blocks)
        none = advisor.evaluate(all_blocks, prepared, profile, wc)
        assert none.punt_fraction == 1.0
        # Punting everything pays the crossing on every packet.
        assert none.nic_cycles_per_pkt >= PCIE_CROSSING_CYCLES

    def test_rare_slow_path_is_puntable(self):
        """With a rare SYN slow path, some split candidate keeps most
        traffic on the NIC."""
        prepared, profile = firewall_profiled(syn_fraction=0.02)
        advisor = PartitionAdvisor(NICModel(), cores=12)
        wc = WorkloadCharacter()
        _best, evaluated = advisor.advise(prepared, profile, wc)
        splits = [
            p for p in evaluated
            if p.host_blocks and 0.0 < p.punt_fraction < 0.5
        ]
        assert splits, "expected a low-punt split candidate"

    def test_best_is_argmax(self):
        prepared, profile = firewall_profiled()
        advisor = PartitionAdvisor(NICModel(), cores=12)
        wc = WorkloadCharacter()
        best, evaluated = advisor.advise(prepared, profile, wc)
        assert best.throughput_mpps == max(
            p.throughput_mpps for p in evaluated
        )

    def test_same_throughputs_under_every_hash_seed(self):
        """Paths are frozensets of block names, whose iteration order
        follows ``PYTHONHASHSEED``; the advisor must not let that order
        reach its float sums."""
        assert _partition_throughputs(0) == _partition_throughputs(1)


_HASH_SEED_PROBE = """
from dataclasses import replace

from repro.click.elements import build_element, initial_state, install_state
from repro.click.interp import Interpreter
from repro.core.partition import PartitionAdvisor
from repro.core.prepare import prepare_element
from repro.nic.machine import NICModel
from repro.workload import characterize, generate_trace
from repro.workload.spec import SMALL_FLOWS

spec = replace(SMALL_FLOWS, n_packets=60)
prepared = prepare_element(build_element("cmsketch"))
interp = Interpreter(prepared.module, seed=1)
install_state(interp, initial_state(prepared.element))
profile = interp.run_trace(generate_trace(spec, seed=1))
nic = NICModel()
advisor = PartitionAdvisor(nic, cores=12)
_best, evaluated = advisor.advise(
    prepared, profile, characterize(spec, hierarchy=nic.hierarchy)
)
print(" ".join(p.throughput_mpps.hex() for p in evaluated))
"""


def _partition_throughputs(hash_seed: int) -> str:
    """cmsketch's evaluated partition throughputs (small flows, 60
    packets, trace seed 1, 12 cores) from a fresh interpreter."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", _HASH_SEED_PROBE],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return result.stdout.strip()


class TestExplain:
    def test_gbdt_importances_normalized(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 4))
        y = 3 * X[:, 2] + 0.1 * rng.normal(size=100)
        model = GBDTRegressor(n_rounds=20, seed=0).fit(X, y)
        importances = gbdt_feature_importance(model, ["a", "b", "c", "d"])
        total = sum(share for _n, share in importances)
        assert total == pytest.approx(1.0)
        # The informative feature dominates.
        assert importances[0][0] == "c"
        assert importances[0][1] > 0.5

    def test_svm_top_patterns(self, trained_identifier):
        patterns = svm_top_patterns(trained_identifier, "crc", top=5)
        assert 1 <= len(patterns) <= 5
        assert all(p.confidence >= 0.9 for p in patterns)
        # Weights come back sorted descending.
        weights = [p.weight for p in patterns]
        assert weights == sorted(weights, reverse=True)

    def test_crc_explanation_mentions_bit_twiddling(self, trained_identifier):
        """Section 5.3: "a distinctive feature for CRC functions is the
        high density of bitwise operations, such as xor, and, and or,
        as well as bitshifts"."""
        patterns = svm_top_patterns(trained_identifier, "crc", top=8)
        flat = " ".join(t for p in patterns for t in p.pattern)
        assert any(op in flat for op in ("xor", "lshr", "shl", "and"))

    def test_render_report(self, trained_identifier):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, len(SCALEOUT_FEATURE_NAMES)))
        y = X[:, 0] * 2
        model = GBDTRegressor(n_rounds=10, seed=0).fit(X, y)
        text = render_explanations(model, trained_identifier)
        assert "feature importances" in text
        assert "CRC classifier" in text

    def test_feature_name_tables_match_feature_vectors(self):
        from repro.core.colocation import NFCandidate, pair_features
        from repro.nic.isa import NICProgram

        prog = NICProgram(module_name="x")
        a = NFCandidate("a", prog, {}, 100.0, 5.0)
        b = NFCandidate("b", prog, {}, 200.0, 2.0)
        assert len(pair_features(a, b, NICModel())) == len(
            COLOCATION_FEATURE_NAMES
        )
