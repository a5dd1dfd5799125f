"""A dpu-offpath analysis is priced on the DPU's model everywhere.

Each test covers one path that once fell back to the NFP without
saying so: the colocation training pool, the colocation advisor, the
daemon's colocation candidates, the partition advisor, the colocation
pair features, and three ``clara bench`` cases.  For the compile
target, the handler's instruction count tells the two targets apart:
cmsketch compiles to 269 instructions on nfp-4000 and 211 on
dpu-offpath, wepdecap to 157 and 149.
"""

from __future__ import annotations

import inspect
from dataclasses import replace
from functools import lru_cache

import pytest

from repro.click.elements import build_element, initial_state, install_state
from repro.click.interp import ExecutionProfile, Interpreter
from repro.core.colocation import ColocationAdvisor, NFCandidate, pair_features
from repro.core.partition import PartitionAdvisor
from repro.core.prepare import prepare_element
from repro.nic.compiler import compile_module
from repro.nic.isa import NICProgram
from repro.nic.machine import NICModel, WorkloadCharacter
from repro.nic.port import PortConfig
from repro.nic.regions import REGION_EMEM, REGION_EMEM_CACHE
from repro.nic.targets import DPU_OFFPATH
from repro.workload import characterize, generate_trace
from repro.workload.spec import SMALL_FLOWS, WorkloadSpec

DPU = NICModel(target="dpu-offpath")
NFP = NICModel(target="nfp-4000")
HANDLER_INSTRUCTIONS = {
    ("cmsketch", "nfp-4000"): 269,
    ("cmsketch", "dpu-offpath"): 211,
    ("wepdecap", "nfp-4000"): 157,
    ("wepdecap", "dpu-offpath"): 149,
}


def handler_instructions(program: NICProgram) -> int:
    return sum(len(block.instructions) for block in program.handler.blocks)


@lru_cache(maxsize=None)
def profiled(name: str):
    """``(prepared, profile, spec)``: small flows, 60 packets, seed 1."""
    spec = replace(SMALL_FLOWS, n_packets=60)
    prepared = prepare_element(build_element(name))
    interp = Interpreter(prepared.module, seed=1)
    install_state(interp, initial_state(prepared.element))
    return prepared, interp.run_trace(generate_trace(spec, seed=1)), spec


class TestColocation:
    def test_candidate_pool_uses_the_target(self, monkeypatch):
        import repro.core.colocation as colocation

        real = colocation.compile_module
        targets = []

        def spy(module, config=None, target=None):
            targets.append(target)
            return real(module, config, target=target)

        monkeypatch.setattr(colocation, "compile_module", spy)
        pool, workload = ColocationAdvisor(DPU).build_candidate_pool(
            n_programs=2
        )
        # Every generated and grid candidate is compiled for the DPU.
        assert len(targets) == 2 * 2 + 24
        assert all(target is DPU_OFFPATH for target in targets)
        # The pool's default cache-hostile training traffic, whose hot
        # flows the DPU's bigger EMEM cache holds more of.
        spec = WorkloadSpec(name="coloc_train", n_flows=300_000,
                            zipf_alpha=0.4, n_packets=300)
        assert workload == characterize(spec, DPU.hierarchy)
        assert workload.emem_cache_hit_rate == pytest.approx(0.2646, abs=1e-4)
        assert characterize(spec, NFP.hierarchy).emem_cache_hit_rate \
            == pytest.approx(0.2226, abs=1e-4)

    @pytest.mark.parametrize("name", ["cmsketch", "wepdecap"])
    @pytest.mark.parametrize("nic", [NFP, DPU], ids=lambda n: n.target.name)
    def test_advise_compiles_for_the_target(self, name, nic):
        prepared, profile, _spec = profiled(name)
        candidate = ColocationAdvisor(nic).advise(prepared, profile)
        assert handler_instructions(candidate.program) == \
            HANDLER_INSTRUCTIONS[name, nic.target.name]

    def test_pair_features_use_the_target_constants(self):
        program = NICProgram(module_name="x")
        # Compute-bound on both targets at 256-byte packets.
        a = NFCandidate("a", program, {}, 2000.0, 5.0)
        b = NFCandidate("b", program, {}, 4000.0, 2.0)
        features = pair_features(a, b, DPU)
        # Half of the DPU's 16 cores at 2.5 GHz.
        rate_a = 8 * 2.5e9 / 2000.0 * 5.0 / 1e6
        rate_b = 8 * 2.5e9 / 4000.0 * 2.0 / 1e6
        assert list(features[7:]) == pytest.approx(
            [min(rate_a, rate_b), max(rate_a, rate_b), rate_a + rate_b]
        )
        # Half of the NFP's 60 cores at 1.2 GHz.
        assert pair_features(a, b, NFP)[9] == pytest.approx(
            30 * 1.2e9 * (5.0 / 2000.0 + 2.0 / 4000.0) / 1e6
        )


class TestPartition:
    def test_per_packet_overhead_is_the_targets(self):
        prepared, _profile, _spec = profiled("cmsketch")
        advisor = PartitionAdvisor(DPU, cores=12)
        # No profiled path: only the ingress and egress path is charged.
        partition = advisor.evaluate(
            frozenset(), prepared, ExecutionProfile(packets=1),
            WorkloadCharacter(), block_cycles={},
        )
        assert partition.nic_cycles_per_pkt == \
            DPU_OFFPATH.ingress_cycles + DPU_OFFPATH.egress_cycles

    def test_block_cycles_use_the_targets_compile_and_latencies(self):
        prepared, _profile, _spec = profiled("cmsketch")
        advisor = PartitionAdvisor(DPU, cores=12)
        hits = advisor._block_cycles(
            prepared, WorkloadCharacter(emem_cache_hit_rate=1.0)
        )
        misses = advisor._block_cycles(
            prepared, WorkloadCharacter(emem_cache_hit_rate=0.0)
        )
        nfp_hits = PartitionAdvisor(NFP, cores=12)._block_cycles(
            prepared, WorkloadCharacter(emem_cache_hit_rate=1.0)
        )
        assert hits != nfp_hits
        # Every state access costs an EMEM miss instead of a hit.
        program = compile_module(prepared.module, PortConfig(),
                                 target=DPU.target)
        miss_penalty = (DPU.hierarchy.latency(REGION_EMEM)
                        - DPU.hierarchy.latency(REGION_EMEM_CACHE))
        for block in program.handler.blocks:
            n_state = sum(
                1 for instr in block.instructions
                if instr.is_memory
                and (instr.region or "").startswith("state:")
            )
            assert misses[block.name] - hits[block.name] == \
                pytest.approx(n_state * miss_penalty)


class TestServeColocation:
    def test_candidates_compile_for_the_primary_target(self):
        from repro.core import Clara
        from repro.serve.handlers import ClaraService

        names = ["cmsketch", "wepdecap"]
        service = ClaraService(Clara(target="dpu-offpath"))
        candidates = service._build_candidates(
            names, replace(SMALL_FLOWS, n_packets=5), 1
        )
        assert [handler_instructions(c.program) for c in candidates] == [
            HANDLER_INSTRUCTIONS[name, "dpu-offpath"] for name in names
        ]


class TestBenchCases:
    """``clara bench --target dpu-offpath`` fixtures and cases."""

    def test_host_profile_characterizes_on_the_target(self, monkeypatch):
        import repro.workload
        from repro.obs.bench import BenchContext

        real = repro.workload.characterize
        hierarchies = []

        def spy(spec, *args, **kwargs):
            hierarchies.append(args[0] if args else kwargs.get("hierarchy"))
            return real(spec, *args, **kwargs)

        monkeypatch.setattr(repro.workload, "characterize", spy)
        BenchContext(quick=True, target="dpu-offpath").host_profile(
            "aggcounter", n_packets=20
        )
        assert hierarchies == [DPU.hierarchy]

    def test_placement_problem_uses_the_target_hierarchy(self):
        from repro.obs.bench import BenchContext, _case_placement_ilp

        run = _case_placement_ilp(
            BenchContext(quick=True, target="dpu-offpath")
        )
        problem = inspect.getclosurevars(run).nonlocals["problem"]
        assert problem.hierarchy == DPU.hierarchy

    def test_colocation_rank_uses_the_target(self):
        from repro.obs.bench import BenchContext, _case_colocation_rank

        runs = {
            target: _case_colocation_rank(
                BenchContext(quick=True, target=target)
            )
            for target in ("nfp-4000", "dpu-offpath")
        }
        workloads = {
            target: inspect.getclosurevars(run).nonlocals["workload"]
            for target, run in runs.items()
        }
        # The DPU's bigger EMEM cache holds more of the 50 000 flows.
        assert workloads["dpu-offpath"].emem_cache_hit_rate > \
            workloads["nfp-4000"].emem_cache_hit_rate
        assert runs["dpu-offpath"]().nic.target is DPU_OFFPATH
