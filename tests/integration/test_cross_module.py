"""Cross-module integration and property tests: invariants that span
the frontend, printer/parser, compiler, interpreter, and machine model.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.click.elements import all_elements, build_element
from repro.click.frontend import lower_element
from repro.click.interp import Interpreter
from repro.nfir import parse_module, print_module
from repro.nfir.analysis.dominance import DominatorTree
from repro.nic.compiler import compile_module
from repro.nic.machine import NICModel, WorkloadCharacter
from repro.nic.port import CoalescePack, PortConfig
from repro.synthesis.generator import ClickGen
from repro.synthesis.stats import extract_stats
from repro.workload import generate_trace
from repro.workload.spec import WorkloadSpec


@pytest.fixture(scope="module")
def gen():
    return ClickGen(extract_stats(all_elements()), seed=123)


class TestCompilerInvariants:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_random_programs_compile(self, seed):
        gen = ClickGen(extract_stats(all_elements()), seed=seed)
        module = lower_element(gen.element())
        program = compile_module(module)
        assert program.handler.n_total >= 1
        for block in program.handler.blocks:
            assert block.n_compute >= 0
            assert block.n_memory >= 0

    def test_roundtrip_compiles_identically(self, gen):
        """print -> parse -> compile must produce the same assembly
        shape as compiling the original module."""
        from repro.nfir.annotate import annotate_module

        for _ in range(5):
            module = lower_element(gen.element())
            annotate_module(module)
            original = compile_module(module)
            reparsed = parse_module(print_module(module))
            annotate_module(reparsed)
            recompiled = compile_module(reparsed)
            for b1, b2 in zip(
                original.handler.blocks, recompiled.handler.blocks
            ):
                assert b1.name == b2.name
                assert b1.n_total == b2.n_total, b1.name
                assert b1.n_memory == b2.n_memory, b1.name

    def test_coalescing_never_increases_memory_ops(self, gen):
        for _ in range(5):
            element = gen.element()
            module = lower_element(element)
            scalars = [
                name for name, g in module.globals.items()
                if g.kind == "scalar"
            ]
            if len(scalars) < 2:
                continue
            pack = CoalescePack(tuple(scalars[:2]), sum(
                module.globals[s].size_bytes for s in scalars[:2]
            ))
            naive = compile_module(module, PortConfig())
            packed = compile_module(module, PortConfig(packs=[pack]))
            n = sum(b.n_memory for b in naive.handler.blocks)
            p = sum(b.n_memory for b in packed.handler.blocks)
            assert p <= n

    def test_placement_does_not_change_instruction_counts(self, gen):
        """Placement only retargets regions; the instruction stream is
        identical."""
        module = lower_element(build_element("aggcounter"))
        naive = compile_module(module, PortConfig())
        placed = compile_module(
            module,
            PortConfig(placement={g: "cls" for g in module.globals}),
        )
        assert naive.total_instructions() == placed.total_instructions()


class TestInterpreterInvariants:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_random_programs_interpret_safely(self, seed):
        gen = ClickGen(extract_stats(all_elements()), seed=seed)
        module = lower_element(gen.element())
        interp = Interpreter(module)
        spec = WorkloadSpec(name="t", n_flows=10, n_packets=25)
        profile = interp.run_trace(generate_trace(spec, seed=seed))
        assert profile.packets == 25
        # Entry executes exactly once per packet.
        assert profile.block_counts[module.handler.entry.name] == 25

    def test_executed_blocks_are_reachable(self, gen):
        module = lower_element(gen.element())
        interp = Interpreter(module)
        spec = WorkloadSpec(name="t", n_flows=10, n_packets=40)
        interp.run_trace(generate_trace(spec, seed=1))
        reachable = DominatorTree(module.handler).reachable
        executed = {
            b for b, c in interp.profile.block_counts.items() if c > 0
        }
        assert executed <= reachable

    def test_interpreter_deterministic(self, gen):
        element = gen.element()
        module = lower_element(element)
        spec = WorkloadSpec(name="t", n_flows=10, n_packets=30)
        a = Interpreter(module, seed=3)
        b = Interpreter(module, seed=3)
        a.run_trace(generate_trace(spec, seed=5))
        b.run_trace(generate_trace(spec, seed=5))
        assert a.profile.block_counts == b.profile.block_counts
        assert a.profile.global_block_access == b.profile.global_block_access


class TestEndToEndPerformancePipeline:
    def test_profile_compile_simulate_closes(self):
        """The canonical pipeline — profile on host, compile, simulate —
        runs for every library element without errors and produces
        physically sensible numbers."""
        from repro.click.elements import (
            ELEMENT_BUILDERS,
            initial_state,
            install_state,
        )

        model = NICModel()
        wc = WorkloadCharacter()
        spec = WorkloadSpec(name="t", n_flows=100, n_packets=60,
                            udp_fraction=0.3)
        for name in sorted(ELEMENT_BUILDERS):
            element = build_element(name)
            module = lower_element(element)
            interp = Interpreter(module)
            install_state(interp, initial_state(element))
            profile = interp.run_trace(generate_trace(spec, seed=0))
            freq = {
                b: c / profile.packets
                for b, c in profile.block_counts.items()
            }
            perf = model.simulate(
                compile_module(module), freq, wc, cores=10
            )
            assert 0.0 < perf.throughput_mpps <= model.line_rate_pps(
                wc.packet_bytes
            ) / 1e6 + 1e-9, name
            assert 0.0 < perf.latency_us < 10_000.0, name
