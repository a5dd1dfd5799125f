"""Performance-model tests: bounds, monotonicity, contention, and the
paper's qualitative phenomena (accelerator wins, placement wins,
workload-dependent knees)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.click.elements import build_element, initial_state, install_state
from repro.click.frontend import lower_element
from repro.click.interp import Interpreter
from repro.nic import (
    NICModel,
    PortConfig,
    compile_module,
    get_target,
    simulate_colocation,
)
from repro.nic.machine import WorkloadCharacter
from repro.nic.regions import REGION_CLS, REGION_EMEM, REGION_IMEM
from repro.workload import LARGE_FLOWS, SMALL_FLOWS, characterize, generate_trace
from repro.workload.spec import WorkloadSpec


def profiled(name, spec=None, state=None, **params):
    element = build_element(name, **params)
    module = lower_element(element)
    interp = Interpreter(module)
    install_state(interp, initial_state(element))
    if state:
        install_state(interp, state)
    spec = spec or WorkloadSpec(name="t", n_flows=500, n_packets=200)
    profile = interp.run_trace(generate_trace(spec, seed=0))
    freq = {b: c / profile.packets for b, c in profile.block_counts.items()}
    return module, freq, profile


@pytest.fixture(scope="module")
def mazunat_profiled():
    return profiled("mazunat")


@pytest.fixture(scope="module")
def model():
    return NICModel()


class TestBasicBounds:
    def test_throughput_capped_by_line_rate(self, model, mazunat_profiled):
        module, freq, _ = mazunat_profiled
        prog = compile_module(module, PortConfig(use_checksum_accel=True))
        wc = WorkloadCharacter(packet_bytes=256, emem_cache_hit_rate=1.0)
        perf = model.simulate(prog, freq, wc, cores=60)
        assert perf.throughput_mpps <= model.line_rate_pps(256) / 1e6 + 1e-9

    def test_single_core_is_slowest(self, model, mazunat_profiled):
        module, freq, _ = mazunat_profiled
        prog = compile_module(module)
        wc = WorkloadCharacter()
        one = model.simulate(prog, freq, wc, cores=1)
        many = model.simulate(prog, freq, wc, cores=30)
        assert many.throughput_mpps > one.throughput_mpps

    def test_throughput_monotone_in_cores(self, model, mazunat_profiled):
        module, freq, _ = mazunat_profiled
        prog = compile_module(module)
        for wc in (
            WorkloadCharacter(emem_cache_hit_rate=0.2),
            WorkloadCharacter(emem_cache_hit_rate=0.9),
        ):
            sweep = model.sweep_cores(prog, freq, wc)
            values = [sweep[c].throughput_mpps for c in sorted(sweep)]
            assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_latency_nondecreasing_in_cores(self, model, mazunat_profiled):
        module, freq, _ = mazunat_profiled
        prog = compile_module(module)
        wc = WorkloadCharacter(emem_cache_hit_rate=0.3)
        sweep = model.sweep_cores(prog, freq, wc)
        lats = [sweep[c].latency_us for c in sorted(sweep)]
        assert all(b >= a - 1e-9 for a, b in zip(lats, lats[1:]))

    def test_latency_positive_and_finite(self, model, mazunat_profiled):
        module, freq, _ = mazunat_profiled
        prog = compile_module(module)
        perf = model.simulate(prog, freq, WorkloadCharacter(), cores=10)
        assert 0.1 < perf.latency_us < 1000.0

    @given(cores=st.integers(min_value=1, max_value=60))
    @settings(max_examples=10, deadline=None)
    def test_any_core_count_is_well_formed(self, cores):
        module, freq, _ = profiled("aggcounter")
        prog = compile_module(module)
        perf = NICModel().simulate(prog, freq, WorkloadCharacter(), cores=cores)
        assert perf.throughput_mpps > 0
        assert perf.latency_us > 0
        assert perf.bound in ("compute", "concurrency", "line_rate", "bandwidth")


class TestPlacementEffects:
    def test_faster_region_lowers_latency(self, model):
        module, freq, _ = profiled("aggcounter")
        wc = WorkloadCharacter(emem_cache_hit_rate=0.0)
        slow = model.simulate(
            compile_module(module, PortConfig()), freq, wc, cores=8
        )
        fast = model.simulate(
            compile_module(
                module,
                PortConfig(
                    placement={g: REGION_CLS for g in module.globals}
                ),
            ),
            freq,
            wc,
            cores=8,
        )
        assert fast.latency_us < slow.latency_us
        assert fast.throughput_mpps >= slow.throughput_mpps

    def test_emem_cache_hit_rate_matters(self, model):
        module, freq, _ = profiled("aggcounter")
        prog = compile_module(module)
        cold = model.simulate(
            prog, freq, WorkloadCharacter(emem_cache_hit_rate=0.0), cores=8
        )
        warm = model.simulate(
            prog, freq, WorkloadCharacter(emem_cache_hit_rate=1.0), cores=8
        )
        assert warm.latency_us < cold.latency_us


class TestAcceleratorEffects:
    def test_checksum_accel_cuts_latency(self, model, mazunat_profiled):
        module, freq, _ = mazunat_profiled
        wc = WorkloadCharacter(packet_bytes=256)
        soft = model.simulate(compile_module(module, PortConfig()), freq, wc, cores=20)
        hard = model.simulate(
            compile_module(module, PortConfig(use_checksum_accel=True)),
            freq, wc, cores=20,
        )
        assert hard.latency_us < soft.latency_us
        assert hard.throughput_mpps >= soft.throughput_mpps

    def test_crc_accel_helps_cmsketch(self, model):
        module, freq, _ = profiled("cmsketch")
        crc_blocks = frozenset(
            b.name for b in module.handler.blocks
            if b.name.startswith("inl.crc32_hash")
        )
        wc = WorkloadCharacter()
        # Clara's port also places the sketch in SRAM; with the memory
        # side equalized, the accelerator strictly wins on both axes.
        placement = {"counters": REGION_IMEM}
        naive = model.simulate(
            compile_module(module, PortConfig(placement=placement)),
            freq, wc, cores=10,
        )
        accel = model.simulate(
            compile_module(
                module,
                PortConfig(crc_accel_blocks=crc_blocks, placement=placement),
            ),
            freq, wc, cores=10,
        )
        assert accel.compute_cycles < naive.compute_cycles
        assert accel.throughput_mpps > naive.throughput_mpps
        assert accel.latency_us < naive.latency_us

    def test_lpm_flow_cache_order_of_magnitude(self, model):
        state = {
            "n_rules": 256,
            "rule_prefix": [0] * 256,
            "rule_masklen": [32] * 256,
            "rule_port": [1] * 256,
        }
        module, freq, _ = profiled("iplookup", state=state, n_rules=256)
        loop_blocks = frozenset(
            b.name for b in module.handler.blocks if b.name.startswith("while.")
        )
        naive = model.simulate(
            compile_module(module), freq, WorkloadCharacter(), cores=10
        )
        wc = WorkloadCharacter(
            flow_cache_hit_rate=0.95,
            lpm_miss_penalty_cycles=naive.per_packet_cycles,
        )
        accel = model.simulate(
            compile_module(module, PortConfig(lpm_accel_blocks=loop_blocks)),
            freq, wc, cores=10,
        )
        assert naive.latency_us / accel.latency_us > 3.0


class TestWorkloadKnees:
    def test_small_flows_need_more_cores(self, model):
        """Cache-hostile traffic peaks later in core count (paper
        Section 5.4), for a tuned (checksum-accelerated) port."""
        module, freq, _ = profiled("mazunat")
        prog = compile_module(
            module,
            PortConfig(use_checksum_accel=True,
                       placement={"fwd_map": REGION_IMEM, "rev_map": REGION_IMEM}),
        )
        opt = {}
        for spec in (LARGE_FLOWS, SMALL_FLOWS):
            wc = characterize(spec, model.hierarchy)
            sweep = model.sweep_cores(prog, freq, wc)
            opt[spec.name] = model.optimal_cores(sweep)
        assert opt["small_flows"] >= opt["large_flows"]

    def test_knee_is_internal_for_memory_bound_nf(self, model):
        module, freq, _ = profiled("mazunat", spec=WorkloadSpec(
            name="hot", n_flows=50_000, n_packets=200))
        prog = compile_module(module, PortConfig(use_checksum_accel=True))
        wc = WorkloadCharacter(emem_cache_hit_rate=0.2)
        sweep = model.sweep_cores(prog, freq, wc)
        knee = model.optimal_cores(sweep)
        assert 1 <= knee <= 60
        # Past the knee, the ratio does not improve.
        assert sweep[min(knee + 10, 60)].tput_lat_ratio <= sweep[knee].tput_lat_ratio + 1e-9


class TestColocation:
    def test_colocation_degrades_throughput(self, model):
        module_a, freq_a, _ = profiled("mazunat")
        module_b, freq_b, _ = profiled("udpcount", spec=WorkloadSpec(
            name="u", n_flows=500, n_packets=200, udp_fraction=1.0))
        wc = WorkloadCharacter(emem_cache_hit_rate=0.2)
        result = simulate_colocation(
            model,
            compile_module(module_a), freq_a,
            compile_module(module_b), freq_b,
            wc,
        )
        assert result.total_throughput_loss >= -1e-9
        assert result.perf_a.throughput_mpps <= result.solo_a.throughput_mpps + 1e-9
        assert result.perf_b.throughput_mpps <= result.solo_b.throughput_mpps + 1e-9

    def test_memory_heavy_pairs_interfere_more(self, model):
        mem_mod, mem_freq, _ = profiled("mazunat")
        cpu_mod, cpu_freq, _ = profiled("anonipaddr")
        wc = WorkloadCharacter(emem_cache_hit_rate=0.0)
        mem_prog = compile_module(mem_mod)
        cpu_prog = compile_module(cpu_mod)
        mm = simulate_colocation(model, mem_prog, mem_freq, mem_prog, mem_freq, wc)
        mc = simulate_colocation(model, mem_prog, mem_freq, cpu_prog, cpu_freq, wc)
        assert mm.total_throughput_loss >= mc.total_throughput_loss - 1e-9

    def test_compute_only_pairs_friendly(self, model):
        cpu_mod, cpu_freq, _ = profiled("anonipaddr")
        wc = WorkloadCharacter()
        prog = compile_module(cpu_mod)
        result = simulate_colocation(model, prog, cpu_freq, prog, cpu_freq, wc)
        assert result.total_throughput_loss < 0.2


class TestRegions:
    def test_hierarchy_ordering(self):
        h = get_target("nfp-4000").hierarchy()
        placeable = h.placeable
        lats = [r.latency_cycles for r in placeable]
        caps = [r.capacity_bytes for r in placeable]
        assert lats == sorted(lats)
        assert caps == sorted(caps)

    def test_scaled_override(self):
        h = get_target("nfp-4000").hierarchy()
        h2 = h.scaled(REGION_EMEM, latency_cycles=500)
        assert h2.latency(REGION_EMEM) == 500
        assert h.latency(REGION_EMEM) == 300  # original untouched

    def test_workload_character_validation(self):
        with pytest.raises(ValueError):
            WorkloadCharacter(emem_cache_hit_rate=1.5)
        with pytest.raises(ValueError):
            WorkloadCharacter(flow_cache_hit_rate=-0.1)
