"""Workload spec, trace generation, and cache-character tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.workload import (
    LARGE_FLOWS,
    SMALL_FLOWS,
    characterize,
    generate_trace,
)
from repro.nic.targets import get_target
from repro.workload.character import zipf_hit_rate
from repro.workload.spec import WorkloadSpec

NFP_HIERARCHY = get_target("nfp-4000").hierarchy()


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(n_flows=0)
        with pytest.raises(ValueError):
            WorkloadSpec(syn_fraction=1.5)
        with pytest.raises(ValueError):
            WorkloadSpec(packet_bytes=10)

    def test_standard_workloads_differ_in_flows_not_size(self):
        assert LARGE_FLOWS.n_flows < SMALL_FLOWS.n_flows
        assert LARGE_FLOWS.packet_bytes == SMALL_FLOWS.packet_bytes


class TestTrace:
    def test_deterministic_under_seed(self):
        spec = WorkloadSpec(n_packets=50)
        a = generate_trace(spec, seed=1)
        b = generate_trace(spec, seed=1)
        assert [p.flow_key() for p in a] == [p.flow_key() for p in b]

    def test_different_seeds_differ(self):
        spec = WorkloadSpec(n_packets=50)
        a = generate_trace(spec, seed=1)
        b = generate_trace(spec, seed=2)
        assert [p.flow_key() for p in a] != [p.flow_key() for p in b]

    def test_flow_count_respected(self):
        spec = WorkloadSpec(n_flows=5, n_packets=300, zipf_alpha=0.0)
        trace = generate_trace(spec, seed=0)
        flows = {p.flow_key() for p in trace}
        assert len(flows) <= 5

    def test_zipf_skews_popularity(self):
        spec = WorkloadSpec(n_flows=100, n_packets=2000, zipf_alpha=1.5)
        trace = generate_trace(spec, seed=0)
        from collections import Counter

        counts = Counter(p.flow_key() for p in trace)
        top = counts.most_common(1)[0][1]
        assert top > 2000 / 100 * 5  # far above uniform share

    def test_udp_fraction(self):
        spec = WorkloadSpec(n_packets=300, udp_fraction=1.0)
        trace = generate_trace(spec, seed=0)
        assert all(p.udp is not None for p in trace)
        spec = WorkloadSpec(n_packets=300, udp_fraction=0.0)
        trace = generate_trace(spec, seed=0)
        assert all(p.tcp is not None for p in trace)

    def test_syn_fraction_roughly_respected(self):
        spec = WorkloadSpec(n_packets=1000, syn_fraction=0.5)
        trace = generate_trace(spec, seed=0)
        syns = sum(1 for p in trace if p.tcp["th_flags"] == 0x02)
        assert 350 < syns < 650

    def test_payload_lengths(self):
        spec = WorkloadSpec(n_packets=10, payload_bytes=77)
        trace = generate_trace(spec, seed=0)
        assert all(len(p.payload) == 77 for p in trace)

    def test_timestamps_advance(self):
        trace = generate_trace(WorkloadSpec(n_packets=10), seed=0)
        stamps = [p.timestamp_ns for p in trace]
        assert stamps == sorted(stamps)
        assert stamps[1] > stamps[0]


class TestCharacter:
    def test_hit_rate_bounds(self):
        assert zipf_hit_rate(10, 100, 1.0) <= 1.0
        assert zipf_hit_rate(100, 100, 1.0) == 1.0
        assert zipf_hit_rate(0, 100, 1.0) == 0.0

    def test_skew_raises_hit_rate(self):
        uniform = zipf_hit_rate(10, 1000, 0.0)
        skewed = zipf_hit_rate(10, 1000, 1.2)
        assert skewed > uniform

    @given(
        entries=st.integers(min_value=1, max_value=10_000),
        flows=st.integers(min_value=1, max_value=100_000),
        alpha=st.floats(min_value=0.0, max_value=2.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_hit_rate_in_unit_interval(self, entries, flows, alpha):
        rate = zipf_hit_rate(entries, flows, alpha)
        assert 0.0 <= rate <= 1.0

    def test_large_flows_cache_friendly(self):
        large = characterize(LARGE_FLOWS, NFP_HIERARCHY)
        small = characterize(SMALL_FLOWS, NFP_HIERARCHY)
        assert large.emem_cache_hit_rate > small.emem_cache_hit_rate
        assert large.flow_cache_hit_rate > small.flow_cache_hit_rate

    def test_bigger_state_entries_lower_hit_rate(self):
        a = characterize(SMALL_FLOWS, NFP_HIERARCHY, state_entry_bytes=32)
        b = characterize(SMALL_FLOWS, NFP_HIERARCHY, state_entry_bytes=512)
        assert a.emem_cache_hit_rate >= b.emem_cache_hit_rate

    def test_character_carries_packet_size(self):
        wc = characterize(LARGE_FLOWS, NFP_HIERARCHY)
        assert wc.packet_bytes == LARGE_FLOWS.packet_bytes
        assert wc.name == LARGE_FLOWS.name
