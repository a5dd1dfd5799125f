"""Figures 15 and 16: Clara vs 'expert' emulation (Section 5.8).

Expert = exhaustive parameter sweep of one porting decision.  Paper:

* placement (Fig 15): "Clara's latency is up to 9.7% higher and its
  throughput is up to 7.6% lower than what is achievable with an
  exhaustive search" — because the ILP's latency-only objective cannot
  see bandwidth-spreading effects;
* coalescing (Fig 16): the exhaustive relative-position sweep "delivers
  a small advantage over Clara, although Clara remains competitive".
"""

from dataclasses import replace


from repro.core.coalescing import CoalescingAdvisor
from repro.core.placement import PlacementAdvisor, expert_search
from repro.nic.compiler import compile_module
from repro.nic.machine import WorkloadCharacter
from repro.nic.port import PortConfig
from repro.workload import SMALL_FLOWS, characterize

FIG15_NFS = {
    "mazunat": dict(map_entries=262_144),
    "dnsproxy": dict(cache_entries=262_144),
    "webgen": dict(max_flows=2048),
    "udpcount": dict(flow_entries=262_144),
}

FIG16_ELEMENTS = ("aggcounter", "timefilter", "webtcp", "tcpgen")

FIG16_STATE = {
    "timefilter": {"min_gap_ns": 10_000},
    "tcpgen": {"sport": 80, "dport": 1234, "iss": 1000},
    "webtcp": {"object_size": 6000},
}


def _tcpgen_traffic(packet, index):
    if index % 2 == 0 and packet.tcp is not None:
        packet.tcp["th_sport"] = 1234
        packet.tcp["th_dport"] = 80
        packet.tcp["th_ack"] = 1001


def test_fig15_expert_placement(profiler, nic_model, write_result, benchmark):
    spec = replace(SMALL_FLOWS, n_packets=300)
    advisor = PlacementAdvisor(nic_model.hierarchy)
    rows = [
        "Figure 15: Clara placement (ILP) vs exhaustive expert sweep",
        f"{'NF':10s} {'port':7s} {'tput(Mpps)':>11s} {'lat(us)':>9s}",
    ]
    lat_gaps, tput_gaps = [], []
    for nf, params in FIG15_NFS.items():
        nf_spec = replace(
            spec, udp_fraction=1.0 if nf in ("udpcount", "dnsproxy") else 0.0
        )
        _el, module, profile, freq = profiler(nf, nf_spec, **params)
        wc = characterize(nf_spec, nic_model.hierarchy)
        solution = advisor.advise(module, profile)

        def simulate(assignment):
            program = compile_module(
                module,
                PortConfig(use_checksum_accel=True, placement=dict(assignment)),
            )
            return nic_model.simulate(program, freq, wc, cores=8)

        clara_perf = simulate(solution.assignment)
        problem = advisor.problem_from_profile(module, profile)
        # Expert objective = measured latency from a full simulation —
        # exactly what the ILP's frequency-weighted latency objective
        # approximates without bandwidth effects.
        _best_assignment, _score = expert_search(
            problem, lambda a: simulate(a).latency_us
        )
        expert_perf = simulate(_best_assignment)
        rows.append(
            f"{nf:10s} {'clara':7s} {clara_perf.throughput_mpps:11.2f}"
            f" {clara_perf.latency_us:9.2f}"
        )
        rows.append(
            f"{nf:10s} {'expert':7s} {expert_perf.throughput_mpps:11.2f}"
            f" {expert_perf.latency_us:9.2f}"
        )
        lat_gaps.append(clara_perf.latency_us / expert_perf.latency_us - 1.0)
        tput_gaps.append(
            1.0 - clara_perf.throughput_mpps / expert_perf.throughput_mpps
        )
    rows.append(
        f"clara vs expert: latency up to {max(lat_gaps):+.1%},"
        f" throughput down up to {max(tput_gaps):.1%}"
        "  (paper: <=9.7% and <=7.6%)"
    )
    write_result("fig15_expert_placement", "\n".join(rows))
    benchmark(lambda: None)

    # The expert never loses (it sweeps everything, including Clara's
    # choice is not guaranteed to be in its space, so allow epsilon).
    assert all(g >= -0.02 for g in lat_gaps)
    # Clara stays competitive: within ~15% on both axes.
    assert max(lat_gaps) < 0.15
    assert max(tput_gaps) < 0.15


def test_fig16_expert_coalescing(profiler, nic_model, write_result, benchmark):
    spec = replace(SMALL_FLOWS, n_packets=300)
    advisor = CoalescingAdvisor(seed=0)
    wc = WorkloadCharacter(packet_bytes=spec.packet_bytes,
                           emem_cache_hit_rate=0.25)
    rows = [
        "Figure 16: Clara coalescing (K-means) vs expert position sweep",
        f"{'element':11s} {'clara lat':>10s} {'expert lat':>11s}"
        f" {'clara cores':>12s} {'expert cores':>13s}",
    ]
    gaps = []
    for nf in FIG16_ELEMENTS:
        _el, module, profile, freq = profiler(
            nf, spec, state=FIG16_STATE.get(nf),
            mutate=_tcpgen_traffic if nf == "tcpgen" else None,
        )
        plan = advisor.advise(module, profile)

        def latency(packs):
            program = compile_module(module, PortConfig(packs=list(packs)))
            return nic_model.simulate(program, freq, wc, cores=8).latency_us

        def cores_needed(packs, fraction=0.95):
            program = compile_module(module, PortConfig(packs=list(packs)))
            sweep = nic_model.sweep_cores(program, freq, wc)
            peak = sweep[60].throughput_mpps
            return min(
                c for c in sorted(sweep)
                if sweep[c].throughput_mpps >= fraction * peak
            )

        expert_packs, expert_lat = CoalescingAdvisor.expert_search(
            module, profile, latency, top_n=6
        )
        clara_lat = latency(plan.packs)
        gaps.append(clara_lat / max(expert_lat, 1e-9) - 1.0)
        rows.append(
            f"{nf:11s} {clara_lat:10.2f} {expert_lat:11.2f}"
            f" {cores_needed(plan.packs):12d} {cores_needed(expert_packs):13d}"
        )
    rows.append(
        f"clara latency vs expert: up to {max(gaps):+.1%}"
        " (paper: expert has 'a small advantage')"
    )
    write_result("fig16_expert_coalescing", "\n".join(rows))
    benchmark(lambda: None)

    # Mutual competitiveness: the expert is usually slightly ahead
    # (positive gap) but may lose where its hottest-variables-only
    # restriction excludes members of Clara's clusters (the paper's
    # expert has the same restriction: "the total number of variables
    # is too large for an exhaustive analysis").
    assert max(gaps) > 0.0  # expert wins somewhere
    assert all(-0.10 <= g < 0.20 for g in gaps), gaps
