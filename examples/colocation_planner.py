#!/usr/bin/env python3
"""Planning NF colocation on one SmartNIC.

A deployment question from the paper's Section 4.5: given several NFs
and room for two on the NIC, which pair should share it?  This example
trains the colocation ranker on synthesized programs, ranks all pairs
of four real NFs, and validates the ranking against full colocation
simulations.

Run:  python examples/colocation_planner.py
"""

import itertools

from repro.click.elements import build_element, initial_state, install_state
from repro.click.frontend import lower_element
from repro.click.interp import Interpreter
from repro.core.colocation import ColocationAdvisor, make_candidate
from repro.core.prepare import prepare_element
from repro.nic.machine import NICModel
from repro.workload import characterize, generate_trace
from repro.workload.spec import WorkloadSpec

NFS = ("mazunat", "dnsproxy", "udpcount", "webgen")


def main() -> None:
    nic = NICModel()
    advisor = ColocationAdvisor(nic, seed=0)
    print("Building the synthesized training pool...")
    pool, pool_workload = advisor.build_candidate_pool(n_programs=16)
    print(f"Training the LambdaMART ranker on {len(pool)} candidates...")
    advisor.fit(pool, pool_workload, n_groups=25, group_size=5)

    spec = WorkloadSpec(name="prod", n_flows=200_000, zipf_alpha=0.4,
                        n_packets=300)
    candidates = {}
    for nf in NFS:
        nf_spec = WorkloadSpec(
            name="prod", n_flows=200_000, zipf_alpha=0.4, n_packets=300,
            udp_fraction=1.0 if nf in ("udpcount", "dnsproxy") else 0.0,
        )
        element = build_element(nf)
        module = lower_element(element)
        interp = Interpreter(module)
        install_state(interp, initial_state(element))
        profile = interp.run_trace(generate_trace(nf_spec, seed=0))
        candidates[nf] = make_candidate(
            prepare_element(element), profile, nic
        )
        c = candidates[nf]
        print(f"  {nf:10s} compute/pkt={c.compute_per_pkt:7.0f}"
              f" state-mem/pkt={c.memory_per_pkt:5.1f}"
              f" intensity={c.arithmetic_intensity:7.1f}")

    pairs = list(itertools.combinations(NFS, 2))
    order = advisor.rank_pairs(
        [(candidates[a], candidates[b]) for a, b in pairs]
    )
    workload = characterize(spec, nic.hierarchy)
    print("\nClara's colocation ranking (friendliest first), with the")
    print("measured total-throughput loss for validation:")
    for position, index in enumerate(order, start=1):
        a, b = pairs[index]
        result = advisor.measure_pair(candidates[a], candidates[b], workload)
        print(f"  #{position} {a}+{b:10s} measured loss"
              f" {result.total_throughput_loss:6.1%}"
              f"  (latency +{result.total_latency_loss:.0%})")
    best = pairs[order[0]]
    print(f"\nRecommendation: colocate {best[0]} with {best[1]}.")


if __name__ == "__main__":
    main()
