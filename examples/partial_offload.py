#!/usr/bin/env python3
"""Partial offloading: splitting a firewall between host and NIC.

The paper's Section 6 sketches partial offloading as future work:
"a partial offloading scenario might split the NF program between host
CPUs and SmartNICs ... Clara would also need to reason about the
communication between SmartNICs and the host."  This example runs the
extension that does exactly that.

A stateful firewall has a *fast path* (established-connection lookups)
and a *slow path* (ACL evaluation + flow setup on TCP SYNs).  When SYNs
are rare, punting the slow path to the host keeps almost all packets on
the NIC while freeing NIC instruction store and state for the fast
path.  The advisor evaluates candidate splits built from the profiled
per-packet paths and reports when splitting beats full offload.

Run:  python examples/partial_offload.py
"""

from repro.click.elements import build_element, install_state
from repro.click.interp import Interpreter
from repro.core.partition import PartitionAdvisor
from repro.core.prepare import prepare_element
from repro.nic.machine import NICModel, WorkloadCharacter
from repro.workload import generate_trace
from repro.workload.spec import WorkloadSpec


N_ACL = 64


def profile_firewall(syn_fraction: float):
    # A long ACL makes flow setup expensive: only the final
    # catch-all rule admits traffic, so every SYN walks all 64 rules.
    element = build_element("firewall", n_acl=N_ACL)
    prepared = prepare_element(element)
    interp = Interpreter(prepared.module)
    prefixes = [0xFFFFFFFF] * (N_ACL - 1) + [0]
    masks = [0xFFFFFFFF] * (N_ACL - 1) + [0]
    actions = [0] * (N_ACL - 1) + [1]
    install_state(
        interp,
        {
            "n_acl": N_ACL,
            "acl_prefix": prefixes,
            "acl_mask": masks,
            "acl_action": actions,
        },
    )
    spec = WorkloadSpec(
        name=f"syn{syn_fraction:.0%}",
        n_flows=64,
        n_packets=500,
        syn_fraction=syn_fraction,
    )
    profile = interp.run_trace(generate_trace(spec, seed=0))
    return prepared, profile


def main() -> None:
    # Two micro-engines only: the NIC, not the wire, is the bottleneck,
    # so where the slow path runs actually matters.
    advisor = PartitionAdvisor(NICModel(), cores=2)
    workload = WorkloadCharacter(packet_bytes=256, emem_cache_hit_rate=0.4)

    for syn_fraction in (0.02, 0.2, 0.6):
        prepared, profile = profile_firewall(syn_fraction)
        best, evaluated = advisor.advise(prepared, profile, workload)
        print(f"\n=== firewall, {syn_fraction:.0%} SYNs "
              f"({len(profile.path_counts)} distinct packet paths) ===")
        for partition in sorted(
            evaluated, key=lambda p: -p.throughput_mpps
        ):
            if partition.is_full_offload:
                kind = "full offload"
            elif partition.punt_fraction >= 1.0:
                kind = "no offload (all host)"
            else:
                kind = f"split ({len(partition.host_blocks)} host blocks)"
            marker = "  <== best" if partition is best else ""
            print(f"  {kind:28s} punt {partition.punt_fraction:5.1%}"
                  f"  predicted {partition.throughput_mpps:6.2f} Mpps{marker}")


if __name__ == "__main__":
    main()
