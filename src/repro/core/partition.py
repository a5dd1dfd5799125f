"""Partial offloading analysis (the paper's Section 6 future work).

"A partial offloading scenario might split the NF program between host
CPUs and SmartNICs.  In order to handle such scenarios, Clara would
also need to reason about the communication between SmartNICs and the
host."

This extension implements a first-order version of that reasoning.  A
*partition* designates a subset of handler basic blocks as host-side;
any packet whose execution path touches a host block is punted across
PCIe (paying a fixed crossing cost plus host processing), while packets
that stay on fast NIC-only paths complete on the SmartNIC.  The advisor
searches candidate partitions built from per-packet path signatures,
which :func:`packet_paths` counts while it profiles the trace on the
host, and reports the split with the best predicted throughput —
including the two trivial partitions, full offload and no offload,
which it falls back to when splitting does not pay.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.click.interp import ExecutionProfile, Interpreter
from repro.click.packet import Packet
from repro.core.prepare import PreparedNF
from repro.nic.compiler import compile_module
from repro.nic.machine import NICModel, WorkloadCharacter
from repro.nic.port import PortConfig
from repro.nic.regions import REGION_CTM, REGION_EMEM, REGION_EMEM_CACHE

#: One PCIe round trip (DMA descriptor + doorbell + completion), in NIC
#: cycles at 1.2GHz — about 1.5us, the commonly cited ballpark.
PCIE_CROSSING_CYCLES = 1800.0

#: Host processing-speed advantage over one wimpy NIC core: a 3.4GHz
#: Xeon core against a 1.2GHz micro-engine, minus the host framework
#: overhead the paper's Section 1 motivates offloading away.
HOST_SPEEDUP = 2.2

#: Host cores the deployment is willing to burn on punted packets (the
#: whole point of offloading is freeing these, so keep it small).
HOST_CORES = 2


def packet_paths(interp: Interpreter, packets: Iterable[Packet]) -> Counter:
    """Run ``packets`` through ``interp`` one at a time and count their
    paths: a packet's path is the frozenset of the blocks whose count
    it raised.  Each path is keyed as it first occurs, its blocks
    added in ``block_counts`` (trace-wide first execution) order, so
    iterating a path does not depend on one packet's visit order."""
    counts = interp.profile.block_counts
    paths: Counter = Counter()
    for packet in packets:
        before = dict(counts)
        interp.run_packet(packet)
        paths[frozenset(
            name for name, count in counts.items() if count != before.get(name)
        )] += 1
    return paths


@dataclass
class Partition:
    """One candidate host/NIC split."""

    host_blocks: FrozenSet[str]
    punt_fraction: float          # share of packets crossing to the host
    nic_cycles_per_pkt: float     # NIC work for the average packet
    host_cycles_per_pkt: float    # host work per *punted* packet
    throughput_mpps: float
    description: str = ""

    @property
    def is_full_offload(self) -> bool:
        return not self.host_blocks


class PartitionAdvisor:
    """Suggests host/NIC partitions for an NF (extension of Clara),
    priced on ``nic``'s target."""

    def __init__(self, nic: NICModel, cores: int = 20) -> None:
        self.nic = nic
        self.cores = cores

    # -- cost building blocks -------------------------------------------
    def _block_cycles(
        self,
        prepared: PreparedNF,
        workload: WorkloadCharacter,
        config: Optional[PortConfig] = None,
    ) -> Dict[str, float]:
        """Approximate per-execution cycles of each handler block on
        the NIC (issue + uninflated memory latencies + API costs)."""
        from repro.nic.libnfp import api_cost, sw_checksum_cycles

        program = compile_module(
            prepared.module, config or PortConfig(), target=self.nic.target
        )
        latency = self.nic.hierarchy.latency
        hit = workload.emem_cache_hit_rate
        state_cycles = (
            hit * float(latency(REGION_EMEM_CACHE))
            + (1.0 - hit) * float(latency(REGION_EMEM))
        )
        ctm_cycles = float(latency(REGION_CTM))
        out: Dict[str, float] = {}
        for block in program.handler.blocks:
            cycles = 0.0
            for instr in block.instructions:
                cycles += instr.issue_cycles
                if instr.is_memory:
                    region = instr.region or "emem"
                    if region.startswith("state:"):
                        cycles += state_cycles
                    elif region == REGION_CTM:
                        cycles += ctm_cycles
                if instr.opcode == "call" and instr.srcs:
                    callee = instr.srcs[0]
                    if callee == "sw_checksum":
                        cycles += sw_checksum_cycles(workload.packet_bytes)
                    else:
                        cost = api_cost(callee)
                        cycles += cost.cycles + 200.0 * sum(
                            c for _k, _s, c in cost.accesses
                        )
            out[block.name] = cycles
        return out

    def evaluate(
        self,
        host_blocks: FrozenSet[str],
        prepared: PreparedNF,
        profile: ExecutionProfile,
        paths: Mapping[FrozenSet[str], int],
        workload: WorkloadCharacter,
        block_cycles: Optional[Dict[str, float]] = None,
    ) -> Partition:
        """Predict the throughput of one candidate partition, given the
        ``profile`` and :func:`packet_paths` of one trace."""
        if block_cycles is None:
            block_cycles = self._block_cycles(prepared, workload)
        packets = max(profile.packets, 1)

        # Loop blocks execute many times per packet; estimate each
        # block's per-packet trip count among the packets that reach it
        # (total executions / packets whose path contains the block).
        packets_with: Dict[str, int] = {}
        for path, count in paths.items():
            for name in path:
                packets_with[name] = packets_with.get(name, 0) + count
        trips = {
            name: profile.block_counts.get(name, 0) / max(reached, 1)
            for name, reached in packets_with.items()
        }

        punted = 0
        nic_cycles_total = 0.0
        host_cycles_total = 0.0
        for path, count in paths.items():
            # Sorted: a frozenset's order follows the string hash seed,
            # and float sums must not.
            path_cost = sum(
                block_cycles.get(b, 0.0) * trips.get(b, 1.0)
                for b in sorted(path)
            )
            if path & host_blocks:
                punted += count
                # The NIC still runs the pre-punt share of the path; we
                # charge half the path as NIC-side classification work,
                # the rest on the host.
                nic_cycles_total += count * (0.5 * path_cost)
                host_cycles_total += count * (0.5 * path_cost / HOST_SPEEDUP)
            else:
                nic_cycles_total += count * path_cost
        punt_fraction = punted / packets
        # The per-packet ingress and egress path, as the machine model
        # charges it.
        target = self.nic.target
        path_overhead = target.ingress_cycles + target.egress_cycles
        nic_per_pkt = nic_cycles_total / packets + path_overhead
        nic_per_pkt += punt_fraction * PCIE_CROSSING_CYCLES
        host_per_punted = (
            host_cycles_total / punted if punted else 0.0
        )

        # Throughput: NIC-side concurrency/line-rate bound, then the
        # host-side capacity bound on the punted share.
        line = self.nic.line_rate_pps(workload.packet_bytes)
        nic_bound = min(
            self.cores * self.nic.threads_per_core * self.nic.freq_hz
            / max(nic_per_pkt, 1.0),
            line,
        )
        if punt_fraction > 0 and host_per_punted > 0:
            host_capacity = (
                HOST_CORES * 3.4e9 / host_per_punted
            ) / punt_fraction
            throughput = min(nic_bound, host_capacity)
        else:
            throughput = nic_bound
        return Partition(
            host_blocks=host_blocks,
            punt_fraction=punt_fraction,
            nic_cycles_per_pkt=nic_per_pkt,
            host_cycles_per_pkt=host_per_punted,
            throughput_mpps=throughput / 1e6,
        )

    # -- search ----------------------------------------------------------
    def candidate_block_sets(
        self, prepared: PreparedNF, profile: ExecutionProfile,
        paths: Mapping[FrozenSet[str], int], max_candidates: int = 12,
    ) -> List[FrozenSet[str]]:
        """Candidate host-side block sets: rare, expensive paths make
        the best punt targets, so candidates are built from blocks that
        appear only on infrequent paths (e.g. flow-setup slow paths)."""
        packets = max(profile.packets, 1)
        # Block rarity: share of packets whose path includes the block.
        share: Dict[str, float] = {}
        for path, count in paths.items():
            for name in path:
                share[name] = share.get(name, 0.0) + count / packets
        candidates: List[FrozenSet[str]] = [frozenset()]
        # Punt everything (no offload) as a baseline candidate.
        all_blocks = frozenset(b.name for b in prepared.blocks)
        candidates.append(all_blocks)
        for threshold in (0.02, 0.05, 0.1, 0.25, 0.5):
            rare = frozenset(
                name for name, s in share.items() if s <= threshold
            )
            if rare and rare not in candidates and rare != all_blocks:
                candidates.append(rare)
        return candidates[:max_candidates]

    def advise(
        self,
        prepared: PreparedNF,
        profile: ExecutionProfile,
        paths: Mapping[FrozenSet[str], int],
        workload: WorkloadCharacter,
    ) -> Tuple[Partition, List[Partition]]:
        """Return (best partition, all evaluated candidates) for the
        ``profile`` and :func:`packet_paths` of one trace."""
        block_cycles = self._block_cycles(prepared, workload)
        evaluated = [
            self.evaluate(
                host_blocks, prepared, profile, paths, workload, block_cycles
            )
            for host_blocks in self.candidate_block_sets(prepared, profile, paths)
        ]
        best = max(evaluated, key=lambda p: p.throughput_mpps)
        return best, evaluated
