"""The multicore SmartNIC performance model.

Models a Netronome-style NFP: ``n_cores`` wimpy micro-engines at 1.2GHz
(paper Section 4.2: "60x 1.2GHz cores"), 8 hardware threads per engine
hiding memory latency, run-to-completion packet processing, shared
memory regions with finite bandwidth, and a 40Gbps line-rate cap.
Those are the ``nfp-4000`` target's constants; a model takes all of
its constants from one :class:`~repro.nic.targets.TargetDescription`.

Given a compiled :class:`~repro.nic.isa.NICProgram`, per-packet basic
block frequencies (obtained by host-side profiling — valid because
reverse porting keeps control flow symmetric, Section 3.3), and a
workload character, the model solves a fixed point:

* per-packet service time ``T = C_issue + sum(latency of memory and
  accelerator operations)``, where each region's latency inflates with
  its utilization (M/M/1-style queueing);
* throughput ``X = min(compute-bound, concurrency-bound, line rate)``
  where the concurrency bound is Little's law over ``cores x threads``
  outstanding packets;
* region utilization is driven by ``X``, closing the loop.

This produces the paper's scale-out phenomenology (Figure 11): rising
throughput that plateaus at a memory- or IO-bound knee, latency that
keeps climbing with added cores, and workload-dependent knee positions
(cache-friendly "large flow" workloads peak at fewer cores).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.nic.isa import FunctionAsm, NICInstruction, NICProgram
from repro.nic.libnfp import api_cost, sw_checksum_cycles
from repro.nic.port import PortConfig
from repro.nic.regions import REGION_EMEM, REGION_EMEM_CACHE, REGION_LMEM
from repro.nic.targets import TargetDescription, resolve_target

# The accelerator latency table, per-packet path overheads, and the
# dispatch cost all moved into the active TargetDescription
# (repro.nic.targets) — NICModel reads them from ``self.target``.
# The dispatch cost is the work-distribution overhead that grows with
# the number of participating micro-engines: every active context
# polls the dispatch rings and arbitration takes longer the more
# contenders there are.  This is what makes per-packet latency keep
# climbing past the throughput knee (paper Figure 11(e): MazuNAT
# latency roughly triples from few cores to 60) and makes
# over-provisioning cores actively bad.


@dataclass
class WorkloadCharacter:
    """The workload facts the performance model needs.

    Produced by :mod:`repro.workload` from a traffic specification.
    """

    packet_bytes: int = 256
    #: probability an EMEM state access hits the SRAM cache.
    emem_cache_hit_rate: float = 0.5
    #: probability an LPM/flow-cache lookup hits the CAM.
    flow_cache_hit_rate: float = 0.85
    #: software cycles charged on a flow-cache miss (the original
    #: lookup loop); measured from the naive port by the harness.
    lpm_miss_penalty_cycles: float = 0.0
    name: str = "default"

    def __post_init__(self) -> None:
        if not 0.0 <= self.emem_cache_hit_rate <= 1.0:
            raise ValueError("emem_cache_hit_rate out of range")
        if not 0.0 <= self.flow_cache_hit_rate <= 1.0:
            raise ValueError("flow_cache_hit_rate out of range")


@dataclass
class PerfResult:
    throughput_mpps: float
    latency_us: float
    per_packet_cycles: float
    compute_cycles: float
    memory_cycles: float
    region_utilization: Dict[str, float] = field(default_factory=dict)
    bound: str = ""  # "compute" | "concurrency" | "line_rate"

    @property
    def tput_lat_ratio(self) -> float:
        """The Mpps/us ratio curve plotted in Figure 11(c)-(d)."""
        if self.latency_us <= 0:
            return 0.0
        return self.throughput_mpps / self.latency_us


@dataclass
class _Demand:
    """Per-packet resource demand extracted from a compiled program."""

    issue_cycles: float = 0.0
    #: region -> list of (size_bytes, count_per_packet)
    accesses: Dict[str, List[Tuple[int, float]]] = field(default_factory=dict)
    accel_cycles: float = 0.0

    def add_access(self, region: str, size: int, count: float) -> None:
        self.accesses.setdefault(region, []).append((size, count))

    def region_ops(self, region: str) -> float:
        return sum(count for _, count in self.accesses.get(region, ()))


class NICModel:
    """The simulated NIC as a queueing-style analytical machine."""

    def __init__(
        self, target: "str | TargetDescription | None" = None
    ) -> None:
        """A machine model for ``target`` (default ``nfp-4000``).  Every
        constant is copied from the target's description, the one
        place a NIC's hardware is declared."""
        desc = resolve_target(target)
        self.target = desc
        self.hierarchy = desc.hierarchy()
        self.n_cores = desc.n_cores
        self.threads_per_core = desc.threads_per_core
        self.freq_hz = desc.freq_hz
        self.line_rate_gbps = desc.line_rate_gbps
        self.dispatch_cycles_per_core = desc.dispatch_cycles_per_core

    # -- demand extraction ------------------------------------------------
    def _resolve_region(self, instr: NICInstruction, config: PortConfig) -> str:
        region = instr.region or REGION_EMEM
        if region.startswith("state:"):
            return config.region_of(region.split(":", 1)[1])
        return region

    def packet_demand(
        self,
        program: NICProgram,
        block_freq: Mapping[str, float],
        workload: WorkloadCharacter,
        function: str = "pkt_handler",
    ) -> _Demand:
        """Expected per-packet resource demand for one NF.

        ``block_freq`` maps block names to expected executions per
        packet (host-profile counts divided by packets).
        """
        config: PortConfig = program.meta.get("config") or PortConfig()
        fasm: FunctionAsm = program.functions[function]
        demand = _Demand()
        demand.issue_cycles += self.target.ingress_cycles + self.target.egress_cycles
        # Off-path devices round-trip every packet through the SoC
        # memory complex over PCIe; the DMA engine does the work, so
        # like accelerator time the hop adds latency (hidden by other
        # hardware threads) rather than pipeline-issue occupancy.
        demand.accel_cycles += self.target.host_dma_cycles
        # Header DMA into CTM transfer registers.
        demand.add_access("ctm", 64, 1.0)

        # Accelerator-substituted blocks execute once per *entry* into
        # the substituted region, not once per original loop iteration
        # — host-profiled frequencies describe the unsubstituted loop.
        # The entry frequency is approximated by the last preceding
        # unsubstituted block in layout order.
        substituted = (
            config.crc_accel_blocks
            | config.lpm_accel_blocks
            | config.crypto_accel_blocks
        )
        effective_freq: Dict[str, float] = {}
        last_normal_freq = 1.0
        for block in fasm.blocks:
            freq = float(block_freq.get(block.name, 0.0))
            if block.name in substituted:
                effective_freq[block.name] = min(freq, last_normal_freq)
            else:
                effective_freq[block.name] = freq
                if freq > 0.0:
                    last_normal_freq = freq

        for block in fasm.blocks:
            freq = effective_freq.get(block.name, 0.0)
            if freq <= 0.0:
                continue
            for instr in block.instructions:
                self._charge_instruction(instr, freq, demand, config, workload)
        return demand

    def _charge_instruction(
        self,
        instr: NICInstruction,
        freq: float,
        demand: _Demand,
        config: PortConfig,
        workload: WorkloadCharacter,
    ) -> None:
        demand.issue_cycles += freq * instr.issue_cycles
        if instr.is_memory:
            region = self._resolve_region(instr, config)
            if region == REGION_LMEM:
                return  # already charged via issue cycles (3-cycle op)
            if region == REGION_EMEM:
                hit = workload.emem_cache_hit_rate
                if hit > 0.0:
                    demand.add_access(REGION_EMEM_CACHE, instr.size, freq * hit)
                if hit < 1.0:
                    demand.add_access(REGION_EMEM, instr.size, freq * (1.0 - hit))
            else:
                demand.add_access(region, instr.size, freq)
            return
        if instr.opcode == "csum":
            demand.accel_cycles += freq * self.target.accel_latency("csum")
            return
        if instr.opcode == "crc":
            demand.accel_cycles += freq * (
                self.target.accel_latency("crc")
                + self.target.crc_byte_cycles * workload.packet_bytes
            )
            return
        if instr.opcode == "crypto":
            demand.accel_cycles += freq * (
                self.target.accel_latency("crypto")
                + self.target.crypto_byte_cycles * workload.packet_bytes
            )
            return
        if instr.opcode == "cam_lookup":
            hit = workload.flow_cache_hit_rate
            demand.accel_cycles += freq * self.target.accel_latency("cam_lookup")
            if hit < 1.0:
                # Misses fall back to the software match path.  Like the
                # memory stalls that path is made of, the penalty is
                # hidden by the engine's other hardware threads, so it
                # adds latency rather than pipeline-issue occupancy.
                demand.accel_cycles += (
                    freq * (1.0 - hit) * workload.lpm_miss_penalty_cycles
                )
            return
        if instr.opcode == "call":
            callee = instr.srcs[0] if instr.srcs else ""
            if callee == "sw_checksum":
                demand.issue_cycles += freq * sw_checksum_cycles(
                    workload.packet_bytes
                )
                return
            gname = instr.srcs[1] if len(instr.srcs) > 1 else ""
            cost = api_cost(callee)
            demand.issue_cycles += freq * cost.cycles
            for kind, size, count in cost.accesses:
                region = config.region_of(gname) if kind == "state" else kind
                if region == REGION_EMEM:
                    hit = workload.emem_cache_hit_rate
                    if hit > 0.0:
                        demand.add_access(
                            REGION_EMEM_CACHE, size, freq * count * hit
                        )
                    if hit < 1.0:
                        demand.add_access(
                            REGION_EMEM, size, freq * count * (1.0 - hit)
                        )
                else:
                    demand.add_access(region, size, freq * count)

    # -- the fixed point ---------------------------------------------------
    #: utilization above this level only adds queueing delay, never
    #: more throughput (hard ceiling applied to X).
    MAX_UTILIZATION = 0.95
    #: utilization cap inside the latency-inflation term (bounds the
    #: M/M/1 blow-up so the fixed point stays smooth and monotone).
    INFLATION_RHO_CAP = 0.85

    def _memory_cycles(
        self, demand: _Demand, utilization: Mapping[str, float]
    ) -> float:
        total = 0.0
        for region, ops in demand.accesses.items():
            latency = float(self.hierarchy.latency(region))
            rho = min(utilization.get(region, 0.0), self.INFLATION_RHO_CAP)
            inflation = 1.0 / (1.0 - rho)
            for _size, count in ops:
                total += count * latency * inflation
        return total

    def _bandwidth_ceiling(self, demand: _Demand) -> float:
        """Max packets/sec any single region's bandwidth allows."""
        ceiling = float("inf")
        for region in demand.accesses:
            ops = demand.region_ops(region)
            if ops <= 0:
                continue
            capacity = self.hierarchy.region(region).bandwidth_ops * self.freq_hz
            ceiling = min(ceiling, self.MAX_UTILIZATION * capacity / ops)
        return ceiling

    def _utilization(
        self, demands: List[Tuple[_Demand, float]]
    ) -> Dict[str, float]:
        """Region utilizations given (demand, throughput_pps) pairs."""
        util: Dict[str, float] = {}
        for demand, throughput in demands:
            for region in demand.accesses:
                ops_per_sec = demand.region_ops(region) * throughput
                capacity = (
                    self.hierarchy.region(region).bandwidth_ops * self.freq_hz
                )
                util[region] = util.get(region, 0.0) + ops_per_sec / capacity
        return util

    def line_rate_pps(self, packet_bytes: int) -> float:
        # 20 bytes of per-packet framing overhead on the wire.
        return self.line_rate_gbps * 1e9 / 8.0 / (packet_bytes + 20.0)

    def simulate(
        self,
        program: NICProgram,
        block_freq: Mapping[str, float],
        workload: WorkloadCharacter,
        cores: Optional[int] = None,
    ) -> PerfResult:
        """Throughput/latency for one NF using ``cores`` micro-engines."""
        config: PortConfig = program.meta.get("config") or PortConfig()
        n = min(cores if cores is not None else config.cores, self.n_cores)
        demand = self.packet_demand(program, block_freq, workload)
        line_rate = self.line_rate_pps(workload.packet_bytes)

        bw_ceiling = self._bandwidth_ceiling(demand)
        compute_bound = n * self.freq_hz / demand.issue_cycles
        hard_cap = min(compute_bound, line_rate, bw_ceiling)

        dispatch_cycles = self.dispatch_cycles_per_core * n

        def latency_at(x: float) -> float:
            util = self._utilization([(demand, x)])
            return (
                demand.issue_cycles
                + self._memory_cycles(demand, util)
                + demand.accel_cycles
                + dispatch_cycles
            )

        def excess(x: float) -> float:
            """x minus its concurrency-bound response; the unique fixed
            point is the root (T is nondecreasing in x, so this is
            strictly increasing)."""
            concurrency = n * self.threads_per_core * self.freq_hz / latency_at(x)
            return x - min(concurrency, hard_cap)

        lo, hi = 0.0, hard_cap
        if excess(hi) <= 0:
            throughput = hard_cap
        else:
            for _ in range(50):
                mid = 0.5 * (lo + hi)
                if excess(mid) > 0:
                    hi = mid
                else:
                    lo = mid
            throughput = 0.5 * (lo + hi)
        latency_cycles = latency_at(throughput)

        if throughput >= hard_cap * 0.999:
            if hard_cap == line_rate:
                bound = "line_rate"
            elif hard_cap == compute_bound:
                bound = "compute"
            else:
                bound = "bandwidth"
        else:
            bound = "concurrency"
        util = self._utilization([(demand, throughput)])
        return PerfResult(
            throughput_mpps=throughput / 1e6,
            latency_us=latency_cycles / self.freq_hz * 1e6,
            per_packet_cycles=latency_cycles,
            compute_cycles=demand.issue_cycles,
            memory_cycles=latency_cycles - demand.issue_cycles,
            region_utilization=util,
            bound=bound,
        )

    def sweep_cores(
        self,
        program: NICProgram,
        block_freq: Mapping[str, float],
        workload: WorkloadCharacter,
        core_range: Optional[List[int]] = None,
    ) -> Dict[int, PerfResult]:
        """Simulate at every core count (the expert's exhaustive sweep)."""
        cores = core_range or list(range(1, self.n_cores + 1))
        return {
            c: self.simulate(program, block_freq, workload, cores=c)
            for c in cores
        }

    @staticmethod
    def optimal_cores(results: Mapping[int, PerfResult]) -> int:
        """The knee: the smallest core count whose throughput/latency
        ratio is within 1% of the best (paper Section 4.2 navigates
        exactly this tradeoff; past saturation the ratio plateaus, and
        extra cores are wasted resources)."""
        best = max(r.tput_lat_ratio for r in results.values())
        return min(
            c for c, r in results.items()
            if r.tput_lat_ratio >= 0.99 * best
        )
