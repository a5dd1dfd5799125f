"""Multicore scale-out factor analysis (paper Section 4.2).

TVM-style: synthesize training programs covering a range of arithmetic
intensities, measure them on the (simulated) NIC at every core count
under different workloads, and train a GBDT cost model that predicts
the optimal core count for a new (NF, workload) pair from statically
predictable features.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.click.elements import all_elements
from repro.click.interp import ExecutionProfile
from repro.core.prepare import PreparedNF
from repro.errors import NotTrainedError
from repro.ml.gbdt import GBDTRegressor
from repro.nic.compiler import compile_module
from repro.nic.machine import NICModel, WorkloadCharacter
from repro.nic.port import PortConfig
from repro.synthesis.stats import extract_stats
from repro.workload import STANDARD_WORKLOADS
from repro.workload.spec import WorkloadSpec


def scaleout_features(
    prepared: PreparedNF,
    block_compute: Mapping[str, float],
    profile: ExecutionProfile,
    workload: WorkloadCharacter,
    nic: NICModel,
) -> np.ndarray:
    """Feature vector for the cost model.

    Built only from what Clara has *before* porting: per-block compute
    counts (LSTM-predicted for a new NF, measured for training
    programs), host-profiled block frequencies, counted stateful
    accesses, and the workload character.  The estimates are grounded
    in ``nic``'s target constants (clock, threads, line rate, memory
    latencies), so NFP and DPU models see different feature scales.
    """
    packets = max(profile.packets, 1)
    compute_per_pkt = 0.0
    stateful_per_pkt = 0.0
    packet_mem_per_pkt = 0.0
    for block in prepared.blocks:
        freq = profile.block_counts.get(block.name, 0) / packets
        compute_per_pkt += freq * float(block_compute.get(block.name, 0.0))
        stateful_per_pkt += freq * block.n_mem_stateful
        packet_mem_per_pkt += freq * block.n_mem_packet
    api_per_pkt = sum(profile.api_counts.values()) / packets

    # API costs come from the reverse-ported profiles (Section 3.3):
    # this is what makes software checksums (2000+ cycles behind a
    # single call instruction) visible to the cost model.
    from repro.nic.libnfp import api_cost, sw_checksum_cycles

    api_issue = 0.0
    api_accesses = 0.0
    for api, count in profile.api_counts.items():
        per_pkt = count / packets
        if api.startswith("checksum_update"):
            api_issue += per_pkt * sw_checksum_cycles(workload.packet_bytes)
            continue
        cost = api_cost(api)
        api_issue += per_pkt * cost.cycles
        api_accesses += per_pkt * sum(c for _k, _s, c in cost.accesses)

    from repro.nic.regions import REGION_EMEM, REGION_EMEM_CACHE

    intensity = compute_per_pkt / max(stateful_per_pkt + api_accesses, 0.25)
    hit = workload.emem_cache_hit_rate
    emem_latency = (
        hit * float(nic.hierarchy.latency(REGION_EMEM_CACHE))
        + (1.0 - hit) * float(nic.hierarchy.latency(REGION_EMEM))
    )
    issue_est = (
        nic.target.ingress_cycles + nic.target.egress_cycles
        + compute_per_pkt + packet_mem_per_pkt + api_issue
    )
    mem_est = (
        (stateful_per_pkt + api_accesses) * emem_latency
        + nic.target.host_dma_cycles
    )
    # Little's-law knee estimates: cores for the concurrency bound to
    # reach line rate, and for the single-issue compute bound to do so.
    line_rate_pps = nic.line_rate_pps(workload.packet_bytes)
    n_concurrency = line_rate_pps * (issue_est + mem_est) / (
        float(nic.threads_per_core) * nic.freq_hz
    )
    n_compute = line_rate_pps * issue_est / nic.freq_hz
    est_cores = max(n_concurrency, n_compute)
    return np.array(
        [
            compute_per_pkt,
            stateful_per_pkt + api_accesses,
            packet_mem_per_pkt,
            api_per_pkt,
            intensity,
            workload.emem_cache_hit_rate,
            float(workload.packet_bytes),
            issue_est,
            mem_est,
            est_cores,
        ]
    )


@dataclass
class ScaleoutSample:
    features: np.ndarray
    optimal_cores: int
    program_name: str
    workload_name: str


class ScaleoutAdvisor:
    """GBDT regression from NF/workload features to the best core count."""

    def __init__(
        self,
        nic: NICModel,
        seed: int = 0,
        model: Optional[object] = None,
    ) -> None:
        self.nic = nic
        self.seed = seed
        self.model = model or GBDTRegressor(
            n_rounds=120, max_depth=4, learning_rate=0.1, seed=seed
        )
        self.samples: List[ScaleoutSample] = []

    # -- training-set construction -------------------------------------
    def measure_optimal(
        self,
        prepared: PreparedNF,
        profile: ExecutionProfile,
        workload: WorkloadCharacter,
        config: Optional[PortConfig] = None,
    ) -> int:
        """Ground truth: exhaustive core sweep on the NIC."""
        program = compile_module(
            prepared.module, config or PortConfig(), target=self.nic.target
        )
        packets = max(profile.packets, 1)
        freq = {b: c / packets for b, c in profile.block_counts.items()}
        sweep = self.nic.sweep_cores(program, freq, workload)
        return self.nic.optimal_cores(sweep)

    def build_training_set(
        self,
        n_programs: int = 40,
        workloads: Sequence[WorkloadSpec] = STANDARD_WORKLOADS,
        trace_packets: int = 400,
        seed: Optional[int] = None,
        workers: int = 1,
    ) -> List[ScaleoutSample]:
        """Synthesize programs spanning arithmetic intensities, deploy
        each on the simulated NIC under each workload, and record the
        measured optimum (the paper's automated training pipeline).

        Per-program work — generation, compilation, trace profiling,
        the exhaustive core sweep — fans out over ``workers``
        processes; per-program child seeding keeps the sample list
        identical for every worker count.
        """
        from repro.core.parallel import build_scaleout_samples

        seed = self.seed if seed is None else seed
        stats = extract_stats(all_elements())
        self.samples = build_scaleout_samples(
            stats,
            self.nic,
            n_programs=n_programs,
            workloads=workloads,
            trace_packets=trace_packets,
            seed=seed,
            workers=workers,
        )
        return self.samples

    def fit(self, samples: Optional[List[ScaleoutSample]] = None) -> "ScaleoutAdvisor":
        samples = samples if samples is not None else self.samples
        if not samples:
            raise NotTrainedError(
                "no training samples; call build_training_set"
            )
        X = np.stack([s.features for s in samples])
        y = np.array([float(s.optimal_cores) for s in samples])
        self.model.fit(X, y)
        return self

    def predict_cores(
        self,
        prepared: PreparedNF,
        block_compute: Mapping[str, float],
        profile: ExecutionProfile,
        workload: WorkloadCharacter,
        max_cores: Optional[int] = None,
    ) -> int:
        if max_cores is None:
            max_cores = self.nic.n_cores
        features = scaleout_features(
            prepared, block_compute, profile, workload, self.nic
        )
        raw = float(self.model.predict(features[None, :])[0])
        return int(np.clip(round(raw), 1, max_cores))

    # -- uniform advisor protocol --------------------------------------
    def advise(
        self,
        prepared: PreparedNF,
        profile: ExecutionProfile,
        workload: WorkloadCharacter,
        block_compute: Optional[Mapping[str, float]] = None,
        max_cores: Optional[int] = None,
    ) -> int:
        """Uniform advisor entry point.  ``block_compute`` is the
        LSTM-predicted per-block compute for an unported NF; when
        omitted, ground truth is taken from a compile of the module
        (the training-program path)."""
        if block_compute is None:
            program = compile_module(
                prepared.module, PortConfig(), target=self.nic.target
            )
            block_compute = {
                b.name: float(b.n_compute) for b in program.handler.blocks
            }
        return self.predict_cores(prepared, block_compute, profile, workload,
                                  max_cores=max_cores)

    def state_dict(self) -> dict:
        return {
            "seed": self.seed,
            "model": self.model,
            "samples": self.samples,
        }

    def load_state_dict(self, state: dict) -> "ScaleoutAdvisor":
        self.seed = int(state["seed"])
        self.model = state["model"]
        self.samples = list(state.get("samples", ()))
        return self
