"""NF colocation analysis (paper Section 4.5).

Pairwise LambdaMART ranking of colocation candidates.  Features follow
the paper: "a) arithmetic intensity of each NF, b) the number of
compute instructions for each NF, and c) the ratio between colocated
NFs' arithmetic intensities."  Four training objectives are supported
(total/average x throughput/latency loss); the paper finds total
throughput loss works best (Figure 14a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.click.elements import all_elements
from repro.click.interp import Interpreter
from repro.core.prepare import PreparedNF, prepare_element
from repro.ml.ranking import LambdaRanker
from repro.nic.colocation import ColocationResult, simulate_colocation
from repro.nic.compiler import compile_module
from repro.nic.isa import NICProgram
from repro.nic.machine import NICModel, WorkloadCharacter
from repro.nic.port import PortConfig
from repro.synthesis.generator import ClickGen
from repro.synthesis.stats import extract_stats
from repro.workload import characterize, generate_trace
from repro.workload.spec import WorkloadSpec

OBJECTIVES = (
    "total_throughput_loss",
    "average_throughput_loss",
    "total_latency_loss",
    "average_latency_loss",
)

#: version of :func:`ranking_to_dict`'s layout (documented in
#: docs/API.md; bump on incompatible changes).
COLOCATION_RANKING_SCHEMA = 1


def ranking_to_dict(
    pairs: Sequence[Tuple["NFCandidate", "NFCandidate"]],
) -> Dict[str, object]:
    """The stable JSON layout for a friendliest-first colocation
    ranking (the output of :meth:`Clara.rank_colocations`)."""
    return {
        "schema": COLOCATION_RANKING_SCHEMA,
        "kind": "colocation_ranking",
        "pairs": [
            {"rank": rank, "a": a.to_dict(), "b": b.to_dict()}
            for rank, (a, b) in enumerate(pairs)
        ],
    }


@dataclass
class NFCandidate:
    """One NF ready for colocation analysis.

    ``memory_per_pkt`` counts accesses to *shared state* regions (the
    contended DRAM path); packet-buffer (CTM) traffic is tracked
    separately because its bandwidth headroom is far larger.
    """

    name: str
    program: NICProgram
    block_freq: Dict[str, float]
    compute_per_pkt: float
    memory_per_pkt: float
    ctm_per_pkt: float = 0.0

    @property
    def arithmetic_intensity(self) -> float:
        return self.compute_per_pkt / max(self.memory_per_pkt, 0.25)

    def est_solo_pps(self, nic: NICModel, packet_bytes: int = 256) -> float:
        """First-order solo throughput on ``nic``: line rate vs. the
        compute bound of half its cores, the share
        :func:`~repro.nic.colocation.simulate_colocation` gives each NF."""
        compute_bound = (
            (nic.n_cores // 2) * nic.freq_hz / max(self.compute_per_pkt, 1.0)
        )
        return min(nic.line_rate_pps(packet_bytes), compute_bound)

    def est_state_rate(self, nic: NICModel) -> float:
        """Offered load on ``nic``'s shared state memory (accesses/sec)
        — the quantity whose pairwise sum drives interference."""
        return self.est_solo_pps(nic) * self.memory_per_pkt

    def to_dict(self) -> Dict[str, object]:
        """Stable JSON summary (the compiled program is omitted)."""
        return {
            "name": self.name,
            "compute_per_pkt": round(self.compute_per_pkt, 6),
            "memory_per_pkt": round(self.memory_per_pkt, 6),
            "ctm_per_pkt": round(self.ctm_per_pkt, 6),
            "arithmetic_intensity": round(self.arithmetic_intensity, 6),
        }


def make_candidate(
    prepared: PreparedNF,
    profile,
    nic: NICModel,
    config: Optional[PortConfig] = None,
) -> NFCandidate:
    """``prepared``'s colocation profile, compiled for ``nic``'s target."""
    program = compile_module(
        prepared.module, config or PortConfig(), target=nic.target
    )
    packets = max(profile.packets, 1)
    freq = {b: c / packets for b, c in profile.block_counts.items()}
    compute = 0.0
    memory = 0.0
    ctm = 0.0
    block_asm = {b.name: b for b in program.handler.blocks}
    for name, f in freq.items():
        asm = block_asm.get(name)
        if asm is None:
            continue
        compute += f * asm.n_compute
        for instr in asm.memory_accesses():
            region = instr.region or ""
            if region.startswith("state:"):
                memory += f
            else:
                ctm += f
    # Framework APIs hide most of a stateful NF's memory traffic behind
    # single call instructions; price them via the reverse-ported
    # profiles (the same fix the scale-out features need).
    from repro.nic.libnfp import api_cost, sw_checksum_cycles

    for api, count in profile.api_counts.items():
        per_pkt = count / packets
        if api.startswith("checksum_update"):
            compute += per_pkt * sw_checksum_cycles(256)
            continue
        cost = api_cost(api)
        compute += per_pkt * cost.cycles
        for kind, _size, c in cost.accesses:
            if kind == "state":
                memory += per_pkt * c
            else:
                ctm += per_pkt * c
    return NFCandidate(prepared.name, program, freq, compute, memory, ctm)


def pair_features(
    a: NFCandidate, b: NFCandidate, nic: NICModel
) -> np.ndarray:
    """Section 4.5's feature set, symmetrized.

    Beyond the paper's three (per-NF arithmetic intensity, compute
    counts, intensity ratio) we add each NF's *memory rate* on ``nic``
    — memory accesses per second, the offered load a compute-bound NF
    actually puts on the shared memory subsystem — whose pairwise sum
    is the direct physical driver of interference.
    """
    ai_a, ai_b = a.arithmetic_intensity, b.arithmetic_intensity
    lo, hi = min(ai_a, ai_b), max(ai_a, ai_b)
    rate_a = a.est_state_rate(nic) / 1e6
    rate_b = b.est_state_rate(nic) / 1e6
    return np.array(
        [
            lo,
            hi,
            min(a.compute_per_pkt, b.compute_per_pkt),
            max(a.compute_per_pkt, b.compute_per_pkt),
            min(a.memory_per_pkt, b.memory_per_pkt),
            max(a.memory_per_pkt, b.memory_per_pkt),
            lo / max(hi, 1e-6),  # intensity ratio
            min(rate_a, rate_b),
            max(rate_a, rate_b),
            rate_a + rate_b,  # joint offered state-memory load (M/s)
        ]
    )


class ColocationAdvisor:
    def __init__(
        self,
        nic: NICModel,
        objective: str = "total_throughput_loss",
        seed: int = 0,
    ) -> None:
        if objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {objective!r}")
        self.nic = nic
        self.objective = objective
        self.seed = seed
        self.ranker = LambdaRanker(n_rounds=50, max_depth=3, seed=seed)

    # -- measurement ------------------------------------------------------
    def measure_pair(
        self,
        a: NFCandidate,
        b: NFCandidate,
        workload: WorkloadCharacter,
    ) -> ColocationResult:
        return simulate_colocation(
            self.nic, a.program, a.block_freq, b.program, b.block_freq, workload
        )

    def pair_loss(self, result: ColocationResult) -> float:
        return float(getattr(result, self.objective))

    # -- training ----------------------------------------------------------
    @staticmethod
    def _grid_element(name: str, compute_reps: int, mem_reps: int,
                      ctm_reps: int = 0):
        """A parametric NF with independently dialed compute weight
        (software checksum passes + arithmetic) and stateful-memory
        weight (counter-array updates).  The grid decorrelates compute
        from memory so the ranker learns the *rate* interaction rather
        than a pool-specific proxy."""
        from repro.click import ast as C
        from repro.click.ast import ElementDef
        from repro.click.elements._dsl import (
            array_state,
            assign,
            decl,
            fcall,
            fld,
            idx,
            pkt,
            v,
        )

        handler = [
            decl("ip", "ip_hdr*", pkt("ip_header")),
            decl("acc", "u32", fld(v("ip"), "src_addr")),
        ]
        for c in range(compute_reps):
            handler.append(fcall("checksum_update_ip", v("ip")).as_stmt())
            handler.append(
                assign(v("acc"), (v("acc") * 0x9E3779B1) ^ (v("acc") >> (c + 3)))
            )
        state = []
        for m in range(mem_reps):
            state.append(array_state(f"ctr{m}", "u32", 4096))
            handler.append(
                assign(
                    idx(v(f"ctr{m}"), v("acc") % 4096),
                    idx(v(f"ctr{m}"), v("acc") % 4096) + 1,
                )
            )
        for c in range(ctm_reps):
            # Payload-buffer traffic (CTM), dnsproxy-style parsing.
            handler.append(
                assign(
                    v("acc"),
                    v("acc")
                    ^ C.CallExpr(
                        "payload_byte", [C.IntLit(c)], receiver=v("pkt")
                    ),
                )
            )
        handler.append(pkt("send", 0).as_stmt())
        return ElementDef(name=name, state=state, handler=handler)

    def build_candidate_pool(
        self,
        n_programs: int = 24,
        spec: Optional[WorkloadSpec] = None,
        seed: Optional[int] = None,
    ) -> Tuple[List[NFCandidate], WorkloadCharacter]:
        """Synthesize a pool of NFs with host profiles (the paper
        randomly selects training NFs to colocate).

        The default workload is cache-hostile (many short flows):
        colocation interference "primarily stems from contention at the
        memory subsystems", so a pool that never touches DRAM would
        make every pair trivially friendly.  Candidates are generated
        in excess and subsampled to span the arithmetic-intensity
        range.
        """
        seed = self.seed if seed is None else seed
        spec = spec or WorkloadSpec(
            name="coloc_train",
            n_flows=300_000,
            zipf_alpha=0.4,
            n_packets=300,
        )
        stats = extract_stats(all_elements())
        gen = ClickGen(stats, seed=seed)
        trace = generate_trace(spec, seed=seed)
        raw: List[NFCandidate] = []
        for element in gen.elements(n_programs * 2, prefix="coloc"):
            prepared = prepare_element(element)
            interp = Interpreter(prepared.module, seed=seed)
            profile = interp.run_trace(trace)
            raw.append(make_candidate(prepared, profile, self.nic))
        # Keep a memory-per-packet spread: the heaviest half plus an
        # even subsample of the rest.
        raw.sort(key=lambda c: -c.memory_per_pkt)
        heavy = raw[: n_programs // 2]
        rest = raw[n_programs // 2 :]
        step = max(1, len(rest) // max(n_programs - len(heavy), 1))
        pool = heavy + rest[::step][: n_programs - len(heavy)]
        # Parametric compute x memory x packet-buffer grid
        # (decorrelated coverage over the interference drivers).
        for compute_reps in (0, 1, 3):
            for mem_reps in (0, 2, 6, 12):
                for ctm_reps in (0, 24):
                    element = self._grid_element(
                        f"grid_c{compute_reps}m{mem_reps}p{ctm_reps}",
                        compute_reps, mem_reps, ctm_reps,
                    )
                    prepared = prepare_element(element)
                    interp = Interpreter(prepared.module, seed=seed)
                    profile = interp.run_trace(trace)
                    pool.append(make_candidate(prepared, profile, self.nic))
        return pool, characterize(spec, self.nic.hierarchy)

    def fit(
        self,
        pool: Sequence[NFCandidate],
        workload: WorkloadCharacter,
        n_groups: int = 40,
        group_size: int = 5,
        seed: Optional[int] = None,
    ) -> "ColocationAdvisor":
        """Sample groups of candidate pairs and learn to rank them by
        measured colocation friendliness."""
        seed = self.seed if seed is None else seed
        rng = np.random.default_rng(seed)
        X: List[np.ndarray] = []
        relevance: List[float] = []
        query_ids: List[int] = []
        for query in range(n_groups):
            losses: List[float] = []
            feats: List[np.ndarray] = []
            for _ in range(group_size):
                i, j = rng.choice(len(pool), size=2, replace=False)
                result = self.measure_pair(pool[i], pool[j], workload)
                losses.append(self.pair_loss(result))
                feats.append(pair_features(pool[i], pool[j], self.nic))
            # Lower loss -> higher relevance (dense ranks).
            order = np.argsort(np.argsort(losses))
            rel = (len(losses) - 1 - order).astype(float)
            X.extend(feats)
            relevance.extend(rel.tolist())
            query_ids.extend([query] * len(feats))
        self.ranker.fit(np.stack(X), np.asarray(relevance), np.asarray(query_ids))
        return self

    # -- uniform advisor protocol ---------------------------------------
    def advise(
        self,
        prepared: PreparedNF,
        profile,
        workload: Optional[WorkloadCharacter] = None,
    ) -> NFCandidate:
        """Uniform advisor entry point: the per-NF colocation profile
        (an :class:`NFCandidate`) ready for :meth:`rank_pairs`."""
        return make_candidate(prepared, profile, self.nic)

    def state_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "objective": self.objective,
            "ranker": self.ranker,
        }

    def load_state_dict(self, state: Dict[str, object]) -> "ColocationAdvisor":
        objective = str(state["objective"])
        if objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {objective!r}")
        self.seed = int(state["seed"])
        self.objective = objective
        self.ranker = state["ranker"]
        return self

    # -- inference -----------------------------------------------------------
    def rank_pairs(
        self, pairs: Sequence[Tuple[NFCandidate, NFCandidate]]
    ) -> List[int]:
        """Indices of ``pairs`` ordered friendliest-first."""
        X = np.stack([pair_features(a, b, self.nic) for a, b in pairs])
        return list(self.ranker.rank(X))


def ranking_accuracy(
    losses_per_query: Sequence[Sequence[float]],
    rankings: Sequence[Sequence[int]],
    k: int,
    tolerance: float = 0.01,
) -> float:
    """Tie-aware top-k accuracy: a query counts as a hit when any of
    the predicted top-k pairs has a measured loss within ``tolerance``
    of that query's minimum.  (Many candidate pairs are exactly
    equally friendly — e.g. zero loss — and suggesting any of them is
    suggesting "the best strategy".)"""
    hits = 0
    total = 0
    for losses, ranking in zip(losses_per_query, rankings):
        losses = list(losses)
        best = min(losses)
        total += 1
        if min(losses[i] for i in list(ranking)[:k]) <= best + tolerance:
            hits += 1
    return hits / total if total else 0.0
