"""Memory access coalescing (paper Section 4.4).

Clusters stateful scalars by their normalized per-block access vectors
(K-means), packs each cluster adjacently, and sets the coalesced access
size to the pack footprint.  The Section 5.8 "expert" sweeps relative
positions of the hottest variables instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.click.interp import ExecutionProfile
from repro.ml.kmeans import choose_k_by_cutoff
from repro.nfir.function import Module
from repro.nic.port import CoalescePack
from repro.obs import get_metrics, span

#: Largest coalesced access the NIC's DMA engines issue in one command.
MAX_PACK_BYTES = 64

#: Cluster-tightness cutoff on normalized access vectors (Section 5.8
#: mentions Clara's reliance on "some cutoff threshold"): members must
#: lie within this L2 distance of their cluster center.
CLUSTER_CUTOFF = 0.45


@dataclass
class CoalescingPlan:
    packs: List[CoalescePack]
    #: variable -> cluster id, for inspection/tests.
    clusters: Dict[str, int]

    @property
    def n_clusters(self) -> int:
        return len(self.packs)


class CoalescingAdvisor:
    """Clara's variable packing and access-size suggestions."""

    def __init__(self, max_clusters: int = 6, seed: int = 0) -> None:
        self.max_clusters = max_clusters
        self.seed = seed

    @staticmethod
    def _packable_globals(module: Module) -> List[str]:
        """Scalars are packable; aggregates have their own layout."""
        return [
            name
            for name, g in module.globals.items()
            if g.kind == "scalar"
        ]

    def access_vectors(
        self, module: Module, profile: ExecutionProfile
    ) -> Tuple[List[str], np.ndarray]:
        """Per-variable normalized block-access vectors (Section 4.4's
        ``[p_1..p_k]`` encoding)."""
        block_order = sorted(
            {block for (_g, block) in profile.global_block_access}
        )
        names = [
            name
            for name in self._packable_globals(module)
            if profile.access_frequency(name) > 0.0
        ]
        vectors = np.stack(
            [profile.access_vector(name, block_order) for name in names]
        ) if names else np.zeros((0, max(len(block_order), 1)))
        return names, vectors

    # -- uniform advisor protocol --------------------------------------
    def fit(self, *args, **kwargs) -> "CoalescingAdvisor":
        """Coalescing clusters per NF; there is nothing to learn."""
        return self

    def state_dict(self) -> Dict[str, object]:
        return {"max_clusters": self.max_clusters, "seed": self.seed}

    def load_state_dict(self, state: Dict[str, object]) -> "CoalescingAdvisor":
        self.max_clusters = int(state["max_clusters"])
        self.seed = int(state["seed"])
        return self

    def advise(self, prepared, profile: ExecutionProfile,
               workload=None) -> CoalescingPlan:
        """Uniform advisor entry point.  ``prepared`` may be a
        :class:`~repro.core.prepare.PreparedNF` or a bare lowered
        module (the historical calling convention)."""
        module: Module = getattr(prepared, "module", prepared)
        names, vectors = self.access_vectors(module, profile)
        if len(names) < 2:
            return CoalescingPlan(packs=[], clusters={})
        with span("kmeans_fit"):
            _k, model = choose_k_by_cutoff(
                vectors, k_max=self.max_clusters, cutoff=CLUSTER_CUTOFF,
                seed=self.seed,
            )
        get_metrics().histogram(
            "kmeans_iterations",
            buckets=(1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0),
        ).observe(float(model.n_iter_))
        labels = model.labels_
        clusters: Dict[str, int] = {n: int(l) for n, l in zip(names, labels)}
        packs: List[CoalescePack] = []
        for cluster_id in sorted(set(labels)):
            members = [n for n in names if clusters[n] == cluster_id]
            if len(members) < 2:
                continue  # singleton clusters gain nothing from packing
            size = sum(module.globals[m].size_bytes for m in members)
            if size > MAX_PACK_BYTES:
                # Split oversized clusters by access frequency order.
                members.sort(key=lambda m: -profile.access_frequency(m))
                current: List[str] = []
                current_size = 0
                for member in members:
                    member_size = module.globals[member].size_bytes
                    if current and current_size + member_size > MAX_PACK_BYTES:
                        if len(current) >= 2:
                            packs.append(
                                CoalescePack(tuple(current), current_size)
                            )
                        current, current_size = [], 0
                    current.append(member)
                    current_size += member_size
                if len(current) >= 2:
                    packs.append(CoalescePack(tuple(current), current_size))
            else:
                packs.append(CoalescePack(tuple(members), size))
        return CoalescingPlan(packs=packs, clusters=clusters)

    # -- expert emulation (Section 5.8) ---------------------------------
    @staticmethod
    def expert_search(
        module: Module,
        profile: ExecutionProfile,
        evaluate: Callable[[List[CoalescePack]], float],
        top_n: int = 6,
        max_partitions: int = 600,
    ) -> Tuple[List[CoalescePack], float]:
        """Sweep groupings of the most frequently accessed variables
        ("we identify variables that are used in the top-3 most
        frequently triggered code blocks, pack such variables together,
        and try all possible positions").  ``evaluate`` is minimized.
        """
        names = [
            name
            for name, g in module.globals.items()
            if g.kind == "scalar" and profile.access_frequency(name) > 0.0
        ]
        names.sort(key=lambda n: -profile.access_frequency(n))
        names = names[:top_n]
        best: Tuple[List[CoalescePack], float] = ([], evaluate([]))
        tried = 0
        for partition in _partitions(names):
            tried += 1
            if tried > max_partitions:
                break
            packs = []
            feasible = True
            for group in partition:
                if len(group) < 2:
                    continue
                size = sum(module.globals[m].size_bytes for m in group)
                if size > MAX_PACK_BYTES:
                    feasible = False
                    break
                packs.append(CoalescePack(tuple(group), size))
            if not feasible or not packs:
                continue
            score = evaluate(packs)
            if score < best[1]:
                best = (packs, score)
        return best


def _partitions(items: Sequence[str]):
    """All set partitions of ``items`` (Bell-number growth; callers
    bound the item count)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _partitions(rest):
        # Put `first` in its own group...
        yield [[first]] + partition
        # ...or into each existing group.
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1 :]
