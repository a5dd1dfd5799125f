"""Deriving the NIC-model workload character from a spec.

The cache behaviour of NF state under a traffic profile determines
where scale-out knees fall (paper Section 5.4: "For larger flow sizes,
the performance peaks earlier ... packets mostly produce cache hits").
We model both the EMEM SRAM cache and the LPM flow cache as LRU-like
caches over Zipf-popular flows: the hit rate of a cache holding the
hottest ``k`` of ``n`` flows is the share of traffic those flows carry,
``H_alpha(k)/H_alpha(n)`` (generalized harmonic numbers).
"""

from __future__ import annotations

import numpy as np

from repro.nic.machine import WorkloadCharacter
from repro.nic.regions import MemoryHierarchy, REGION_EMEM_CACHE
from repro.workload.spec import WorkloadSpec


def _harmonic(n: int, alpha: float) -> float:
    ranks = np.arange(1, max(n, 1) + 1, dtype=float)
    if alpha <= 0.0:
        return float(n)
    return float(np.sum(ranks ** (-alpha)))


def zipf_hit_rate(cache_entries: int, n_flows: int, alpha: float) -> float:
    """Traffic share captured by caching the hottest entries."""
    if n_flows <= 0:
        return 1.0
    k = min(cache_entries, n_flows)
    if k <= 0:
        return 0.0
    return min(1.0, _harmonic(k, alpha) / _harmonic(n_flows, alpha))


def characterize(
    spec: WorkloadSpec,
    hierarchy: MemoryHierarchy,
    state_entry_bytes: int = 128,
    flow_cache_entries: int = 8192,
) -> WorkloadCharacter:
    """Build the performance-model character for a workload on a
    target's memory ``hierarchy``.

    ``state_entry_bytes`` is the per-flow footprint of the NF's state
    (flow-table entry size); the hierarchy's EMEM cache holds
    ``cache_capacity / entry_bytes`` hot entries.
    """
    cache_capacity = hierarchy.region(REGION_EMEM_CACHE).capacity_bytes
    cache_entries = max(1, cache_capacity // max(state_entry_bytes, 1))
    emem_hit = zipf_hit_rate(cache_entries, spec.n_flows, spec.zipf_alpha)
    flow_hit = zipf_hit_rate(flow_cache_entries, spec.n_flows, spec.zipf_alpha)
    return WorkloadCharacter(
        packet_bytes=spec.packet_bytes,
        emem_cache_hit_rate=emem_hit,
        flow_cache_hit_rate=flow_hit,
        name=spec.name,
    )
