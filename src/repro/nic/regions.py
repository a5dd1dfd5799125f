"""The SmartNIC memory hierarchy (paper Section 4.3).

Netronome NFPs expose cluster local scratch (CLS), cluster target
memory (CTM), internal SRAM (IMEM), and external DRAM (EMEM) "with
increasing sizes and access latencies"; EMEM fronted by an SRAM cache.
Constants below follow the publicly documented NFP-4000/6000 ballpark
(tens to hundreds of cycles; a few KB to GB) — exact values matter less
than the ordering and the ~10x spread, which is what drives the
placement ILP's decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List

REGION_CLS = "cls"
REGION_CTM = "ctm"
REGION_IMEM = "imem"
REGION_EMEM = "emem"
#: Pseudo-region for EMEM accesses that hit its SRAM cache.
REGION_EMEM_CACHE = "emem_cache"
#: Per-micro-engine local scratch used for register spills.
REGION_LMEM = "lmem"

PLACEABLE_REGIONS = (REGION_CLS, REGION_CTM, REGION_IMEM, REGION_EMEM)


@dataclass(frozen=True)
class MemRegion:
    """One level of the hierarchy.

    ``bandwidth_ops`` is the aggregate sustained rate in accesses per
    cycle across the whole NIC — the shared resource that saturates
    under multicore scale-out (Section 4.2: "throughput would plateau
    due to contention at the memory subsystem").
    """

    name: str
    capacity_bytes: int
    latency_cycles: int
    bandwidth_ops: float

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0 or self.latency_cycles <= 0:
            raise ValueError(f"bad region constants for {self.name}")
        if self.bandwidth_ops <= 0:
            raise ValueError(f"bad bandwidth for {self.name}")


@dataclass
class MemoryHierarchy:
    regions: Dict[str, MemRegion]

    @property
    def placeable(self) -> List[MemRegion]:
        """Regions NF state may be placed into, fastest first."""
        return [self.regions[name] for name in PLACEABLE_REGIONS]

    def region(self, name: str) -> MemRegion:
        return self.regions[name]

    def latency(self, name: str) -> int:
        return self.regions[name].latency_cycles

    def scaled(self, name: str, **changes) -> "MemoryHierarchy":
        """A copy with one region's constants overridden (for ablations)."""
        regions = dict(self.regions)
        regions[name] = replace(regions[name], **changes)
        return MemoryHierarchy(regions)
