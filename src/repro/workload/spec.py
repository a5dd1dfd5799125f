"""Workload specifications."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import InvalidWorkloadError


@dataclass(frozen=True)
class WorkloadSpec:
    """A traffic profile (paper Section 5.1 methodology).

    * ``n_flows`` — concurrent 5-tuple flows.  "Large flows" means few
      concurrent flows each carrying many packets (cache friendly);
      "small flows" means many short flows (cache hostile) — the two
      regimes of Figure 11(c)/(d).
    * ``packet_bytes`` — on-wire packet size (fixed per spec; mixes are
      modelled by running multiple specs).
    * ``zipf_alpha`` — skew of flow popularity (0 = uniform).
    * ``syn_fraction`` — fraction of TCP packets that are SYNs (drives
      flow-setup paths in stateful NFs).
    * ``udp_fraction`` — fraction of packets that are UDP.
    * ``payload_bytes`` — payload length (drives DPI/checksum loops).
    """

    name: str = "default"
    n_flows: int = 1000
    packet_bytes: int = 256
    zipf_alpha: float = 1.0
    syn_fraction: float = 0.05
    udp_fraction: float = 0.0
    payload_bytes: int = 128
    n_packets: int = 2000

    def __post_init__(self) -> None:
        if self.n_flows < 1:
            raise InvalidWorkloadError("n_flows must be >= 1")
        if not 0.0 <= self.syn_fraction <= 1.0:
            raise InvalidWorkloadError("syn_fraction out of range")
        if not 0.0 <= self.udp_fraction <= 1.0:
            raise InvalidWorkloadError("udp_fraction out of range")
        if self.packet_bytes < 64:
            raise InvalidWorkloadError("packet_bytes must be >= 64")
        if self.payload_bytes < 0:
            raise InvalidWorkloadError("payload_bytes must be >= 0")
        if self.n_packets < 1:
            raise InvalidWorkloadError("n_packets must be >= 1")


#: Few long-lived flows: state fits in caches, compute-bound NICs.
LARGE_FLOWS = WorkloadSpec(
    name="large_flows",
    n_flows=64,
    packet_bytes=256,
    zipf_alpha=1.1,
    syn_fraction=0.01,
    payload_bytes=128,
)

#: Many short flows: constant cache misses, memory-bound NICs.
SMALL_FLOWS = WorkloadSpec(
    name="small_flows",
    n_flows=200_000,
    packet_bytes=256,
    zipf_alpha=0.6,
    syn_fraction=0.30,
    payload_bytes=128,
)

STANDARD_WORKLOADS: Tuple[WorkloadSpec, ...] = (LARGE_FLOWS, SMALL_FLOWS)
