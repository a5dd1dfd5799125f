"""Traffic workloads (the paper's trafgen substitute).

A :class:`WorkloadSpec` describes traffic the way the paper's
methodology does ("a workload specification includes packet sizes, the
number of flows, and the IP address distribution", Section 5.1); the
generator turns it into a seeded synthetic trace of
:class:`~repro.click.packet.Packet` objects (streamed one packet at a
time by ``iter_trace``, or as a list by ``generate_trace``), and the
character module
derives the cache-behaviour summary the NIC performance model needs.
"""

from repro.workload.spec import (
    WorkloadSpec,
    LARGE_FLOWS,
    SMALL_FLOWS,
    STANDARD_WORKLOADS,
)
from repro.workload.trace import generate_trace, iter_trace
from repro.workload.character import characterize

__all__ = [
    "WorkloadSpec",
    "LARGE_FLOWS",
    "SMALL_FLOWS",
    "STANDARD_WORKLOADS",
    "generate_trace",
    "iter_trace",
    "characterize",
]
