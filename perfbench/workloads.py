"""The benchmark's seeded analyze-traffic mixes.

Every request is one library NF analysed under one of the two standard
traffic shapes of ``repro.workload.spec`` (``large_flows``: 64 flows,
``small_flows``: 200 000 flows) with ``n_packets`` overridden.  The
shapes are copied here, not imported, so that the benchmark's inputs
are fixed by the benchmark; ``test_perfbench`` checks that they still
match the program's definitions.

Request streams are drawn in *rounds* of one request per NF, and the
timed phase ends on a round boundary, so every run carries the
workload's intended mix exactly.  That keeps throughput and the
percentiles of bimodal mixes from depending on a lucky draw.  See
``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

#: ``repro.workload.spec.LARGE_FLOWS`` and ``SMALL_FLOWS``, minus
#: ``n_packets``, which every workload sets itself.
SHAPES: Dict[str, Dict[str, object]] = {
    "large_flows": {
        "name": "large_flows", "n_flows": 64, "packet_bytes": 256,
        "zipf_alpha": 1.1, "syn_fraction": 0.01, "udp_fraction": 0.0,
        "payload_bytes": 128,
    },
    "small_flows": {
        "name": "small_flows", "n_flows": 200_000, "packet_bytes": 256,
        "zipf_alpha": 0.6, "syn_fraction": 0.30, "udp_fraction": 0.0,
        "payload_bytes": 128,
    },
}

#: Library NFs whose 60-packet analysis stays under ~0.1 s: every NF
#: except cmsketch, dpi, ipclassifier and wepdecap.  dpi and wepdecap
#: are in no workload: their payload loops cost 28 ms and 65 ms per
#: packet in the interpreter.
FAST_NFS: Tuple[str, ...] = (
    "aggcounter", "anonipaddr", "dnsproxy", "firewall", "forcetcp",
    "heavyhitter", "iplookup", "iprewriter", "loadbalancer", "mazunat",
    "mininat", "ratelimiter", "tcpack", "tcpgen", "tcpresp",
    "timefilter", "udpcount", "udpipencap", "webgen", "webtcp",
)

#: Lint-heavy mix: ipclassifier (326 IR blocks) and cmsketch (60
#: blocks) against three small NFs, one request in five each.
LARGE_NFS: Tuple[str, ...] = (
    "ipclassifier", "cmsketch", "dnsproxy", "firewall", "tcpgen",
)


@dataclass(frozen=True, order=True)
class Request:
    """One analyze request; equal requests must get equal results."""

    nf: str
    shape: str
    n_packets: int
    trace_seed: int

    def wire(self) -> Dict[str, object]:
        """The ``analyze_request`` body the daemon parses.  It leaves
        out the optional ``schema`` and ``kind`` header fields, so a
        later wire-schema bump does not change the benchmark's input."""
        workload = dict(SHAPES[self.shape])
        workload["n_packets"] = self.n_packets
        return {
            "element": self.nf,
            "workload": workload,
            "trace_seed": self.trace_seed,
        }


@dataclass(frozen=True)
class Workload:
    """A traffic mix driven by ``clients`` closed-loop clients."""

    name: str
    clients: int
    nfs: Tuple[str, ...]
    n_packets: int
    #: a fresh ``trace_seed`` per request (nothing repeats) instead of
    #: one seed-derived ``trace_seed`` for the whole run.
    fresh_traces: bool


#: ``BENCHMARK.json`` lists the first two.  ``serve_large_nf`` runs by
#: name only: three workloads at the ~100 requests per run that a
#: steady p90 needs do not fit the time budget of a full set of runs.
WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("serve_short_trace", 1, FAST_NFS, 60, False),
        Workload("serve_long_trace", 2, FAST_NFS, 2000, True),
        Workload("serve_large_nf", 1, LARGE_NFS, 20, False),
    )
}

#: The fixed small request every set-up start waits for, identical in
#: every workload so ``setup_s`` measures the same thing everywhere.
SETUP_REQUEST = Request("udpcount", "large_flows", 20, 0)

#: Warm-up traces are short: warming needs each NF's lazy paths and its
#: block predictions in the cache, not a long trace.
WARMUP_PACKETS = 20


def _rng(workload: Workload, seed: int, purpose: str) -> random.Random:
    # str seeds hash with SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"{workload.name}:{purpose}:{seed}")


def request_stream(workload: Workload, seed: int) -> Iterator[Request]:
    """The endless request sequence of one run, in rounds: each round
    sends every NF of the workload once in a seeded order, and each
    pair of rounds sends every (NF, shape) pair once.  The same seed
    gives the same sequence."""
    rng = _rng(workload, seed, "stream")
    run_trace_seed = rng.randrange(1 << 16)
    next_fresh = rng.randrange(1 << 30)
    while True:
        large = set(rng.sample(workload.nfs, len(workload.nfs) // 2))
        for flip in (False, True):
            order = list(workload.nfs)
            rng.shuffle(order)
            for nf in order:
                shape = "large_flows" if (nf in large) != flip \
                    else "small_flows"
                if workload.fresh_traces:
                    trace_seed, next_fresh = next_fresh, next_fresh + 1
                else:
                    trace_seed = run_trace_seed
                yield Request(nf, shape, workload.n_packets, trace_seed)


def warmup_requests(workload: Workload) -> List[Request]:
    """One short request per distinct NF of the workload."""
    return [
        Request(nf, "large_flows", min(WARMUP_PACKETS, workload.n_packets), 0)
        for nf in workload.nfs
    ]


def parity_sample(
    received: List[Request], workload: Workload, seed: int
) -> List[Request]:
    """A seeded choice of one received request per NF of the workload
    (NFs never received are skipped; the caller counts coverage)."""
    rng = _rng(workload, seed, "parity")
    by_nf: Dict[str, List[Request]] = {}
    for request in received:
        by_nf.setdefault(request.nf, []).append(request)
    return [
        rng.choice(sorted(set(by_nf[nf])))
        for nf in workload.nfs if nf in by_nf
    ]
