"""Synthetic trace generation (trafgen substitute).

:func:`iter_trace` streams a seeded trace one packet at a time, so the
host profile (``Clara.profile_on_host``) runs each packet as it is made
and never holds the trace; :func:`generate_trace` is the same packets
as a list, for callers that replay one trace through several NFs.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.click.packet import Packet
from repro.workload.spec import WorkloadSpec


def _zipf_weights(n: int, alpha: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=float)
    if alpha <= 0.0:
        weights = np.ones(n)
    else:
        weights = ranks ** (-alpha)
    return weights / weights.sum()


def save_trace(packets: List[Packet], path: str) -> None:
    """Persist a trace as JSON lines (our pcap stand-in): header dicts,
    payload hex, and metadata per packet."""
    import json

    with open(path, "w") as fh:
        for p in packets:
            fh.write(
                json.dumps(
                    {
                        "eth": p.eth,
                        "ip": p.ip,
                        "tcp": p.tcp,
                        "udp": p.udp,
                        "payload": p.payload.hex(),
                        "in_port": p.in_port,
                        "timestamp_ns": p.timestamp_ns,
                    }
                )
            )
            fh.write("\n")


def load_trace(path: str) -> List[Packet]:
    """Load a trace saved by :func:`save_trace`."""
    import json

    packets: List[Packet] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            packets.append(
                Packet(
                    eth=rec["eth"],
                    ip=rec["ip"],
                    tcp=rec["tcp"],
                    udp=rec["udp"],
                    payload=bytes.fromhex(rec["payload"]),
                    in_port=rec["in_port"],
                    timestamp_ns=rec["timestamp_ns"],
                )
            )
    return packets


def _templates(spec: WorkloadSpec) -> Tuple[Dict[str, int], ...]:
    """The complete headers of one trace's packets with every per-packet
    field 0: ``eth``, then ``ip`` and ``tcp`` of a TCP packet, then
    ``ip`` and ``udp`` of a UDP packet.  ``Packet.__post_init__`` fills
    them in from the fields :func:`iter_trace` sets, in the order it
    sets them, so a copy with those fields overwritten has the keys,
    values and key order a packet built field by field would have."""
    def ip() -> Dict[str, int]:
        return {
            "src_addr": 0,
            "dst_addr": 0,
            "ip_len": spec.packet_bytes - 14,
            "ip_ttl": 64,
            "ip_id": 0,
        }

    tcp = Packet(
        ip=ip(),
        tcp={"th_sport": 0, "th_dport": 0, "th_seq": 0, "th_flags": 0, "th_off": 5},
    )
    udp = Packet(
        ip=ip(),
        udp={"uh_sport": 0, "uh_dport": 0, "uh_ulen": spec.payload_bytes + 8},
    )
    return tcp.eth, tcp.ip, tcp.tcp, udp.ip, udp.udp  # type: ignore[return-value]


def iter_trace(spec: WorkloadSpec, seed: int = 0) -> Iterator[Packet]:
    """Yield the packets of a deterministic trace for a workload spec,
    one at a time, so a consumer that runs each packet and lets it go
    never holds the whole trace.

    Flow endpoints are synthesized from the flow index; flow selection
    per packet follows the Zipf popularity of the spec.  Timestamps
    advance ~1us per packet so time-window NFs see realistic gaps.
    Every random draw happens before the first packet is yielded.
    Each packet's headers are copies of the trace's templates (see
    :func:`_templates`), so no packet runs the defaulting of
    ``Packet.__post_init__``.
    """
    rng = np.random.default_rng(seed)
    n = spec.n_flows
    weights = _zipf_weights(n, spec.zipf_alpha)
    flow_ids = rng.choice(n, size=spec.n_packets, p=weights).tolist()
    syn_draws = rng.random(spec.n_packets).tolist()
    udp_draws = rng.random(spec.n_packets).tolist()
    payload_rng = rng.integers(0, 256, size=max(spec.payload_bytes, 1), dtype=np.uint8)
    payload = bytes(payload_rng.tolist())[: spec.payload_bytes]
    eth, tcp_ip, tcp, udp_ip, udp = _templates(spec)
    syn_fraction, udp_fraction = spec.syn_fraction, spec.udp_fraction

    for i, fid in enumerate(flow_ids):
        is_udp = udp_draws[i] < udp_fraction
        ip = (udp_ip if is_udp else tcp_ip).copy()
        ip["src_addr"] = (0x0A000000 | (fid & 0xFFFFFF)) & 0xFFFFFFFF
        ip["dst_addr"] = (0xC0A80000 | ((fid * 2654435761) & 0xFFFF)) & 0xFFFFFFFF
        ip["ip_id"] = i & 0xFFFF
        sport = 1024 + (fid % 50000)
        dport = 80 if fid % 4 else 53
        if is_udp:
            l4 = udp.copy()
            l4["uh_sport"] = sport
            l4["uh_dport"] = dport
        else:
            l4 = tcp.copy()
            l4["th_sport"] = sport
            l4["th_dport"] = dport
            l4["th_seq"] = (i * 331) & 0xFFFFFFFF
            l4["th_flags"] = 0x02 if syn_draws[i] < syn_fraction else 0x10
        yield Packet.complete(
            eth.copy(),
            ip,
            None if is_udp else l4,
            l4 if is_udp else None,
            payload,
            fid % 2,
            i * 1000,
        )


def generate_trace(spec: WorkloadSpec, seed: int = 0) -> List[Packet]:
    """The packets of :func:`iter_trace` as one list, for callers that
    run a trace more than once or keep it."""
    return list(iter_trace(spec, seed))
