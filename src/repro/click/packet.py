"""Packet model: header layouts shared by the frontend (NFIR struct
types), the vocabulary compaction (header field names are the one class
of operand names *not* abstracted away — paper Section 3.2), and the
interpreter (runtime packet objects).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Dict, FrozenSet, Optional, Tuple

from repro.nfir.types import StructType, int_type

# Header layouts: (field name, bit width).  Field names follow the
# classic BSD naming Click uses (th_sport, ip_hl, ...).
ETH_FIELDS: Tuple[Tuple[str, int], ...] = (
    ("eth_dst_hi", 32),
    ("eth_dst_lo", 16),
    ("eth_src_hi", 32),
    ("eth_src_lo", 16),
    ("eth_type", 16),
)

IP_FIELDS: Tuple[Tuple[str, int], ...] = (
    ("ip_v", 8),
    ("ip_hl", 8),
    ("ip_tos", 8),
    ("ip_len", 16),
    ("ip_id", 16),
    ("ip_off", 16),
    ("ip_ttl", 8),
    ("ip_p", 8),
    ("ip_sum", 16),
    ("src_addr", 32),
    ("dst_addr", 32),
)

TCP_FIELDS: Tuple[Tuple[str, int], ...] = (
    ("th_sport", 16),
    ("th_dport", 16),
    ("th_seq", 32),
    ("th_ack", 32),
    ("th_off", 8),
    ("th_flags", 8),
    ("th_win", 16),
    ("th_sum", 16),
    ("th_urp", 16),
)

UDP_FIELDS: Tuple[Tuple[str, int], ...] = (
    ("uh_sport", 16),
    ("uh_dport", 16),
    ("uh_ulen", 16),
    ("uh_sum", 16),
)

_HEADER_LAYOUTS: Dict[str, Tuple[Tuple[str, int], ...]] = {
    "eth": ETH_FIELDS,
    "ip": IP_FIELDS,
    "tcp": TCP_FIELDS,
    "udp": UDP_FIELDS,
}


def header_struct(header: str) -> StructType:
    """NFIR struct type for a named header (``eth``/``ip``/``tcp``/``udp``)."""
    layout = _HEADER_LAYOUTS[header]
    return StructType(
        f"{header}_hdr", tuple((name, int_type(bits)) for name, bits in layout)
    )


ETH_HEADER = header_struct("eth")
IP_HEADER = header_struct("ip")
TCP_HEADER = header_struct("tcp")
UDP_HEADER = header_struct("udp")

#: The opaque packet handle type passed to every packet handler.
PACKET_TYPE = StructType("packet", ())

#: All header field names.  Vocabulary compaction keeps these concrete
#: (Section 3.2: "with the exception of well-defined header field
#: names") because the SmartNIC compiler treats some header fields
#: specially (e.g. checksum fields map onto the ingress accelerator).
HEADER_FIELD_NAMES: FrozenSet[str] = frozenset(
    name for layout in _HEADER_LAYOUTS.values() for name, _ in layout
)

#: Which header a field belongs to (field names are globally unique).
FIELD_TO_HEADER: Dict[str, str] = {
    name: header
    for header, layout in _HEADER_LAYOUTS.items()
    for name, _ in layout
}

TCP_SYN = 0x02
TCP_ACK = 0x10
TCP_FIN = 0x01
TCP_RST = 0x04

PROTO_TCP = 6
PROTO_UDP = 17


@dataclass
class Packet:
    """Runtime packet for the interpreter and the workload generator.

    Headers are dictionaries of concrete field values; absent protocol
    headers (e.g. no TCP header on a UDP packet) are ``None``.
    """

    eth: Dict[str, int] = dataclass_field(default_factory=dict)
    ip: Dict[str, int] = dataclass_field(default_factory=dict)
    tcp: Optional[Dict[str, int]] = None
    udp: Optional[Dict[str, int]] = None
    payload: bytes = b""
    in_port: int = 0
    timestamp_ns: int = 0
    # Set by the interpreter when the NF disposes of the packet.
    out_port: Optional[int] = None
    dropped: bool = False

    def __post_init__(self) -> None:
        for name, _bits in ETH_FIELDS:
            self.eth.setdefault(name, 0)
        # Sensible IPv4 defaults must land before the zero-fill.
        self.ip.setdefault("ip_v", 4)
        self.ip.setdefault("ip_hl", 5)
        self.ip.setdefault("ip_ttl", 64)
        for name, _bits in IP_FIELDS:
            self.ip.setdefault(name, 0)
        if self.tcp is not None:
            for name, _bits in TCP_FIELDS:
                self.tcp.setdefault(name, 0)
            self.ip["ip_p"] = PROTO_TCP
        if self.udp is not None:
            for name, _bits in UDP_FIELDS:
                self.udp.setdefault(name, 0)
            self.ip["ip_p"] = PROTO_UDP

    @classmethod
    def complete(
        cls,
        eth: Dict[str, int],
        ip: Dict[str, int],
        tcp: Optional[Dict[str, int]],
        udp: Optional[Dict[str, int]],
        payload: bytes,
        in_port: int,
        timestamp_ns: int,
    ) -> "Packet":
        """A packet from headers that already hold every field, in the
        order ``__post_init__`` would leave them (the trace generator's
        templates), without running that defaulting again."""
        packet = cls.__new__(cls)
        packet.eth = eth
        packet.ip = ip
        packet.tcp = tcp
        packet.udp = udp
        packet.payload = payload
        packet.in_port = in_port
        packet.timestamp_ns = timestamp_ns
        packet.out_port = None
        packet.dropped = False
        return packet

    def copy(self) -> "Packet":
        """This packet with headers of its own, so running one leaves
        the other as it was."""
        packet = Packet.complete(
            self.eth.copy(),
            self.ip.copy(),
            None if self.tcp is None else self.tcp.copy(),
            None if self.udp is None else self.udp.copy(),
            self.payload,
            self.in_port,
            self.timestamp_ns,
        )
        packet.out_port = self.out_port
        packet.dropped = self.dropped
        return packet

    @property
    def wire_len(self) -> int:
        """Approximate on-wire length in bytes."""
        length = 14 + 20  # eth + ip
        if self.tcp is not None:
            length += 20
        if self.udp is not None:
            length += 8
        return length + len(self.payload)

    def flow_key(self) -> Tuple[int, int, int, int, int]:
        """The conventional 5-tuple."""
        sport = dport = 0
        if self.tcp is not None:
            sport, dport = self.tcp["th_sport"], self.tcp["th_dport"]
        elif self.udp is not None:
            sport, dport = self.udp["uh_sport"], self.udp["uh_dport"]
        return (
            self.ip["src_addr"],
            self.ip["dst_addr"],
            sport,
            dport,
            self.ip["ip_p"],
        )
