"""Golden digests of the synthetic trace generator.

Every case generates one seeded trace and hashes every field of every
packet: each header's items in key order, the payload, the metadata
and the disposition fields the interpreter later sets.  The committed
digests in ``trace_golden.json`` were produced by the generator that
built each packet through ``Packet.__post_init__``'s defaulting loops,
so a change to any value, to a header's key order or to the packet
mix fails here.

Cases: both standard shapes, a half-UDP spec (the standard shapes send
no UDP packets) and a spec without payload, each over three seeds.

Regenerate the fixture only from a generator known to be right::

    PYTHONPATH=src python -m tests.workload.test_trace_golden --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Dict

import pytest

from repro.workload import generate_trace
from repro.workload.spec import LARGE_FLOWS, SMALL_FLOWS

FIXTURE = Path(__file__).with_name("trace_golden.json")

PACKETS = 400
SEEDS = (0, 1, 7)
SPECS = {
    "large_flows": LARGE_FLOWS,
    "small_flows": SMALL_FLOWS,
    "udp_half": replace(
        LARGE_FLOWS, name="udp_half", udp_fraction=0.5, syn_fraction=0.2
    ),
    "no_payload": replace(SMALL_FLOWS, name="no_payload", payload_bytes=0),
}


def _header(header):
    return None if header is None else list(header.items())


def trace_digest(spec, seed: int) -> str:
    """SHA-256 of every field of every packet of one trace."""
    packets = generate_trace(replace(spec, n_packets=PACKETS), seed=seed)
    record = [
        {
            "eth": _header(p.eth),
            "ip": _header(p.ip),
            "tcp": _header(p.tcp),
            "udp": _header(p.udp),
            "payload": p.payload.hex(),
            "in_port": p.in_port,
            "timestamp_ns": p.timestamp_ns,
            "out_port": p.out_port,
            "dropped": p.dropped,
        }
        for p in packets
    ]
    # json.dumps rejects numpy scalars, so the digest also pins every
    # field to a plain Python int.
    text = json.dumps(record, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


CASES = {
    f"{name}/{seed}": (spec, seed)
    for name, spec in SPECS.items()
    for seed in SEEDS
}


def _fixture() -> Dict[str, str]:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_case():
    assert sorted(_fixture()) == sorted(CASES)


def test_cases_reach_both_transports_and_an_empty_payload():
    udp = generate_trace(replace(SPECS["udp_half"], n_packets=PACKETS), seed=0)
    assert {p.udp is None for p in udp} == {True, False}
    assert {p.tcp is None for p in udp} == {True, False}
    bare = generate_trace(replace(SPECS["no_payload"], n_packets=5), seed=0)
    assert all(p.payload == b"" for p in bare)


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_matches_golden_digest(case):
    assert trace_digest(*CASES[case]) == _fixture()[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    digests = {case: trace_digest(*CASES[case]) for case in sorted(CASES)}
    FIXTURE.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {FIXTURE}")
