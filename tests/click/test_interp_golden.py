"""Golden digests of the host interpreter's observable results.

Every case runs one NF over one seeded trace and hashes everything a
caller can see afterwards: the :class:`ExecutionProfile` (every counter
and both derived access views in iteration order), the per-packet paths
that :func:`repro.core.partition.packet_paths` counts (each frozenset
sorted), the final global state, and every output packet.  The
committed digests in ``interp_golden.json`` were produced by the
tree-walking interpreter that predates both the decode-once and the
compiled designs, so any change to what the interpreter computes, or
to the order it records it in, fails here.

Cases: every library element under ``large_flows`` and ``small_flows``
at 300 packets (``dpi`` and ``wepdecap`` at 5, as they are slow), plus
ClickGen programs synthesized from a fixed seed, which is what
training runs the interpreter on.

Regenerate the fixture only from an interpreter known to be right::

    PYTHONPATH=src python -m tests.click.test_interp_golden --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Dict, Iterator, Tuple

import pytest

from repro.click.elements import (
    ELEMENT_BUILDERS,
    all_elements,
    build_element,
    initial_state,
    install_state,
)
from repro.click.frontend import lower_element
from repro.click.interp import HostHashMap, HostVector, Interpreter, TreeStore
from repro.core.partition import packet_paths
from repro.workload import generate_trace
from repro.workload.spec import LARGE_FLOWS, SMALL_FLOWS

FIXTURE = Path(__file__).with_name("interp_golden.json")

PACKETS = 300
#: per-packet cost is tens of milliseconds for these two.
SLOW_ELEMENTS = {"dpi": 5, "wepdecap": 5}
SHAPES = {"large_flows": LARGE_FLOWS, "small_flows": SMALL_FLOWS}
SYNTH_SEED = 7
SYNTH_PROGRAMS = 4
SYNTH_PACKETS = 120


def _canonical(value):
    """JSON-ready form of an interpreter value tree."""
    if isinstance(value, dict):
        return {"dict": [[k, _canonical(v)] for k, v in value.items()]}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (int, str)):
        return value
    # A pointer: storage identity is not observable, its shape is.
    return {
        "ptr": value.store is None,
        "path": list(value.path),
        "origin": value.origin,
    }


def _global_state(obj):
    if isinstance(obj, TreeStore):
        return {"tree": _canonical(obj.tree)}
    if isinstance(obj, HostHashMap):
        return {
            "hashmap": obj.capacity,
            "entries": [
                [_canonical(key), _canonical(entry)]
                for key, entry in obj.entries.items()
            ],
        }
    if isinstance(obj, HostVector):
        return {"vector": obj.capacity, "items": _canonical(obj.items)}
    raise TypeError(f"unexpected global storage {type(obj).__name__}")


def _packet_record(packet) -> Dict[str, object]:
    return {
        "eth": list(packet.eth.items()),
        "ip": list(packet.ip.items()),
        "tcp": None if packet.tcp is None else list(packet.tcp.items()),
        "udp": None if packet.udp is None else list(packet.udp.items()),
        "payload": packet.payload.hex(),
        "in_port": packet.in_port,
        "timestamp_ns": packet.timestamp_ns,
        "out_port": packet.out_port,
        "dropped": packet.dropped,
    }


def run_digest(module, state, spec, seed: int) -> str:
    """SHA-256 of everything observable after running ``spec``."""
    interp = Interpreter(module, seed=seed)
    install_state(interp, state)
    packets = generate_trace(spec, seed=seed)
    paths = packet_paths(interp, packets)
    profile = interp.profile
    record = {
        "packets": profile.packets,
        "sent": profile.sent,
        "dropped": profile.dropped,
        "block_counts": list(profile.block_counts.items()),
        "global_access": [
            [name, list(counts.items())]
            for name, counts in profile.global_access.items()
        ],
        "global_block_access": [
            [name, block, count]
            for (name, block), count in profile.global_block_access.items()
        ],
        "api_counts": list(profile.api_counts.items()),
        # Named for the profile field paths once lived in; the name is
        # part of the hashed record.
        "path_counts": [[sorted(path), count] for path, count in paths.items()],
        "globals": [
            [name, _global_state(obj)] for name, obj in interp.globals.items()
        ],
        "out": [_packet_record(p) for p in packets],
    }
    text = json.dumps(record, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _library_cases() -> Iterator[Tuple[str, object]]:
    for name in sorted(ELEMENT_BUILDERS):
        for shape, spec in SHAPES.items():
            n_packets = SLOW_ELEMENTS.get(name, PACKETS)

            def compute(name=name, spec=spec, n_packets=n_packets):
                element = build_element(name)
                return run_digest(
                    lower_element(element, inline=True),
                    initial_state(element),
                    replace(spec, n_packets=n_packets),
                    seed=0,
                )

            yield f"{name}/{shape}", compute


def _synth_cases() -> Iterator[Tuple[str, object]]:
    for index in range(SYNTH_PROGRAMS):

        def compute(index=index):
            from repro.synthesis import ClickGen, extract_stats

            stats = extract_stats(all_elements())
            gen = ClickGen.for_program(stats, seed=SYNTH_SEED, index=index)
            element = gen.element(f"golden_{index}")
            return run_digest(
                lower_element(element, inline=True),
                initial_state(element),
                replace(SMALL_FLOWS, n_packets=SYNTH_PACKETS),
                seed=index,
            )

        yield f"synth/{SYNTH_SEED}/{index}", compute


CASES = dict(list(_library_cases()) + list(_synth_cases()))


def _fixture() -> Dict[str, str]:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_case():
    assert sorted(_fixture()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_interpreter_matches_golden_digest(case):
    assert CASES[case]() == _fixture()[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    digests = {case: CASES[case]() for case in sorted(CASES)}
    FIXTURE.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {FIXTURE}")
