"""How much of its trace ``Clara.profile_on_host`` holds.

The host profile streams its trace into the interpreter
(``iter_trace``), so a 2000-packet request keeps one packet alive at a
time instead of building all of them before the first one runs.
"""

import weakref
from dataclasses import replace

from repro.click.elements import build_element
from repro.click.packet import Packet
from repro.core import Clara
from repro.core.prepare import prepare_element
from repro.workload.spec import SMALL_FLOWS


def _count_live_packets(monkeypatch):
    """``[alive, peak]``: trace packets built by ``Packet.complete``
    and not yet freed, now and at most, from now on."""
    counts = [0, 0]
    real = Packet.complete.__func__

    def freed():
        counts[0] -= 1

    def complete(cls, *args):
        packet = real(cls, *args)
        counts[0] += 1
        counts[1] = max(counts[1], counts[0])
        weakref.finalize(packet, freed)
        return packet

    monkeypatch.setattr(Packet, "complete", classmethod(complete))
    return counts


def test_profile_holds_at_most_two_trace_packets(monkeypatch):
    prepared = prepare_element(build_element("firewall"))
    spec = replace(SMALL_FLOWS, n_packets=2000)
    counts = _count_live_packets(monkeypatch)
    profile = Clara().profile_on_host(prepared, spec, trace_seed=1)
    assert profile.packets == 2000
    # The packet being run, and the one before it until the loop
    # takes the next.
    assert 1 <= counts[1] <= 2
    assert counts[0] == 0
