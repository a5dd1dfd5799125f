"""Golden outputs of the partition (Section 6) and colocation (Section
4.5) advisors on both targets.

Every case profiles one library element on the host the way
``Clara.profile_on_host`` does (``prepare_element``, its
``initial_state``, one seeded trace) and prices it on one target's
model:

* ``partition/...`` — every split the partition advisor evaluates
  (12 cores), in search order: the sorted host blocks, the punt
  fraction and the predicted throughput;
* ``colocation/...`` — the colocation advisor's candidate
  (``to_dict()``) and its offered state-memory rate.

Per shape and target, ``pair_features/...`` holds the features of a
fixed list of pairs, and per target ``candidate_pool/...`` summarizes
a small colocation training pool: its workload character and every
candidate's compute, memory and packet-buffer accesses per packet.

Floats are six-decimal strings, so the fixture diffs readably and
last-bit float noise does not show.  Cases: every library element
under ``large_flows`` and ``small_flows`` at 60 packets (``dpi`` and
``wepdecap`` at 5, as they are slow), trace seed 1, on ``nfp-4000``
and ``dpu-offpath``.

Regenerate the fixture only when the advisors' numbers are meant to
move::

    PYTHONPATH=src python -m tests.core.test_partition_colocation_golden --write
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from functools import lru_cache
from pathlib import Path
from typing import Dict, List

import pytest

from repro.click.elements import (
    ELEMENT_BUILDERS,
    build_element,
    initial_state,
    install_state,
)
from repro.click.interp import Interpreter
from repro.core.colocation import ColocationAdvisor, pair_features
from repro.core.partition import PartitionAdvisor
from repro.core.prepare import prepare_element
from repro.nic.machine import NICModel
from repro.workload import characterize, generate_trace
from repro.workload.spec import LARGE_FLOWS, SMALL_FLOWS

FIXTURE = Path(__file__).with_name("partition_colocation_golden.json")

PACKETS = 60
#: per-packet cost is tens of milliseconds for these two.
SLOW_ELEMENTS = {"dpi": 5, "wepdecap": 5}
SHAPES = {"large_flows": LARGE_FLOWS, "small_flows": SMALL_FLOWS}
TRACE_SEED = 1
TARGETS = ("nfp-4000", "dpu-offpath")
PARTITION_CORES = 12
PAIRS = (
    ("aggcounter", "mininat"),
    ("cmsketch", "firewall"),
    ("dnsproxy", "wepdecap"),
    ("dpi", "ratelimiter"),
    ("heavyhitter", "iplookup"),
    ("mazunat", "udpcount"),
)
#: generated NFs in the summarized pool (the parametric grid adds 24).
POOL_PROGRAMS = 2


def _f(value: float) -> str:
    return f"{value:.6f}"


@lru_cache(maxsize=None)
def _nic(target: str) -> NICModel:
    return NICModel(target=target)


@lru_cache(maxsize=None)
def _profiled(name: str, shape: str):
    """``(prepared, profile, spec)`` for one element under one trace;
    the profile does not depend on the target."""
    prepared = prepare_element(build_element(name))
    interp = Interpreter(prepared.module, seed=TRACE_SEED)
    install_state(interp, initial_state(prepared.element))
    spec = replace(SHAPES[shape],
                   n_packets=SLOW_ELEMENTS.get(name, PACKETS))
    profile = interp.run_trace(generate_trace(spec, seed=TRACE_SEED))
    return prepared, profile, spec


@lru_cache(maxsize=None)
def _candidate(name: str, shape: str, target: str):
    prepared, profile, _spec = _profiled(name, shape)
    return ColocationAdvisor(_nic(target)).advise(prepared, profile)


def partition_record(name: str, shape: str, target: str) -> List[Dict]:
    prepared, profile, spec = _profiled(name, shape)
    nic = _nic(target)
    workload = characterize(spec, nic.hierarchy)
    advisor = PartitionAdvisor(nic, cores=PARTITION_CORES)
    _best, evaluated = advisor.advise(prepared, profile, workload)
    return [
        {
            "host_blocks": ",".join(sorted(p.host_blocks)),
            "punt_fraction": _f(p.punt_fraction),
            "throughput_mpps": _f(p.throughput_mpps),
        }
        for p in evaluated
    ]


def colocation_record(name: str, shape: str, target: str) -> Dict:
    candidate = _candidate(name, shape, target)
    return {
        "candidate": candidate.to_dict(),
        "state_rate_mps": _f(candidate.est_state_rate(_nic(target)) / 1e6),
    }


def pair_features_record(shape: str, target: str) -> Dict[str, List[str]]:
    return {
        f"{a}+{b}": [
            _f(v) for v in pair_features(
                _candidate(a, shape, target), _candidate(b, shape, target),
                _nic(target),
            )
        ]
        for a, b in PAIRS
    }


def candidate_pool_record(target: str) -> Dict:
    advisor = ColocationAdvisor(_nic(target))
    pool, workload = advisor.build_candidate_pool(n_programs=POOL_PROGRAMS)
    return {
        "emem_cache_hit_rate": _f(workload.emem_cache_hit_rate),
        "flow_cache_hit_rate": _f(workload.flow_cache_hit_rate),
        "candidates": [
            " ".join([c.name, _f(c.compute_per_pkt), _f(c.memory_per_pkt),
                      _f(c.ctm_per_pkt)])
            for c in pool
        ],
    }


RECORDS = {
    **{
        f"partition/{name}/{shape}/{target}":
            (partition_record, (name, shape, target))
        for name in sorted(ELEMENT_BUILDERS)
        for shape in SHAPES
        for target in TARGETS
    },
    **{
        f"colocation/{name}/{shape}/{target}":
            (colocation_record, (name, shape, target))
        for name in sorted(ELEMENT_BUILDERS)
        for shape in SHAPES
        for target in TARGETS
    },
    **{
        f"pair_features/{shape}/{target}":
            (pair_features_record, (shape, target))
        for shape in SHAPES
        for target in TARGETS
    },
    **{
        f"candidate_pool/{target}": (candidate_pool_record, (target,))
        for target in TARGETS
    },
}


def record(case: str):
    build, args = RECORDS[case]
    return build(*args)


@lru_cache(maxsize=1)
def _fixture() -> Dict[str, object]:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_case():
    assert sorted(_fixture()) == sorted(RECORDS)


@pytest.mark.parametrize("case", sorted(RECORDS))
def test_matches_golden(case):
    assert record(case) == _fixture()[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    records = {case: record(case) for case in sorted(RECORDS)}
    FIXTURE.write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {FIXTURE}")
