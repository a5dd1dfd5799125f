"""Golden placements of the Section 4.3 state-placement ILP.

Every case profiles one library element on the host the way
``Clara.profile_on_host`` does (``prepare_element``, its
``initial_state``, one seeded trace) and runs the placement advisor on
one target's hierarchy.  The fixture ``placement_golden.json`` is
readable JSON, not digests: per case, each structure's region in
declaration order and the expected cost to six decimals.  A change to
the solver therefore shows in the fixture's diff as the structures it
moved, each next to its cost.

Cases: every library element under ``large_flows`` and ``small_flows``
at 60 packets (``dpi`` and ``wepdecap`` at 5, as they are slow), trace
seeds 0 and 1, on ``nfp-4000`` and ``dpu-offpath``.

Regenerate the fixture only from a solver known to be exact::

    PYTHONPATH=src python -m tests.core.test_placement_golden --write
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from functools import lru_cache
from pathlib import Path
from typing import Dict, Tuple

import pytest

from repro.click.elements import (
    ELEMENT_BUILDERS,
    build_element,
    initial_state,
    install_state,
)
from repro.click.interp import Interpreter
from repro.core.placement import PlacementAdvisor
from repro.core.prepare import prepare_element
from repro.nic.targets import get_target
from repro.workload import generate_trace
from repro.workload.spec import LARGE_FLOWS, SMALL_FLOWS

FIXTURE = Path(__file__).with_name("placement_golden.json")

PACKETS = 60
#: per-packet cost is tens of milliseconds for these two.
SLOW_ELEMENTS = {"dpi": 5, "wepdecap": 5}
SHAPES = {"large_flows": LARGE_FLOWS, "small_flows": SMALL_FLOWS}
TRACE_SEEDS = (0, 1)
TARGETS = ("nfp-4000", "dpu-offpath")


@lru_cache(maxsize=1)
def _profiled(name: str, shape: str, seed: int):
    """``(prepared, profile)`` for one element under one trace.  The
    profile does not depend on the target, and cases run in sorted
    order, so a trace's two targets are adjacent and share it."""
    prepared = prepare_element(build_element(name))
    interp = Interpreter(prepared.module, seed=seed)
    install_state(interp, initial_state(prepared.element))
    spec = replace(SHAPES[shape],
                   n_packets=SLOW_ELEMENTS.get(name, PACKETS))
    return prepared, interp.run_trace(generate_trace(spec, seed=seed))


def placement_record(name: str, shape: str, seed: int,
                     target: str) -> Dict[str, object]:
    prepared, profile = _profiled(name, shape, seed)
    advisor = PlacementAdvisor(hierarchy=get_target(target).hierarchy())
    solution = advisor.advise(prepared, profile)
    return {
        "placement": dict(solution.assignment),
        "expected_cost": f"{solution.expected_cost:.6f}",
    }


CASES: Dict[str, Tuple[str, str, int, str]] = {
    f"{name}/{shape}/{seed}/{target}": (name, shape, seed, target)
    for name in sorted(ELEMENT_BUILDERS)
    for shape in SHAPES
    for seed in TRACE_SEEDS
    for target in TARGETS
}


def _fixture() -> Dict[str, Dict[str, object]]:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_case():
    assert sorted(_fixture()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_placement_matches_golden(case):
    record = placement_record(*CASES[case])
    golden = _fixture()[case]
    # Declaration order is the order of the envelope's insights.
    assert list(record["placement"].items()) == list(
        golden["placement"].items()
    )
    assert record["expected_cost"] == golden["expected_cost"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    records = {case: placement_record(*CASES[case]) for case in sorted(CASES)}
    FIXTURE.write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} placements to {FIXTURE}")
