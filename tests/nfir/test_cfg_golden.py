"""Golden digests of the CFG queries every loop analysis reads.

For each function the record is :func:`natural_loops` as an ordered
list of ``[header, sorted body]`` (header insertion order is the order
of the accelerator insights in an analysis report) and the block names
of :func:`reverse_postorder`.  The committed digests in
``cfg_golden.json`` were produced by the graph-library CFG code that
predates the successor-list implementation, so any change to what
these queries return, or to the order they return it in, fails here.

Cases: every function of every library element lowered with and
without inlining, plus 40 ClickGen programs from each of seeds 0-2,
also lowered both ways.

Regenerate the fixture only from CFG code known to be right::

    PYTHONPATH=src python -m tests.nfir.test_cfg_golden --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

import pytest

from repro.click.ast import ElementDef
from repro.click.elements import ELEMENT_BUILDERS, all_elements, build_element
from repro.click.frontend import lower_element
from repro.nfir.cfg import natural_loops, reverse_postorder
from repro.nfir.function import Function

FIXTURE = Path(__file__).with_name("cfg_golden.json")

SYNTH_SEEDS = (0, 1, 2)
SYNTH_PROGRAMS = 40


def cfg_digest(function: Function) -> str:
    """SHA-256 of the function's natural loops and reverse postorder."""
    record = {
        "loops": [
            [header, sorted(body)]
            for header, body in natural_loops(function).items()
        ],
        "rpo": [block.name for block in reverse_postorder(function)],
    }
    text = json.dumps(record, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digests(group: str, elements: List[Tuple[str, ElementDef]]) -> Dict[str, str]:
    """``group/<label>/<inline|noinline>/<function>`` -> digest."""
    digests = {}
    for label, element in elements:
        for mode, inline in (("inline", True), ("noinline", False)):
            module = lower_element(element, inline=inline)
            for name, function in module.functions.items():
                digests[f"{group}/{label}/{mode}/{name}"] = cfg_digest(function)
    return digests


def _groups() -> Iterator[Tuple[str, Callable[[], Dict[str, str]]]]:
    for name in sorted(ELEMENT_BUILDERS):
        yield f"lib/{name}", lambda name=name: _digests(
            f"lib/{name}", [("element", build_element(name))]
        )
    for seed in SYNTH_SEEDS:

        def compute(seed=seed):
            from repro.synthesis import ClickGen, extract_stats

            gen = ClickGen(extract_stats(all_elements()), seed=seed)
            return _digests(
                f"synth/{seed}",
                [(str(i), gen.element(f"cfg_{seed}_{i}")) for i in range(SYNTH_PROGRAMS)],
            )

        yield f"synth/{seed}", compute


GROUPS = dict(_groups())


def _fixture() -> Dict[str, str]:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_group():
    assert {"/".join(key.split("/")[:2]) for key in _fixture()} == set(GROUPS)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_cfg_matches_golden_digest(group):
    expected = {
        key: digest for key, digest in _fixture().items()
        if key.startswith(group + "/")
    }
    assert GROUPS[group]() == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    digests = {}
    for group in sorted(GROUPS):
        digests.update(GROUPS[group]())
    FIXTURE.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {FIXTURE}")
