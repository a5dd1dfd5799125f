"""Golden digests of everything the interval analysis reports.

For each module the record holds, per function and block, the
environments :class:`IntervalAnalysis` returns (``env_in``,
``env_out``, ``eval_block`` and ``edge_env`` along every successor
edge), each function's :func:`loop_trip_bounds`, the module's
:func:`module_footprints`, and :func:`lint_module`'s report on both NIC
targets.  Values are named ``<block>#<index>`` (instructions) and
``argN`` (arguments), so a digest does not depend on object identity
and is the same in every process.  The committed digests in
``absint_golden.json`` were produced by the fact-set implementation of
the interval domain, so any change to an interval, a loop bound, a
footprint or a diagnostic fails here.

Cases: every library element lowered with and without inlining, plus
40 ClickGen programs from each of seeds 0-2, also lowered both ways,
except the two whose fixpoint the fact-set implementation never
reached (``test_absint.TestHostileCfgs`` covers those).

Regenerate the fixture only from analysis code known to be right::

    PYTHONPATH=src python -m tests.nfir.test_absint_golden --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

import pytest

from repro.click.ast import ElementDef
from repro.click.elements import ELEMENT_BUILDERS, all_elements, build_element
from repro.click.frontend import lower_element
from repro.nfir.analysis import lint_module
from repro.nfir.analysis.absint import IntervalAnalysis, loop_trip_bounds
from repro.nfir.analysis.footprint import module_footprints
from repro.nfir.function import Function, Module

FIXTURE = Path(__file__).with_name("absint_golden.json")

TARGETS = ("nfp-4000", "dpu-offpath")
SYNTH_SEEDS = (0, 1, 2)
SYNTH_PROGRAMS = 40
#: (seed, index) of the ClickGen programs left out (see the docstring).
NON_TERMINATING = {(0, 29), (2, 23)}


def _env_record(env, names: Dict[int, str]) -> List[List[object]]:
    return sorted([names[id(value)], iv.lo, iv.hi] for value, iv in env.items())


def _function_record(function: Function, analysis: IntervalAnalysis):
    names = {id(arg): f"arg{i}" for i, arg in enumerate(function.args)}
    for block in function.blocks:
        for index, instr in enumerate(block.instructions):
            names[id(instr)] = f"{block.name}#{index}"
    blocks = {}
    for block in function.blocks:
        blocks[block.name] = {
            "in": _env_record(analysis.env_in(block.name), names),
            "out": _env_record(analysis.env_out(block.name), names),
            "eval": _env_record(analysis.eval_block(block), names),
            "edges": [
                [succ.name, _env_record(analysis.edge_env(block, succ), names)]
                for succ in block.successors()
            ],
        }
    loops = {
        header: dataclasses.asdict(bound)
        for header, bound in loop_trip_bounds(function, analysis).items()
    }
    return {"blocks": blocks, "loops": loops}


def absint_digest(module: Module) -> str:
    """SHA-256 of the module's intervals, loop bounds, footprints and
    lint reports."""
    analyses = {
        name: IntervalAnalysis(function)
        for name, function in module.functions.items()
    }
    record = {
        "functions": {
            name: _function_record(function, analyses[name])
            for name, function in module.functions.items()
        },
        "footprints": {
            name: fp.to_dict()
            for name, fp in module_footprints(module, analyses).items()
        },
        "lint": {
            target: lint_module(module, target=target).to_dict()
            for target in TARGETS
        },
    }
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digests(group: str, elements: List[Tuple[str, ElementDef]]) -> Dict[str, str]:
    """``group/<label>/<inline|noinline>`` -> digest."""
    digests = {}
    for label, element in elements:
        for mode, inline in (("inline", True), ("noinline", False)):
            module = lower_element(element, inline=inline)
            digests[f"{group}/{label}/{mode}"] = absint_digest(module)
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
            programs = [
                (str(i), gen.element(f"absint_{seed}_{i}"))
                for i in range(SYNTH_PROGRAMS)
            ]
            return _digests(
                f"synth/{seed}",
                [
                    (label, element) for label, element in programs
                    if (seed, int(label)) not in NON_TERMINATING
                ],
            )

        yield f"synth/{seed}", compute


GROUPS = dict(_groups())


def _fixture() -> Dict[str, str]:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_group():
    assert {"/".join(key.split("/")[:2]) for key in _fixture()} == set(GROUPS)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_absint_matches_golden_digest(group):
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
