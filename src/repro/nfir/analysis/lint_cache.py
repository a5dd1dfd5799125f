"""Incremental lint: content-addressed caching of lint reports.

A lint run is a pure function of (module IR, rule set, target): the
cache key hashes the printed IR (the same canonical text ``clara ir``
emits), the suppression directives (``clara-disable`` metadata is not
part of the printed form), the selected rule codes, the target
fingerprint, and the report schema.  Warm re-lints of an unchanged
corpus then cost one hash + one pickle load per element instead of a
full abstract-interpretation pass.  ``POST /v1/lint`` and
``clara lint --cache auto`` use it; CI lints with the cache off.

Entries live in the same :class:`~repro.core.artifacts.ArtifactCache`
directory as trained model states (``$REPRO_CLARA_CACHE`` overrides
the location), and reports round-trip through their schema-versioned
dict form, so a schema bump naturally misses.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, List, Optional, Sequence, Tuple

from repro.nfir.analysis.lint import (
    LINT_REPORT_SCHEMA,
    LintReport,
    SUPPRESS_META_KEY,
)
from repro.nfir.function import Module

__all__ = ["LINT_CACHE_VERSION", "lint_cache_key", "cached_lint_run"]

#: Bump when rule *implementations* change in a way that alters
#: diagnostics for unchanged IR — the key cannot see code changes.
LINT_CACHE_VERSION = 1


def _suppression_directives(module: Module) -> List[List[str]]:
    """Every ``clara-disable`` directive with its attachment point —
    printed IR does not carry metadata, so the key must."""

    def fmt(raw: object) -> str:
        if isinstance(raw, str):
            return raw
        return ",".join(str(r) for r in raw)  # type: ignore[union-attr]

    out: List[List[str]] = []
    if SUPPRESS_META_KEY in module.meta:
        out.append(["module", fmt(module.meta[SUPPRESS_META_KEY])])
    for function in module.functions.values():
        for block in function.blocks:
            for i, instr in enumerate(block.instructions):
                if SUPPRESS_META_KEY in instr.meta:
                    out.append([
                        f"{function.name}:{block.name}:{i}",
                        fmt(instr.meta[SUPPRESS_META_KEY]),
                    ])
    return out


def lint_cache_key(
    module: Module,
    rule_codes: Sequence[str],
    target: Any = None,
) -> str:
    """The content hash a lint report is stored under."""
    from repro.nfir.printer import print_module
    from repro.nic.targets import resolve_target, target_fingerprint

    payload = {
        "kind": "lint_report",
        "cache_version": LINT_CACHE_VERSION,
        "report_schema": LINT_REPORT_SCHEMA,
        "ir": print_module(module),
        "suppressions": _suppression_directives(module),
        "rules": sorted(rule_codes),
        "target": target_fingerprint(resolve_target(target)),
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return "lint-" + hashlib.sha256(blob).hexdigest()[:32]


def cached_lint_run(
    module: Module,
    registry: Any,
    cache: Any,
    only: Optional[Sequence[str]] = None,
    disable: Optional[Sequence[str]] = None,
    target: Any = None,
) -> Tuple[LintReport, str]:
    """Run (or replay) one module's lint through an artifact cache.

    Returns ``(report, outcome)`` with outcome ``"hit"`` or
    ``"miss"``; a ``None`` cache degrades to a plain run (outcome
    ``"off"``).
    """
    if cache is None:
        return (
            registry.run(module, only=only, disable=disable, target=target),
            "off",
        )
    codes = [p.code for p in registry.select(only=only, disable=disable)]
    key = lint_cache_key(module, codes, target=target)
    state = cache.load(key)
    if state is not None:
        try:
            return LintReport.from_dict(state["report"]), "hit"
        except (KeyError, ValueError, TypeError):
            pass  # fall through to a fresh run on malformed entries
    report = registry.run(module, only=only, disable=disable, target=target)
    cache.store(key, {"report": report.to_dict()})
    return report, "miss"
