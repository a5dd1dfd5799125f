"""Versioned wire schemas: one serializer, two transports.

Every machine-readable payload Clara emits — ``clara analyze --json``
on stdout, or a ``clara serve`` HTTP response — is the same envelope::

    {"schema": 1, "kind": "<result kind>", "result": {...}, "error": null}

built by :func:`envelope` and rendered by :func:`dump_envelope`, so a
client can parse CLI output and API responses with one decoder.  On
failure ``result`` is ``null`` and ``error`` carries the typed
:class:`~repro.errors.ClaraError` facts (class name, message, CLI exit
code, HTTP status).

Requests are the mirror image: :class:`AnalyzeRequest`,
:class:`LintRequest`, and :class:`ColocationRequest` are versioned
dataclasses with strict ``from_dict`` constructors (unknown fields are
rejected, every field's JSON type is checked, workload sizes are
capped at :data:`WORKLOAD_CEILINGS`, and workloads are validated
through :class:`~repro.workload.spec.WorkloadSpec`) and round-trip
``to_dict``, so clients can build payloads from the same definitions
the server parses.

Bump :data:`WIRE_SCHEMA` on incompatible envelope/request changes;
the inner result payloads keep their own schema numbers (e.g. the
insight-report schema), versioned independently.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ClaraError, InvalidWorkloadError, http_status_for
from repro.nic.targets import get_target
from repro.obs.reqctx import current_request_id
from repro.workload.spec import WorkloadSpec

__all__ = [
    "AnalyzeRequest",
    "ColocationRequest",
    "LintRequest",
    "WIRE_SCHEMA",
    "WORKLOAD_CEILINGS",
    "analysis_result_payload",
    "dump_envelope",
    "envelope",
    "error_envelope",
    "lint_run_payload",
    "port_config_to_dict",
    "workload_from_dict",
    "workload_to_dict",
]

#: version of the request layouts and the response envelope.
#: v2: requests carry an optional ``target`` (registered NIC backend).
#: v3: lint requests carry an optional ``baseline`` (accepted
#: diagnostic fingerprints); lint_run payloads report suppression,
#: baseline, and cache statistics.
#: v4: envelopes carry ``request_id`` (the correlation id, echoed from
#: ``X-Clara-Request-Id`` or minted; ``null`` outside a request
#: context, e.g. plain CLI runs) and the daemon serves
#: ``GET /v1/events`` (the ``events`` result kind).
WIRE_SCHEMA = 4

_WORKLOAD_FIELDS = {f.name for f in dataclasses.fields(WorkloadSpec)}

#: integer-valued workload fields; the rest but ``name`` are numbers.
_WORKLOAD_INT_FIELDS = ("n_flows", "packet_bytes", "payload_bytes", "n_packets")

#: largest value a request may ask for, per workload field: one
#: request must not pin a core for minutes or allocate without bound.
WORKLOAD_CEILINGS: Dict[str, int] = {
    "n_packets": 100_000,
    "n_flows": 1_000_000,
    "payload_bytes": 9_000,
}


def _is_int(value: Any) -> bool:
    """A JSON integer (``true``/``false`` are not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_workload_field(name: str, value: Any) -> None:
    if name == "name":
        if not isinstance(value, str):
            raise InvalidWorkloadError("workload 'name' must be a string")
    elif name in _WORKLOAD_INT_FIELDS:
        if not _is_int(value):
            raise InvalidWorkloadError(f"workload {name!r} must be an integer")
        ceiling = WORKLOAD_CEILINGS.get(name)
        if ceiling is not None and value > ceiling:
            raise InvalidWorkloadError(f"workload {name!r} must be <= {ceiling}")
    else:
        try:
            finite = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):  # not a number; too big a float
            finite = False
        if not finite:
            raise InvalidWorkloadError(f"workload {name!r} must be a finite number")


def workload_from_dict(data: Mapping[str, Any]) -> WorkloadSpec:
    """A validated :class:`WorkloadSpec` from its wire dict.  Field
    names are exactly the spec's constructor fields; anything else is
    rejected so typos fail loudly instead of silently defaulting.
    Each field must have its JSON type, and the sizes in
    :data:`WORKLOAD_CEILINGS` are capped."""
    if not isinstance(data, Mapping):
        raise InvalidWorkloadError("workload must be a JSON object")
    unknown = sorted(set(data) - _WORKLOAD_FIELDS)
    if unknown:
        raise InvalidWorkloadError(
            f"unknown workload fields: {', '.join(unknown)}"
            f" (known: {', '.join(sorted(_WORKLOAD_FIELDS))})"
        )
    for name, value in data.items():
        _check_workload_field(name, value)
    return WorkloadSpec(**dict(data))


def workload_to_dict(spec: WorkloadSpec) -> Dict[str, Any]:
    """The wire dict :func:`workload_from_dict` round-trips."""
    return dataclasses.asdict(spec)


def _check_header(data: Dict[str, Any], kind: str) -> None:
    """Pop and validate the optional ``schema``/``kind`` header fields
    of a request dict (in place)."""
    schema = data.pop("schema", WIRE_SCHEMA)
    if schema != WIRE_SCHEMA:
        raise ClaraError(
            f"unsupported wire schema {schema!r} (this build speaks"
            f" {WIRE_SCHEMA})"
        )
    got = data.pop("kind", kind)
    if got != kind:
        raise ClaraError(f"expected kind {kind!r}, got {got!r}")


def _reject_unknown(data: Dict[str, Any], kind: str) -> None:
    if data:
        raise ClaraError(
            f"unknown {kind} fields: {', '.join(sorted(data))}"
        )


def _pop_trace_seed(data: Dict[str, Any], kind: str) -> int:
    """Pop and validate the optional ``trace_seed`` (default 0): a
    non-negative JSON integer, as numpy's seeding requires."""
    seed = data.pop("trace_seed", 0)
    if not _is_int(seed) or seed < 0:
        raise ClaraError(f"{kind} 'trace_seed' must be a non-negative integer")
    return seed


def _pop_target(data: Dict[str, Any], kind: str) -> Optional[str]:
    """Pop and validate the optional ``target`` field of a request.

    ``None`` means "the server's default target".  A name is checked
    against the registry at parse time so an unknown target fails the
    request with :class:`~repro.errors.UnknownTargetError` (HTTP 404)
    before any work happens.
    """
    target = data.pop("target", None)
    if target is None:
        return None
    if not isinstance(target, str):
        raise ClaraError(f"{kind} 'target' must be a string")
    get_target(target)  # raises UnknownTargetError on a miss
    return target


@dataclass(frozen=True)
class AnalyzeRequest:
    """One offload-insight question: an element under a workload."""

    element: str
    workload: WorkloadSpec = WorkloadSpec()
    trace_seed: int = 0
    #: registered NIC target to analyse for; ``None`` = server default.
    target: Optional[str] = None

    kind = "analyze_request"

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AnalyzeRequest":
        data = dict(data)
        _check_header(data, cls.kind)
        element = data.pop("element", None)
        if not element or not isinstance(element, str):
            raise ClaraError(
                "analyze_request needs an 'element' name"
            )
        workload = workload_from_dict(data.pop("workload", {}) or {})
        trace_seed = _pop_trace_seed(data, cls.kind)
        target = _pop_target(data, cls.kind)
        _reject_unknown(data, cls.kind)
        return cls(element=element, workload=workload,
                   trace_seed=trace_seed, target=target)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": WIRE_SCHEMA,
            "kind": self.kind,
            "element": self.element,
            "workload": workload_to_dict(self.workload),
            "trace_seed": self.trace_seed,
            "target": self.target,
        }


@dataclass(frozen=True)
class LintRequest:
    """A static offload-lint run over library elements.

    ``elements=None`` means the whole corpus; ``only``/``disable``
    select rules by code or name, exactly like the CLI flags.
    ``baseline`` carries accepted diagnostic fingerprints (from
    ``clara lint --write-baseline``): matching findings are filtered
    from the response and counted under ``stats.n_baselined``.
    """

    elements: Optional[Tuple[str, ...]] = None
    only: Optional[Tuple[str, ...]] = None
    disable: Optional[Tuple[str, ...]] = None
    #: registered NIC target whose capacities the rules check against.
    target: Optional[str] = None
    #: accepted legacy-finding fingerprints (see
    #: :mod:`repro.nfir.analysis.baseline`).
    baseline: Optional[Tuple[str, ...]] = None

    kind = "lint_request"

    @staticmethod
    def _name_tuple(value: Any, field: str) -> Optional[Tuple[str, ...]]:
        if value is None:
            return None
        if not isinstance(value, Sequence) or isinstance(value, str) or \
                not all(isinstance(item, str) for item in value):
            raise ClaraError(
                f"lint_request {field!r} must be a list of strings"
            )
        return tuple(value) or None

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LintRequest":
        data = dict(data)
        _check_header(data, cls.kind)
        elements = cls._name_tuple(data.pop("elements", None), "elements")
        only = cls._name_tuple(data.pop("only", None), "only")
        disable = cls._name_tuple(data.pop("disable", None), "disable")
        target = _pop_target(data, cls.kind)
        baseline = cls._name_tuple(data.pop("baseline", None), "baseline")
        _reject_unknown(data, cls.kind)
        return cls(elements=elements, only=only, disable=disable,
                   target=target, baseline=baseline)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": WIRE_SCHEMA,
            "kind": self.kind,
            "elements": None if self.elements is None else list(self.elements),
            "only": None if self.only is None else list(self.only),
            "disable": None if self.disable is None else list(self.disable),
            "target": self.target,
            "baseline": None if self.baseline is None else list(self.baseline),
        }


@dataclass(frozen=True)
class ColocationRequest:
    """Rank every pair of the named elements friendliest-first under
    one workload (the server profiles each element on the host trace
    to build its :class:`~repro.core.colocation.NFCandidate`)."""

    elements: Tuple[str, ...]
    workload: WorkloadSpec = WorkloadSpec()
    trace_seed: int = 0

    kind = "colocation_request"

    def __post_init__(self) -> None:
        if len(self.elements) < 2:
            raise ClaraError(
                "colocation_request needs at least two elements"
            )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ColocationRequest":
        data = dict(data)
        _check_header(data, cls.kind)
        elements = data.pop("elements", None)
        if not isinstance(elements, Sequence) or isinstance(elements, str) \
                or not all(isinstance(item, str) for item in elements):
            raise ClaraError(
                "colocation_request needs an 'elements' list of names"
            )
        workload = workload_from_dict(data.pop("workload", {}) or {})
        trace_seed = _pop_trace_seed(data, cls.kind)
        _reject_unknown(data, cls.kind)
        return cls(elements=tuple(elements), workload=workload,
                   trace_seed=trace_seed)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": WIRE_SCHEMA,
            "kind": self.kind,
            "elements": list(self.elements),
            "workload": workload_to_dict(self.workload),
            "trace_seed": self.trace_seed,
        }


# ---------------------------------------------------------------------------
# The response envelope (shared by the CLI's --json paths and the server).
# ---------------------------------------------------------------------------

def envelope(kind: str, result: Any) -> Dict[str, Any]:
    """A success envelope around one result payload.  ``request_id``
    is read from the ambient request context at build time — the HTTP
    handler and ``--request-id`` CLI runs install one, so the same
    correlation id lands in the body without parameter threading
    (``null`` outside any request context, keeping plain CLI output
    byte-reproducible)."""
    return {
        "schema": WIRE_SCHEMA,
        "kind": kind,
        "request_id": current_request_id(),
        "result": result,
        "error": None,
    }


def error_envelope(exc: BaseException, kind: str = "error") -> Dict[str, Any]:
    """The failure envelope: ``result`` is null, ``error`` carries the
    typed-exception facts both transports document."""
    return {
        "schema": WIRE_SCHEMA,
        "kind": kind,
        "request_id": current_request_id(),
        "result": None,
        "error": {
            "type": type(exc).__name__,
            "message": str(exc),
            "exit_code": getattr(exc, "exit_code", 1),
            "http_status": http_status_for(exc),
        },
    }


def dump_envelope(env: Mapping[str, Any]) -> str:
    """The one canonical rendering (2-space indent, no trailing
    newline) — CLI stdout and HTTP bodies are byte-identical because
    both go through here."""
    return json.dumps(env, indent=2)


def port_config_to_dict(config) -> Dict[str, Any]:
    """Stable JSON layout of a :class:`~repro.nic.port.PortConfig`."""
    return {
        "use_checksum_accel": config.use_checksum_accel,
        "crc_accel_blocks": sorted(config.crc_accel_blocks),
        "crypto_accel_blocks": sorted(config.crypto_accel_blocks),
        "lpm_accel_blocks": sorted(config.lpm_accel_blocks),
        "placement": dict(sorted(config.placement.items())),
        "packs": [
            {"variables": list(pack.variables),
             "access_bytes": pack.access_bytes}
            for pack in config.packs
        ],
        "cores": config.cores,
    }


def analysis_result_payload(analysis, config) -> Dict[str, Any]:
    """The ``analysis_result`` payload: the versioned
    :meth:`~repro.core.pipeline.AnalysisResult.to_dict` layout plus the
    suggested port configuration."""
    payload = analysis.to_dict()
    payload["port_config"] = port_config_to_dict(config)
    return payload


def lint_run_payload(
    reports: Sequence[Any],
    target: Optional[str] = None,
    stats: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """The ``lint_run`` payload: every element's schema-versioned
    :class:`~repro.nfir.analysis.lint.LintReport` plus the totals the
    exit-code protocol is based on.  ``target`` is the NIC backend the
    rules checked against (``None`` means the registry default);
    ``stats`` carries the run's baseline counter from
    :func:`~repro.serve.handlers.run_lint_reports`.  Cache hit/miss
    counters are deliberately *not* part of the payload — they vary
    between transports and runs, and the payload must stay
    byte-identical for identical lint results (they are observable
    via metrics instead)."""
    from repro.nic.targets import resolve_target

    n_errors = sum(r.n_errors for r in reports)
    n_warnings = sum(r.n_warnings for r in reports)
    n_suppressed = sum(len(r.suppressed) for r in reports)
    return {
        "target": resolve_target(target).name,
        "reports": [report.to_dict() for report in reports],
        "n_errors": n_errors,
        "n_warnings": n_warnings,
        "n_suppressed": n_suppressed,
        "n_baselined": (
            int(stats.get("n_baselined", 0)) if stats is not None else 0
        ),
    }


def request_from_dict(data: Mapping[str, Any]):
    """Dispatch a request dict to its dataclass by ``kind`` (used by
    transports that receive envelopes of unknown kind)."""
    kinds = {
        cls.kind: cls
        for cls in (AnalyzeRequest, LintRequest, ColocationRequest)
    }
    kind = data.get("kind")
    if kind not in kinds:
        raise ClaraError(
            f"unknown request kind {kind!r}"
            f" (known: {', '.join(sorted(kinds))})"
        )
    return kinds[kind].from_dict(data)


#: request kinds this build speaks, for /healthz introspection.
REQUEST_KINDS: List[str] = [
    AnalyzeRequest.kind, LintRequest.kind, ColocationRequest.kind,
]
