"""Offloading insights: the structured output of Clara's analyses
(the ``Insights`` collection of the paper's Figure 3 algorithm)."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.nfir.analysis import Diagnostic

#: version of the ``to_dict()``/``to_json()`` layout emitted by
#: :class:`Insight` and :class:`InsightReport` (documented in
#: docs/API.md; bump on incompatible changes).  Schema 2 adds the
#: ``diagnostics`` list (offload-lint findings); schema-1 payloads are
#: still accepted by :meth:`InsightReport.from_dict` and read back with
#: an empty diagnostics list.
INSIGHT_REPORT_SCHEMA = 2

INSIGHT_TYPES = (
    "compute",      # predicted compute instructions for a block
    "memory",       # counted memory accesses for a block
    "api",          # reverse-ported API cost profile
    "accelerator",  # accelerator opportunity (CRC/LPM)
    "scaleout",     # suggested core count
    "placement",    # state -> memory region assignment
    "coalescing",   # variable packs + access sizes
    "colocation",   # pairwise friendliness ranking
)


@dataclass
class Insight:
    """One insight entry.

    ``subject`` names what the insight is about (a block, an API, a
    global, an NF pair); ``value`` is type-specific payload.
    """

    type: str
    subject: str
    value: Any
    detail: str = ""

    def __post_init__(self) -> None:
        if self.type not in INSIGHT_TYPES:
            raise ValueError(f"unknown insight type {self.type!r}")

    def to_dict(self) -> Dict[str, Any]:
        value = self.value
        if isinstance(value, (set, frozenset, tuple)):
            value = list(value)
        return {
            "type": self.type,
            "subject": self.subject,
            "value": value,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Insight":
        return cls(
            type=str(data["type"]),
            subject=str(data["subject"]),
            value=data.get("value"),
            detail=str(data.get("detail", "")),
        )


@dataclass
class InsightReport:
    """All insights Clara generated for one NF (+ workload)."""

    nf_name: str
    workload_name: str = ""
    insights: List[Insight] = field(default_factory=list)
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def add(self, type: str, subject: str, value: Any, detail: str = "") -> Insight:
        insight = Insight(type, subject, value, detail)
        self.insights.append(insight)
        return insight

    def of_type(self, type: str) -> List[Insight]:
        return [i for i in self.insights if i.type == type]

    @property
    def predicted_compute(self) -> Dict[str, float]:
        """block name -> predicted NIC compute instructions."""
        return {i.subject: float(i.value) for i in self.of_type("compute")}

    @property
    def counted_memory(self) -> Dict[str, int]:
        """block name -> counted stateful memory accesses."""
        return {i.subject: int(i.value) for i in self.of_type("memory")}

    @property
    def suggested_cores(self) -> Optional[int]:
        found = self.of_type("scaleout")
        return int(found[0].value) if found else None

    @property
    def placement(self) -> Dict[str, str]:
        return {i.subject: str(i.value) for i in self.of_type("placement")}

    # -- stable serialization (schema versioned, documented) -----------
    def to_dict(self) -> Dict[str, Any]:
        """The stable JSON layout: ``{"schema": 2, "kind":
        "insight_report", "nf_name", "workload_name", "insights",
        "diagnostics"}``."""
        return {
            "schema": INSIGHT_REPORT_SCHEMA,
            "kind": "insight_report",
            "nf_name": self.nf_name,
            "workload_name": self.workload_name,
            "insights": [insight.to_dict() for insight in self.insights],
            "diagnostics": [diag.to_dict() for diag in self.diagnostics],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "InsightReport":
        schema = data.get("schema")
        if schema not in (1, INSIGHT_REPORT_SCHEMA):
            raise ValueError(
                f"unsupported insight-report schema {schema!r}"
                f" (expected {INSIGHT_REPORT_SCHEMA})"
            )
        report = cls(
            nf_name=str(data.get("nf_name", "")),
            workload_name=str(data.get("workload_name", "")),
        )
        for entry in data.get("insights", []):
            report.insights.append(Insight.from_dict(entry))
        for entry in data.get("diagnostics", []):
            report.diagnostics.append(Diagnostic.from_dict(entry))
        return report

    @classmethod
    def from_json(cls, text: str) -> "InsightReport":
        return cls.from_dict(json.loads(text))

    def render(self) -> str:
        """Human-readable report."""
        lines = [f"Clara offloading insights for NF '{self.nf_name}'"]
        if self.workload_name:
            lines.append(f"Workload: {self.workload_name}")
        lines.append("=" * 60)
        by_type: Dict[str, List[Insight]] = {}
        for insight in self.insights:
            by_type.setdefault(insight.type, []).append(insight)
        for type_ in INSIGHT_TYPES:
            if type_ not in by_type:
                continue
            lines.append(f"\n[{type_}]")
            for insight in by_type[type_]:
                suffix = f"  ({insight.detail})" if insight.detail else ""
                lines.append(f"  {insight.subject}: {insight.value}{suffix}")
        if self.diagnostics:
            lines.append("\n[diagnostics]")
            for diag in self.diagnostics:
                lines.append(f"  {diag.render()}")
        return "\n".join(lines) + "\n"
