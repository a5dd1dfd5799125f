"""Pluggable NIC backend descriptions and the target registry.

Historically the whole pipeline was hard-wired to one simulated
Netronome NFP: the compiler's register budget, the machine model's
core/thread topology and accelerator latencies, and the lint rules'
capacity thresholds all lived as module constants inside
``repro.nic``.  That made Clara able to answer only "will this NF run
well on *the* NFP".

This module turns the device into data.  A :class:`TargetDescription`
declares everything the toolchain needs to know about one backend:

* execution model — core/thread topology, clock, line rate, per-packet
  ingress/egress/dispatch overheads, and (for off-path devices) the
  host-DMA hop charged to every packet;
* compiler profile — general-purpose register budget and the set of
  accelerator opcodes the device actually implements;
* accelerator latency table — per-engine fixed cycles plus per-byte
  coefficients for the streaming engines (CRC, crypto);
* memory hierarchy — the same region *names* on every target
  (cls/ctm/imem/emem/emem_cache/lmem) so placement and compilation are
  target-portable, with per-target capacities/latencies/bandwidths.

Targets register under a unique name via :func:`register_target` and
are looked up with :func:`get_target`.  Two built-ins ship:

* ``nfp-4000`` — the original simulated Netronome NFP, bit-identical
  to the pre-registry constants (it *is* those constants, relocated);
* ``dpu-offpath`` — an off-path DPU in the style of recent datapath-
  accelerator SoCs: fewer, beefier cores, faster engines, tiny on-chip
  scratch, big DRAM, and a host-DMA hop added to every packet.

Everything downstream (compiler, machine model, placement, lint,
artifact cache keys, the serve API) resolves its constants through the
active target, so adding a backend is: describe it, register it, and
``clara analyze --target <name>`` works.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.errors import UnknownTargetError
from repro.nic.regions import (
    MemRegion,
    MemoryHierarchy,
    REGION_CLS,
    REGION_CTM,
    REGION_EMEM,
    REGION_EMEM_CACHE,
    REGION_IMEM,
    REGION_LMEM,
)

__all__ = [
    "DEFAULT_TARGET",
    "TARGET_SCHEMA",
    "TargetDescription",
    "get_target",
    "list_targets",
    "register_target",
    "resolve_target",
]

#: Version of the ``TargetDescription.to_dict()`` layout.
TARGET_SCHEMA = 1

#: Name of the target used when none is specified — the original NFP.
DEFAULT_TARGET = "nfp-4000"

#: Accelerator opcodes a target may implement (matches
#: :data:`repro.nic.isa.ACCEL_OPCODES`).
_KNOWN_ACCEL_OPS = ("csum", "crc", "cam_lookup", "crypto")


@dataclass(frozen=True)
class TargetDescription:
    """Declarative description of one NIC backend.

    Frozen and fully value-typed so it can key artifact caches and
    round-trip through :meth:`to_dict`/:meth:`from_dict` losslessly.
    """

    name: str
    display_name: str = ""
    description: str = ""

    # -- execution model --------------------------------------------------
    n_cores: int = 60
    threads_per_core: int = 8
    freq_hz: float = 1.2e9
    line_rate_gbps: float = 40.0
    #: fixed per-packet path overheads (ingress DMA, metadata, egress).
    ingress_cycles: float = 80.0
    egress_cycles: float = 40.0
    #: work-distribution cost per participating core (see machine.py).
    dispatch_cycles_per_core: float = 8.0
    #: extra per-packet cycles for the PCIe/DMA hop on off-path devices
    #: whose datapath round-trips through host memory; 0 for on-path.
    host_dma_cycles: float = 0.0

    # -- compiler profile -------------------------------------------------
    #: general-purpose registers per context available to the allocator.
    n_gprs: int = 28
    #: accelerator opcodes the device implements; unsupported ones fall
    #: back to the software path at compile time.
    accel_ops: Tuple[str, ...] = _KNOWN_ACCEL_OPS

    # -- accelerator latency table (cycles) -------------------------------
    accel_cycles: Mapping[str, float] = field(
        default_factory=lambda: {
            "csum": 300.0,
            "crc": 60.0,
            "cam_lookup": 40.0,
            "crypto": 90.0,
        }
    )
    #: per-byte coefficients for the streaming engines.
    crc_byte_cycles: float = 0.25
    crypto_byte_cycles: float = 0.5

    # -- memory hierarchy -------------------------------------------------
    regions: Tuple[MemRegion, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("target name must be non-empty")
        if self.n_cores <= 0 or self.threads_per_core <= 0:
            raise ValueError(f"{self.name}: bad core topology")
        if self.freq_hz <= 0 or self.line_rate_gbps <= 0:
            raise ValueError(f"{self.name}: bad clock or line rate")
        if self.n_gprs <= 0:
            raise ValueError(f"{self.name}: bad register budget")
        if self.host_dma_cycles < 0:
            raise ValueError(f"{self.name}: negative host_dma_cycles")
        unknown = set(self.accel_ops) - set(_KNOWN_ACCEL_OPS)
        if unknown:
            raise ValueError(
                f"{self.name}: unknown accelerator ops {sorted(unknown)}"
            )
        # Normalize the mutable mapping default into a plain dict and
        # freeze the op tuple ordering for deterministic round-trips.
        object.__setattr__(self, "accel_cycles", dict(self.accel_cycles))
        object.__setattr__(self, "accel_ops", tuple(self.accel_ops))
        names = {r.name for r in self.regions}
        required = {
            REGION_CLS, REGION_CTM, REGION_IMEM,
            REGION_EMEM, REGION_EMEM_CACHE, REGION_LMEM,
        }
        if self.regions and not required <= names:
            raise ValueError(
                f"{self.name}: hierarchy missing regions"
                f" {sorted(required - names)}"
            )

    # -- derived views ----------------------------------------------------
    def hierarchy(self) -> MemoryHierarchy:
        """A fresh :class:`MemoryHierarchy` for this target."""
        return MemoryHierarchy({r.name: r for r in self.regions})

    def supports(self, opcode: str) -> bool:
        return opcode in self.accel_ops

    def accel_latency(self, opcode: str) -> float:
        return float(self.accel_cycles.get(opcode, 0.0))

    def host_transfer_cycles(self, n_bytes: int) -> float:
        """Estimated cycles to move ``n_bytes`` of NF state between the
        NIC and the host at a partition cut point: the device's
        host-side hop (the PCIe/DMA round trip for off-path parts,
        ingress+egress re-traversal for on-path ones) plus wire
        serialization of the payload at line rate.  This is the cost
        model the partial-offload partition search charges per packet
        for every byte of state that crosses a cut (CL013 surfaces it
        as live-state-bytes at dominator-frontier cut points)."""
        hop = self.host_dma_cycles or (
            self.ingress_cycles + self.egress_cycles
        )
        wire_seconds = (n_bytes * 8.0) / (self.line_rate_gbps * 1e9)
        return hop + wire_seconds * self.freq_hz

    # -- (de)serialization ------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": TARGET_SCHEMA,
            "name": self.name,
            "display_name": self.display_name,
            "description": self.description,
            "n_cores": int(self.n_cores),
            "threads_per_core": int(self.threads_per_core),
            "freq_hz": float(self.freq_hz),
            "line_rate_gbps": float(self.line_rate_gbps),
            "ingress_cycles": float(self.ingress_cycles),
            "egress_cycles": float(self.egress_cycles),
            "dispatch_cycles_per_core": float(self.dispatch_cycles_per_core),
            "host_dma_cycles": float(self.host_dma_cycles),
            "n_gprs": int(self.n_gprs),
            "accel_ops": list(self.accel_ops),
            "accel_cycles": {
                op: float(cycles) for op, cycles in sorted(
                    self.accel_cycles.items()
                )
            },
            "crc_byte_cycles": float(self.crc_byte_cycles),
            "crypto_byte_cycles": float(self.crypto_byte_cycles),
            "regions": [
                {
                    "name": r.name,
                    "capacity_bytes": int(r.capacity_bytes),
                    "latency_cycles": int(r.latency_cycles),
                    "bandwidth_ops": float(r.bandwidth_ops),
                }
                for r in self.regions
            ],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TargetDescription":
        data = dict(payload)
        schema = data.pop("schema", TARGET_SCHEMA)
        if schema != TARGET_SCHEMA:
            raise ValueError(
                f"unsupported target schema {schema!r}"
                f" (this build reads {TARGET_SCHEMA})"
            )
        regions = tuple(
            MemRegion(
                name=r["name"],
                capacity_bytes=int(r["capacity_bytes"]),
                latency_cycles=int(r["latency_cycles"]),
                bandwidth_ops=float(r["bandwidth_ops"]),
            )
            for r in data.pop("regions", ())
        )
        data["accel_ops"] = tuple(data.get("accel_ops", _KNOWN_ACCEL_OPS))
        return cls(regions=regions, **data)


# ---------------------------------------------------------------------------
# The registry.
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, TargetDescription] = {}


def register_target(target: TargetDescription) -> TargetDescription:
    """Add ``target`` to the registry.  Duplicate names are a
    programming error (re-registering would silently change the
    meaning of cached artifacts keyed on the name)."""
    if target.name in _REGISTRY:
        raise ValueError(f"target {target.name!r} is already registered")
    _REGISTRY[target.name] = target
    return target


def get_target(name: str) -> TargetDescription:
    """The registered description for ``name``.

    Raises :class:`~repro.errors.UnknownTargetError` (CLI exit 12,
    HTTP 404) listing the known names on a miss.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownTargetError(
            f"unknown target {name!r} (known targets: {known})"
        ) from None


def list_targets() -> Tuple[str, ...]:
    """Registered target names, sorted."""
    return tuple(sorted(_REGISTRY))


def resolve_target(
    target: Union[str, TargetDescription, None],
) -> TargetDescription:
    """Coerce a name / description / ``None`` to a description.

    ``None`` resolves to :data:`DEFAULT_TARGET` — the single place the
    "no target given means the NFP" default lives.
    """
    if target is None:
        return get_target(DEFAULT_TARGET)
    if isinstance(target, TargetDescription):
        return target
    return get_target(target)


# ---------------------------------------------------------------------------
# Built-in targets.
# ---------------------------------------------------------------------------

#: The original simulated Netronome NFP-4000.  These constants are the
#: pre-registry module constants relocated verbatim — analyses against
#: this target are bit-identical to the pre-registry pipeline.
NFP_4000 = register_target(
    TargetDescription(
        name="nfp-4000",
        display_name="Netronome NFP-4000 (on-path SoC)",
        description=(
            "60 wimpy 1.2GHz micro-engines x 8 hardware threads, "
            "CLS/CTM/IMEM/EMEM hierarchy, inline accelerators, 40Gbps"
        ),
        n_cores=60,
        threads_per_core=8,
        freq_hz=1.2e9,
        line_rate_gbps=40.0,
        ingress_cycles=80.0,
        egress_cycles=40.0,
        dispatch_cycles_per_core=8.0,
        host_dma_cycles=0.0,
        n_gprs=28,
        accel_ops=("csum", "crc", "cam_lookup", "crypto"),
        accel_cycles={
            "csum": 300.0,
            "crc": 60.0,
            "cam_lookup": 40.0,
            "crypto": 90.0,
        },
        crc_byte_cycles=0.25,
        crypto_byte_cycles=0.5,
        regions=(
            MemRegion(REGION_CLS, 64 * 1024, 25, 2.0),
            MemRegion(REGION_CTM, 256 * 1024, 55, 1.2),
            MemRegion(REGION_IMEM, 4 * 1024 * 1024, 150, 0.4),
            MemRegion(REGION_EMEM, 2 * 1024 * 1024 * 1024, 300, 0.12),
            MemRegion(REGION_EMEM_CACHE, 3 * 1024 * 1024, 90, 0.8),
            MemRegion(REGION_LMEM, 4 * 1024, 3, 16.0),
        ),
    )
)

#: An off-path DPU with datapath accelerators, in the style of
#: "Demystifying Datapath Accelerator Enhanced Off-path SmartNIC"
#: (PAPERS.md): a handful of beefy 2.5GHz cores (2 hardware threads),
#: fast fixed-function engines, small per-core scratch, large host-side
#: DRAM, and a PCIe/DMA hop charged to every packet because the
#: datapath round-trips through the SoC's memory complex.
DPU_OFFPATH = register_target(
    TargetDescription(
        name="dpu-offpath",
        display_name="Off-path DPU (datapath accelerators)",
        description=(
            "16 beefy 2.5GHz cores x 2 threads, datapath accelerators, "
            "host-DMA hop on every packet, 100Gbps"
        ),
        n_cores=16,
        threads_per_core=2,
        freq_hz=2.5e9,
        line_rate_gbps=100.0,
        ingress_cycles=120.0,
        egress_cycles=60.0,
        dispatch_cycles_per_core=2.0,
        # ~500ns PCIe round-trip at 2.5GHz.
        host_dma_cycles=1250.0,
        n_gprs=64,
        accel_ops=("csum", "crc", "cam_lookup", "crypto"),
        accel_cycles={
            "csum": 80.0,
            "crc": 40.0,
            "cam_lookup": 30.0,
            "crypto": 50.0,
        },
        crc_byte_cycles=0.1,
        crypto_byte_cycles=0.2,
        regions=(
            # Small per-core scratch and L2-slice SRAM tiers.
            MemRegion(REGION_CLS, 8 * 1024, 6, 4.0),
            MemRegion(REGION_CTM, 32 * 1024, 12, 2.5),
            MemRegion(REGION_IMEM, 64 * 1024, 30, 1.5),
            # Big DDR behind the NOC; generous last-level cache.
            MemRegion(REGION_EMEM, 8 * 1024 * 1024 * 1024, 350, 0.25),
            MemRegion(REGION_EMEM_CACHE, 4 * 1024 * 1024, 60, 1.2),
            MemRegion(REGION_LMEM, 8 * 1024, 2, 32.0),
        ),
    )
)


def target_fingerprint(
    target: Optional[TargetDescription],
) -> Dict[str, Any]:
    """The part of a description that artifact cache keys hash.

    ``display_name``/``description`` are cosmetic and excluded, so
    re-wording a target does not invalidate trained models.
    """
    if target is None:
        return {}
    payload = target.to_dict()
    payload.pop("display_name", None)
    payload.pop("description", None)
    return payload
