"""The state-footprint abstract domain: what an NF provably does to
each stateful global.

For every global the analysis derives, across all functions of the
module:

* **access mix** — read/write counts, including framework API calls
  (``hashmap_find`` reads its backing global, ``vector_push`` writes
  it), and from them the *read-only* verdict a scale-out race check
  cares about: replicas of a never-written table cannot diverge;
* **keying** — *per-flow* (indexed/keyed by packet-derived values, so
  concurrent flows touch disjoint entries) vs *cross-flow* (a shared
  scalar or an index independent of the packet, where every core
  contends on the same bytes);
* **worst-case resident bytes** — the byte span the NF can actually
  address, computed from the interval domain's bounds on GEP indices
  (an array indexed by ``hash & 0xff`` touches at most 256 entries no
  matter the declared capacity).  API-managed structures fall back to
  their declared backing store: baremetal NICs pre-size them.

Consumed by the second-generation lint rules: CL011 checks resident
bounds against the active target's memory regions, CL012 exonerates
read-only shared state from CL007's race warnings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.nfir.analysis.absint import Interval, IntervalAnalysis
from repro.nfir.annotate import (
    build_alloca_points_to,
    pointer_target,
    trace_pointer_root,
)
from repro.nfir.function import Function, GlobalVariable, Module
from repro.nfir.instructions import Call, GEP, Instruction, Load, Store
from repro.nfir.types import ArrayType, StructType
from repro.nfir.values import Value

__all__ = [
    "API_READS",
    "API_WRITES",
    "StateFootprint",
    "module_footprints",
    "read_only_globals",
]

#: Framework APIs that only *read* / only *write* their backing global
#: (mirrors repro.click.framework; kept local so repro.nfir stays
#: independent of the frontend package).
API_READS = frozenset({
    "hashmap_find", "hashmap_size", "vector_at", "vector_size",
})
API_WRITES = frozenset({
    "hashmap_insert", "hashmap_erase", "vector_push", "vector_remove",
})

#: keying verdicts.
PER_FLOW = "per-flow"
CROSS_FLOW = "cross-flow"


@dataclass
class StateFootprint:
    """What the module provably does to one stateful global."""

    name: str
    kind: str                #: scalar / array / struct / hashmap / vector
    declared_bytes: int
    n_reads: int = 0
    n_writes: int = 0
    #: worst-case bytes the NF can address (<= declared_bytes); equals
    #: declared_bytes when no range proof narrows it.
    resident_bytes: int = 0
    #: whether the resident bound is sharper than the declaration.
    resident_proven: bool = False
    keying: str = CROSS_FLOW

    @property
    def read_only(self) -> bool:
        """Only ever loaded (and read via read-only APIs) — replicas
        cannot diverge under scale-out."""
        return self.n_reads > 0 and self.n_writes == 0

    @property
    def accessed(self) -> bool:
        return self.n_reads > 0 or self.n_writes > 0

    @property
    def per_flow(self) -> bool:
        return self.keying == PER_FLOW

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "declared_bytes": self.declared_bytes,
            "resident_bytes": self.resident_bytes,
            "resident_proven": self.resident_proven,
            "n_reads": self.n_reads,
            "n_writes": self.n_writes,
            "read_only": self.read_only,
            "keying": self.keying,
        }


def read_only_globals(module: Module) -> Set[str]:
    """Names of stateful globals the module never writes (through
    stores or writing framework APIs) but does read somewhere — the
    cheap, interval-free core of the read-only verdict."""
    reads: Set[str] = set()
    writes: Set[str] = set()
    for function in module.functions.values():
        for instr in function.instructions():
            if isinstance(instr, Load):
                root = trace_pointer_root(instr.ptr)
                if isinstance(root, GlobalVariable):
                    reads.add(root.name)
            elif isinstance(instr, Store):
                root = trace_pointer_root(instr.ptr)
                if isinstance(root, GlobalVariable):
                    writes.add(root.name)
            elif isinstance(instr, Call):
                for arg in instr.args:
                    root = trace_pointer_root(arg)
                    if not isinstance(root, GlobalVariable):
                        continue
                    if instr.callee in API_READS:
                        reads.add(root.name)
                    elif instr.callee in API_WRITES:
                        writes.add(root.name)
                    else:
                        reads.add(root.name)
                        writes.add(root.name)
    return reads - writes


def _stores_by_slot(function: Function) -> Dict[int, List[Value]]:
    """Values stored into each alloca slot, flow-insensitively (a may-
    analysis is all the packet-derivation test needs)."""
    from repro.nfir.analysis.dataflow import slot_of

    out: Dict[int, List[Value]] = {}
    for instr in function.instructions():
        if isinstance(instr, Store):
            slot = slot_of(instr.ptr)
            if slot is not None:
                out.setdefault(id(slot), []).append(instr.value)
    return out


def _packet_derived(
    value: Value,
    alloca_map,
    stores_by_slot: Dict[int, List[Value]],
    budget: int = 200,
) -> bool:
    """Whether a value's operand DAG reaches packet bytes (a load from
    the packet buffer, a packet-handler argument, or an API result) —
    the test that makes an index *flow-keyed*.  Chases values through
    local slots (the frontend round-trips everything through allocas),
    including pointer values: a hashmap key struct filled from header
    fields is packet-derived."""
    from repro.nfir.analysis.dataflow import slot_of
    from repro.nfir.instructions import Alloca
    from repro.nfir.values import Argument

    seen: Set[int] = set()
    stack = [value]
    while stack and len(seen) < budget:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Argument):
            return True
        if isinstance(node, (Load, GEP, Alloca)):
            ptr = node if isinstance(node, (GEP, Alloca)) else node.ptr
            if pointer_target(ptr, alloca_map) == "packet":
                return True
            slot = slot_of(ptr)
            if slot is not None:
                stack.extend(stores_by_slot.get(id(slot), ()))
            continue
        if isinstance(node, Call):
            return True
        if isinstance(node, Instruction):
            stack.extend(node.operands)
    return False


def _access_span(
    ptr: Value, access_bytes: int, lookup
) -> Optional[Tuple[int, int]]:
    """Byte span ``[lo, hi)`` of one load/store relative to its root
    global, walking the GEP chain with interval bounds on every array
    index (``None`` when the pointer is not a GEP chain off a global).
    """
    chain: List[GEP] = []
    node = ptr
    while isinstance(node, GEP):
        chain.append(node)
        node = node.base
    if not isinstance(node, GlobalVariable):
        return None
    lo, hi = 0, 0
    for gep in reversed(chain):
        pointee = gep.base.type.pointee  # type: ignore[union-attr]
        for idx in gep.indices:
            if isinstance(idx, str):
                assert isinstance(pointee, StructType)
                offset = pointee.field_offset(idx)
                lo += offset
                hi += offset
                pointee = pointee.field_type(idx)
            else:
                assert isinstance(pointee, ArrayType)
                element_bytes = pointee.element.size_bytes()
                iv: Optional[Interval] = lookup(idx)
                if iv is None:
                    iv = Interval(0, max(pointee.count - 1, 0))
                else:
                    capped = iv.meet(Interval(0, max(pointee.count - 1, 0)))
                    iv = capped if capped is not None else Interval(
                        0, max(pointee.count - 1, 0)
                    )
                lo += iv.lo * element_bytes
                hi += iv.hi * element_bytes
                pointee = pointee.element
    return lo, hi + access_bytes


def module_footprints(
    module: Module,
    analyses: Optional[Dict[str, IntervalAnalysis]] = None,
) -> Dict[str, StateFootprint]:
    """The state footprint of every global in ``module``.

    ``analyses`` supplies pre-solved interval fixpoints per function
    (e.g. from a shared lint context); missing ones are solved here.
    """
    if analyses is None:
        analyses = {}
    footprints = {
        name: StateFootprint(
            name=name,
            kind=g.kind,
            declared_bytes=g.size_bytes,
            resident_bytes=g.size_bytes,
        )
        for name, g in module.globals.items()
    }
    spans: Dict[str, List[Tuple[int, int]]] = {name: [] for name in footprints}
    unbounded: Set[str] = set()

    for function in module.functions.values():
        analysis = analyses.get(function.name)
        if analysis is None:
            analysis = analyses[function.name] = IntervalAnalysis(function)
        alloca_map = build_alloca_points_to(function)
        slot_stores = _stores_by_slot(function)
        for block in function.blocks:
            for instr, lookup in analysis.walk(block):
                if isinstance(instr, (Load, Store)):
                    ptr = instr.ptr
                    root = trace_pointer_root(ptr)
                    if not isinstance(root, GlobalVariable):
                        continue
                    fp = footprints[root.name]
                    if isinstance(instr, Load):
                        fp.n_reads += 1
                        access_bytes = instr.type.size_bytes()
                    else:
                        fp.n_writes += 1
                        access_bytes = instr.value.type.size_bytes()
                    span = _access_span(ptr, access_bytes, lookup)
                    if span is None:
                        unbounded.add(root.name)
                    else:
                        spans[root.name].append(span)
                    index_values = [
                        idx for idx in _gep_indices(ptr)
                        if isinstance(idx, Value)
                    ]
                    if index_values and any(
                        _packet_derived(idx, alloca_map, slot_stores)
                        for idx in index_values
                    ):
                        fp.keying = PER_FLOW
                elif isinstance(instr, Call):
                    backing = [
                        arg for arg in instr.args
                        if isinstance(
                            trace_pointer_root(arg), GlobalVariable
                        )
                    ]
                    for arg in backing:
                        root = trace_pointer_root(arg)
                        fp = footprints[root.name]
                        if instr.callee in API_READS:
                            fp.n_reads += 1
                        elif instr.callee in API_WRITES:
                            fp.n_writes += 1
                        else:
                            fp.n_reads += 1
                            fp.n_writes += 1
                        # API-managed structures are addressed by key,
                        # not byte span: the backing store stays fully
                        # resident (pre-sized, no runtime allocation).
                        unbounded.add(root.name)
                        keys = [a for a in instr.args if a is not arg]
                        if any(
                            _packet_derived(k, alloca_map, slot_stores)
                            for k in keys
                        ):
                            fp.keying = PER_FLOW

    for name, fp in footprints.items():
        if name in unbounded or not spans[name]:
            continue
        lo = min(s[0] for s in spans[name])
        hi = max(s[1] for s in spans[name])
        resident = min(max(hi - lo, 0), fp.declared_bytes)
        if resident < fp.declared_bytes:
            fp.resident_bytes = resident
            fp.resident_proven = True
    return footprints


def _gep_indices(ptr: Value) -> Iterable[object]:
    node = ptr
    while isinstance(node, GEP):
        yield from node.indices
        node = node.base
