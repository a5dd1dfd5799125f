"""Functions, global variables, and modules.

A :class:`Module` corresponds to one lowered NF element: its packet
handler, any internal subroutines, and the element's *stateful* global
data structures (flow tables, counters, ...), which drive the state
placement and coalescing analyses (paper Sections 4.3-4.4).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.nfir.block import BasicBlock
from repro.nfir.types import IRType, PointerType, VOID
from repro.nfir.values import Argument, Value

# Global kinds mirror the Click stateful structures from Section 3.3.
GLOBAL_KINDS = ("scalar", "array", "struct", "hashmap", "vector")


class GlobalVariable(Value):
    """A module-level stateful variable.

    ``size_bytes`` is the footprint the placement ILP reasons about; for
    hashmaps/vectors it is the pre-sized backing store (baremetal NICs
    have no runtime allocation, Section 3.3).
    """

    def __init__(
        self,
        name: str,
        type_: IRType,
        kind: str = "scalar",
        size_bytes: Optional[int] = None,
        entries: int = 1,
    ) -> None:
        if kind not in GLOBAL_KINDS:
            raise ValueError(f"unknown global kind {kind!r}")
        super().__init__(PointerType(type_), name)
        self.value_type = type_
        self.kind = kind
        self.entries = entries
        # `type_` already encodes the full footprint (arrays carry
        # their element count); `entries` is metadata, not a multiplier.
        self.size_bytes = (
            size_bytes if size_bytes is not None else type_.size_bytes()
        )

    def ref(self) -> str:
        return f"@{self.name}"


class Function:
    def __init__(
        self,
        name: str,
        args: Sequence[Tuple[str, IRType]] = (),
        ret_type: IRType = VOID,
        is_api: bool = False,
    ) -> None:
        self.name = name
        self.args: List[Argument] = [
            Argument(t, n, i) for i, (n, t) in enumerate(args)
        ]
        self.ret_type = ret_type
        self.is_api = is_api
        self.blocks: List[BasicBlock] = []
        self._next_id = 0

    def add_block(self, name: Optional[str] = None) -> BasicBlock:
        if name is None:
            name = f"bb{len(self.blocks)}"
        if any(b.name == name for b in self.blocks):
            raise ValueError(f"duplicate block name {name!r} in {self.name}")
        block = BasicBlock(name, parent=self)
        self.blocks.append(block)
        return block

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def next_value_name(self, prefix: str = "v") -> str:
        self._next_id += 1
        return f"{prefix}{self._next_id}"

    def instructions(self) -> Iterator:
        for block in self.blocks:
            yield from block.instructions

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Function {self.name} ({len(self.blocks)} blocks)>"


class Module:
    def __init__(self, name: str) -> None:
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalVariable] = {}
        # Free-form annotations (e.g. the source ElementDef, synthesis
        # provenance).  Not printed/parsed.
        self.meta: Dict[str, object] = {}

    def add_function(self, function: Function) -> Function:
        if function.name in self.functions:
            raise ValueError(f"duplicate function {function.name!r}")
        self.functions[function.name] = function
        return function

    def add_global(self, global_var: GlobalVariable) -> GlobalVariable:
        if global_var.name in self.globals:
            raise ValueError(f"duplicate global {global_var.name!r}")
        self.globals[global_var.name] = global_var
        return global_var

    def get_function(self, name: str) -> Function:
        return self.functions[name]

    @property
    def handler(self) -> Function:
        """The packet-handler entry point of the element.

        Click elements use ``simple_action``/``push``; our frontend
        always names the entry ``pkt_handler``.
        """
        if "pkt_handler" in self.functions:
            return self.functions["pkt_handler"]
        raise KeyError(f"module {self.name} has no pkt_handler")

    def total_state_bytes(self) -> int:
        return sum(g.size_bytes for g in self.globals.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Module {self.name} ({len(self.functions)} funcs,"
            f" {len(self.globals)} globals)>"
        )
