"""NFIR instruction set.

The opcode inventory is a faithful subset of LLVM's: integer binary
arithmetic/logic, integer comparisons, ``select``, width casts, stack
allocation, loads/stores, ``getelementptr``-style field addressing,
calls, and the usual terminators.  Clara's analyses (paper Section 3.1)
only need to distinguish compute instructions, memory accesses, and
framework API calls, but keeping the full shape of each instruction lets
the "opaque" SmartNIC compiler in :mod:`repro.nic.compiler` perform the
realistic instruction selection and fusion the paper's LSTM must learn.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.nfir.types import IntType, IRType, PointerType, StructType, VOID, I1
from repro.nfir.values import Value

if TYPE_CHECKING:  # pragma: no cover
    from repro.nfir.block import BasicBlock

BINARY_OPCODES = (
    "add",
    "sub",
    "mul",
    "udiv",
    "sdiv",
    "urem",
    "srem",
    "and",
    "or",
    "xor",
    "shl",
    "lshr",
    "ashr",
)

CAST_OPCODES = ("zext", "sext", "trunc", "bitcast")

ICMP_PREDICATES = (
    "eq",
    "ne",
    "ult",
    "ule",
    "ugt",
    "uge",
    "slt",
    "sle",
    "sgt",
    "sge",
)

# Calls are tagged by how the analysis must treat them (Section 3.1/3.3).
CALL_KIND_API = "api"  # host framework API, handled by reverse porting
CALL_KIND_INTERNAL = "internal"  # NF subroutine, inlined before analysis
CALL_KIND_INTRINSIC = "intrinsic"  # low-level helper with known NIC cost


class Instruction(Value):
    """Base class of all instructions.  Instructions that produce a
    value are themselves :class:`Value` s (SSA style)."""

    opcode: str = "?"

    def __init__(self, type_: IRType, name: Optional[str] = None) -> None:
        super().__init__(type_, name)
        self.parent: Optional["BasicBlock"] = None
        self.meta: Dict[str, object] = {}

    @property
    def operands(self) -> List[Value]:
        return []

    def replace_operands(self, mapping: Dict[Value, Value]) -> None:
        """Rewrite operands according to ``mapping`` (used by the
        inliner and by peephole rewrites)."""
        raise NotImplementedError

    @property
    def is_terminator(self) -> bool:
        return isinstance(self, (Br, CondBr, Ret))

    @property
    def produces_value(self) -> bool:
        return not self.type.is_void


def _subst(value: Value, mapping: Dict[Value, Value]) -> Value:
    return mapping.get(value, value)


class BinaryOp(Instruction):
    def __init__(
        self, opcode: str, lhs: Value, rhs: Value, name: Optional[str] = None
    ) -> None:
        if opcode not in BINARY_OPCODES:
            raise ValueError(f"unknown binary opcode {opcode!r}")
        if lhs.type != rhs.type:
            raise TypeError(
                f"binary op {opcode} operand types differ: {lhs.type} vs {rhs.type}"
            )
        super().__init__(lhs.type, name)
        self.opcode = opcode
        self.lhs = lhs
        self.rhs = rhs

    @property
    def operands(self) -> List[Value]:
        return [self.lhs, self.rhs]

    def replace_operands(self, mapping: Dict[Value, Value]) -> None:
        self.lhs = _subst(self.lhs, mapping)
        self.rhs = _subst(self.rhs, mapping)


class ICmp(Instruction):
    opcode = "icmp"

    def __init__(
        self, predicate: str, lhs: Value, rhs: Value, name: Optional[str] = None
    ) -> None:
        if predicate not in ICMP_PREDICATES:
            raise ValueError(f"unknown icmp predicate {predicate!r}")
        if lhs.type != rhs.type:
            raise TypeError(
                f"icmp operand types differ: {lhs.type} vs {rhs.type}"
            )
        if lhs.type.is_pointer and predicate not in ("eq", "ne"):
            raise TypeError("pointer comparison must be eq or ne")
        super().__init__(I1, name)
        self.predicate = predicate
        self.lhs = lhs
        self.rhs = rhs

    @property
    def operands(self) -> List[Value]:
        return [self.lhs, self.rhs]

    def replace_operands(self, mapping: Dict[Value, Value]) -> None:
        self.lhs = _subst(self.lhs, mapping)
        self.rhs = _subst(self.rhs, mapping)


class Select(Instruction):
    opcode = "select"

    def __init__(
        self, cond: Value, if_true: Value, if_false: Value, name: Optional[str] = None
    ) -> None:
        if if_true.type != if_false.type:
            raise TypeError("select arms must have the same type")
        super().__init__(if_true.type, name)
        self.cond = cond
        self.if_true = if_true
        self.if_false = if_false

    @property
    def operands(self) -> List[Value]:
        return [self.cond, self.if_true, self.if_false]

    def replace_operands(self, mapping: Dict[Value, Value]) -> None:
        self.cond = _subst(self.cond, mapping)
        self.if_true = _subst(self.if_true, mapping)
        self.if_false = _subst(self.if_false, mapping)


class Cast(Instruction):
    def __init__(
        self, opcode: str, value: Value, to_type: IRType, name: Optional[str] = None
    ) -> None:
        if opcode not in CAST_OPCODES:
            raise ValueError(f"unknown cast opcode {opcode!r}")
        if opcode in ("zext", "sext"):
            if not (value.type.is_integer and to_type.is_integer):
                raise TypeError(f"{opcode} requires integer types")
            if to_type.size_bytes() * 8 < value.type.bits:  # type: ignore[union-attr]
                raise TypeError(f"{opcode} must widen, not narrow")
        if opcode == "trunc":
            if not (value.type.is_integer and to_type.is_integer):
                raise TypeError("trunc requires integer types")
        super().__init__(to_type, name)
        self.opcode = opcode
        self.value = value

    @property
    def operands(self) -> List[Value]:
        return [self.value]

    def replace_operands(self, mapping: Dict[Value, Value]) -> None:
        self.value = _subst(self.value, mapping)


class Alloca(Instruction):
    """Stack allocation of a function-local variable.

    Per the paper, locals are *stateless*: they are temporary per-packet
    storage, and the SmartNIC compiler's register allocator generally
    keeps them out of memory entirely (Section 3.2).
    """

    opcode = "alloca"

    def __init__(self, allocated_type: IRType, name: Optional[str] = None) -> None:
        super().__init__(PointerType(allocated_type), name)
        self.allocated_type = allocated_type

    def replace_operands(self, mapping: Dict[Value, Value]) -> None:
        pass


class Load(Instruction):
    opcode = "load"

    def __init__(self, ptr: Value, name: Optional[str] = None) -> None:
        if not ptr.type.is_pointer:
            raise TypeError(f"load requires a pointer operand, got {ptr.type}")
        super().__init__(ptr.type.pointee, name)  # type: ignore[union-attr]
        self.ptr = ptr

    @property
    def operands(self) -> List[Value]:
        return [self.ptr]

    def replace_operands(self, mapping: Dict[Value, Value]) -> None:
        self.ptr = _subst(self.ptr, mapping)


class Store(Instruction):
    opcode = "store"

    def __init__(self, value: Value, ptr: Value) -> None:
        if not ptr.type.is_pointer:
            raise TypeError(f"store requires a pointer target, got {ptr.type}")
        if ptr.type.pointee != value.type:  # type: ignore[union-attr]
            raise TypeError(
                f"store type mismatch: {value.type} into {ptr.type}"
            )
        super().__init__(VOID)
        self.value = value
        self.ptr = ptr

    @property
    def operands(self) -> List[Value]:
        return [self.value, self.ptr]

    def replace_operands(self, mapping: Dict[Value, Value]) -> None:
        self.value = _subst(self.value, mapping)
        self.ptr = _subst(self.ptr, mapping)


class GEP(Instruction):
    """Address computation: struct-field or array-element addressing.

    ``indices`` alternates between struct field names (``str``) and
    array index values (:class:`Value`), walked from the base pointee
    type.  This is deliberately higher level than LLVM's integer GEP
    indices — it keeps field names visible for Clara's vocabulary
    compaction, which preserves "well-defined header field names"
    (Section 3.2).
    """

    opcode = "getelementptr"

    def __init__(
        self,
        base: Value,
        indices: Sequence[object],
        name: Optional[str] = None,
    ) -> None:
        if not base.type.is_pointer:
            raise TypeError("GEP base must be a pointer")
        pointee = base.type.pointee  # type: ignore[union-attr]
        for idx in indices:
            if isinstance(idx, str):
                if not isinstance(pointee, StructType):
                    raise TypeError(
                        f"field index {idx!r} into non-struct type {pointee}"
                    )
                pointee = pointee.field_type(idx)
            elif isinstance(idx, Value):
                from repro.nfir.types import ArrayType

                if not isinstance(pointee, ArrayType):
                    raise TypeError(f"array index into non-array type {pointee}")
                pointee = pointee.element
            else:
                raise TypeError(f"bad GEP index {idx!r}")
        super().__init__(PointerType(pointee), name)
        self.base = base
        self.indices: List[object] = list(indices)

    @property
    def operands(self) -> List[Value]:
        ops: List[Value] = [self.base]
        ops.extend(i for i in self.indices if isinstance(i, Value))
        return ops

    def replace_operands(self, mapping: Dict[Value, Value]) -> None:
        self.base = _subst(self.base, mapping)
        self.indices = [
            _subst(i, mapping) if isinstance(i, Value) else i for i in self.indices
        ]


class Call(Instruction):
    opcode = "call"

    def __init__(
        self,
        callee: str,
        args: Sequence[Value],
        ret_type: IRType,
        kind: str = CALL_KIND_INTERNAL,
        name: Optional[str] = None,
    ) -> None:
        if kind not in (CALL_KIND_API, CALL_KIND_INTERNAL, CALL_KIND_INTRINSIC):
            raise ValueError(f"unknown call kind {kind!r}")
        super().__init__(ret_type, name)
        self.callee = callee
        self.args: List[Value] = list(args)
        self.kind = kind

    @property
    def operands(self) -> List[Value]:
        return list(self.args)

    def replace_operands(self, mapping: Dict[Value, Value]) -> None:
        self.args = [_subst(a, mapping) for a in self.args]


class Br(Instruction):
    opcode = "br"

    def __init__(self, target: "BasicBlock") -> None:
        super().__init__(VOID)
        self.target = target

    def replace_operands(self, mapping: Dict[Value, Value]) -> None:
        pass

    def successors(self) -> List["BasicBlock"]:
        return [self.target]


class CondBr(Instruction):
    opcode = "condbr"

    def __init__(
        self, cond: Value, if_true: "BasicBlock", if_false: "BasicBlock"
    ) -> None:
        super().__init__(VOID)
        self.cond = cond
        self.if_true = if_true
        self.if_false = if_false

    @property
    def operands(self) -> List[Value]:
        return [self.cond]

    def replace_operands(self, mapping: Dict[Value, Value]) -> None:
        self.cond = _subst(self.cond, mapping)

    def successors(self) -> List["BasicBlock"]:
        return [self.if_true, self.if_false]


class Ret(Instruction):
    opcode = "ret"

    def __init__(self, value: Optional[Value] = None) -> None:
        super().__init__(VOID)
        self.value = value

    @property
    def operands(self) -> List[Value]:
        return [] if self.value is None else [self.value]

    def replace_operands(self, mapping: Dict[Value, Value]) -> None:
        if self.value is not None:
            self.value = _subst(self.value, mapping)


class Phi(Instruction):
    """SSA phi node.  The ClickScript frontend lowers locals through
    allocas (matching Clara's use of mostly-unoptimized LLVM IR), so
    phis appear only in hand-built or optimizer-produced IR."""

    opcode = "phi"

    def __init__(
        self,
        type_: IRType,
        incomings: Sequence[Tuple[Value, "BasicBlock"]] = (),
        name: Optional[str] = None,
    ) -> None:
        super().__init__(type_, name)
        self.incomings: List[Tuple[Value, "BasicBlock"]] = list(incomings)

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        self.incomings.append((value, block))

    @property
    def operands(self) -> List[Value]:
        return [v for v, _ in self.incomings]

    def replace_operands(self, mapping: Dict[Value, Value]) -> None:
        self.incomings = [(_subst(v, mapping), b) for v, b in self.incomings]


@functools.cache
def _binary_kernel(opcode: str, bits: int) -> Callable[[int, int], int]:
    mask = (1 << bits) - 1
    sign = 1 << (bits - 1)

    def signed(x: int) -> int:
        return ((x & mask) ^ sign) - sign

    def sdiv(lhs: int, rhs: int) -> int:
        sl, sr = signed(lhs), signed(rhs)
        if sr == 0:
            return 0
        q = abs(sl) // abs(sr)
        if (sl < 0) != (sr < 0):
            q = -q
        return q & mask

    def srem(lhs: int, rhs: int) -> int:
        sl, sr = signed(lhs), signed(rhs)
        if sr == 0:
            return 0
        r = abs(sl) % abs(sr)
        if sl < 0:
            r = -r
        return r & mask

    # Operands are reduced modulo 2**bits; shift amounts modulo the
    # width (a power of two, so ``rhs % bits`` equals the masked form).
    kernels: Dict[str, Callable[[int, int], int]] = {
        "add": lambda lhs, rhs: (lhs + rhs) & mask,
        "sub": lambda lhs, rhs: (lhs - rhs) & mask,
        "mul": lambda lhs, rhs: (lhs * rhs) & mask,
        "udiv": lambda lhs, rhs: (lhs & mask) // (rhs & mask) if rhs & mask else 0,
        "sdiv": sdiv,
        "urem": lambda lhs, rhs: (lhs & mask) % (rhs & mask) if rhs & mask else 0,
        "srem": srem,
        "and": lambda lhs, rhs: lhs & rhs & mask,
        "or": lambda lhs, rhs: (lhs | rhs) & mask,
        "xor": lambda lhs, rhs: (lhs ^ rhs) & mask,
        "shl": lambda lhs, rhs: (lhs << (rhs % bits)) & mask,
        "lshr": lambda lhs, rhs: (lhs & mask) >> (rhs % bits),
        "ashr": lambda lhs, rhs: (signed(lhs) >> (rhs % bits)) & mask,
    }
    if opcode not in kernels:
        raise ValueError(f"unknown binary opcode {opcode!r}")
    return kernels[opcode]


@functools.cache
def _icmp_kernel(predicate: str, bits: int) -> Callable[[int, int], int]:
    mask = (1 << bits) - 1
    # Flipping the sign bit maps signed order onto unsigned order.
    sign = 1 << (bits - 1)
    kernels: Dict[str, Callable[[int, int], int]] = {
        "eq": lambda lhs, rhs: 1 if lhs & mask == rhs & mask else 0,
        "ne": lambda lhs, rhs: 1 if lhs & mask != rhs & mask else 0,
        "ult": lambda lhs, rhs: 1 if lhs & mask < rhs & mask else 0,
        "ule": lambda lhs, rhs: 1 if lhs & mask <= rhs & mask else 0,
        "ugt": lambda lhs, rhs: 1 if lhs & mask > rhs & mask else 0,
        "uge": lambda lhs, rhs: 1 if lhs & mask >= rhs & mask else 0,
        "slt": lambda lhs, rhs: 1 if (lhs & mask) ^ sign < (rhs & mask) ^ sign else 0,
        "sle": lambda lhs, rhs: 1 if (lhs & mask) ^ sign <= (rhs & mask) ^ sign else 0,
        "sgt": lambda lhs, rhs: 1 if (lhs & mask) ^ sign > (rhs & mask) ^ sign else 0,
        "sge": lambda lhs, rhs: 1 if (lhs & mask) ^ sign >= (rhs & mask) ^ sign else 0,
    }
    if predicate not in kernels:
        raise ValueError(f"unknown icmp predicate {predicate!r}")
    return kernels[predicate]


def binary_kernel(opcode: str, type_: IntType) -> Callable[[int, int], int]:
    """The two-operand function computing ``opcode`` at ``type_``.

    This is the one definition of NFIR integer arithmetic: unsigned
    wrapping to the type width, shift amounts taken modulo the width,
    and division or remainder by zero yielding 0, as on the NFP's
    software-divide helper.  :func:`evaluate_binary` calls these
    kernels; the host interpreter's generated code spells the same
    formulas inline and calls the kernels for divisions.
    """
    return _binary_kernel(opcode, type_.bits)


def icmp_kernel(predicate: str, type_: IntType) -> Callable[[int, int], int]:
    """The two-operand function computing ``icmp predicate`` at
    ``type_``; returns 0 or 1.  The host interpreter's generated code
    spells the same formulas inline."""
    return _icmp_kernel(predicate, type_.bits)


def evaluate_binary(opcode: str, type_: IntType, lhs: int, rhs: int) -> int:
    """Constant-fold a binary op on unsigned-wrapped integers.

    Shared by the IR constant folder and the SmartNIC compiler's
    peephole pass; the host interpreter inlines the same formulas, so
    all three agree on arithmetic semantics.
    """
    return binary_kernel(opcode, type_)(lhs, rhs)


def evaluate_icmp(predicate: str, type_: IntType, lhs: int, rhs: int) -> int:
    """Evaluate an integer comparison; returns 0 or 1."""
    return icmp_kernel(predicate, type_)(lhs, rhs)
