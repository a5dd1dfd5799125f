"""Abstract interpretation over NFIR: the interval (value-range) domain.

A flow-sensitive abstract interpreter built on the generic worklist
solver (:func:`~repro.nfir.analysis.dataflow.solve`).  Every integer
SSA value and every scalar stack slot is mapped to an unsigned interval
``[lo, hi]`` at block granularity, with three refinements that make the
domain useful for offload lint proofs:

* **branch refinement** — along each CondBr edge the compared operands
  (and, when an operand is a whole-slot load, the slot itself) are
  narrowed by the branch condition, so ``n = min(n, 64)`` clamps
  propagate (:meth:`_IntervalProblem.edge_transfer`);
* **widening** — every block widens its output against its previous
  output once it has been visited a few times, and a value that has
  gone to top there stays top, so the fixpoint terminates on arbitrary
  CFGs (including irreducible ones, which have cycles through no
  natural-loop header; the argument is on :class:`_IntervalProblem`);
* **trip-count bounds** — loop bounds are *not* read off the widened
  counter range (widening destroys it) but re-derived per loop from the
  induction variable's step, its initial interval, and the bound's
  interval at the loop entry (:func:`loop_trip_bounds`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.nfir.analysis.dataflow import (
    DataflowProblem,
    DataflowResult,
    FORWARD,
    slot_of,
    solve,
)
from repro.nfir.analysis.dominance import DominatorTree
from repro.nfir.block import BasicBlock
from repro.nfir.function import Function
from repro.nfir.instructions import (
    Alloca,
    BinaryOp,
    Call,
    Cast,
    CondBr,
    ICmp,
    Instruction,
    Load,
    Phi,
    Select,
    Store,
)
from repro.nfir.types import IntType
from repro.nfir.values import Constant, Value

__all__ = [
    "Interval",
    "IntervalAnalysis",
    "LoopBound",
    "interval_binary",
    "interval_icmp",
    "loop_trip_bounds",
]


@dataclass(frozen=True)
class Interval:
    """An inclusive unsigned range ``[lo, hi]`` (never empty)."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo < 0 or self.lo > self.hi:
            raise ValueError(f"bad interval [{self.lo}, {self.hi}]")

    @classmethod
    def top(cls, type_: IntType) -> "Interval":
        return cls(0, type_.max_unsigned())

    @classmethod
    def const(cls, value: int) -> "Interval":
        return cls(value, value)

    @property
    def is_constant(self) -> bool:
        return self.lo == self.hi

    @property
    def width(self) -> int:
        """Number of values the interval contains."""
        return self.hi - self.lo + 1

    def is_top(self, type_: IntType) -> bool:
        return self.lo == 0 and self.hi >= type_.max_unsigned()

    def contains(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def join(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def meet(self, other: "Interval") -> Optional["Interval"]:
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None

    def widen(self, newer: "Interval", max_unsigned: int) -> "Interval":
        """Classic interval widening: an endpoint that moved since the
        previous iterate jumps straight to its type bound, so chains of
        iterates have length at most two per value."""
        lo = self.lo if newer.lo >= self.lo else 0
        hi = self.hi if newer.hi <= self.hi else max_unsigned
        return Interval(lo, hi)

    def signed_nonnegative(self, type_: IntType) -> bool:
        """Whether every member reads the same under signed and
        unsigned interpretation (fits in ``bits - 1``)."""
        return self.hi < (1 << (type_.bits - 1))

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def _bit_ceil_mask(value: int) -> int:
    """Smallest ``2**k - 1`` covering ``value``."""
    return (1 << value.bit_length()) - 1


def interval_binary(
    opcode: str, type_: IntType, a: Interval, b: Interval
) -> Interval:
    """Abstract transfer of :func:`~repro.nfir.instructions
    .evaluate_binary` — any result that could wrap degrades to top, so
    the concrete unsigned-wrapped semantics are always contained."""
    top = Interval.top(type_)
    mask = type_.max_unsigned()
    bits = type_.bits
    if opcode == "add":
        hi = a.hi + b.hi
        return Interval(a.lo + b.lo, hi) if hi <= mask else top
    if opcode == "sub":
        lo = a.lo - b.hi
        return Interval(lo, a.hi - b.lo) if lo >= 0 else top
    if opcode == "mul":
        hi = a.hi * b.hi
        return Interval(a.lo * b.lo, hi) if hi <= mask else top
    if opcode == "udiv":
        # Division by zero yields 0 (the NFP software-divide contract).
        hi = a.hi // max(b.lo, 1)
        lo = a.lo // b.hi if b.lo > 0 else 0
        return Interval(lo, hi)
    if opcode == "urem":
        hi = min(a.hi, b.hi - 1) if b.hi > 0 else 0
        return Interval(0, max(hi, 0))
    if opcode == "and":
        return Interval(0, min(a.hi, b.hi))
    if opcode == "or":
        return Interval(
            max(a.lo, b.lo), _bit_ceil_mask(max(a.hi, b.hi))
        )
    if opcode == "xor":
        return Interval(0, _bit_ceil_mask(max(a.hi, b.hi)))
    if opcode == "shl":
        if b.hi >= bits:  # shift amount is taken mod bits
            return top
        hi = a.hi << b.hi
        return Interval(a.lo << b.lo, hi) if hi <= mask else top
    if opcode == "lshr":
        if b.hi >= bits:
            return top
        return Interval(a.lo >> b.hi, a.hi >> b.lo)
    if opcode == "ashr":
        if b.hi < bits and a.signed_nonnegative(type_):
            return Interval(a.lo >> b.hi, a.hi >> b.lo)
        return top
    if opcode in ("sdiv", "srem"):
        if a.signed_nonnegative(type_) and b.signed_nonnegative(type_):
            return interval_binary(
                "udiv" if opcode == "sdiv" else "urem", type_, a, b
            )
        return top
    return top


#: unsigned counterpart of each signed predicate (valid only when both
#: operand intervals are signed-nonnegative).
_SIGNED_TO_UNSIGNED = {"slt": "ult", "sle": "ule", "sgt": "ugt", "sge": "uge"}

#: predicate that holds on the false edge of a CondBr.
_NEGATED = {
    "eq": "ne", "ne": "eq",
    "ult": "uge", "uge": "ult", "ule": "ugt", "ugt": "ule",
    "slt": "sge", "sge": "slt", "sle": "sgt", "sgt": "sle",
}

#: predicate seen from the right operand's side (a P b == b mirror(P) a).
_MIRRORED = {
    "eq": "eq", "ne": "ne",
    "ult": "ugt", "ugt": "ult", "ule": "uge", "uge": "ule",
    "slt": "sgt", "sgt": "slt", "sle": "sge", "sge": "sle",
}


def _unsigned_predicate(
    predicate: str, type_: IntType, a: Interval, b: Interval
) -> Optional[str]:
    """Reduce a predicate to its unsigned form, or ``None`` when the
    operand ranges straddle the sign boundary."""
    if predicate in _SIGNED_TO_UNSIGNED:
        if a.signed_nonnegative(type_) and b.signed_nonnegative(type_):
            return _SIGNED_TO_UNSIGNED[predicate]
        return None
    return predicate


def interval_icmp(
    predicate: str, type_: IntType, a: Interval, b: Interval
) -> Optional[int]:
    """Decide a comparison from the operand ranges: 1 (always true),
    0 (always false), or ``None`` (both outcomes possible)."""
    predicate = _unsigned_predicate(predicate, type_, a, b)
    if predicate is None:
        return None
    if predicate == "eq":
        if a.is_constant and b.is_constant and a.lo == b.lo:
            return 1
        return 0 if a.meet(b) is None else None
    if predicate == "ne":
        decided = interval_icmp("eq", type_, a, b)
        return None if decided is None else 1 - decided
    if predicate in ("ugt", "uge"):
        a, b = b, a
        predicate = _MIRRORED[predicate]
    if predicate == "ult":
        if a.hi < b.lo:
            return 1
        if a.lo >= b.hi:
            return 0
        return None
    if predicate == "ule":
        if a.hi <= b.lo:
            return 1
        if a.lo > b.hi:
            return 0
        return None
    return None


def _refine_by_predicate(
    predicate: str, type_: IntType, a: Interval, b: Interval
) -> Tuple[Interval, Interval]:
    """Narrow ``(a, b)`` assuming ``a predicate b`` holds.  On a
    contradiction (the edge is infeasible) the inputs are returned
    unchanged — conservative, never empty."""
    predicate = _unsigned_predicate(predicate, type_, a, b)
    if predicate is None:
        return a, b
    if predicate == "eq":
        both = a.meet(b)
        return (both, both) if both is not None else (a, b)
    if predicate == "ne":
        new_a, new_b = a, b
        if b.is_constant and not a.is_constant:
            if b.lo == a.lo:
                new_a = Interval(a.lo + 1, a.hi)
            elif b.lo == a.hi:
                new_a = Interval(a.lo, a.hi - 1)
        if a.is_constant and not b.is_constant:
            if a.lo == b.lo:
                new_b = Interval(b.lo + 1, b.hi)
            elif a.lo == b.hi:
                new_b = Interval(b.lo, b.hi - 1)
        return new_a, new_b
    if predicate in ("ugt", "uge"):
        b, a = _refine_by_predicate(_MIRRORED[predicate], type_, b, a)
        return a, b
    if predicate == "ult":
        if b.hi == 0 or a.lo + 1 > type_.max_unsigned():
            return a, b  # infeasible
        new_a = a.meet(Interval(0, b.hi - 1))
        new_b = b.meet(Interval(min(a.lo + 1, type_.max_unsigned()),
                                type_.max_unsigned()))
        return new_a or a, new_b or b
    if predicate == "ule":
        new_a = a.meet(Interval(0, b.hi))
        new_b = b.meet(Interval(a.lo, type_.max_unsigned()))
        return new_a or a, new_b or b
    return a, b


def _int_type(value: Value) -> Optional[IntType]:
    type_ = getattr(value, "type", None)
    return type_ if isinstance(type_, IntType) else None


# ---------------------------------------------------------------------------
# The dataflow problem.
# ---------------------------------------------------------------------------

#: abstract environment: value (SSA value or alloca slot) -> interval.
#: A value with no entry is *unconstrained* (type-based top), so
#: dropping an entry is always sound.  Constants never have one.
Env = Dict[Value, Interval]


class _IntervalProblem(DataflowProblem):
    """Forward instance of the interval domain over :data:`Env` s.

    The meet hull-joins per value.  A value that only some inputs give
    a range keeps the join of the ranges they give: a missing entry is
    read as "not reached yet", which keeps loop-entry ranges tight, but
    is optimistic where the entry went missing because the value became
    top.

    Termination: once a block has been evaluated more than
    :attr:`WIDEN_DELAY` times, each value in its output can change only
    a bounded number of times.  It can appear once.  Each endpoint can
    widen to its type bound once.  A value that loses its entry has
    gone to top and stays without an entry in that block's later
    outputs, so it disappears once.  The worklist only revisits the
    successors of a block whose output changed, so the fixpoint
    terminates on any CFG.

    The problem instance is stateful (per-block visit counts, previous
    outputs and the values gone to top drive widening), so every
    :func:`solve` call needs a fresh instance.
    """

    direction = FORWARD

    #: widening kicks in once a block has been evaluated this often —
    #: long enough to let short chains converge exactly, short enough
    #: to keep worst-case visits linear in practice.
    WIDEN_DELAY = 3

    def __init__(self, function: Function) -> None:
        self.function = function
        self._visits: Dict[str, int] = {}
        self._prev_out: Dict[str, Env] = {}
        self._gone_top: Dict[str, Set[Value]] = {}

    def boundary(self, function: Function) -> Env:
        return {}

    def initial(self, function: Function) -> Env:
        return {}

    def meet(self, a: Env, b: Env) -> Env:
        merged = dict(a)
        for value, iv in b.items():
            prev = merged.get(value)
            merged[value] = iv if prev is None else prev.join(iv)
        return merged

    # -- evaluation ----------------------------------------------------
    def value_interval(self, value: Value, env: Env) -> Optional[Interval]:
        """The interval of an integer value under ``env`` (``None`` for
        non-integer values)."""
        type_ = _int_type(value)
        if type_ is None:
            return None
        if isinstance(value, Constant):
            return Interval.const(type_.wrap(value.value))
        known = env.get(value)
        if known is not None:
            capped = known.meet(Interval.top(type_))
            return capped if capped is not None else Interval.top(type_)
        return Interval.top(type_)

    def _step(self, instr: Instruction, env: Env) -> None:
        """Update ``env`` in place across one instruction."""
        if isinstance(instr, Store):
            slot = slot_of(instr.ptr)
            if slot is None:
                return
            if instr.ptr is slot and _int_type(instr.value) is not None:
                iv = self.value_interval(instr.value, env)
                if iv is not None:
                    env[slot] = iv
                    return
            # Partial or untyped store: drop whatever we knew.
            env.pop(slot, None)
            return
        type_ = _int_type(instr)
        if type_ is None:
            return
        iv: Optional[Interval] = None
        if isinstance(instr, Load):
            if isinstance(instr.ptr, Alloca):
                iv = env.get(instr.ptr)
            # Loads through GEPs (header fields, array elements) and
            # from globals are unconstrained: type-based top captures
            # exactly the header-field range (load i8 -> [0, 255]).
        elif isinstance(instr, BinaryOp):
            a = self.value_interval(instr.lhs, env)
            b = self.value_interval(instr.rhs, env)
            if a is not None and b is not None:
                iv = interval_binary(instr.opcode, type_, a, b)
        elif isinstance(instr, ICmp):
            operand_type = _int_type(instr.lhs)
            if operand_type is not None:
                a = self.value_interval(instr.lhs, env)
                b = self.value_interval(instr.rhs, env)
                if a is not None and b is not None:
                    decided = interval_icmp(
                        instr.predicate, operand_type, a, b
                    )
                    if decided is not None:
                        iv = Interval.const(decided)
        elif isinstance(instr, Cast):
            iv = self._cast_interval(instr, type_, env)
        elif isinstance(instr, Select):
            a = self.value_interval(instr.if_true, env)
            b = self.value_interval(instr.if_false, env)
            cond = self.value_interval(instr.cond, env)
            if cond is not None and cond.is_constant:
                iv = a if cond.lo else b
            elif a is not None and b is not None:
                iv = a.join(b)
        elif isinstance(instr, Phi):
            joined: Optional[Interval] = None
            for value, _pred in instr.incomings:
                part = self.value_interval(value, env)
                if part is None:
                    joined = None
                    break
                joined = part if joined is None else joined.join(part)
            iv = joined
        elif isinstance(instr, Call):
            iv = None  # unknown result: top
        if iv is not None and not iv.is_top(type_):
            capped = iv.meet(Interval.top(type_))
            if capped is not None:
                env[instr] = capped
                return
        env.pop(instr, None)

    def _cast_interval(
        self, instr: Cast, type_: IntType, env: Env
    ) -> Optional[Interval]:
        source_type = _int_type(instr.value)
        if source_type is None:
            return None
        iv = self.value_interval(instr.value, env)
        if iv is None:
            return None
        if instr.opcode == "zext":
            return iv
        if instr.opcode == "sext":
            return iv if iv.signed_nonnegative(source_type) else None
        if instr.opcode == "trunc":
            return iv if iv.hi <= type_.max_unsigned() else None
        if instr.opcode == "bitcast" and source_type == type_:
            return iv
        return None

    # -- solver hooks --------------------------------------------------
    def transfer(self, block: BasicBlock, value: Env) -> Env:
        env = dict(value)
        for instr in block.instructions:
            self._step(instr, env)
        visits = self._visits.get(block.name, 0) + 1
        self._visits[block.name] = visits
        if visits > self.WIDEN_DELAY:
            previous = self._prev_out.get(block.name, {})
            gone = self._gone_top.setdefault(block.name, set())
            gone.update(v for v in previous if v not in env)
            for v in gone:
                env.pop(v, None)
            for v, iv in env.items():
                prev = previous.get(v)
                if prev is not None and prev != iv:
                    type_ = _int_type(v)
                    limit = (
                        type_.max_unsigned() if type_ is not None
                        else (1 << 64) - 1
                    )
                    env[v] = prev.widen(iv, limit)
        self._prev_out[block.name] = env
        return env

    def edge_transfer(
        self, source: BasicBlock, dest: BasicBlock, value: Env
    ) -> Env:
        term = source.terminator
        if not isinstance(term, CondBr) or term.if_true is term.if_false:
            return value
        cond = term.cond
        if not isinstance(cond, ICmp):
            return value
        operand_type = _int_type(cond.lhs)
        if operand_type is None:
            return value
        taken = dest is term.if_true
        predicate = cond.predicate if taken else _NEGATED[cond.predicate]
        a = self.value_interval(cond.lhs, value)
        b = self.value_interval(cond.rhs, value)
        if a is None or b is None:
            return value
        env = dict(value)
        new_a, new_b = _refine_by_predicate(predicate, operand_type, a, b)
        self._assign_refined(cond.lhs, new_a, source, env)
        self._assign_refined(cond.rhs, new_b, source, env)
        env[cond] = Interval.const(1 if taken else 0)
        return env

    def _assign_refined(
        self, operand: Value, iv: Interval, source: BasicBlock, env: Env
    ) -> None:
        if isinstance(operand, Constant) or not isinstance(
            operand, Instruction
        ):
            return
        env[operand] = iv
        # When the operand is a whole-slot load and the slot is not
        # overwritten between the load and the branch, the slot itself
        # carries the refined range into the successor (this is what
        # makes `if (n > 64) n = 64;` clamp the slot).
        if isinstance(operand, Load) and isinstance(operand.ptr, Alloca):
            if operand.parent is source and not self._stored_after(
                operand, operand.ptr, source
            ):
                current = env.get(operand.ptr)
                refined = iv if current is None else (
                    current.meet(iv) or iv
                )
                env[operand.ptr] = refined

    @staticmethod
    def _stored_after(
        load: Load, slot: Alloca, block: BasicBlock
    ) -> bool:
        seen_load = False
        for instr in block.instructions:
            if instr is load:
                seen_load = True
            elif seen_load and isinstance(instr, Store):
                if slot_of(instr.ptr) is slot:
                    return True
        return False


class IntervalAnalysis:
    """The solved interval fixpoint for one function.

    ``env_in``/``env_out`` give the abstract environment at block
    boundaries keyed by :class:`Value` (SSA values and allocas);
    :meth:`eval_block` replays the block to per-instruction precision.
    Values without an entry are unconstrained (type-based top —
    :meth:`interval_of` applies that default).
    """

    def __init__(self, function: Function) -> None:
        self.function = function
        self._problem = _IntervalProblem(function)
        self._result: DataflowResult = solve(function, self._problem)

    def env_in(self, block_name: str) -> Dict[Value, Interval]:
        return dict(self._result.in_sets.get(block_name, {}))

    def env_out(self, block_name: str) -> Dict[Value, Interval]:
        return dict(self._result.out_sets.get(block_name, {}))

    def interval_of(
        self, value: Value, env: Dict[Value, Interval]
    ) -> Optional[Interval]:
        """The interval of ``value`` under an ``env_in``/``env_out``
        environment, defaulting to type-based top (``None`` for
        non-integer values)."""
        return self._problem.value_interval(value, env)

    def eval_block(self, block: BasicBlock) -> Dict[Value, Interval]:
        """Per-instruction intervals: replay the transfer over the
        block from its entry environment and record each instruction's
        interval *at its program point* (plus final slot states)."""
        env = self.env_in(block.name)
        out: Dict[Value, Interval] = {}
        for instr in block.instructions:
            self._problem._step(instr, env)
            if isinstance(instr, CondBr):
                iv = self._problem.value_interval(instr.cond, env)
                if iv is not None:
                    out[instr.cond] = iv
            elif instr.produces_value:
                iv = env.get(instr)
                if iv is not None:
                    out[instr] = iv
        return out

    def walk(self, block: BasicBlock):
        """Yield ``(instr, lookup)`` pairs in program order, where
        ``lookup(value)`` is the interval of a value *immediately
        before* ``instr`` executes.  The lookup closes over a mutating
        environment: call it while handling the yielded pair, not
        after advancing the generator."""
        env = self.env_in(block.name)

        def lookup(value: Value) -> Optional[Interval]:
            return self._problem.value_interval(value, env)

        for instr in block.instructions:
            yield instr, lookup
            self._problem._step(instr, env)

    def edge_env(
        self, source: BasicBlock, dest: BasicBlock
    ) -> Dict[Value, Interval]:
        """The environment flowing along one CFG edge (the source's out
        refined by the branch condition)."""
        return dict(self._problem.edge_transfer(
            source, dest, self._result.out_sets.get(source.name, {})
        ))


# ---------------------------------------------------------------------------
# Loop trip-count bounds.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LoopBound:
    """A proven worst-case trip count for one natural loop."""

    header: str
    trip_max: int
    counter: str  #: display ref of the induction variable
    reason: str   #: one-line proof sketch for diagnostics


def _exiting_branches(
    function: Function, body: Set[str]
) -> List[Tuple[BasicBlock, CondBr]]:
    out = []
    for block in function.blocks:
        if block.name not in body:
            continue
        term = block.terminator
        if isinstance(term, CondBr) and any(
            s.name not in body for s in term.successors()
        ):
            out.append((block, term))
    return out


def _step_constant(
    counter: Value, body: Set[str], function: Function
) -> Optional[Tuple[int, Value]]:
    """The signed per-iteration step of an induction variable, plus
    the underlying storage (the alloca slot, or the phi itself).
    Requires every in-loop update to step by the same-direction
    constant; returns the smallest magnitude (worst case for bounds).
    """

    def step_of(value: Value, base_slot=None, base_phi=None) -> Optional[int]:
        if not isinstance(value, BinaryOp) or value.opcode not in (
            "add", "sub"
        ):
            return None
        const = (
            value.rhs if isinstance(value.rhs, Constant)
            else value.lhs if isinstance(value.lhs, Constant)
            else None
        )
        if const is None:
            return None
        other = value.lhs if const is value.rhs else value.rhs
        if base_phi is not None:
            if other is not base_phi:
                return None
        elif not (
            isinstance(other, Load) and slot_of(other.ptr) is base_slot
        ):
            return None
        if value.opcode == "sub" and const is value.lhs:
            return None  # const - counter is not a step
        magnitude = const.value
        return magnitude if value.opcode == "add" else -magnitude

    steps: List[int] = []
    if isinstance(counter, Load):
        slot = slot_of(counter.ptr)
        if slot is None:
            return None
        stores = [
            i for i in function.instructions()
            if isinstance(i, Store) and slot_of(i.ptr) is slot
            and i.parent is not None and i.parent.name in body
        ]
        if not stores:
            return None
        for store in stores:
            step = step_of(store.value, base_slot=slot)
            if step is None:
                return None
            steps.append(step)
        storage: Value = slot
    elif isinstance(counter, Phi):
        incomings = [
            value for value, pred in counter.incomings if pred.name in body
        ]
        if not incomings:
            return None
        for value in incomings:
            step = step_of(value, base_phi=counter)
            if step is None:
                return None
            steps.append(step)
        storage = counter
    else:
        return None
    if not steps or 0 in steps:
        return None
    if any((s > 0) != (steps[0] > 0) for s in steps):
        return None  # mixed directions
    chosen = min(steps, key=abs)
    return chosen, storage


def _entry_interval(
    analysis: IntervalAnalysis,
    value: Value,
    storage: Optional[Value],
    header: BasicBlock,
    body: Set[str],
    function: Function,
) -> Optional[Interval]:
    """The interval a value holds when the loop is first entered: the
    join of the refined environments along every entering edge."""
    preds = [
        b for b in function.blocks
        if b.name not in body
        and any(s is header for s in b.successors())
    ]
    if not preds:
        return None
    joined: Optional[Interval] = None
    for pred in preds:
        env = analysis.edge_env(pred, header)
        iv = None
        if storage is not None:
            if isinstance(storage, Phi):
                # A phi counter takes its entry value from the incoming
                # slot of this edge, not from the header env.
                incoming = next(
                    (v for v, p in storage.incomings if p is pred), None
                )
                if incoming is not None:
                    iv = analysis.interval_of(incoming, env)
            else:
                iv = env.get(storage)
        if iv is None:
            iv = analysis.interval_of(value, env)
        if iv is None:
            return None
        joined = iv if joined is None else joined.join(iv)
    return joined


def _invariant_storage(
    value: Value, body: Set[str], function: Function
) -> Optional[Value]:
    """The storage whose loop-entry interval describes ``value`` inside
    the loop: the slot of a load with no in-loop stores, or the value
    itself when it is defined outside the loop."""
    if isinstance(value, Load):
        slot = slot_of(value.ptr)
        if slot is not None and value.ptr is slot:
            written = any(
                isinstance(i, Store) and slot_of(i.ptr) is slot
                and i.parent is not None and i.parent.name in body
                for i in function.instructions()
            )
            return None if written else slot
    if isinstance(value, Constant):
        return value
    if isinstance(value, Instruction):
        if value.parent is not None and value.parent.name not in body:
            return value
        return None
    return value  # arguments, globals


def loop_trip_bounds(
    function: Function,
    analysis: Optional[IntervalAnalysis] = None,
    tree: Optional[DominatorTree] = None,
) -> Dict[str, LoopBound]:
    """Worst-case trip counts for the function's natural loops.

    A loop is bounded when some exiting comparison tests a
    constant-stepped induction variable against a loop-invariant bound,
    the exit test dominates every latch (so it runs every iteration),
    and the step cannot wrap the counter past the bound.  The bound is
    computed from the *loop-entry* intervals of the counter and the
    bound — the widened in-loop counter range is useless by design.
    """
    from repro.nfir.cfg import natural_loops

    if analysis is None:
        analysis = IntervalAnalysis(function)
    if tree is None:
        tree = DominatorTree(function)
    bounds: Dict[str, LoopBound] = {}
    by_name = {b.name: b for b in function.blocks}
    for header_name, body in natural_loops(function).items():
        header = by_name[header_name]
        latches = [
            b.name for b in function.blocks
            if b.name in body and any(s is header for s in b.successors())
        ]
        best: Optional[LoopBound] = None
        for block, term in _exiting_branches(function, body):
            if not all(tree.dominates(block.name, latch) for latch in latches):
                continue  # the test may be skipped on some iterations
            bound_ = _branch_bound(
                analysis, function, header, body, block, term
            )
            if bound_ is not None and (
                best is None or bound_.trip_max < best.trip_max
            ):
                best = bound_
        if best is not None:
            bounds[header_name] = best
    return bounds


def _branch_bound(
    analysis: IntervalAnalysis,
    function: Function,
    header: BasicBlock,
    body: Set[str],
    block: BasicBlock,
    term: CondBr,
) -> Optional[LoopBound]:
    cond = term.cond
    if not isinstance(cond, ICmp):
        return None
    type_ = _int_type(cond.lhs)
    if type_ is None:
        return None
    # Which condition value *stays* in the loop?
    true_in = term.if_true.name in body
    false_in = term.if_false.name in body
    if true_in == false_in:
        return None
    for counter, bound, mirrored in (
        (cond.lhs, cond.rhs, False), (cond.rhs, cond.lhs, True),
    ):
        stepped = _step_constant(counter, body, function)
        if stepped is None:
            continue
        step, storage = stepped
        bound_storage = _invariant_storage(bound, body, function)
        if bound_storage is None:
            continue
        init_iv = _entry_interval(
            analysis, counter, storage, header, body, function
        )
        bound_iv = _entry_interval(
            analysis, bound, bound_storage, header, body, function
        )
        if init_iv is None or bound_iv is None:
            continue
        predicate = cond.predicate if true_in else _NEGATED[cond.predicate]
        if mirrored:
            predicate = _MIRRORED[predicate]
        predicate = _unsigned_predicate(
            predicate, type_, init_iv, bound_iv
        ) if predicate in _SIGNED_TO_UNSIGNED else predicate
        if predicate is None:
            continue
        trip = _trip_from(
            predicate, type_, step, init_iv, bound_iv
        )
        if trip is None:
            continue
        return LoopBound(
            header=header.name,
            trip_max=trip,
            counter=storage.ref() if storage.name else counter.ref(),
            reason=(
                f"induction variable steps by {step} from {init_iv}"
                f" while {predicate} bound {bound_iv}"
            ),
        )
    return None


def _trip_from(
    predicate: str,
    type_: IntType,
    step: int,
    init_iv: Interval,
    bound_iv: Interval,
) -> Optional[int]:
    """Max iterations of ``for (c = init; c PRED bound; c += step)``,
    or ``None`` when the step direction/wrapping leaves it unbounded."""
    max_unsigned = type_.max_unsigned()
    if step > 0 and predicate in ("ult", "ule", "ne"):
        if predicate == "ne":
            # Must hit the bound exactly: step 1 from below.
            if step != 1 or init_iv.hi > bound_iv.lo:
                return None
            return bound_iv.hi - init_iv.lo
        span = bound_iv.hi - init_iv.lo + (1 if predicate == "ule" else 0)
        if span <= 0:
            return 0
        # The counter must not wrap past the bound between tests.
        last = bound_iv.hi - (1 if predicate == "ult" else 0)
        if last + step > max_unsigned:
            return None
        return -(-span // step)  # ceil
    if step < 0 and predicate in ("ugt", "uge"):
        magnitude = -step
        span = init_iv.hi - bound_iv.lo + (1 if predicate == "uge" else 0)
        if span <= 0:
            return 0
        floor = bound_iv.lo + (1 if predicate == "ugt" else 0)
        if floor - magnitude < 0:
            return None  # could wrap below zero and keep looping
        return -(-span // magnitude)
    return None
