"""Classic dataflow analyses over NFIR functions.

A small, generic worklist solver (:func:`solve`) over the function's
basic blocks, plus the standard instances the verifier and lint passes
need: def-use chains, liveness, reaching stores (the reaching
definitions that matter in our alloca-lowered IR), and
definitely-initialized stack slots.

All analyses are flow-sensitive at *block* granularity: results are
in/out sets per block, with helpers to refine to a specific
instruction by walking the block.  SSA values have a single definition
site by construction, so the interesting "definitions" for a reaching
analysis here are stores into stack slots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.nfir.analysis.dominance import block_predecessors
from repro.nfir.block import BasicBlock
from repro.nfir.function import Function
from repro.nfir.instructions import (
    Alloca,
    Cast,
    GEP,
    Instruction,
    Load,
    Phi,
    Store,
)
from repro.nfir.values import Constant, Value

FORWARD = "forward"
BACKWARD = "backward"


class DataflowProblem:
    """One dataflow problem: direction, lattice, and a transfer function.

    Subclasses set :attr:`direction` (``"forward"``/``"backward"``) and
    implement :meth:`transfer`; they override :meth:`meet` and
    :meth:`initial` when their lattice is not sets under union.
    ``meet`` combines two inputs at a merge point, ``initial`` is the
    value interior blocks start from (a must-analysis starts from its
    universe and meets by intersection), and ``boundary`` is the value
    at the entry (forward) or at every exit (backward).  The solver
    shares values between blocks, so no hook may mutate its inputs.
    """

    direction: str = FORWARD

    def boundary(self, function: Function) -> Any:
        return frozenset()

    def initial(self, function: Function) -> Any:
        return frozenset()

    def meet(self, a: Any, b: Any) -> Any:
        return a | b

    def transfer(self, block: BasicBlock, value: Any) -> Any:
        raise NotImplementedError

    def edge_transfer(
        self, source: BasicBlock, dest: BasicBlock, value: Any
    ) -> Any:
        """Refine ``source``'s contribution along the edge into ``dest``
        before the meet.  The default is the identity; path-sensitive
        problems (e.g. the interval domain's branch refinement) override
        it.  For forward problems ``source`` is a predecessor of
        ``dest``; for backward problems it is a successor."""
        return value


@dataclass
class DataflowResult:
    """Per-block fixpoint: ``in_sets[name]``/``out_sets[name]`` hold the
    problem's lattice values."""

    in_sets: Dict[str, Any] = field(default_factory=dict)
    out_sets: Dict[str, Any] = field(default_factory=dict)


def solve(function: Function, problem: DataflowProblem) -> DataflowResult:
    """Run the worklist algorithm for ``problem`` to a fixpoint."""
    if problem.direction not in (FORWARD, BACKWARD):
        raise ValueError(f"unknown direction {problem.direction!r}")

    preds = block_predecessors(function)
    succs: Dict[str, List[BasicBlock]] = {
        b.name: b.successors() for b in function.blocks
    }
    by_name = {b.name: b for b in function.blocks}
    forward = problem.direction == FORWARD

    boundary = problem.boundary(function)
    init = problem.initial(function)
    # For forward problems the meet input of a block is its preds'
    # outs; for backward problems it is its succs' ins.
    sources = preds if forward else succs
    is_boundary = (
        (lambda name: name == function.entry.name)
        if forward
        else (lambda name: not succs[name])
    )

    result = DataflowResult()
    for block in function.blocks:
        meet_side = boundary if is_boundary(block.name) else init
        if forward:
            result.in_sets[block.name] = meet_side
            result.out_sets[block.name] = problem.transfer(block, meet_side)
        else:
            result.out_sets[block.name] = meet_side
            result.in_sets[block.name] = problem.transfer(block, meet_side)

    worklist: List[str] = [b.name for b in function.blocks]
    if not forward:
        worklist.reverse()
    pending: Set[str] = set(worklist)
    while worklist:
        name = worklist.pop(0)
        pending.discard(name)
        dest = by_name[name]
        inputs = [
            problem.edge_transfer(
                s, dest, (result.out_sets if forward else result.in_sets)[s.name]
            )
            for s in sources[name]
        ]
        if inputs:
            merged = inputs[0]
            for other in inputs[1:]:
                merged = problem.meet(merged, other)
            if is_boundary(name):
                merged = problem.meet(merged, boundary)
        else:
            merged = boundary if is_boundary(name) else init
        transferred = problem.transfer(dest, merged)
        if forward:
            result.in_sets[name] = merged
            changed = transferred != result.out_sets[name]
            result.out_sets[name] = transferred
            dependents = succs[name]
        else:
            result.out_sets[name] = merged
            changed = transferred != result.in_sets[name]
            result.in_sets[name] = transferred
            dependents = preds[name]
        if changed:
            for dep in dependents:
                if dep.name not in pending:
                    pending.add(dep.name)
                    worklist.append(dep.name)
    return result


# -- def-use / use-def chains ------------------------------------------


class DefUseChains:
    """SSA def-use and use-def chains for one function.

    ``users(value)`` lists the instructions that consume a value
    (including phi incomings); ``uses(instr)`` lists the non-constant
    values an instruction consumes.  Definitions are the SSA values
    themselves, so the use-def direction is the identity on
    :class:`Instruction`/:class:`Argument` operands.
    """

    def __init__(self, function: Function) -> None:
        self.function = function
        self._users: Dict[int, List[Instruction]] = {}
        self._by_id: Dict[int, Value] = {}
        for instr in function.instructions():
            for op in instr.operands:
                if isinstance(op, Constant):
                    continue
                self._by_id[id(op)] = op
                self._users.setdefault(id(op), []).append(instr)

    def users(self, value: Value) -> List[Instruction]:
        return list(self._users.get(id(value), []))

    def n_users(self, value: Value) -> int:
        return len(self._users.get(id(value), []))

    def is_dead(self, instr: Instruction) -> bool:
        """A value-producing instruction nothing consumes."""
        return instr.produces_value and not self._users.get(id(instr))

    @staticmethod
    def uses(instr: Instruction) -> List[Value]:
        return [op for op in instr.operands if not isinstance(op, Constant)]


# -- liveness ----------------------------------------------------------


class _Liveness(DataflowProblem):
    direction = BACKWARD

    def __init__(self, function: Function) -> None:
        # Per-block use (read before any local def) and def sets.
        # Values a successor's phi receives from this block are uses at
        # the *end* of this block, so they only land in the use set
        # when the block does not define them itself.
        self._use: Dict[str, Set[Value]] = {}
        self._def: Dict[str, Set[Value]] = {}
        for block in function.blocks:
            used: Set[Value] = set()
            defined: Set[Value] = set()
            for instr in block.instructions:
                if not isinstance(instr, Phi):
                    for op in instr.operands:
                        if isinstance(op, Constant):
                            continue
                        if op not in defined:
                            used.add(op)
                if instr.produces_value:
                    defined.add(instr)
            for succ in block.successors():
                for instr in succ.instructions:
                    if not isinstance(instr, Phi):
                        continue
                    for value, pred in instr.incomings:
                        if (
                            pred is block
                            and not isinstance(value, Constant)
                            and value not in defined
                        ):
                            used.add(value)
            self._use[block.name] = used
            self._def[block.name] = defined

    def transfer(self, block: BasicBlock, value: FrozenSet) -> FrozenSet:
        return frozenset(
            self._use[block.name] | (set(value) - self._def[block.name])
        )


def liveness(function: Function) -> DataflowResult:
    """Live SSA values at block boundaries (``in_sets``/``out_sets``
    hold :class:`Value` objects; constants are never live)."""
    return solve(function, _Liveness(function))


# -- reaching stores (reaching definitions over stack slots) -----------


def slot_of(ptr: Value) -> Optional[Instruction]:
    """The alloca a pointer value roots at, through GEP/cast chains
    (``None`` when the pointer roots elsewhere: globals, arguments,
    call results)."""
    seen = 0
    while seen < 1000:
        seen += 1
        if isinstance(ptr, GEP):
            ptr = ptr.base
        elif isinstance(ptr, Cast):
            ptr = ptr.value
        else:
            break
    return ptr if isinstance(ptr, Alloca) else None


class _ReachingStores(DataflowProblem):
    direction = FORWARD

    def __init__(self, function: Function) -> None:
        self._stores_by_slot: Dict[int, Set[Store]] = {}
        for instr in function.instructions():
            if isinstance(instr, Store):
                slot = slot_of(instr.ptr)
                if slot is not None:
                    self._stores_by_slot.setdefault(id(slot), set()).add(instr)

    def transfer(self, block: BasicBlock, value: FrozenSet) -> FrozenSet:
        live: Set[Store] = set(value)
        for instr in block.instructions:
            if not isinstance(instr, Store):
                continue
            slot = slot_of(instr.ptr)
            if slot is None:
                continue
            # A whole-slot store kills earlier stores to the slot; a
            # store through a GEP only adds (field-insensitive).
            if instr.ptr is slot:
                live -= self._stores_by_slot[id(slot)]
            live.add(instr)
        return frozenset(live)


def reaching_stores(function: Function) -> DataflowResult:
    """Which :class:`Store` instructions may reach each block boundary
    (the reaching-definitions instance for alloca-lowered locals)."""
    return solve(function, _ReachingStores(function))


def stores_reaching(
    load: Load, result: Optional[DataflowResult] = None
) -> List[Store]:
    """The stores that may feed one load of a stack slot.  Walks the
    load's block over the block-level fixpoint (computed on demand
    when ``result`` is not supplied)."""
    block = load.parent
    if block is None or block.parent is None:
        raise ValueError("load is not attached to a function")
    slot = slot_of(load.ptr)
    if slot is None:
        return []
    function = block.parent
    if result is None:
        result = reaching_stores(function)
    live: Set[Store] = {
        s for s in result.in_sets.get(block.name, frozenset())
        if slot_of(s.ptr) is slot
    }
    for instr in block.instructions:
        if instr is load:
            break
        if isinstance(instr, Store) and slot_of(instr.ptr) is slot:
            if instr.ptr is slot:
                live.clear()
            live.add(instr)
    return sorted(live, key=id)


# -- definitely-initialized slots --------------------------------------


class _InitializedSlots(DataflowProblem):
    """Must-analysis: the stack slots guaranteed written on *every*
    path from the entry (field-insensitive: any store through the slot,
    including via GEP, initializes it)."""

    direction = FORWARD

    def initial(self, function: Function) -> FrozenSet:
        return frozenset(
            i for i in function.instructions() if isinstance(i, Alloca)
        )

    def meet(self, a: FrozenSet, b: FrozenSet) -> FrozenSet:
        return a & b

    def transfer(self, block: BasicBlock, value: FrozenSet) -> FrozenSet:
        out: Set[Value] = set(value)
        for instr in block.instructions:
            if isinstance(instr, Store):
                slot = slot_of(instr.ptr)
                if slot is not None:
                    out.add(slot)
        return frozenset(out)


def initialized_slots(function: Function) -> DataflowResult:
    """Definitely-initialized allocas at block boundaries."""
    return solve(function, _InitializedSlots())


def maybe_uninitialized_loads(
    function: Function,
) -> List[Tuple[Load, Instruction]]:
    """Loads of stack slots that some entry path never stored to.
    Returns ``(load, alloca)`` pairs in program order."""
    result = initialized_slots(function)
    findings: List[Tuple[Load, Instruction]] = []
    for block in function.blocks:
        ready: Set[Value] = set(result.in_sets.get(block.name, frozenset()))
        for instr in block.instructions:
            if isinstance(instr, Load):
                slot = slot_of(instr.ptr)
                if slot is not None and slot not in ready:
                    findings.append((instr, slot))
            elif isinstance(instr, Store):
                slot = slot_of(instr.ptr)
                if slot is not None:
                    ready.add(slot)
    return findings
