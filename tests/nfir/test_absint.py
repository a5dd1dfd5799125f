"""Interval-domain tests: the lattice operations, transfer-function
soundness against the concrete evaluators, fixpoint termination on
hostile CFGs (irreducible, back-edge-into-entry, a value alternating
with top), and loop trip-count proofs — including a brute-force
concrete-execution oracle."""

import pytest

from repro.nfir import (
    Br,
    CondBr,
    Constant,
    Function,
    I8,
    I32,
    IRBuilder,
    Load,
    Phi,
    Ret,
    Store,
)
from repro.nfir.analysis.absint import (
    Interval,
    IntervalAnalysis,
    interval_binary,
    interval_icmp,
    loop_trip_bounds,
)
from repro.nfir.instructions import (
    Alloca,
    BinaryOp,
    Cast,
    ICmp,
    Select,
    evaluate_binary,
    evaluate_icmp,
)


class TestInterval:
    def test_construction_and_props(self):
        iv = Interval(2, 9)
        assert iv.width == 8
        assert iv.contains(2) and iv.contains(9) and not iv.contains(10)
        assert Interval.const(7).is_constant
        assert Interval.top(I8) == Interval(0, 255)
        assert Interval(0, 300).is_top(I8)
        assert not Interval(1, 255).is_top(I8)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            Interval(5, 4)
        with pytest.raises(ValueError):
            Interval(-1, 4)

    def test_join_meet(self):
        assert Interval(0, 4).join(Interval(8, 12)) == Interval(0, 12)
        assert Interval(0, 10).meet(Interval(5, 20)) == Interval(5, 10)
        assert Interval(0, 3).meet(Interval(4, 9)) is None

    def test_widen_jumps_to_type_bounds(self):
        prev, newer = Interval(0, 4), Interval(0, 5)
        assert prev.widen(newer, 255) == Interval(0, 255)
        # A stable endpoint stays put.
        assert Interval(3, 10).widen(Interval(3, 12), 255) == Interval(3, 255)
        assert Interval(3, 10).widen(Interval(1, 10), 255) == Interval(0, 10)
        assert Interval(3, 10).widen(Interval(3, 10), 255) == Interval(3, 10)

    def test_signed_nonnegative(self):
        assert Interval(0, 127).signed_nonnegative(I8)
        assert not Interval(0, 128).signed_nonnegative(I8)


#: sample endpoints exercising zero, small values, the sign boundary,
#: and the type maximum.
_POINTS = (0, 1, 3, 7, 127, 128, 200, 255)
_INTERVALS = [
    Interval(lo, hi) for lo in _POINTS for hi in _POINTS if lo <= hi
]
_BINOPS = (
    "add", "sub", "mul", "udiv", "urem", "and", "or", "xor",
    "shl", "lshr", "ashr", "sdiv", "srem",
)
_PREDICATES = (
    "eq", "ne", "ult", "ule", "ugt", "uge", "slt", "sle", "sgt", "sge",
)


def _members(iv):
    return {iv.lo, iv.hi, (iv.lo + iv.hi) // 2}


class TestTransferOracle:
    """The abstract transfers must contain every concrete outcome the
    IR evaluators produce (sampled at interval endpoints and
    midpoints)."""

    @pytest.mark.parametrize("opcode", _BINOPS)
    def test_binary_soundness(self, opcode):
        for a in _INTERVALS:
            for b in _INTERVALS:
                out = interval_binary(opcode, I8, a, b)
                for x in _members(a):
                    for y in _members(b):
                        got = evaluate_binary(opcode, I8, x, y)
                        assert out.contains(got), (
                            f"{opcode}({x}, {y}) = {got} outside "
                            f"{out} for {a} op {b}"
                        )

    @pytest.mark.parametrize("predicate", _PREDICATES)
    def test_icmp_decisions_sound(self, predicate):
        for a in _INTERVALS:
            for b in _INTERVALS:
                decided = interval_icmp(predicate, I8, a, b)
                if decided is None:
                    continue
                for x in _members(a):
                    for y in _members(b):
                        assert evaluate_icmp(predicate, I8, x, y) == decided

    def test_icmp_decides_disjoint_ranges(self):
        assert interval_icmp("ult", I8, Interval(0, 3), Interval(4, 9)) == 1
        assert interval_icmp("ult", I8, Interval(9, 20), Interval(1, 9)) == 0
        assert interval_icmp("eq", I8, Interval(5, 5), Interval(5, 5)) == 1
        assert interval_icmp("eq", I8, Interval(0, 4), Interval(2, 9)) is None


# ---------------------------------------------------------------------------
# Whole-function fixtures.
# ---------------------------------------------------------------------------


def _clamp_sum():
    """``for (i = 0; i < min(n, 16); i++) acc += i`` with the clamp
    written as a branch — the pattern branch refinement must catch."""
    f = Function("pkt_handler", args=[("n", I8)])
    (n_arg,) = f.args
    entry = f.add_block("entry")
    clamp = f.add_block("clamp")
    header = f.add_block("header")
    body = f.add_block("body")
    exit_ = f.add_block("exit")
    b = IRBuilder(f, entry)
    n_slot = b.alloca(I8, name="n_slot")
    i_slot = b.alloca(I8, name="i_slot")
    acc = b.alloca(I32, name="acc")
    b.store(n_arg, n_slot)
    b.store(b.const(I8, 0), i_slot)
    b.store(b.const(I32, 0), acc)
    n0 = b.load(n_slot)
    b.cond_br(b.icmp("ugt", n0, b.const(I8, 16)), clamp, header)
    b.position_at_end(clamp)
    b.store(b.const(I8, 16), n_slot)
    b.br(header)
    b.position_at_end(header)
    i = b.load(i_slot)
    n = b.load(n_slot)
    b.cond_br(b.icmp("ult", i, n), body, exit_)
    b.position_at_end(body)
    wide = b.zext(b.load(i_slot), I32)
    b.store(b.add(b.load(acc), wide), acc)
    b.store(b.add(b.load(i_slot), b.const(I8, 1)), i_slot)
    b.br(header)
    b.position_at_end(exit_)
    b.ret()
    return f


def _run_concrete(function, arg_values, fuel=10_000):
    """A minimal concrete NFIR interpreter: executes until Ret or the
    fuel runs out, recording every integer value each instruction
    produced, grouped by instruction id."""
    values = {id(a): v for a, v in zip(function.args, arg_values)}
    slots = {}
    observed = {}

    def read(v):
        if isinstance(v, Constant):
            return v.type.wrap(v.value)
        return values[id(v)]

    block, prev = function.blocks[0], None
    for _ in range(fuel):
        for instr in block.instructions:
            if isinstance(instr, Alloca):
                slots.setdefault(id(instr), 0)
                continue
            if isinstance(instr, Store):
                slots[id(instr.ptr)] = read(instr.value)
                continue
            if isinstance(instr, Load):
                result = slots[id(instr.ptr)]
            elif isinstance(instr, BinaryOp):
                result = evaluate_binary(
                    instr.opcode, instr.type,
                    read(instr.lhs), read(instr.rhs),
                )
            elif isinstance(instr, ICmp):
                result = evaluate_icmp(
                    instr.predicate, instr.lhs.type,
                    read(instr.lhs), read(instr.rhs),
                )
            elif isinstance(instr, Cast):
                raw = read(instr.value)
                if instr.opcode == "sext":
                    raw = instr.value.type.to_signed(raw)
                result = instr.type.wrap(raw)
            elif isinstance(instr, Select):
                result = read(instr.if_true if read(instr.cond)
                              else instr.if_false)
            elif isinstance(instr, Phi):
                result = read(next(
                    v for v, p in instr.incomings if p is prev
                ))
            elif isinstance(instr, Br):
                prev, block = block, instr.target
                break
            elif isinstance(instr, CondBr):
                taken = instr.if_true if read(instr.cond) else instr.if_false
                prev, block = block, taken
                break
            elif isinstance(instr, Ret):
                return observed, slots
            else:  # pragma: no cover - fixture uses no other opcodes
                raise AssertionError(f"unhandled {instr.opcode}")
            values[id(instr)] = result
            observed.setdefault(id(instr), set()).add(result)
        else:  # pragma: no cover - blocks always end in a terminator
            raise AssertionError("fell off a block")
    raise AssertionError("fuel exhausted: likely non-terminating")


class TestIntervalAnalysisConcrete:
    def test_branch_refinement_bounds_loop_body(self):
        f = _clamp_sum()
        analysis = IntervalAnalysis(f)
        by_name = {b.name: b for b in f.blocks}
        # Inside the body, the loop test i < n (n <= 16) has fired.
        env = analysis.env_in("body")
        header_i = next(
            i for i in by_name["header"].instructions if isinstance(i, Load)
        )
        iv = analysis.interval_of(header_i, env)
        assert iv.hi <= 15

    def test_exhaustive_oracle_over_all_inputs(self):
        """Every concrete run (all 256 inputs) must stay inside the
        abstract intervals at every program point."""
        f = _clamp_sum()
        analysis = IntervalAnalysis(f)
        point_ivs = {}
        for block in f.blocks:
            for instr, iv in analysis.eval_block(block).items():
                point_ivs[id(instr)] = iv
        for n in range(256):
            observed, _ = _run_concrete(f, [n])
            for key, seen in observed.items():
                iv = point_ivs.get(key)
                if iv is None:
                    continue  # value was unconstrained (top)
                for concrete in seen:
                    assert iv.contains(concrete)

    def test_trip_bound_proved_through_clamp(self):
        f = _clamp_sum()
        bounds = loop_trip_bounds(f)
        assert "header" in bounds
        bound = bounds["header"]
        assert bound.trip_max == 16
        assert "steps by 1" in bound.reason
        # The proof is tight: input 255 really iterates 16 times.
        _, slots = _run_concrete(f, [255])
        i_slot = next(
            i for i in f.blocks[0].instructions
            if isinstance(i, Alloca) and i.name == "i_slot"
        )
        assert slots[id(i_slot)] == 16


class TestHostileCfgs:
    def test_irreducible_cycle_terminates(self):
        """A cycle entered at two points has no natural-loop header;
        only widening makes the fixpoint terminate."""
        f = Function("pkt_handler", args=[("sel", I8)])
        (sel,) = f.args
        entry = f.add_block("entry")
        a = f.add_block("a")
        c = f.add_block("c")
        exit_ = f.add_block("exit")
        b = IRBuilder(f, entry)
        slot = b.alloca(I32)
        b.store(b.const(I32, 0), slot)
        b.cond_br(b.icmp("ugt", sel, b.const(I8, 8)), a, c)
        b.position_at_end(a)
        b.store(b.add(b.load(slot), b.const(I32, 1)), slot)
        b.br(c)
        b.position_at_end(c)
        b.store(b.add(b.load(slot), b.const(I32, 1)), slot)
        x = b.load(slot)
        b.cond_br(b.icmp("ult", x, b.const(I32, 100)), a, exit_)
        b.position_at_end(exit_)
        b.ret()
        from repro.nfir.cfg import natural_loops

        assert natural_loops(f) == {}  # genuinely irreducible
        analysis = IntervalAnalysis(f)  # must not diverge
        iv = analysis.interval_of(x, analysis.env_out("c"))
        assert iv is not None and iv.contains(2)

    def test_back_edge_into_entry_terminates(self):
        f = Function("pkt_handler")
        entry = f.add_block("entry")
        exit_ = f.add_block("exit")
        b = IRBuilder(f, entry)
        slot = b.alloca(I32)
        y = b.add(b.load(slot), b.const(I32, 1))
        b.store(y, slot)
        b.cond_br(b.icmp("ult", y, b.const(I32, 10)), entry, exit_)
        IRBuilder(f, exit_).ret()
        analysis = IntervalAnalysis(f)  # must not diverge
        env = analysis.env_out("entry")
        iv = analysis.interval_of(y, env)
        assert iv is not None
        # No entering edge initializes the slot, so no bound is proved
        # — but the query must not crash either.
        assert loop_trip_bounds(f, analysis) == {}

    @staticmethod
    def _synthesized(case):
        from repro.click.elements import all_elements
        from repro.synthesis import ClickGen, extract_stats

        stats = extract_stats(all_elements())
        if case == "training-0-9":
            return ClickGen.for_program(stats, 0, 9).element("synth_9")
        seed, index = case
        return ClickGen(stats, seed=seed).elements(40)[index]

    @pytest.mark.parametrize(
        "case", [(0, 29), (2, 23), "training-0-9"], ids=str
    )
    def test_value_alternating_with_top_settles(self, case):
        """In these ClickGen programs a value's range alternates between
        bounded and top (no entry) at one block, which widening alone
        never settles.  The fixpoint must finish within 60 transfers
        per block."""
        from repro.click.frontend import lower_element
        from repro.nfir.analysis.absint import _IntervalProblem
        from repro.nfir.analysis.dataflow import solve

        module = lower_element(self._synthesized(case), inline=True)
        for function in module.functions.values():
            problem = _IntervalProblem(function)
            transfer = problem.transfer
            budget = 60 * len(function.blocks)
            calls = 0

            def counted(block, value):
                nonlocal calls
                calls += 1
                if calls > budget:
                    raise AssertionError(
                        f"{function.name}: no fixpoint after {budget}"
                        " block transfers"
                    )
                return transfer(block, value)

            problem.transfer = counted
            solve(function, problem)


class TestLoopTripBounds:
    def _counted(self, limit, step=1, predicate="ult"):
        f = Function("pkt_handler")
        entry = f.add_block("entry")
        header = f.add_block("header")
        body = f.add_block("body")
        exit_ = f.add_block("exit")
        b = IRBuilder(f, entry)
        slot = b.alloca(I32)
        b.store(b.const(I32, 0), slot)
        b.br(header)
        b.position_at_end(header)
        i = b.load(slot)
        b.cond_br(b.icmp(predicate, i, b.const(I32, limit)), body, exit_)
        b.position_at_end(body)
        b.store(b.add(b.load(slot), b.const(I32, step)), slot)
        b.br(header)
        b.position_at_end(exit_)
        b.ret()
        return f

    def test_simple_counted_loop(self):
        bounds = loop_trip_bounds(self._counted(32))
        assert bounds["header"].trip_max == 32

    def test_non_unit_step_takes_ceiling(self):
        bounds = loop_trip_bounds(self._counted(10, step=3))
        assert bounds["header"].trip_max == 4  # ceil(10 / 3)

    def test_ule_counts_one_extra(self):
        bounds = loop_trip_bounds(self._counted(10, predicate="ule"))
        assert bounds["header"].trip_max == 11

    def test_phi_counter(self):
        f = Function("pkt_handler")
        entry = f.add_block("entry")
        header = f.add_block("header")
        body = f.add_block("body")
        exit_ = f.add_block("exit")
        b = IRBuilder(f, entry)
        b.br(header)
        b.position_at_end(header)
        phi = b.phi(I32)
        b.cond_br(b.icmp("ult", phi, b.const(I32, 8)), body, exit_)
        b.position_at_end(body)
        step = b.add(phi, b.const(I32, 1))
        b.br(header)
        b.position_at_end(exit_)
        b.ret()
        phi.add_incoming(b.const(I32, 0), entry)
        phi.add_incoming(step, body)
        bounds = loop_trip_bounds(f)
        assert bounds["header"].trip_max == 8

    def test_downward_loop(self):
        f = Function("pkt_handler")
        entry = f.add_block("entry")
        header = f.add_block("header")
        body = f.add_block("body")
        exit_ = f.add_block("exit")
        b = IRBuilder(f, entry)
        slot = b.alloca(I32)
        b.store(b.const(I32, 20), slot)
        b.br(header)
        b.position_at_end(header)
        i = b.load(slot)
        b.cond_br(b.icmp("ugt", i, b.const(I32, 4)), body, exit_)
        b.position_at_end(body)
        b.store(b.binop("sub", b.load(slot), b.const(I32, 2)), slot)
        b.br(header)
        b.position_at_end(exit_)
        b.ret()
        bounds = loop_trip_bounds(f)
        assert bounds["header"].trip_max == 8  # ceil((20 - 5 + 1) / 2)

    def test_multiplicative_step_is_unbounded(self):
        f = Function("pkt_handler")
        entry = f.add_block("entry")
        header = f.add_block("header")
        body = f.add_block("body")
        exit_ = f.add_block("exit")
        b = IRBuilder(f, entry)
        slot = b.alloca(I32)
        b.store(b.const(I32, 1), slot)
        b.br(header)
        b.position_at_end(header)
        i = b.load(slot)
        b.cond_br(b.icmp("ne", i, b.const(I32, 0)), body, exit_)
        b.position_at_end(body)
        b.store(b.mul(b.load(slot), b.const(I32, 2)), slot)
        b.br(header)
        b.position_at_end(exit_)
        b.ret()
        assert loop_trip_bounds(f) == {}
