"""CFG utilities and verifier tests."""

import pytest

from repro.nfir import (
    Function,
    IRBuilder,
    Module,
    I32,
    reverse_postorder,
    verify_function,
    verify_module,
    VerificationError,
)
from repro.nfir.analysis.dominance import DominatorTree, block_predecessors
from repro.nfir.cfg import natural_loops
from repro.nfir.values import Constant


def diamond_function():
    f = Function("pkt_handler")
    entry = f.add_block("entry")
    left = f.add_block("left")
    right = f.add_block("right")
    merge = f.add_block("merge")
    b = IRBuilder(f, entry)
    cond = b.icmp("ult", b.const(I32, 1), b.const(I32, 2))
    b.cond_br(cond, left, right)
    b.position_at_end(left)
    b.br(merge)
    b.position_at_end(right)
    b.br(merge)
    b.position_at_end(merge)
    b.ret()
    return f


def loop_function():
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
    cond = b.icmp("ult", i, b.const(I32, 10))
    b.cond_br(cond, body, exit_)
    b.position_at_end(body)
    i2 = b.load(slot)
    b.store(b.add(i2, b.const(I32, 1)), slot)
    b.br(header)
    b.position_at_end(exit_)
    b.ret()
    return f


class TestCFG:
    def test_diamond_edges(self):
        f = diamond_function()
        assert {b.name for b in f.entry.successors()} == {"left", "right"}
        preds = block_predecessors(f)
        assert {b.name for b in preds["merge"]} == {"left", "right"}

    def test_reverse_postorder_starts_at_entry(self):
        order = reverse_postorder(diamond_function())
        assert order[0].name == "entry"
        assert order[-1].name == "merge"

    def test_loop_headers(self):
        assert natural_loops(loop_function()) == {"header": {"header", "body"}}
        assert natural_loops(diamond_function()) == {}

    def test_reachable_blocks(self):
        f = diamond_function()
        dead = f.add_block("dead")
        IRBuilder(f, dead).ret()
        assert "dead" not in DominatorTree(f).reachable
        assert reverse_postorder(f)[-1].name == "dead"


class TestVerifier:
    def test_valid_functions_pass(self):
        verify_function(diamond_function())
        verify_function(loop_function())

    def test_unterminated_block(self):
        f = Function("f")
        f.add_block("entry")
        with pytest.raises(VerificationError, match="not terminated"):
            verify_function(f)

    def test_no_blocks(self):
        with pytest.raises(VerificationError, match="no blocks"):
            verify_function(Function("f"))

    def test_foreign_branch_target(self):
        f = diamond_function()
        other = Function("g")
        foreign = other.add_block("foreign")
        IRBuilder(other, foreign).ret()
        # Redirect entry's terminator to a foreign block.
        term = f.entry.terminator
        term.if_true = foreign
        with pytest.raises(VerificationError, match="foreign"):
            verify_function(f)

    def test_undefined_operand(self):
        f = Function("f")
        entry = f.add_block("entry")
        b = IRBuilder(f, entry)
        orphan = Constant(I32, 1)
        ghost_parent = Function("ghost")
        ghost_block = ghost_parent.add_block("g")
        gb = IRBuilder(ghost_parent, ghost_block)
        ghost_value = gb.add(gb.const(I32, 1), gb.const(I32, 2))
        gb.ret()
        b.add(ghost_value, orphan)
        b.ret()
        with pytest.raises(VerificationError, match="not defined"):
            verify_function(f)

    def test_module_requires_functions(self):
        with pytest.raises(VerificationError):
            verify_module(Module("empty"))

    def test_library_modules_verify(self, lowered_library):
        for module in lowered_library.values():
            verify_module(module)


class TestSSADominance:
    """The verifier checks true dominance, not mere reachability."""

    def test_sibling_branch_use_rejected(self):
        # A def in `left` used in `merge` IS reachable from the def
        # (the old check's criterion) but does not dominate the use:
        # control can reach merge through `right` with the value never
        # computed.  True SSA verification must reject this.
        f = Function("pkt_handler")
        entry = f.add_block("entry")
        left = f.add_block("left")
        right = f.add_block("right")
        merge = f.add_block("merge")
        b = IRBuilder(f, entry)
        cond = b.icmp("ult", b.const(I32, 1), b.const(I32, 2))
        b.cond_br(cond, left, right)
        b.position_at_end(left)
        partial = b.add(b.const(I32, 1), b.const(I32, 2))
        b.br(merge)
        b.position_at_end(right)
        b.br(merge)
        b.position_at_end(merge)
        b.add(partial, b.const(I32, 1))
        b.ret()
        with pytest.raises(VerificationError, match="does not dominate"):
            verify_function(f)

    def test_same_block_use_before_def_rejected(self):
        f = Function("f")
        entry = f.add_block("entry")
        b = IRBuilder(f, entry)
        first = b.add(b.const(I32, 1), b.const(I32, 2))
        second = b.add(b.const(I32, 3), b.const(I32, 4))
        b.ret()
        # Rewire `second` to consume `first`, then move it above:
        # index 0 now uses a value defined at index 1.
        second.lhs = first
        entry.instructions[0], entry.instructions[1] = (
            entry.instructions[1], entry.instructions[0],
        )
        with pytest.raises(VerificationError, match="defined after its use"):
            verify_function(f)

    def test_dominating_cross_block_use_accepted(self):
        f = Function("f")
        entry = f.add_block("entry")
        tail = f.add_block("tail")
        b = IRBuilder(f, entry)
        value = b.add(b.const(I32, 1), b.const(I32, 2))
        b.br(tail)
        b.position_at_end(tail)
        b.add(value, b.const(I32, 3))
        b.ret()
        verify_function(f)


def _phi_diamond():
    """Diamond whose merge block phi-selects a per-arm value."""
    f = Function("pkt_handler")
    entry = f.add_block("entry")
    left = f.add_block("left")
    right = f.add_block("right")
    merge = f.add_block("merge")
    b = IRBuilder(f, entry)
    cond = b.icmp("ult", b.const(I32, 1), b.const(I32, 2))
    b.cond_br(cond, left, right)
    b.position_at_end(left)
    from_left = b.add(b.const(I32, 10), b.const(I32, 1))
    b.br(merge)
    b.position_at_end(right)
    from_right = b.add(b.const(I32, 20), b.const(I32, 2))
    b.br(merge)
    b.position_at_end(merge)
    phi = b.phi(I32)
    phi.add_incoming(from_left, left)
    phi.add_incoming(from_right, right)
    b.ret()
    return f, phi


class TestPhiWellFormedness:
    def test_well_formed_phi_accepted(self):
        f, _ = _phi_diamond()
        verify_function(f)

    def test_incoming_from_non_predecessor(self):
        f, phi = _phi_diamond()
        entry = f.blocks[0]
        phi.incomings[1] = (phi.incomings[1][0], entry)
        with pytest.raises(VerificationError, match="not a predecessor"):
            verify_function(f)

    def test_duplicate_incoming_predecessor(self):
        f, phi = _phi_diamond()
        left = f.blocks[1]
        phi.incomings[1] = (phi.incomings[1][0], left)
        with pytest.raises(VerificationError, match="duplicate incomings"):
            verify_function(f)

    def test_missing_incoming_predecessor(self):
        f, phi = _phi_diamond()
        del phi.incomings[1]
        with pytest.raises(VerificationError, match="missing incomings"):
            verify_function(f)

    def test_incoming_value_must_dominate_predecessor(self):
        f, phi = _phi_diamond()
        # `from_left` does not dominate the `right` arm's exit.
        phi.incomings[1] = (phi.incomings[0][0], phi.incomings[1][1])
        with pytest.raises(VerificationError, match="dominate predecessor"):
            verify_function(f)


class TestStructuralTypeChecks:
    """replace_operands-style mutation cannot smuggle type mismatches
    past the verifier."""

    def test_store_type_mismatch_rejected(self):
        from repro.nfir import I64

        f = Function("f")
        entry = f.add_block("entry")
        b = IRBuilder(f, entry)
        slot = b.alloca(I32)
        store = b.store(b.const(I32, 1), slot)
        b.ret()
        store.value = Constant(I64, 1)
        with pytest.raises(VerificationError, match="store of i64"):
            verify_function(f)

    def test_load_type_mismatch_rejected(self):
        from repro.nfir import I64

        f = Function("f")
        entry = f.add_block("entry")
        b = IRBuilder(f, entry)
        slot32 = b.alloca(I32)
        slot64 = b.alloca(I64)
        b.store(b.const(I32, 0), slot32)
        b.store(b.const(I64, 0), slot64)
        load = b.load(slot32)
        b.ret()
        load.ptr = slot64
        with pytest.raises(VerificationError, match="does not match pointee"):
            verify_function(f)
