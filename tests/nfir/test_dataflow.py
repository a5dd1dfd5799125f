"""Dataflow-analysis tests: dominator tree vs a brute-force oracle on
random CFGs, and the standard analyses on known-shape functions."""

import random

import pytest

from repro.nfir import Function, I32, IRBuilder
from repro.nfir.analysis import (
    DefUseChains,
    DominatorTree,
    liveness,
    maybe_uninitialized_loads,
    reaching_stores,
    slot_of,
    solve,
    stores_reaching,
)
from repro.nfir.analysis.dataflow import DataflowProblem


def diamond_function():
    """entry -> (left|right) -> merge, with a value defined per arm."""
    f = Function("pkt_handler")
    entry = f.add_block("entry")
    left = f.add_block("left")
    right = f.add_block("right")
    merge = f.add_block("merge")
    b = IRBuilder(f, entry)
    base = b.add(b.const(I32, 1), b.const(I32, 2))
    cond = b.icmp("ult", base, b.const(I32, 5))
    b.cond_br(cond, left, right)
    b.position_at_end(left)
    b.add(base, b.const(I32, 10))
    b.br(merge)
    b.position_at_end(right)
    b.br(merge)
    b.position_at_end(merge)
    b.add(base, b.const(I32, 30))
    b.ret()
    return f, base


def loop_function():
    f = Function("pkt_handler")
    entry = f.add_block("entry")
    header = f.add_block("header")
    body = f.add_block("body")
    exit_ = f.add_block("exit")
    b = IRBuilder(f, entry)
    slot = b.alloca(I32)
    init = b.store(b.const(I32, 0), slot)
    b.br(header)
    b.position_at_end(header)
    i = b.load(slot)
    cond = b.icmp("ult", i, b.const(I32, 10))
    b.cond_br(cond, body, exit_)
    b.position_at_end(body)
    step = b.store(b.add(b.load(slot), b.const(I32, 1)), slot)
    b.br(header)
    b.position_at_end(exit_)
    b.ret()
    return f, slot, init, step, i


def random_cfg(rng, n_blocks):
    """A random (possibly partially unreachable) function shape."""
    f = Function("rand")
    blocks = [f.add_block(f"b{i}") for i in range(n_blocks)]
    for block in blocks:
        b = IRBuilder(f, block)
        roll = rng.random()
        if roll < 0.2:
            b.ret()
        elif roll < 0.55:
            b.br(rng.choice(blocks))
        else:
            cond = b.icmp("ult", b.const(I32, 1), b.const(I32, 2))
            b.cond_br(cond, rng.choice(blocks), rng.choice(blocks))
    return f


def oracle_reachable(function, avoiding=None):
    """Block names reachable from the entry without passing through
    ``avoiding`` (the textbook dominance criterion)."""
    entry = function.entry
    if entry.name == avoiding:
        return set()
    seen = {entry.name}
    stack = [entry]
    while stack:
        block = stack.pop()
        for succ in block.successors():
            if succ.name == avoiding or succ.name in seen:
                continue
            seen.add(succ.name)
            stack.append(succ)
    return seen


class TestDominatorOracle:
    """CHK dominator tree against brute force: ``a`` dominates ``b``
    iff removing ``a`` disconnects ``b`` from the entry."""

    @pytest.mark.parametrize("seed", range(25))
    def test_random_cfgs(self, seed):
        rng = random.Random(seed)
        f = random_cfg(rng, rng.randint(3, 9))
        tree = DominatorTree(f)
        reachable = oracle_reachable(f)
        assert tree.reachable == reachable
        names = [b.name for b in f.blocks]
        for a in names:
            without_a = oracle_reachable(f, avoiding=a)
            for b in names:
                expected = (
                    a in reachable
                    and b in reachable
                    and (a == b or b not in without_a)
                )
                assert tree.dominates(a, b) == expected, (seed, a, b)

    @pytest.mark.parametrize("seed", range(25))
    def test_frontier_matches_definition(self, seed):
        # DF(a) = {b : a dominates a predecessor of b, a !sdom b}.
        rng = random.Random(1000 + seed)
        f = random_cfg(rng, rng.randint(3, 9))
        tree = DominatorTree(f)
        preds = {b.name: set() for b in f.blocks}
        for block in f.blocks:
            for succ in block.successors():
                preds[succ.name].add(block.name)
        frontier = tree.frontier()
        for a in tree.reachable:
            expected = {
                b
                for b in tree.reachable
                if any(tree.dominates(a, p) for p in preds[b])
                and not tree.strictly_dominates(a, b)
            }
            assert frontier[a] == expected, (seed, a)

    def test_idom_and_depth(self):
        f, _ = diamond_function()
        tree = DominatorTree(f)
        assert tree.idom("entry") == "entry"
        assert tree.idom("left") == tree.idom("right") == "entry"
        assert tree.idom("merge") == "entry"
        assert tree.depth("entry") == 0
        assert tree.depth("merge") == 1

    def test_unreachable_blocks_never_dominate(self):
        f, _ = diamond_function()
        dead = f.add_block("dead")
        IRBuilder(f, dead).ret()
        tree = DominatorTree(f)
        assert "dead" not in tree.reachable
        assert not tree.dominates("dead", "merge")
        assert not tree.dominates("entry", "dead")
        assert tree.idom("dead") is None


class TestLiveness:
    def test_diamond_value_live_through_both_arms(self):
        f, base = diamond_function()
        live = liveness(f)
        # `base` is used in left and merge, so it is live out of entry
        # and live through the right arm (merge still needs it).
        assert base in live.out_sets["entry"]
        assert base in live.in_sets["left"]
        assert base in live.in_sets["right"]
        assert base in live.in_sets["merge"]
        assert base not in live.out_sets["merge"]

    def test_loop_keeps_slot_live_around_backedge(self):
        f, slot, *_ = loop_function()
        live = liveness(f)
        assert slot in live.in_sets["header"]
        assert slot in live.out_sets["body"]
        assert slot not in live.out_sets["exit"]


class TestReachingStores:
    def test_loop_header_sees_init_and_step(self):
        f, slot, init, step, header_load = loop_function()
        result = reaching_stores(f)
        assert {init, step} <= set(result.in_sets["header"])
        assert set(stores_reaching(header_load, result)) == {init, step}

    def test_whole_slot_store_kills(self):
        f = Function("f")
        entry = f.add_block("entry")
        b = IRBuilder(f, entry)
        slot = b.alloca(I32)
        first = b.store(b.const(I32, 1), slot)
        second = b.store(b.const(I32, 2), slot)
        load = b.load(slot)
        b.ret()
        assert first is not second
        assert stores_reaching(load) == [second]

    def test_slot_of_walks_gep_and_cast(self):
        from repro.nfir.types import ArrayType

        f = Function("f")
        entry = f.add_block("entry")
        b = IRBuilder(f, entry)
        arr = b.alloca(ArrayType(I32, 4))
        p = b.gep(arr, [b.const(I32, 1)])
        b.ret()
        assert slot_of(p) is arr
        assert slot_of(b.const(I32, 0)) is None


class TestInitializedSlots:
    def test_one_armed_store_flags_merge_load(self):
        f = Function("f")
        entry = f.add_block("entry")
        then = f.add_block("then")
        merge = f.add_block("merge")
        b = IRBuilder(f, entry)
        slot = b.alloca(I32)
        cond = b.icmp("ult", b.const(I32, 1), b.const(I32, 2))
        b.cond_br(cond, then, merge)
        b.position_at_end(then)
        b.store(b.const(I32, 7), slot)
        b.br(merge)
        b.position_at_end(merge)
        load = b.load(slot)
        b.ret()
        assert maybe_uninitialized_loads(f) == [(load, slot)]

    def test_both_arms_stored_is_clean(self):
        f = Function("f")
        entry = f.add_block("entry")
        then = f.add_block("then")
        other = f.add_block("other")
        merge = f.add_block("merge")
        b = IRBuilder(f, entry)
        slot = b.alloca(I32)
        cond = b.icmp("ult", b.const(I32, 1), b.const(I32, 2))
        b.cond_br(cond, then, other)
        b.position_at_end(then)
        b.store(b.const(I32, 7), slot)
        b.br(merge)
        b.position_at_end(other)
        b.store(b.const(I32, 9), slot)
        b.br(merge)
        b.position_at_end(merge)
        b.load(slot)
        b.ret()
        assert maybe_uninitialized_loads(f) == []

    def test_loop_function_is_clean(self):
        f, *_ = loop_function()
        assert maybe_uninitialized_loads(f) == []


class TestDefUseChains:
    def test_users_and_dead(self):
        f, base = diamond_function()
        chains = DefUseChains(f)
        # base feeds the icmp plus the two adds in left/merge.
        assert chains.n_users(base) == 3
        assert not chains.is_dead(base)
        left_add = f.blocks[1].instructions[0]
        assert chains.is_dead(left_add)
        assert base in chains.uses(left_add)


class TestSolver:
    def test_rejects_unknown_direction(self):
        class Bad(DataflowProblem):
            direction = "sideways"

        f, _ = diamond_function()
        with pytest.raises(ValueError, match="direction"):
            solve(f, Bad())
