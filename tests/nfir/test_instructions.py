"""Unit + property tests for NFIR instructions and evaluation
semantics (shared by the interpreter and the constant folder)."""

import pytest
from hypothesis import given, strategies as st

from repro.nfir.instructions import (
    BinaryOp,
    Cast,
    GEP,
    ICmp,
    Load,
    Select,
    Store,
    binary_kernel,
    evaluate_binary,
    evaluate_icmp,
    icmp_kernel,
    BINARY_OPCODES,
    ICMP_PREDICATES,
)
from repro.nfir.types import I1, I8, I16, I32, I64, IntType, PointerType, StructType
from repro.nfir.values import Argument, Constant


def arg(type_=I32, name="x"):
    return Argument(type_, name, 0)


class TestConstruction:
    def test_binop_type_mismatch(self):
        with pytest.raises(TypeError):
            BinaryOp("add", arg(I32), arg(I16, "y"))

    def test_unknown_binop(self):
        with pytest.raises(ValueError):
            BinaryOp("pow", arg(), arg())

    def test_icmp_produces_i1(self):
        cmp = ICmp("ult", arg(), Constant(I32, 4))
        assert cmp.type == I1

    def test_icmp_pointer_only_eq_ne(self):
        p = Argument(PointerType(I32), "p", 0)
        ICmp("eq", p, Constant(PointerType(I32), 0))
        with pytest.raises(TypeError):
            ICmp("ult", p, Constant(PointerType(I32), 0))

    def test_select_arm_types_must_match(self):
        cond = Argument(I1, "c", 0)
        with pytest.raises(TypeError):
            Select(cond, arg(I32), arg(I16, "y"))

    def test_zext_must_widen(self):
        with pytest.raises(TypeError):
            Cast("zext", arg(I32), I8)

    def test_load_requires_pointer(self):
        with pytest.raises(TypeError):
            Load(arg(I32))

    def test_store_type_check(self):
        p = Argument(PointerType(I32), "p", 0)
        with pytest.raises(TypeError):
            Store(Constant(I16, 1), p)

    def test_gep_field_path_types(self):
        st_ = StructType("s", (("a", I32),))
        base = Argument(PointerType(st_), "p", 0)
        gep = GEP(base, ["a"])
        assert gep.type == PointerType(I32)
        with pytest.raises(KeyError):
            GEP(base, ["missing"])
        with pytest.raises(TypeError):
            GEP(base, ["a", "a"])  # field access into non-struct i32

    def test_null_pointer_constant(self):
        c = Constant(PointerType(I8), 0)
        assert c.is_null
        assert c.ref() == "null"
        with pytest.raises(ValueError):
            Constant(PointerType(I8), 7)


class TestEvaluateBinary:
    def test_add_wraps(self):
        assert evaluate_binary("add", I8, 255, 1) == 0

    def test_sub_wraps(self):
        assert evaluate_binary("sub", I8, 0, 1) == 255

    def test_mul_wraps(self):
        assert evaluate_binary("mul", I16, 0x8000, 2) == 0

    def test_udiv_by_zero_is_zero(self):
        assert evaluate_binary("udiv", I32, 100, 0) == 0

    def test_sdiv_signs(self):
        assert evaluate_binary("sdiv", I8, I8.wrap(-7), 2) == I8.wrap(-3)
        assert evaluate_binary("sdiv", I8, 7, I8.wrap(-2)) == I8.wrap(-3)

    def test_srem_sign_follows_dividend(self):
        assert evaluate_binary("srem", I8, I8.wrap(-7), 2) == I8.wrap(-1)

    def test_shift_amount_wraps_to_width(self):
        assert evaluate_binary("shl", I8, 1, 8) == 1  # 8 % 8 == 0
        assert evaluate_binary("shl", I8, 1, 3) == 8

    def test_ashr_sign_extends(self):
        assert evaluate_binary("ashr", I8, 0x80, 1) == 0xC0

    def test_lshr_zero_fills(self):
        assert evaluate_binary("lshr", I8, 0x80, 1) == 0x40

    @given(
        op=st.sampled_from(BINARY_OPCODES),
        a=st.integers(min_value=0, max_value=2**32 - 1),
        b=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_results_stay_in_range(self, op, a, b):
        result = evaluate_binary(op, I32, a, b)
        assert 0 <= result <= I32.max_unsigned()

    @given(
        a=st.integers(min_value=0, max_value=255),
        b=st.integers(min_value=0, max_value=255),
    )
    def test_add_commutes(self, a, b):
        assert evaluate_binary("add", I8, a, b) == evaluate_binary("add", I8, b, a)

    @given(a=st.integers(min_value=0, max_value=2**32 - 1))
    def test_xor_self_is_zero(self, a):
        assert evaluate_binary("xor", I32, a, a) == 0


class TestEvaluateICmp:
    def test_unsigned_vs_signed(self):
        # 0xFF is -1 signed, 255 unsigned.
        assert evaluate_icmp("ugt", I8, 0xFF, 1) == 1
        assert evaluate_icmp("sgt", I8, 0xFF, 1) == 0

    @given(
        pred=st.sampled_from(ICMP_PREDICATES),
        a=st.integers(min_value=0, max_value=2**16 - 1),
        b=st.integers(min_value=0, max_value=2**16 - 1),
    )
    def test_returns_bool(self, pred, a, b):
        assert evaluate_icmp(pred, I16, a, b) in (0, 1)

    @given(a=st.integers(min_value=0, max_value=2**16 - 1))
    def test_eq_reflexive(self, a):
        assert evaluate_icmp("eq", I16, a, a) == 1
        assert evaluate_icmp("ule", I16, a, a) == 1
        assert evaluate_icmp("ult", I16, a, a) == 0

    @given(
        a=st.integers(min_value=0, max_value=2**16 - 1),
        b=st.integers(min_value=0, max_value=2**16 - 1),
    )
    def test_trichotomy(self, a, b):
        lt = evaluate_icmp("ult", I16, a, b)
        gt = evaluate_icmp("ugt", I16, a, b)
        eq = evaluate_icmp("eq", I16, a, b)
        assert lt + gt + eq == 1


def _reference_binary(opcode, type_, lhs, rhs):
    """The straight-line definition the kernels replaced (oracle)."""
    bits = type_.bits
    mask = type_.max_unsigned()
    lhs &= mask
    rhs &= mask
    if opcode == "add":
        return (lhs + rhs) & mask
    if opcode == "sub":
        return (lhs - rhs) & mask
    if opcode == "mul":
        return (lhs * rhs) & mask
    if opcode == "udiv":
        return (lhs // rhs) & mask if rhs else 0
    if opcode == "sdiv":
        sl, sr = type_.to_signed(lhs), type_.to_signed(rhs)
        if sr == 0:
            return 0
        q = abs(sl) // abs(sr)
        if (sl < 0) != (sr < 0):
            q = -q
        return q & mask
    if opcode == "urem":
        return (lhs % rhs) & mask if rhs else 0
    if opcode == "srem":
        sl, sr = type_.to_signed(lhs), type_.to_signed(rhs)
        if sr == 0:
            return 0
        r = abs(sl) % abs(sr)
        if sl < 0:
            r = -r
        return r & mask
    if opcode == "and":
        return lhs & rhs
    if opcode == "or":
        return lhs | rhs
    if opcode == "xor":
        return lhs ^ rhs
    if opcode == "shl":
        return (lhs << (rhs % bits)) & mask
    if opcode == "lshr":
        return (lhs >> (rhs % bits)) & mask
    if opcode == "ashr":
        return type_.wrap(type_.to_signed(lhs) >> (rhs % bits))
    raise AssertionError(opcode)


def _reference_icmp(predicate, type_, lhs, rhs):
    ul, ur = type_.wrap(lhs), type_.wrap(rhs)
    sl, sr = type_.to_signed(lhs), type_.to_signed(rhs)
    return int({
        "eq": ul == ur, "ne": ul != ur,
        "ult": ul < ur, "ule": ul <= ur, "ugt": ul > ur, "uge": ul >= ur,
        "slt": sl < sr, "sle": sl <= sr, "sgt": sl > sr, "sge": sl >= sr,
    }[predicate])


#: in range, at the edges, past them, and negative.
_EDGE_OPERANDS = (0, 1, 2, 3, 7, 8, 63, 64, 127, 128, 200, 255, 256, 300,
                  -1, -2, -128, -129, -300, 2**31, 2**63, 2**64 + 5)


class TestKernelsMatchReference:
    @pytest.mark.parametrize("type_", [I1, I8, I16, I32, I64])
    @pytest.mark.parametrize("opcode", BINARY_OPCODES)
    def test_binary_edges(self, opcode, type_):
        for a in _EDGE_OPERANDS:
            for b in _EDGE_OPERANDS:
                got = evaluate_binary(opcode, type_, a, b)
                assert got == _reference_binary(opcode, type_, a, b)
                assert type(got) is int

    @pytest.mark.parametrize("type_", [I1, I8, I16, I32, I64])
    @pytest.mark.parametrize("predicate", ICMP_PREDICATES)
    def test_icmp_edges(self, predicate, type_):
        for a in _EDGE_OPERANDS:
            for b in _EDGE_OPERANDS:
                got = evaluate_icmp(predicate, type_, a, b)
                assert got == _reference_icmp(predicate, type_, a, b)
                assert type(got) is int

    @given(
        op=st.sampled_from(BINARY_OPCODES),
        bits=st.sampled_from([1, 8, 16, 32, 64]),
        a=st.integers(min_value=-(2**70), max_value=2**70),
        b=st.integers(min_value=-(2**70), max_value=2**70),
    )
    def test_binary_any_int(self, op, bits, a, b):
        type_ = {1: I1, 8: I8, 16: I16, 32: I32, 64: I64}[bits]
        assert evaluate_binary(op, type_, a, b) == _reference_binary(op, type_, a, b)

    @given(
        pred=st.sampled_from(ICMP_PREDICATES),
        bits=st.sampled_from([1, 8, 16, 32, 64]),
        a=st.integers(min_value=-(2**70), max_value=2**70),
        b=st.integers(min_value=-(2**70), max_value=2**70),
    )
    def test_icmp_any_int(self, pred, bits, a, b):
        type_ = {1: I1, 8: I8, 16: I16, 32: I32, 64: I64}[bits]
        assert evaluate_icmp(pred, type_, a, b) == _reference_icmp(pred, type_, a, b)

    def test_kernels_are_shared_per_opcode_and_width(self):
        assert binary_kernel("add", I32) is binary_kernel("add", IntType(32))
        assert icmp_kernel("slt", I8) is icmp_kernel("slt", I8)

    def test_unknown_opcode_and_predicate(self):
        with pytest.raises(ValueError, match="unknown binary opcode"):
            binary_kernel("pow", I8)
        with pytest.raises(ValueError, match="unknown icmp predicate"):
            icmp_kernel("lt", I8)
