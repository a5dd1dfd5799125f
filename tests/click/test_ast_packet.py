"""ClickScript AST and packet-model tests."""

import pytest
from hypothesis import given, strategies as st

from repro.click import ast as C
from repro.click.elements._dsl import assign, decl, eq, if_, lit, v
from repro.click.packet import (
    FIELD_TO_HEADER,
    HEADER_FIELD_NAMES,
    Packet,
    header_struct,
)


class TestAst:
    def test_operator_overloading_builds_binexpr(self):
        expr = v("a") + 1
        assert isinstance(expr, C.BinExpr)
        assert expr.op == "+"
        assert isinstance(expr.rhs, C.IntLit)

    def test_reverse_operators(self):
        expr = 32 - v("mlen")
        assert isinstance(expr, C.BinExpr) and expr.op == "-"
        assert isinstance(expr.lhs, C.IntLit) and expr.lhs.value == 32

    def test_python_eq_is_not_overloaded(self):
        # `==` must keep structural dataclass semantics on AST nodes.
        assert v("a") == v("a")
        assert v("a") != v("b")

    def test_unknown_operators_rejected(self):
        with pytest.raises(ValueError):
            C.BinExpr("**", v("a"), v("b"))
        with pytest.raises(ValueError):
            C.CmpExpr("===", v("a"), v("b"))

    def test_state_decl_validation(self):
        with pytest.raises(ValueError):
            C.StateDecl("x", "blob")

    def test_struct_size(self):
        sd = C.StructDef("k", [("a", "u32"), ("b", "u16"), ("c", "u8")])
        assert sd.size_bytes() == 7

    def test_walk_stmts_visits_nested(self):
        stmts = [
            if_(
                eq(v("a"), 1),
                [assign(v("b"), v("a") + 2)],
                [decl("c", "u32", lit(3))],
            )
        ]
        kinds = [type(n).__name__ for n in C.walk_stmts(stmts)]
        assert "IfStmt" in kinds
        assert "AssignStmt" in kinds
        assert "DeclStmt" in kinds
        assert kinds.count("IntLit") >= 2

    def test_element_struct_lookup(self):
        el = C.ElementDef("e", structs=[C.StructDef("k", [("a", "u32")])])
        assert el.struct("k").name == "k"
        with pytest.raises(KeyError):
            el.struct("missing")


class TestPacket:
    def test_defaults_fill_headers(self):
        p = Packet(ip={}, tcp={})
        assert p.ip["ip_v"] == 4
        assert p.ip["ip_hl"] == 5
        assert p.tcp["th_sport"] == 0

    def test_tcp_sets_protocol(self):
        assert Packet(ip={}, tcp={}).ip["ip_p"] == 6
        assert Packet(ip={}, udp={}).ip["ip_p"] == 17

    def test_flow_key_five_tuple(self):
        p = Packet(
            ip={"src_addr": 1, "dst_addr": 2},
            tcp={"th_sport": 10, "th_dport": 20},
        )
        assert p.flow_key() == (1, 2, 10, 20, 6)

    def test_wire_len(self):
        p = Packet(ip={}, tcp={}, payload=b"x" * 100)
        assert p.wire_len == 14 + 20 + 20 + 100

    def test_header_struct_fields_unique_globally(self):
        seen = set()
        for header in ("eth", "ip", "tcp", "udp"):
            for fname, _t in header_struct(header).fields:
                assert fname not in seen, f"duplicate field {fname}"
                seen.add(fname)

    def test_field_registry(self):
        assert "src_addr" in HEADER_FIELD_NAMES
        assert FIELD_TO_HEADER["th_sport"] == "tcp"
        assert FIELD_TO_HEADER["uh_sport"] == "udp"

    def test_header_lookup(self):
        p = Packet(ip={}, udp={})
        assert p.header("udp") is p.udp
        assert p.header("tcp") is None
        with pytest.raises(KeyError):
            p.header("payload")  # an attribute, but not a header

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_flow_key_deterministic(self, addr):
        p1 = Packet(ip={"src_addr": addr}, tcp={})
        p2 = Packet(ip={"src_addr": addr}, tcp={})
        assert p1.flow_key() == p2.flow_key()
