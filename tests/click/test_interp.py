"""Interpreter semantics tests: framework APIs, state, profiling,
and every runtime error the interpreter raises."""

import gc
import re
import weakref

import pytest

from repro.click import ast as C
from repro.click.elements import build_element, initial_state, install_state
from repro.click.elements._dsl import (
    assign,
    decl,
    eq,
    fcall,
    fld,
    hashmap_state,
    if_,
    lit,
    mcall,
    ne,
    pkt,
    scalar_state,
    struct,
    v,
    vector_state,
    while_,
)
from repro.click.frontend import lower_element
from repro.click.interp import InterpError, Interpreter
from repro.click.packet import PACKET_TYPE, Packet
from repro.nfir.builder import IRBuilder
from repro.nfir.function import Function, GlobalVariable, Module
from repro.nfir.instructions import CALL_KIND_API
from repro.nfir.types import I32, VOID, PointerType, StructType
from repro.nfir.values import Argument, Constant


def make_interp(handler, state=(), structs=(), seed=0):
    element = C.ElementDef(
        "t", state=list(state), structs=list(structs), handler=list(handler)
    )
    return Interpreter(lower_element(element), seed=seed)


class TestPacketApis:
    def test_send_sets_out_port(self):
        interp = make_interp([pkt("send", 3).as_stmt()])
        p = interp.run_packet(Packet(ip={}, tcp={}))
        assert p.out_port == 3 and not p.dropped

    def test_drop(self):
        interp = make_interp([pkt("drop").as_stmt()])
        p = interp.run_packet(Packet(ip={}, tcp={}))
        assert p.dropped

    def test_header_field_read_write(self):
        interp = make_interp(
            [
                decl("ip", "ip_hdr*", pkt("ip_header")),
                assign(fld(v("ip"), "ip_ttl"), fld(v("ip"), "ip_ttl") - 1),
                pkt("send", 0).as_stmt(),
            ]
        )
        p = interp.run_packet(Packet(ip={"ip_ttl": 64}, tcp={}))
        assert p.ip["ip_ttl"] == 63

    def test_missing_header_returns_null(self):
        interp = make_interp(
            [
                decl("tcp", "tcp_hdr*", pkt("tcp_header")),
                if_(
                    eq(v("tcp"), 0),
                    [assign(v("saw_null"), lit(1))],
                ),
                pkt("send", 0).as_stmt(),
            ],
            state=[scalar_state("saw_null", "u32")],
        )
        interp.run_packet(Packet(ip={}, udp={}))
        assert interp.global_value("saw_null") == 1

    def test_payload_byte_roundtrip(self):
        interp = make_interp(
            [
                decl("b", "u32", pkt("payload_byte", 0)),
                pkt("set_payload_byte", 1, v("b") + 1).as_stmt(),
                pkt("send", 0).as_stmt(),
            ]
        )
        p = interp.run_packet(Packet(ip={}, tcp={}, payload=b"\x10\x00"))
        assert p.payload == b"\x10\x11"

    def test_payload_len_and_metadata(self):
        interp = make_interp(
            [
                assign(v("len_out"), pkt("payload_len")),
                assign(v("port_out"), pkt("in_port")),
                assign(v("ts_out"), pkt("timestamp_ns")),
                pkt("send", 0).as_stmt(),
            ],
            state=[
                scalar_state("len_out", "u32"),
                scalar_state("port_out", "u32"),
                scalar_state("ts_out", "u64"),
            ],
        )
        interp.run_packet(
            Packet(ip={}, tcp={}, payload=b"abcd", in_port=2, timestamp_ns=99)
        )
        assert interp.global_value("len_out") == 4
        assert interp.global_value("port_out") == 2
        assert interp.global_value("ts_out") == 99

    def test_checksum_deterministic_and_changes(self):
        interp = make_interp(
            [
                decl("ip", "ip_hdr*", pkt("ip_header")),
                fcall("checksum_update_ip", v("ip")).as_stmt(),
                pkt("send", 0).as_stmt(),
            ]
        )
        p1 = interp.run_packet(Packet(ip={"src_addr": 1, "dst_addr": 2}, tcp={}))
        p2 = interp.run_packet(Packet(ip={"src_addr": 1, "dst_addr": 2}, tcp={}))
        p3 = interp.run_packet(Packet(ip={"src_addr": 9, "dst_addr": 2}, tcp={}))
        assert p1.ip["ip_sum"] == p2.ip["ip_sum"] != 0
        assert p1.ip["ip_sum"] != p3.ip["ip_sum"]

    def test_random_is_seeded(self):
        handler = [
            assign(v("r"), fcall("random_u32")),
            pkt("send", 0).as_stmt(),
        ]
        state = [scalar_state("r", "u32")]
        a = make_interp(handler, state, seed=5)
        b = make_interp(handler, state, seed=5)
        a.run_packet(Packet(ip={}, tcp={}))
        b.run_packet(Packet(ip={}, tcp={}))
        assert a.global_value("r") == b.global_value("r")


class TestStatefulApis:
    MAP_STRUCTS = [struct("k", ("a", "u32")), struct("val", ("n", "u32"))]

    def _find_or_insert(self):
        return [
            decl("key", "k"),
            assign(fld(v("key"), "a"), fld(v("ip"), "src_addr")),
            decl("f", "val*", mcall("m", "find", v("key"))),
            if_(
                ne(v("f"), 0),
                [assign(fld(v("f"), "n"), fld(v("f"), "n") + 1)],
                [
                    decl("fresh", "val"),
                    assign(fld(v("fresh"), "n"), lit(1)),
                    mcall("m", "insert", v("key"), v("fresh")).as_stmt(),
                ],
            ),
            pkt("send", 0).as_stmt(),
        ]

    def test_hashmap_find_insert_update(self):
        handler = [decl("ip", "ip_hdr*", pkt("ip_header"))] + self._find_or_insert()
        interp = make_interp(
            handler,
            state=[hashmap_state("m", "k", "val", 16)],
            structs=self.MAP_STRUCTS,
        )
        for _ in range(3):
            interp.run_packet(Packet(ip={"src_addr": 7}, tcp={}))
        interp.run_packet(Packet(ip={"src_addr": 8}, tcp={}))
        table = interp.hashmap("m")
        assert len(table) == 2
        assert table.find((("a", 7),))["n"] == 3
        assert table.find((("a", 8),))["n"] == 1

    def test_hashmap_erase(self):
        handler = [
            decl("ip", "ip_hdr*", pkt("ip_header")),
            decl("key", "k"),
            assign(fld(v("key"), "a"), lit(1)),
            decl("fresh", "val"),
            assign(fld(v("fresh"), "n"), lit(5)),
            mcall("m", "insert", v("key"), v("fresh")).as_stmt(),
            assign(v("gone"), mcall("m", "erase", v("key"))),
            assign(v("sz"), mcall("m", "size")),
            pkt("send", 0).as_stmt(),
        ]
        interp = make_interp(
            handler,
            state=[
                hashmap_state("m", "k", "val", 16),
                scalar_state("gone", "u32"),
                scalar_state("sz", "u32"),
            ],
            structs=self.MAP_STRUCTS,
        )
        interp.run_packet(Packet(ip={}, tcp={}))
        assert interp.global_value("gone") == 1
        assert interp.global_value("sz") == 0

    def test_vector_push_at_remove(self):
        handler = [
            decl("ip", "ip_hdr*", pkt("ip_header")),
            decl("item", "val"),
            assign(fld(v("item"), "n"), fld(v("ip"), "src_addr")),
            mcall("vec", "push_back", v("item")).as_stmt(),
            decl("p", "val*", mcall("vec", "at", 0)),
            if_(ne(v("p"), 0), [assign(v("first"), fld(v("p"), "n"))]),
            pkt("send", 0).as_stmt(),
        ]
        interp = make_interp(
            handler,
            state=[
                vector_state("vec", "val", 4),
                scalar_state("first", "u32"),
            ],
            structs=self.MAP_STRUCTS,
        )
        interp.run_packet(Packet(ip={"src_addr": 42}, tcp={}))
        interp.run_packet(Packet(ip={"src_addr": 43}, tcp={}))
        assert interp.global_value("first") == 42
        assert len(interp.vector("vec").items) == 2

    def test_vector_capacity_bound(self):
        handler = [
            decl("ip", "ip_hdr*", pkt("ip_header")),
            decl("item", "val"),
            assign(fld(v("item"), "n"), lit(1)),
            assign(v("ok"), mcall("vec", "push_back", v("item"))),
            pkt("send", 0).as_stmt(),
        ]
        interp = make_interp(
            handler,
            state=[vector_state("vec", "val", 2), scalar_state("ok", "u32")],
            structs=self.MAP_STRUCTS,
        )
        for _ in range(2):
            interp.run_packet(Packet(ip={}, tcp={}))
            assert interp.global_value("ok") == 1
        interp.run_packet(Packet(ip={}, tcp={}))
        assert interp.global_value("ok") == 0


class TestProfiling:
    def test_block_counts_sum(self):
        interp = make_interp(
            [
                decl("i", "u32", lit(0)),
                while_(C.CmpExpr("<", v("i"), lit(4)), [assign(v("i"), v("i") + 1)]),
                pkt("send", 0).as_stmt(),
            ]
        )
        interp.run_packet(Packet(ip={}, tcp={}))
        prof = interp.profile
        # entry once; loop cond 5x; body 4x; exit once.
        cond = next(b for b in prof.block_counts if b.startswith("while.cond"))
        body = next(b for b in prof.block_counts if b.startswith("while.body"))
        assert prof.block_counts[cond] == 5
        assert prof.block_counts[body] == 4

    def test_stateful_access_counts(self):
        interp = make_interp(
            [
                assign(v("c"), v("c") + 1),
                pkt("send", 0).as_stmt(),
            ],
            state=[scalar_state("c", "u32")],
        )
        for _ in range(10):
            interp.run_packet(Packet(ip={}, tcp={}))
        assert interp.profile.global_access["c"]["load"] == 10
        assert interp.profile.global_access["c"]["store"] == 10
        assert interp.profile.access_frequency("c") == 2.0

    def test_access_vectors_normalized(self):
        interp = make_interp(
            [
                assign(v("c"), v("c") + 1),
                pkt("send", 0).as_stmt(),
            ],
            state=[scalar_state("c", "u32")],
        )
        interp.run_packet(Packet(ip={}, tcp={}))
        blocks = sorted({b for (_g, b) in interp.profile.global_block_access})
        vec = interp.profile.access_vector("c", blocks)
        assert abs(vec.sum() - 1.0) < 1e-9

    def test_sent_dropped_counters(self):
        interp = make_interp(
            [
                decl("ip", "ip_hdr*", pkt("ip_header")),
                if_(
                    eq(fld(v("ip"), "ip_ttl"), 0),
                    [pkt("drop").as_stmt()],
                    [pkt("send", 0).as_stmt()],
                ),
            ]
        )
        interp.run_packet(Packet(ip={"ip_ttl": 0}, tcp={}))
        interp.run_packet(Packet(ip={"ip_ttl": 5}, tcp={}))
        assert interp.profile.dropped == 1
        assert interp.profile.sent == 1

    def test_step_limit_catches_runaway(self):
        interp = make_interp(
            [
                decl("i", "u32", lit(0)),
                while_(C.CmpExpr("<", v("i"), lit(10)), []),  # no increment
                pkt("send", 0).as_stmt(),
            ]
        )
        interp.max_steps = 1000
        with pytest.raises(InterpError, match="step limit"):
            interp.run_packet(Packet(ip={}, tcp={}))


def _handler_module(build, globals_=()):
    """A module whose ``pkt_handler`` body ``build(module, fn, b)`` emits
    through an :class:`IRBuilder` positioned at the entry block."""
    module = Module("hand_built")
    for g in globals_:
        module.add_global(g)
    fn = module.add_function(
        Function("pkt_handler", [("pkt", PointerType(PACKET_TYPE))])
    )
    build(module, fn, IRBuilder(fn, fn.add_block("entry")))
    return module


def _run_expecting(module, message, max_steps=None):
    interp = Interpreter(module)
    if max_steps is not None:
        interp.max_steps = max_steps
    with pytest.raises(InterpError, match=re.escape(message)):
        interp.run_packet(Packet(ip={}, tcp={}))


class TestPhi:
    def test_loop_carried_phis_pick_the_arm_of_the_predecessor(self):
        # sum(range(5)) through two loop-carried phis; hand-built, since
        # the frontend lowers locals through allocas instead.
        out = GlobalVariable("out", I32)

        def build(module, fn, b):
            loop = fn.add_block("loop")
            done = fn.add_block("done")
            b.br(loop)
            b.position_at_end(loop)
            i = b.phi(I32)
            acc = b.phi(I32)
            i_next = b.add(i, Constant(I32, 1))
            acc_next = b.add(acc, i)
            i.add_incoming(Constant(I32, 0), fn.entry)
            i.add_incoming(i_next, loop)
            acc.add_incoming(Constant(I32, 0), fn.entry)
            acc.add_incoming(acc_next, loop)
            b.cond_br(b.icmp("ult", i_next, Constant(I32, 5)), loop, done)
            b.position_at_end(done)
            b.store(acc_next, out)
            b.ret()

        interp = Interpreter(_handler_module(build, [out]))
        interp.run_packet(Packet(ip={}, tcp={}))
        assert interp.global_value("out") == 10
        assert interp.profile.block_counts["loop"] == 5


class TestInterpErrors:
    """Every runtime check the interpreter makes, on hand-built IR."""

    def test_use_of_undefined_value(self):
        def build(module, fn, b):
            b.add(Argument(I32, "ghost", 3), Constant(I32, 1))
            b.ret()

        _run_expecting(_handler_module(build), "use of undefined value %ghost")

    def test_load_through_null(self):
        def build(module, fn, b):
            b.load(Constant(PointerType(I32), 0))
            b.ret()

        _run_expecting(_handler_module(build), "load through bad pointer in entry")

    def test_store_through_null(self):
        def build(module, fn, b):
            b.store(Constant(I32, 5), Constant(PointerType(I32), 0))
            b.ret()

        _run_expecting(_handler_module(build), "store through bad pointer in entry")

    def test_gep_on_non_pointer(self):
        point = StructType("point", (("x", I32), ("y", I32)))

        def build(module, fn, b):
            fake = b.cast("bitcast", Constant(I32, 7), PointerType(point))
            b.gep(fake, ["y"])
            b.ret()

        _run_expecting(_handler_module(build), "GEP on non-pointer value")

    def test_phi_in_entry_block(self):
        def build(module, fn, b):
            phi = b.phi(I32)
            phi.add_incoming(Constant(I32, 1), fn.entry)
            b.ret()

        _run_expecting(_handler_module(build), "phi in entry block")

    def test_phi_without_arm_for_predecessor(self):
        def build(module, fn, b):
            other = fn.add_block("other")
            join = fn.add_block("join")
            b.br(join)
            b.position_at_end(other)
            b.br(join)
            b.position_at_end(join)
            phi = b.phi(I32)
            phi.add_incoming(Constant(I32, 1), other)
            b.ret()

        _run_expecting(
            _handler_module(build),
            "phi in join has no arm for predecessor entry",
        )

    def test_block_falls_through(self):
        def build(module, fn, b):
            b.add(Constant(I32, 1), Constant(I32, 2))

        _run_expecting(
            _handler_module(build), "block entry in @pkt_handler fell through"
        )

    def test_unknown_internal_callee(self):
        def build(module, fn, b):
            b.call("nosuch", [], VOID)
            b.ret()

        _run_expecting(_handler_module(build), "call to unknown function @nosuch")

    def test_unimplemented_api(self):
        counter = GlobalVariable("counter", I32)

        def build(module, fn, b):
            b.call("frobnicate", [counter], VOID, kind=CALL_KIND_API)
            b.ret()

        _run_expecting(
            _handler_module(build, [counter]), "unimplemented API 'frobnicate'"
        )

    def test_runaway_loop_in_internal_callee(self):
        def build(module, fn, b):
            spin = module.add_function(Function("spin"))
            loop = IRBuilder(spin, spin.add_block("entry"))
            body = spin.add_block("loop")
            loop.br(body)
            loop.position_at_end(body)
            loop.br(body)
            b.call("spin", [], VOID)
            b.ret()

        _run_expecting(
            _handler_module(build),
            "step limit exceeded in @spin (1000 steps)",
            max_steps=1000,
        )


class TestLifetime:
    @pytest.mark.parametrize("name", ["mazunat", "cmsketch"])
    def test_finished_interpreter_is_freed_by_refcount(self, name):
        # Decoded closures must not tie the interpreter into a cycle:
        # the daemon builds one per request and drops it after.
        element = build_element(name)
        interp = Interpreter(lower_element(element, inline=True))
        install_state(interp, initial_state(element))
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            interp.run_trace(Packet(ip={"src_addr": i}, tcp={}) for i in range(5))
            ref = weakref.ref(interp)
            del interp
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()
