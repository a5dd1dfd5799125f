"""Interpreter semantics tests: framework APIs, state, profiling,
every runtime error the interpreter raises, and the life of its
compiled code."""

import gc
import re
import sys
import threading
import weakref
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

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
from repro.click import interp as interp_module
from repro.click.interp import InterpError, Interpreter
from repro.click.packet import IP_FIELDS, IP_HEADER, PACKET_TYPE, TCP_FIELDS, Packet
from repro.nfir.builder import IRBuilder
from repro.nfir.block import BasicBlock
from repro.nfir.function import Function, GlobalVariable, Module
from repro.nfir.instructions import CALL_KIND_API, Instruction
from repro.nfir.types import I1, I8, I32, VOID, PointerType, StructType
from repro.nfir.values import Argument, Constant
from repro.workload import LARGE_FLOWS, SMALL_FLOWS, iter_trace


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


def _ones_complement(words):
    """RFC 1071: the complement of the one's-complement sum of the
    16-bit chunks of ``words``, carries added back one at a time."""
    total = 0
    for word in words:
        while word:
            total += word & 0xFFFF
            word >>= 16
            if total > 0xFFFF:
                total = (total & 0xFFFF) + 1
    return ~total & 0xFFFF


def _field_values(layout):
    return st.fixed_dictionaries({
        name: st.integers(0, (1 << bits) - 1) for name, bits in layout
    })


def _maxima(layout):
    return {name: (1 << bits) - 1 for name, bits in layout}


class TestChecksums:
    @settings(max_examples=200, deadline=None)
    @given(ip=_field_values(IP_FIELDS))
    @example(ip=_maxima(IP_FIELDS))
    @example(ip={name: 0 for name, _ in IP_FIELDS})
    def test_ip_checksum_is_the_ones_complement_sum(self, ip):
        packet = Packet.complete({}, dict(ip), None, None, b"", 0, 0)
        interp_module._checksum_ip(packet)
        src, dst = ip["src_addr"], ip["dst_addr"]
        assert packet.ip["ip_sum"] == _ones_complement([
            (ip["ip_v"] << 12) | (ip["ip_hl"] << 8) | ip["ip_tos"],
            ip["ip_len"], ip["ip_id"], ip["ip_off"],
            (ip["ip_ttl"] << 8) | ip["ip_p"],
            src >> 16, src & 0xFFFF, dst >> 16, dst & 0xFFFF,
        ])

    @settings(max_examples=200, deadline=None)
    @given(ip=_field_values(IP_FIELDS), tcp=_field_values(TCP_FIELDS))
    @example(ip=_maxima(IP_FIELDS), tcp=_maxima(TCP_FIELDS))
    def test_tcp_checksum_is_the_ones_complement_sum(self, ip, tcp):
        packet = Packet.complete({}, dict(ip), dict(tcp), None, b"", 0, 0)
        interp_module._checksum_tcp(packet)
        seq, ack = tcp["th_seq"], tcp["th_ack"]
        src, dst = ip["src_addr"], ip["dst_addr"]
        assert packet.tcp["th_sum"] == _ones_complement([
            tcp["th_sport"], tcp["th_dport"],
            seq >> 16, seq & 0xFFFF, ack >> 16, ack & 0xFFFF,
            src >> 16, src & 0xFFFF, dst >> 16, dst & 0xFFFF,
        ])

    def test_tcp_checksum_skips_a_packet_without_tcp(self):
        packet = Packet(ip={}, udp={})
        interp_module._checksum_tcp(packet)
        assert packet.tcp is None


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

    def test_use_of_a_value_whose_block_has_not_run(self):
        # entry jumps to join, which reads %late's result before the
        # block defining it ("late", run after join) has run.
        seen = []

        def build(module, fn, b):
            late = fn.add_block("late")
            join = fn.add_block("join")
            b.cond_br(Constant(I1, 1), join, late)
            b.position_at_end(late)
            seen.append(b.add(Constant(I32, 1), Constant(I32, 2)))
            b.br(join)
            b.position_at_end(join)
            b.add(seen[0], Constant(I32, 1))
            b.ret()

        module = _handler_module(build)
        _run_expecting(module, f"use of undefined value {seen[0].ref()}")

    def test_load_through_an_alloca_that_has_not_run(self):
        # The alloca only ever serves loads and stores, so it lives in a
        # Python local; "use" reads it before "late" allocates it.
        def build(module, fn, b):
            late = fn.add_block("late")
            use = fn.add_block("use")
            b.br(use)
            b.position_at_end(late)
            slot = b.alloca(I32, name="early")
            b.ret()
            b.position_at_end(use)
            b.load(slot)
            b.br(late)

        _run_expecting(_handler_module(build), "use of undefined value %early")

    def test_use_of_a_formal_the_caller_did_not_pass(self):
        def build(module, fn, b):
            callee = module.add_function(Function("twice", [("x", I32)], I32))
            inner = IRBuilder(callee, callee.add_block("entry"))
            inner.ret(inner.add(callee.args[0], callee.args[0]))
            b.call("twice", [], I32)
            b.ret()

        _run_expecting(_handler_module(build), "use of undefined value %x")

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
        # Bound compiled code must not tie the interpreter into a cycle:
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


def _counting_packet_store(monkeypatch):
    """The number of ``PacketStore`` reads and writes from now on."""
    calls = [0]
    store = interp_module.PacketStore
    real_read, real_write = store.read, store.write

    def read(self, path):
        calls[0] += 1
        return real_read(self, path)

    def write(self, path, value):
        calls[0] += 1
        real_write(self, path, value)

    monkeypatch.setattr(store, "read", read)
    monkeypatch.setattr(store, "write", write)
    return calls


class TestHeaderFields:
    """Loads and stores through a slot that only ever holds one
    ``*_header`` API's result index the packet's header directly."""

    @pytest.mark.parametrize("name", ["firewall", "aggcounter", "webgen"])
    def test_library_header_slots_skip_the_packet_store(self, name, monkeypatch):
        calls = _counting_packet_store(monkeypatch)
        element = build_element(name)
        interp = Interpreter(lower_element(element), seed=1)
        install_state(interp, initial_state(element))
        for shape in (SMALL_FLOWS, replace(LARGE_FLOWS, udp_fraction=0.5)):
            interp.run_trace(iter_trace(replace(shape, n_packets=300), seed=1))
        assert interp.profile.packets == 600
        assert calls[0] == 0

    def test_a_slot_also_written_otherwise_keeps_the_store_path(self, monkeypatch):
        # The slot also takes a null store, so loads and stores through
        # it go through the packet store as before.
        calls = _counting_packet_store(monkeypatch)
        ip_ptr = PointerType(IP_HEADER)

        def build(module, fn, b):
            clear = fn.add_block("clear")
            use = fn.add_block("use")
            slot = b.alloca(ip_ptr)
            b.store(b.call("ip_header", [fn.args[0]], ip_ptr, CALL_KIND_API), slot)
            port = b.call("in_port", [fn.args[0]], I32, CALL_KIND_API)
            b.cond_br(b.icmp("eq", port, Constant(I32, 1)), clear, use)
            b.position_at_end(clear)
            b.store(Constant(ip_ptr, 0), slot)
            b.br(use)
            b.position_at_end(use)
            header = b.load(slot)
            ttl = b.load(b.gep(header, ["ip_ttl"]))
            b.store(b.sub(ttl, Constant(I8, 1)), b.gep(header, ["ip_ttl"]))
            b.ret()

        interp = Interpreter(_handler_module(build))
        p = interp.run_packet(Packet(ip={"ip_ttl": 64}, tcp={}))
        assert p.ip["ip_ttl"] == 63
        assert calls[0] == 2
        with pytest.raises(InterpError, match="load through bad pointer in use"):
            interp.run_packet(Packet(ip={}, tcp={}, in_port=1))

    @pytest.mark.parametrize("statement,message", [
        (assign(v("out"), fld(v("tcp"), "th_sport")),
         "load through bad pointer in entry"),
        (assign(fld(v("tcp"), "th_flags"), lit(2)),
         "store through bad pointer in entry"),
    ])
    def test_tcp_field_of_a_udp_packet(self, statement, message, monkeypatch):
        # The parent's messages, raised by the direct path.
        calls = _counting_packet_store(monkeypatch)
        interp = make_interp(
            [
                decl("tcp", "tcp_hdr*", pkt("tcp_header")),
                statement,
                pkt("send", 0).as_stmt(),
            ],
            state=[scalar_state("out", "u32")],
        )
        with pytest.raises(InterpError) as info:
            interp.run_packet(Packet(ip={}, udp={}))
        assert str(info.value) == message
        assert calls[0] == 0


def _counting_generation(monkeypatch):
    """The names of the functions whose code is generated from now on."""
    generated = []
    real = interp_module._generate

    def counting(function):
        generated.append(function.name)
        return real(function)

    monkeypatch.setattr(interp_module, "_generate", counting)
    return generated


class TestCompiledCode:
    def test_a_second_interpreter_compiles_nothing(self, monkeypatch):
        generated = _counting_generation(monkeypatch)
        element = build_element("mazunat")
        module = lower_element(element, inline=True)
        for _ in range(2):
            interp = Interpreter(module)
            install_state(interp, initial_state(element))
            interp.run_trace(Packet(ip={"src_addr": i}, tcp={}) for i in range(3))
        assert generated == ["pkt_handler"]

    def test_precompile_compiles_the_handler_and_its_callees(self, monkeypatch):
        def build(module, fn, b):
            for name in ("leaf", "spare"):
                callee = module.add_function(Function(name))
                IRBuilder(callee, callee.add_block("entry")).ret()
            b.call("leaf", [], VOID)
            b.ret()

        module = _handler_module(build)
        generated = _counting_generation(monkeypatch)
        interp_module.precompile(module)
        assert sorted(generated) == ["leaf", "pkt_handler"]
        Interpreter(module).run_packet(Packet(ip={}, tcp={}))
        assert sorted(generated) == ["leaf", "pkt_handler"]

    def test_compiled_code_holds_no_ir(self):
        module = lower_element(build_element("cmsketch"), inline=True)
        factory = interp_module.compile_function(module.handler)
        assert factory.__closure__ is None

        def values(obj):
            if isinstance(obj, dict):
                for item in obj.values():
                    yield from values(item)
            elif isinstance(obj, (list, tuple)):
                for item in obj:
                    yield from values(item)
            else:
                yield obj

        ir = (Module, Function, BasicBlock, Instruction, Argument, Constant)
        assert not any(isinstance(v, ir) for v in values(factory.__globals__))
        code = [factory.__code__]
        while code:
            for const in code.pop().co_consts:
                if hasattr(const, "co_consts"):
                    code.append(const)
                else:
                    assert not any(isinstance(v, ir) for v in values(const))

    def test_concurrent_first_runs_share_one_compiled_function(self):
        # Request threads profile one memoized module at once: every
        # interpreter must bind the one cached factory and see the same
        # profile, however many threads raced to compile it.
        element = build_element("mazunat")
        module = lower_element(element, inline=True)
        packets = [{"src_addr": i % 3, "dst_addr": 7} for i in range(20)]
        results = {}

        def profile(k):
            interp = Interpreter(module)
            install_state(interp, initial_state(element))
            interp.run_trace(Packet(ip=dict(ip), tcp={}) for ip in packets)
            results[k] = (
                interp._runners[module.handler].__code__,
                list(interp.profile.block_counts.items()),
                list(interp.profile.global_block_access.items()),
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=profile, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 8
        first = results[0]
        assert all(result == first for result in results.values())

    def test_freeing_a_module_frees_its_code(self):
        element = build_element("cmsketch")
        module = lower_element(element, inline=True)
        interp = Interpreter(module)
        install_state(interp, initial_state(element))
        interp.run_packet(Packet(ip={"src_addr": 1}, tcp={}))
        handler = weakref.ref(module.handler)
        factory = weakref.ref(interp_module.compile_function(module.handler))
        del interp, module
        gc.collect()
        assert handler() is None
        assert factory() is None


class TestAwkwardNames:
    """Element text reaches generated source only as literals."""

    NAMES = ["it's", 'say "hi"', "back\\slash", "new\nline", "\\'\n\"x"]

    @pytest.mark.parametrize("name", NAMES)
    def test_names_with_quotes_backslashes_and_newlines(self, name):
        record = StructType("rec", ((name, I32),))
        counter = GlobalVariable(f"g {name}", I32)

        def build(module, fn, b):
            callee = module.add_function(Function(f"f {name}", [], I32))
            IRBuilder(callee, callee.add_block(f"c {name}")).ret(Constant(I32, 7))
            body = fn.add_block(f"b {name}")
            b.br(body)
            b.position_at_end(body)
            slot = b.alloca(record)
            field = b.gep(slot, [name])
            b.store(b.call(f"f {name}", [], I32), field)
            total = b.add(b.load(counter), b.load(field))
            b.store(total, counter)
            b.ret()

        interp = Interpreter(_handler_module(build, [counter]))
        for _ in range(2):
            interp.run_packet(Packet(ip={}, tcp={}))
        assert interp.global_value(f"g {name}") == 14
        assert interp.profile.block_counts[f"b {name}"] == 2
        assert interp.profile.block_counts[f"c {name}"] == 2
        assert interp.profile.global_access[f"g {name}"] == {"load": 2, "store": 2}
        assert interp.profile.global_block_access[(f"g {name}", f"b {name}")] == 4

    @pytest.mark.parametrize("name", NAMES)
    def test_messages_carry_awkward_names_verbatim(self, name):
        def build(module, fn, b):
            callee = module.add_function(Function(f"f {name}"))
            IRBuilder(callee, callee.add_block(f"c {name}")).add(
                Constant(I32, 1), Constant(I32, 2)
            )
            b.call(f"f {name}", [], VOID)
            b.ret()

        with pytest.raises(InterpError) as caught:
            Interpreter(_handler_module(build)).run_packet(Packet(ip={}, tcp={}))
        assert str(caught.value) == f"block c {name} in @f {name} fell through"
