"""Guided ClickScript element generator (the YarpGen customization).

Mirrors the paper's two key modifications to YarpGen: generated
programs are shaped like Click elements (packet handler over header
fields, element state), and statement/operator choices follow the AST
distribution extracted from the real corpus.  Only packet operations
with SmartNIC support are emitted.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.click import ast as C
from repro.click.elements._dsl import (
    array_state,
    assign,
    decl,
    fcall,
    fld,
    for_,
    idx,
    if_,
    lit,
    ne,
    pkt,
    scalar_state,
    v,
)
from repro.synthesis.stats import CorpusStats

#: Header fields synthesized programs may touch (NIC-supported ops).
_IP_FIELDS = ("src_addr", "dst_addr", "ip_len", "ip_id", "ip_ttl", "ip_tos")
_TCP_FIELDS = ("th_sport", "th_dport", "th_seq", "th_ack", "th_win")

_LITERALS = {
    "tiny": (0, 1),
    "byte": (2, 255),
    "short": (256, 65535),
    "wide": (65536, 2**32 - 1),
}


def program_seed(seed: int, index: int) -> int:
    """Child seed for the ``index``-th program of a run seeded
    ``seed`` — independent of worker count and of every other
    program's generation (see :meth:`ClickGen.for_program`)."""
    sequence = np.random.SeedSequence([int(seed) & 0xFFFFFFFF, int(index)])
    return int(sequence.generate_state(1, dtype=np.uint32)[0])


def baseline_stats() -> CorpusStats:
    """Uniform statistics: the Table-1 baseline synthesizer that does
    not account for Click's AST distribution."""
    stats = CorpusStats()
    for kind in ("DeclStmt", "AssignStmt", "IfStmt", "ForStmt", "ExprStmt"):
        stats.stmt_kinds[kind] = 1
    for op in C.BIN_OPS:
        stats.bin_ops[op] = 1
    for op in C.CMP_OPS:
        stats.cmp_ops[op] = 1
    for bucket in _LITERALS:
        stats.literal_magnitudes[bucket] = 1
    stats.handler_lengths = [12]
    stats.if_depths = [3]
    stats.state_kinds.update({"scalar": 1, "array": 1})
    for width in ("u8", "u16", "u32", "u64"):
        stats.decl_types[width] = 1
    for leaf in ("literal", "var", "header_field", "array"):
        stats.leaf_kinds[leaf] = 1
    return stats


class _Scope:
    """Tracks integer variables available to generated expressions."""

    def __init__(self) -> None:
        self.locals: List[str] = []
        #: loop induction variables: readable but never assigned (a
        #: body write could make the loop infinite).
        self.loop_vars: List[str] = []
        self.state_scalars: List[str] = []
        self.state_arrays: List[Tuple[str, int]] = []
        #: name of the element's hashmap state, if one was generated.
        self.map_name: Optional[str] = None
        self.map_counter = 0
        self.counter = 0

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def readable(self) -> List[str]:
        return self.locals + self.loop_vars + self.state_scalars


class ClickGen:
    """Samples ClickScript elements from corpus statistics."""

    def __init__(self, stats: CorpusStats, seed: int = 0) -> None:
        self.stats = stats
        self.rng = np.random.default_rng(seed)
        self._stmt_probs = self._dist(
            stats.probabilities("stmt_kinds"),
            ("DeclStmt", "AssignStmt", "IfStmt", "ForStmt", "ExprStmt"),
        )
        self._op_probs = self._dist(stats.probabilities("bin_ops"), C.BIN_OPS)
        self._cmp_probs = self._dist(stats.probabilities("cmp_ops"), C.CMP_OPS)
        self._lit_probs = self._dist(
            stats.probabilities("literal_magnitudes"), tuple(_LITERALS)
        )
        self._decl_probs = self._dist(
            stats.probabilities("decl_types"), ("u8", "u16", "u32", "u64")
        )
        self._leaf_probs = self._dist(
            stats.probabilities("leaf_kinds"),
            ("literal", "var", "header_field", "array"),
        )
        # Calibrate expression depth to the corpus: for a binary tree
        # where every node is a leaf with probability p, the expected
        # operator count E satisfies E = (1-p)(1+2E); invert to match
        # the corpus's operators-per-statement ratio.
        n_stmts = max(sum(stats.stmt_kinds.values()), 1)
        ops_per_stmt = sum(stats.bin_ops.values()) / n_stmts
        ops_per_stmt = max(ops_per_stmt, 0.15)
        self._leaf_prob = float(
            np.clip((ops_per_stmt + 1.0) / (2.0 * ops_per_stmt + 1.0), 0.52, 0.92)
        )

    @classmethod
    def for_program(
        cls, stats: CorpusStats, seed: int, index: int
    ) -> "ClickGen":
        """A generator deterministically seeded for the ``index``-th
        program of a synthesis run seeded ``seed``.

        This is the unit of parallel synthesis: because each program
        gets its own child seed (rather than sharing one serial RNG
        stream), programs can be generated on any worker in any order
        and the resulting dataset is identical to the serial one.
        """
        return cls(stats, seed=program_seed(seed, index))

    @staticmethod
    def _dist(
        probs: Dict[str, float], support: Sequence[str]
    ) -> Tuple[List[str], np.ndarray]:
        keys = [k for k in support if probs.get(k, 0.0) > 0.0] or list(support)
        weights = np.array([max(probs.get(k, 0.0), 1e-6) for k in keys])
        return keys, weights / weights.sum()

    def _choose(self, dist: Tuple[List[str], np.ndarray]) -> str:
        keys, weights = dist
        return keys[int(self.rng.choice(len(keys), p=weights))]

    # -- expressions ---------------------------------------------------
    def _literal(self) -> C.IntLit:
        low, high = _LITERALS[self._choose(self._lit_probs)]
        return lit(int(self.rng.integers(low, high + 1)))

    def _leaf(self, scope: _Scope) -> C.Expr:
        readable = scope.readable()
        kind = self._choose(self._leaf_probs)
        if kind == "var" and readable:
            return v(str(self.rng.choice(readable)))
        if kind == "array" and scope.state_arrays and readable:
            name, entries = scope.state_arrays[
                int(self.rng.integers(len(scope.state_arrays)))
            ]
            index_var = str(self.rng.choice(readable))
            return idx(v(name), v(index_var) % entries)
        if kind == "header_field":
            header_roll = self.rng.random()
            if header_roll < 0.6:
                return fld(v("ip"), str(self.rng.choice(_IP_FIELDS)))
            if header_roll < 0.92:
                return fld(v("tcp"), str(self.rng.choice(_TCP_FIELDS)))
            return C.CallExpr(
                "payload_byte",
                [lit(int(self.rng.integers(0, 64)))],
                receiver=v("pkt"),
            )
        return self._literal()

    def _expr(self, scope: _Scope, depth: int = 0) -> C.Expr:
        if depth >= 3 or self.rng.random() < self._leaf_prob:
            return self._leaf(scope)
        op = self._choose(self._op_probs)
        lhs = self._expr(scope, depth + 1)
        rhs = self._expr(scope, depth + 1)
        if op in ("<<", ">>"):
            rhs = lit(int(self.rng.integers(1, 9)))
        elif op in ("/", "%"):
            roll = self.rng.random()
            if roll < 0.2 and scope.readable():
                # Variable divisor: exercises the compiler's inline
                # software-divide expansion.  (x/0 is defined as 0 on
                # the NIC's divide helper, so no guard is needed.)
                rhs = v(str(self.rng.choice(scope.readable()))) + 1
            elif roll < 0.4:
                # Non-power-of-two constant: also a software divide
                # (real NFs modulo by table sizes like 28000 or 997).
                rhs = lit(int(self.rng.integers(3, 60_000)) | 1)
            else:
                rhs = lit(int(2 ** self.rng.integers(1, 8)))
        return C.BinExpr(op, lhs, rhs)

    def _condition(self, scope: _Scope) -> C.Expr:
        op = self._choose(self._cmp_probs)
        return C.CmpExpr(op, self._expr(scope, depth=2), self._literal())

    # -- statements -------------------------------------------------------
    def _statement(self, scope: _Scope, depth: int) -> List[C.Stmt]:
        kind = self._choose(self._stmt_probs)
        if kind == "DeclStmt" or not scope.readable():
            name = scope.fresh("t")
            # Declared widths follow the corpus distribution (real
            # elements are mostly u32 with a sprinkling of u16/u8/u64,
            # exercising the compiler's width handling).
            width = self._choose(self._decl_probs)
            stmt = decl(name, width, self._expr(scope))
            scope.locals.append(name)
            return [stmt]
        if kind == "ExprStmt" or (kind == "AssignStmt" and self.rng.random() < 0.12):
            # Framework API statements: checksum updates, payload writes,
            # hashmap traffic — their call/argument shapes must appear
            # in the vocabulary.
            roll = self.rng.random()
            if roll < 0.25:
                return [fcall("checksum_update_ip", v("ip")).as_stmt()]
            if roll < 0.35:
                return [
                    if_(
                        ne(v("tcp"), 0),
                        [fcall("checksum_update_tcp", v("tcp")).as_stmt()],
                    )
                ]
            if roll < 0.5:
                return [
                    C.ExprStmt(
                        C.CallExpr(
                            "set_payload_byte",
                            [
                                lit(int(self.rng.integers(0, 32))),
                                self._expr(scope, depth=2),
                            ],
                            receiver=v("pkt"),
                        )
                    )
                ]
            if scope.map_name is not None:
                return self._map_statement(scope)
            return [self._assignment(scope)]
        if kind == "AssignStmt":
            return [self._assignment(scope)]
        if kind == "IfStmt" and depth < 3:
            # Condition first: it must only reference variables already
            # declared at this point in program order.
            condition = self._condition(scope)
            then_body = self._body(scope, depth + 1, max_stmts=3)
            else_body = (
                self._body(scope, depth + 1, max_stmts=2)
                if self.rng.random() < 0.4
                else []
            )
            return [if_(condition, then_body, else_body)]
        if kind == "ForStmt" and depth < 2:
            var = scope.fresh("i")
            trips = int(self.rng.integers(2, 9))
            scope.loop_vars.append(var)
            body = self._body(scope, depth + 1, max_stmts=3)
            if not body:
                body = [self._assignment(scope)]
            return [for_(var, 0, trips, body)]
        return [self._assignment(scope)]

    def _assignment(self, scope: _Scope) -> C.Stmt:
        roll = self.rng.random()
        value = self._expr(scope)
        if roll < 0.35 and scope.state_scalars:
            target = v(str(self.rng.choice(scope.state_scalars)))
            return assign(target, target + value)
        if roll < 0.5 and scope.state_arrays:
            name, entries = scope.state_arrays[
                int(self.rng.integers(len(scope.state_arrays)))
            ]
            readable = scope.readable()
            index: C.Expr
            if readable:
                index = v(str(self.rng.choice(readable))) % entries
            else:
                index = lit(int(self.rng.integers(0, entries)))
            return assign(idx(v(name), index), value)
        if roll < 0.7:
            header_field = str(self.rng.choice(_IP_FIELDS + _TCP_FIELDS))
            base = v("ip") if header_field in _IP_FIELDS else v("tcp")
            return assign(fld(base, header_field), value)
        if scope.locals:
            return assign(v(str(self.rng.choice(scope.locals))), value)
        header_field = str(self.rng.choice(_IP_FIELDS))
        return assign(fld(v("ip"), header_field), value)

    def _map_statement(self, scope: _Scope) -> List[C.Stmt]:
        """A find-or-insert pattern over the element's hashmap state —
        the dominant stateful idiom in real Click NFs."""
        scope.map_counter += 1
        n = scope.map_counter
        key, val, found = f"mk{n}", f"mv{n}", f"mf{n}"
        stmts: List[C.Stmt] = [
            decl(key, "synth_key"),
            assign(
                fld(v(key), "k1"),
                fld(v("ip"), "src_addr") ^ self._leaf(scope),
            ),
            assign(fld(v(key), "k2"), fld(v("ip"), "dst_addr")),
            decl(
                found,
                "synth_val*",
                C.CallExpr("find", [v(key)], receiver=v(scope.map_name)),
            ),
            if_(
                ne(v(found), 0),
                [
                    assign(
                        fld(v(found), "v1"),
                        fld(v(found), "v1") + 1,
                    )
                ],
                [
                    decl(val, "synth_val"),
                    assign(fld(v(val), "v1"), lit(1)),
                    assign(fld(v(val), "v2"), self._leaf(scope)),
                    C.ExprStmt(
                        C.CallExpr(
                            "insert",
                            [v(key), v(val)],
                            receiver=v(scope.map_name),
                        )
                    ),
                ],
            ),
        ]
        return stmts

    def _body(self, scope: _Scope, depth: int, max_stmts: int) -> List[C.Stmt]:
        out: List[C.Stmt] = []
        n = int(self.rng.integers(1, max_stmts + 1))
        for _ in range(n):
            out.extend(self._statement(scope, depth))
        return out

    # -- elements ----------------------------------------------------------
    def element(self, name: Optional[str] = None) -> C.ElementDef:
        """Generate one synthetic Click element."""
        scope = _Scope()
        state: List[C.StateDecl] = []
        structs: List[C.StructDef] = []
        state_probs = self.stats.probabilities("state_kinds")
        n_state = int(self.rng.integers(0, 4))
        for _ in range(n_state):
            kinds = list(state_probs) or ["scalar"]
            weights = np.array([state_probs.get(k, 1e-6) for k in kinds])
            weights /= weights.sum()
            kind = kinds[int(self.rng.choice(len(kinds), p=weights))]
            if kind in ("hashmap", "vector") and scope.map_name is None:
                structs.append(
                    C.StructDef("synth_key", [("k1", "u32"), ("k2", "u32")])
                )
                structs.append(
                    C.StructDef("synth_val", [("v1", "u32"), ("v2", "u16")])
                )
                map_name = scope.fresh("m")
                state.append(
                    C.StateDecl(
                        map_name,
                        "hashmap",
                        value_type="synth_val",
                        key_struct="synth_key",
                        entries=int(2 ** self.rng.integers(6, 11)),
                    )
                )
                scope.map_name = map_name
            elif kind == "array":
                aname = scope.fresh("a")
                entries = int(2 ** self.rng.integers(3, 9))
                state.append(array_state(aname, "u32", entries))
                scope.state_arrays.append((aname, entries))
            else:
                sname = scope.fresh("s")
                width = str(self.rng.choice(["u32", "u32", "u64", "u16"]))
                state.append(scalar_state(sname, width))
                scope.state_scalars.append(sname)

        lengths = self.stats.handler_lengths or [10]
        target_len = max(4, int(self.rng.choice(lengths)))
        # A quarter of programs are straight-line header-mangling
        # elements (the anonipaddr/udpipencap shape): long unbranched
        # blocks the LSTM must extrapolate to otherwise.
        straight_line = self.rng.random() < 0.25
        if straight_line:
            target_len = int(target_len * self.rng.uniform(1.2, 2.2))
            saved_probs = self._stmt_probs
            keys, weights = saved_probs
            flat = np.array(
                [w if k in ("DeclStmt", "AssignStmt") else 1e-6
                 for k, w in zip(keys, weights)]
            )
            self._stmt_probs = (keys, flat / flat.sum())
        handler: List[C.Stmt] = [
            decl("ip", "ip_hdr*", pkt("ip_header")),
            decl("tcp", "tcp_hdr*", pkt("tcp_header")),
            decl("udp", "udp_hdr*", pkt("udp_header")),
        ]
        has_tcp_guard = if_(
            ne(v("tcp"), 0),
            [assign(fld(v("tcp"), "th_win"), fld(v("tcp"), "th_win") + 1)],
        )
        handler.append(has_tcp_guard)
        if self.rng.random() < 0.4:
            # Guarded UDP path so uh_* field tokens enter the corpus.
            udp_field = str(self.rng.choice(["uh_sport", "uh_dport", "uh_ulen"]))
            handler.append(
                if_(
                    ne(v("udp"), 0),
                    [
                        assign(
                            fld(v("udp"), udp_field),
                            fld(v("udp"), udp_field) + 1,
                        ),
                        assign(
                            fld(v("udp"), "uh_sum"),
                            fld(v("udp"), "uh_sum")
                            ^ fld(v("udp"), str(self.rng.choice(["uh_sport", "uh_dport"]))),
                        ),
                    ],
                )
            )
        while len(handler) < target_len:
            handler.extend(self._statement(scope, depth=0))
        handler.append(pkt("send", 0).as_stmt())
        if straight_line:
            self._stmt_probs = saved_probs

        if name is None:
            name = f"synth_{self.rng.integers(1_000_000)}"
        return C.ElementDef(
            name=name,
            state=state,
            structs=structs,
            handler=handler,
            description="Synthesized Click element (guided generator).",
        )

    def elements(self, count: int, prefix: str = "synth") -> List[C.ElementDef]:
        return [self.element(f"{prefix}_{i}") for i in range(count)]
