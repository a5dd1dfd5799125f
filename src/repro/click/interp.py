"""Host-side execution of lowered NF elements.

Paper Sections 4.3-4.4: "To obtain access frequencies, Clara runs the
Click NFs ... on the host machine with the specified workload."  This
module is that host: an NFIR interpreter with host-framework semantics
(elastic hashmaps, real header parsing), which records

* basic-block execution counts (keyed by NFIR block names, so they line
  up with the static analysis),
* per-global load/store counts and per-(global, block) access vectors
  (the inputs to the placement ILP and the coalescing K-means), and
* framework API call counts.

Execution is decode-once.  The first time an :class:`Interpreter`
runs an NFIR function it decodes it into one tuple per basic block:
the block name, its instruction count, its straight-line instructions
as closures over the activation's value environment, and a decoded
terminator.  Constants and globals are bound into the environment at
decode time, integer arithmetic comes from the shared kernels of
:mod:`repro.nfir.instructions`, and each framework API call decodes to
one closure, so running a packet does no per-instruction type
dispatch.  Decoded functions belong to the interpreter, not to the
module (the inliner and ``replace_operands`` mutate modules), and are
built on first run, after any :func:`~repro.click.elements.install_state`.
The step limit is checked once per block, before the block runs.

It doubles as a correctness oracle in tests: elements are executed on
crafted packets and their NF-level behaviour (NAT rewrites, firewall
verdicts, sketch counts) is asserted directly.
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.click.packet import Packet
from repro.nfir.block import BasicBlock
from repro.nfir.function import Function, GlobalVariable, Module
from repro.nfir.instructions import (
    CALL_KIND_INTERNAL,
    Alloca,
    BinaryOp,
    Br,
    Call,
    Cast,
    CondBr,
    GEP,
    ICmp,
    Instruction,
    Load,
    Phi,
    Ret,
    Select,
    Store,
    binary_kernel,
    icmp_kernel,
)
from repro.nfir.types import ArrayType, IntType, IRType, PointerType, StructType
from repro.nfir.values import Constant, Value


class InterpError(RuntimeError):
    pass


def zero_value(type_: IRType):
    """Zero-initialized value tree for a type."""
    if isinstance(type_, IntType):
        return 0
    if isinstance(type_, PointerType):
        return NULL
    if isinstance(type_, StructType):
        return {name: zero_value(ftype) for name, ftype in type_.fields}
    if isinstance(type_, ArrayType):
        return [zero_value(type_.element) for _ in range(type_.count)]
    raise InterpError(f"cannot zero-init {type_}")


class _Store:
    """Storage object a pointer can reference."""

    def read(self, path: Tuple):
        raise NotImplementedError

    def write(self, path: Tuple, value) -> None:
        raise NotImplementedError


class TreeStore(_Store):
    """Nested dict/list/int storage for allocas and plain globals."""

    def __init__(self, tree) -> None:
        self.tree = tree

    def _navigate(self, path: Tuple):
        node = self.tree
        for step in path[:-1]:
            node = node[step]
        return node

    def read(self, path: Tuple):
        if not path:
            return self.tree
        return self._navigate(path)[path[-1]]

    def write(self, path: Tuple, value) -> None:
        if not path:
            self.tree = value
            return
        self._navigate(path)[path[-1]] = value


class _BoxStore(TreeStore):
    """One element of a scalar vector, boxed so a pointer to it is
    writable: writes go back into the vector's item list."""

    def __init__(self, items: List, index: int) -> None:
        super().__init__(items[index])
        self._items, self._index = items, index

    def write(self, path: Tuple, value) -> None:
        self._items[self._index] = value


class PacketStore(_Store):
    """Pointer target for header views: path = (header, field)."""

    def __init__(self, packet: Packet) -> None:
        self.packet = packet

    def read(self, path: Tuple):
        header, fname = path
        hdr = self.packet.header(header)
        if hdr is None:
            raise InterpError(f"packet has no {header} header")
        return hdr[fname]

    def write(self, path: Tuple, value) -> None:
        header, fname = path
        hdr = self.packet.header(header)
        if hdr is None:
            raise InterpError(f"packet has no {header} header")
        hdr[fname] = value


@dataclass(slots=True, unsafe_hash=True)
class Ptr:
    """A typed pointer value: storage object + access path.

    ``origin`` names the module global this pointer is derived from (if
    any) so the interpreter can attribute loads/stores to stateful data
    structures.  Not frozen, because frozen instances are three times
    slower to build, but never mutated after construction.
    """

    store: Optional[_Store]
    path: Tuple = ()
    origin: Optional[str] = None

    @property
    def is_null(self) -> bool:
        return self.store is None


NULL = Ptr(None)


class HostHashMap:
    """Elastic, host-Click-style hashmap (dict-backed)."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: Dict[Tuple, Dict] = {}

    def find(self, key: Tuple) -> Optional[Dict]:
        return self.entries.get(key)

    def insert(self, key: Tuple, value: Dict) -> bool:
        # Host Click grows elastically; we still bound it for safety.
        if key not in self.entries and len(self.entries) >= self.capacity * 8:
            return False
        self.entries[key] = dict(value)
        return True

    def erase(self, key: Tuple) -> bool:
        return self.entries.pop(key, None) is not None

    def __len__(self) -> int:
        return len(self.entries)


class HostVector:
    """Elastic host vector with NIC-style capacity accounting."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.items: List = []

    def push(self, value) -> bool:
        if len(self.items) >= self.capacity:
            return False
        self.items.append(value)
        return True


@dataclass
class ExecutionProfile:
    """Aggregated result of interpreting a trace."""

    packets: int = 0
    sent: int = 0
    dropped: int = 0
    block_counts: Counter = field(default_factory=Counter)
    #: loads/stores per global: name -> {"load": n, "store": n}
    global_access: Dict[str, Counter] = field(default_factory=dict)
    #: (global, block) -> access count; the coalescing access vectors.
    global_block_access: Counter = field(default_factory=Counter)
    api_counts: Counter = field(default_factory=Counter)
    #: per-packet path signatures: frozenset of executed block names ->
    #: packet count.  Used by the partial-offloading extension to
    #: reason about which packets a host/NIC split would punt.
    path_counts: Counter = field(default_factory=Counter)

    def record_access(self, global_name: str, kind: str, block: str) -> None:
        per_global = self.global_access.get(global_name)
        if per_global is None:
            per_global = self.global_access[global_name] = Counter()
        per_global[kind] += 1
        self.global_block_access[(global_name, block)] += 1

    def access_frequency(self, global_name: str) -> float:
        """Accesses per packet for one global (placement ILP input)."""
        if self.packets == 0:
            return 0.0
        per_global = self.global_access.get(global_name, Counter())
        return (per_global["load"] + per_global["store"]) / self.packets

    def access_vector(self, global_name: str, block_order: List[str]) -> np.ndarray:
        """Normalized per-block access vector (Section 4.4)."""
        counts = np.array(
            [self.global_block_access.get((global_name, b), 0) for b in block_order],
            dtype=float,
        )
        total = counts.sum()
        return counts / total if total > 0 else counts


# -- the decoded form -----------------------------------------------------
#
# A decoded function is ``(blocks, constants, formals, has_phi)``.  Each
# block is ``(name, size, body, kind, a, b, c)``: ``size`` counts the
# instructions the block executes (terminator included), ``body`` holds
# one closure per straight-line instruction, and ``kind``/``a``/``b``/
# ``c`` is the terminator: ``_BR`` jumps to block index ``a``;
# ``_CONDBR`` tests environment key ``a`` and jumps to ``b`` or ``c``;
# ``_RET`` returns key ``a`` (``None`` for void); ``_FALL`` means the
# block has no terminator.  The environment maps SSA values (the
# :class:`Value` objects themselves) to runtime values; ``constants``
# pre-binds constants (keyed by ``id``) and globals.

_BR, _CONDBR, _RET, _FALL = range(4)

#: environment key holding the index of the block the activation came
#: from, kept only for functions that contain phis.
_PREV = object()

_HEADER_APIS = {
    "eth_header": "eth",
    "ip_header": "ip",
    "tcp_header": "tcp",
    "udp_header": "udp",
}

Op = Callable[[Dict], None]


def _same_pointer(lhs, rhs) -> bool:
    """Pointer equality as ``icmp eq`` sees it: two nulls (a null
    pointer or integer 0) are equal, otherwise pointers must match."""
    lptr, rptr = isinstance(lhs, Ptr), isinstance(rhs, Ptr)
    lnull = lhs.is_null if lptr else lhs == 0
    rnull = rhs.is_null if rptr else rhs == 0
    return (lnull and rnull) or (lptr and rptr and lhs == rhs)


def _read_struct(ptr: Ptr) -> Dict:
    value = ptr.store.read(ptr.path)  # type: ignore[union-attr]
    if not isinstance(value, dict):
        raise InterpError("expected a struct value")
    return value


def _raise(message: str) -> Op:
    def op(env):
        raise InterpError(message)
    return op


class Interpreter:
    """Executes a lowered element module packet by packet."""

    def __init__(
        self,
        module: Module,
        seed: int = 0,
        max_steps_per_packet: int = 500_000,
    ) -> None:
        self.module = module
        self.max_steps = max_steps_per_packet
        self.rng = np.random.default_rng(seed)
        self.profile = ExecutionProfile()
        # Stateful storage (persists across packets).
        self.globals: Dict[str, object] = {}
        for name, g in module.globals.items():
            if g.kind == "hashmap":
                self.globals[name] = HostHashMap(g.entries)
            elif g.kind == "vector":
                self.globals[name] = HostVector(g.entries)
            else:
                self.globals[name] = TreeStore(zero_value(g.value_type))
        self._current_packet: Optional[Packet] = None
        self._packet_store: Optional[PacketStore] = None
        #: names of the blocks the current packet has executed.
        self._visited: Set[str] = set()
        self._programs: Dict[Function, Tuple] = {}
        # Decoded closures reach the interpreter only through this weak
        # proxy, so an interpreter nobody holds is freed at once rather
        # than left to the cycle collector.
        self._weak = weakref.proxy(self)

    # -- state inspection helpers (used by tests) ---------------------
    def hashmap(self, name: str) -> HostHashMap:
        obj = self.globals[name]
        if not isinstance(obj, HostHashMap):
            raise InterpError(f"{name} is not a hashmap")
        return obj

    def vector(self, name: str) -> HostVector:
        obj = self.globals[name]
        if not isinstance(obj, HostVector):
            raise InterpError(f"{name} is not a vector")
        return obj

    def global_value(self, name: str):
        obj = self.globals[name]
        if not isinstance(obj, TreeStore):
            raise InterpError(f"{name} has no direct value")
        return obj.tree

    # -- running -------------------------------------------------------
    def run_trace(self, packets: Iterable[Packet]) -> ExecutionProfile:
        for packet in packets:
            self.run_packet(packet)
        return self.profile

    def run_packet(self, packet: Packet) -> Packet:
        self._current_packet = packet
        self._packet_store = PacketStore(packet)
        visited = self._visited
        visited.clear()
        self._run_function(self.module.handler, [Ptr(self._packet_store)])
        profile = self.profile
        path = frozenset(visited)
        if path in profile.path_counts:
            profile.path_counts[path] += 1
        else:
            # Key a new signature in trace-wide first-execution order
            # (block_counts order), not this packet's visit order:
            # consumers that iterate a path, such as the partition
            # advisor's float sums, then see its blocks in that order.
            profile.path_counts[
                frozenset(n for n in profile.block_counts if n in visited)
            ] = 1
        profile.packets += 1
        if packet.dropped:
            profile.dropped += 1
        elif packet.out_port is not None:
            profile.sent += 1
        return packet

    def _run_function(self, function: Function, args: List):
        program = self._programs.get(function)
        if program is None:
            program = self._programs[function] = self._decode_function(function)
        blocks, constants, formals, has_phi = program
        env = constants.copy()
        for formal, actual in zip(formals, args):
            env[formal] = actual
        block_counts = self.profile.block_counts
        visited = self._visited
        max_steps = self.max_steps
        steps = 0
        index = 0
        prev = None
        try:
            while True:
                name, size, body, kind, a, b, c = blocks[index]
                block_counts[name] += 1
                visited.add(name)
                steps += size
                if steps > max_steps:
                    raise InterpError(
                        f"step limit exceeded in @{function.name}"
                        f" ({max_steps} steps)"
                    )
                if has_phi:
                    env[_PREV] = prev
                for op in body:
                    op(env)
                if kind == _BR:
                    prev, index = index, a
                elif kind == _CONDBR:
                    prev, index = index, (b if env[a] else c)
                elif kind == _RET:
                    return None if a is None else env[a]
                else:
                    raise InterpError(
                        f"block {name} in @{function.name} fell through"
                    )
        except KeyError as exc:
            # The environment is keyed by Value objects; nothing else
            # the closures index is.
            missing = exc.args[0] if exc.args else None
            if isinstance(missing, Value):
                raise InterpError(
                    f"use of undefined value {missing.ref()}"
                ) from None
            raise

    # -- decoding --------------------------------------------------------
    def _decode_function(self, function: Function) -> Tuple:
        sources: List[BasicBlock] = list(function.blocks)
        positions = {id(block): i for i, block in enumerate(sources)}

        def block_index(block: BasicBlock) -> int:
            # Branches may name a block outside the function; it runs
            # like any other, so it joins the decoded table.
            i = positions.get(id(block))
            if i is None:
                i = positions[id(block)] = len(sources)
                sources.append(block)
            return i

        constants: Dict[object, object] = {}

        def key(value: Value):
            if isinstance(value, Constant):
                constants[id(value)] = NULL if value.type.is_pointer else value.value
                return id(value)
            if isinstance(value, GlobalVariable) and value not in constants:
                store = self.globals[value.name]
                constants[value] = Ptr(
                    store if isinstance(store, TreeStore) else None, (), value.name
                )
            return value

        blocks = []
        has_phi = False
        i = 0
        while i < len(sources):
            block = sources[i]
            body: List[Op] = []
            term: Tuple = (_FALL, None, None, None)
            size = 0
            for instr in block.instructions:
                size += 1
                if isinstance(instr, Br):
                    term = (_BR, block_index(instr.target), None, None)
                    break
                if isinstance(instr, CondBr):
                    term = (
                        _CONDBR,
                        key(instr.cond),
                        block_index(instr.if_true),
                        block_index(instr.if_false),
                    )
                    break
                if isinstance(instr, Ret):
                    term = (
                        _RET,
                        None if instr.value is None else key(instr.value),
                        None,
                        None,
                    )
                    break
                if isinstance(instr, Phi):
                    has_phi = True
                    body.append(self._decode_phi(instr, block, sources, key))
                else:
                    body.append(self._decode(instr, block.name, key))
            blocks.append((block.name, size, tuple(body)) + term)
            i += 1
        return blocks, constants, list(function.args), has_phi

    def _decode_phi(self, instr: Phi, block: BasicBlock, sources, key) -> Op:
        arms: Dict[BasicBlock, object] = {}
        for value, pred in instr.incomings:
            if pred not in arms:
                arms[pred] = key(value)
        where = block.name

        def op(env):
            prev = env[_PREV]
            if prev is None:
                raise InterpError("phi in entry block")
            pred = sources[prev]
            arm = arms.get(pred)
            if arm is None:
                raise InterpError(
                    f"phi in {where} has no arm for predecessor {pred.name}"
                )
            env[instr] = env[arm]
        return op

    def _decode(self, instr: Instruction, where: str, key) -> Op:
        """One closure for one straight-line instruction of block
        ``where``."""
        out = instr
        if isinstance(instr, BinaryOp):
            kernel = binary_kernel(instr.opcode, instr.type)  # type: ignore[arg-type]
            lhs, rhs = key(instr.lhs), key(instr.rhs)

            def op(env):
                env[out] = kernel(env[lhs], env[rhs])
            return op
        if isinstance(instr, ICmp):
            lhs, rhs = key(instr.lhs), key(instr.rhs)
            if instr.lhs.type.is_pointer:
                want = instr.predicate == "eq"

                def op(env):
                    env[out] = 1 if _same_pointer(env[lhs], env[rhs]) == want else 0
                return op
            compare = icmp_kernel(instr.predicate, instr.lhs.type)  # type: ignore[arg-type]

            def op(env):
                env[out] = compare(env[lhs], env[rhs])
            return op
        if isinstance(instr, Select):
            cond, if_true, if_false = (
                key(instr.cond), key(instr.if_true), key(instr.if_false)
            )

            def op(env):
                env[out] = env[if_true] if env[cond] else env[if_false]
            return op
        if isinstance(instr, Cast):
            return self._decode_cast(instr, key)
        if isinstance(instr, Alloca):
            allocated = instr.allocated_type
            if isinstance(allocated, IntType):
                def op(env):
                    env[out] = Ptr(TreeStore(0))
            else:
                def op(env):
                    env[out] = Ptr(TreeStore(zero_value(allocated)))
            return op
        if isinstance(instr, Load):
            return self._decode_load(instr, where, key)
        if isinstance(instr, Store):
            return self._decode_store(instr, where, key)
        if isinstance(instr, GEP):
            return self._decode_gep(instr, key)
        if isinstance(instr, Call):
            return self._decode_call(instr, where, key)
        return _raise(f"cannot interpret {instr.opcode}")

    @staticmethod
    def _decode_cast(instr: Cast, key) -> Op:
        out, source = instr, key(instr.value)
        if instr.opcode == "bitcast":
            def op(env):
                env[out] = env[source]
        elif instr.opcode == "sext":
            to_signed = instr.value.type.to_signed  # type: ignore[union-attr]
            wrap = instr.type.wrap  # type: ignore[union-attr]

            def op(env):
                env[out] = wrap(to_signed(env[source]))
        else:  # zext, trunc
            mask = instr.type.max_unsigned()  # type: ignore[union-attr]

            def op(env):
                env[out] = env[source] & mask
        return op

    def _decode_load(self, instr: Load, where: str, key) -> Op:
        out, pointer = instr, key(instr.ptr)
        record = self.profile.record_access
        bad = f"load through bad pointer in {where}"

        def op(env):
            ptr = env[pointer]
            if ptr.__class__ is not Ptr or ptr.store is None:
                raise InterpError(bad)
            env[out] = ptr.store.read(ptr.path)
            if ptr.origin is not None:
                record(ptr.origin, "load", where)
        return op

    def _decode_store(self, instr: Store, where: str, key) -> Op:
        pointer, source = key(instr.ptr), key(instr.value)
        record = self.profile.record_access
        bad = f"store through bad pointer in {where}"

        def op(env):
            ptr = env[pointer]
            value = env[source]
            if ptr.__class__ is not Ptr or ptr.store is None:
                raise InterpError(bad)
            ptr.store.write(ptr.path, value)
            if ptr.origin is not None:
                record(ptr.origin, "store", where)
        return op

    @staticmethod
    def _decode_gep(instr: GEP, key) -> Op:
        out, base_key = instr, key(instr.base)
        # (True, step) for a field name or constant index, (False,
        # environment key) for an index computed at run time.
        steps = []
        for idx in instr.indices:
            if isinstance(idx, str):
                steps.append((True, idx))
            elif isinstance(idx, Constant) and not idx.type.is_pointer:
                steps.append((True, idx.value))
            else:
                steps.append((False, key(idx)))
        if all(fixed for fixed, _ in steps):
            suffix = tuple(step for _, step in steps)

            def op(env):
                base = env[base_key]
                if base.__class__ is not Ptr:
                    raise InterpError("GEP on non-pointer value")
                env[out] = Ptr(base.store, base.path + suffix, base.origin)
            return op

        def op(env):
            base = env[base_key]
            if base.__class__ is not Ptr:
                raise InterpError("GEP on non-pointer value")
            path = base.path + tuple(
                step if fixed else int(env[step]) for fixed, step in steps
            )
            env[out] = Ptr(base.store, path, base.origin)
        return op

    def _decode_call(self, instr: Call, where: str, key) -> Op:
        out = instr
        if instr.kind == CALL_KIND_INTERNAL:
            callee = self.module.functions.get(instr.callee)
            if callee is None:
                return _raise(f"call to unknown function @{instr.callee}")
            args = [key(a) for a in instr.args]
            interp = self._weak
            if instr.produces_value:
                def op(env):
                    env[out] = interp._run_function(callee, [env[a] for a in args])
            else:
                def op(env):
                    interp._run_function(callee, [env[a] for a in args])
            return op
        api = self._decode_api(instr, where, key)
        api_counts = self.profile.api_counts
        name = instr.callee
        if instr.produces_value:
            def op(env):
                api_counts[name] += 1
                env[out] = api(env)
        else:
            def op(env):
                api_counts[name] += 1
                api(env)
        return op

    # -- framework API implementations -----------------------------------
    def _decode_api(self, instr: Call, where: str, key) -> Callable[[Dict], object]:
        """One closure computing framework API ``instr.callee``."""
        name = instr.callee
        args = [key(a) for a in instr.args]
        interp = self._weak
        if name in _HEADER_APIS:
            header = _HEADER_APIS[name]

            def api(env):
                if interp._current_packet.header(header) is None:
                    return NULL
                return Ptr(interp._packet_store, (header,))
            return api
        if name == "payload_byte":
            index = args[1]

            def api(env):
                i = env[index]
                payload = interp._current_packet.payload
                if not payload:
                    return 0
                return payload[i % len(payload)]
            return api
        if name == "set_payload_byte":
            index, byte = args[1], args[2]

            def api(env):
                i, value = env[index], env[byte]
                packet = interp._current_packet
                if packet.payload:
                    payload = bytearray(packet.payload)
                    payload[i % len(payload)] = value & 0xFF
                    packet.payload = bytes(payload)
            return api
        if name == "payload_len":
            return lambda env: len(interp._current_packet.payload)
        if name == "send":
            port = args[1]

            def api(env):
                interp._current_packet.out_port = env[port]
            return api
        if name == "drop":
            def api(env):
                interp._current_packet.dropped = True
            return api
        if name == "in_port":
            return lambda env: interp._current_packet.in_port
        if name == "timestamp_ns":
            return lambda env: interp._current_packet.timestamp_ns
        if name in ("checksum_update_ip", "checksum_update_tcp"):
            header_ptr = args[0]
            update = _checksum_ip if name == "checksum_update_ip" else _checksum_tcp

            def api(env):
                env[header_ptr]  # evaluated for the undefined-value check
                update(interp._current_packet)
            return api
        if name == "random_u32":
            return lambda env: int(interp.rng.integers(0, 2**32, dtype=np.uint64))

        # Stateful data-structure APIs.  The receiver global is the
        # first argument.
        receiver = instr.args[0]
        if not isinstance(receiver, GlobalVariable):
            return _raise(f"API {name} receiver is not a global")
        if name.startswith("hashmap_"):
            return self._decode_hashmap(name, receiver.name, args, where)
        if name.startswith("vector_"):
            return self._decode_vector(name, receiver.name, args, where)
        return _raise(f"unimplemented API {name!r}")

    def _decode_hashmap(self, name: str, gname: str, args: List, where: str):
        record = self.profile.record_access
        table = self.globals[gname]
        if not isinstance(table, HostHashMap):
            return _raise(f"{gname} is not a hashmap")
        if name == "hashmap_size":
            def api(env):
                record(gname, "load", where)
                return len(table)
            return api
        key_arg = args[1]

        def read_key(env) -> Tuple:
            return tuple(sorted(_read_struct(env[key_arg]).items()))

        if name == "hashmap_find":
            def api(env):
                record(gname, "load", where)
                entry = table.find(read_key(env))
                if entry is None:
                    return NULL
                return Ptr(TreeStore(entry), (), gname)
        elif name == "hashmap_insert":
            value_arg = args[2]

            def api(env):
                record(gname, "load", where)
                hkey = read_key(env)
                value = _read_struct(env[value_arg])
                record(gname, "store", where)
                return int(table.insert(hkey, value))
        elif name == "hashmap_erase":
            def api(env):
                record(gname, "load", where)
                hkey = read_key(env)
                record(gname, "store", where)
                return int(table.erase(hkey))
        else:
            return _raise(f"unknown hashmap API {name}")
        return api

    def _decode_vector(self, name: str, gname: str, args: List, where: str):
        record = self.profile.record_access
        vec = self.globals[gname]
        if not isinstance(vec, HostVector):
            return _raise(f"{gname} is not a vector")
        if name == "vector_size":
            def api(env):
                record(gname, "load", where)
                return len(vec.items)
        elif name == "vector_at":
            index_arg = args[1]

            def api(env):
                record(gname, "load", where)
                index = env[index_arg]
                if index >= len(vec.items):
                    return NULL
                item = vec.items[index]
                if isinstance(item, dict):
                    return Ptr(TreeStore(item), (), gname)
                return Ptr(_BoxStore(vec.items, index), (), gname)
        elif name == "vector_push":
            elem_arg = args[1]

            def api(env):
                record(gname, "load", where)
                elem_ptr = env[elem_arg]
                value = elem_ptr.store.read(elem_ptr.path)
                if isinstance(value, dict):
                    value = dict(value)
                record(gname, "store", where)
                return int(vec.push(value))
        elif name == "vector_remove":
            index_arg = args[1]

            def api(env):
                record(gname, "load", where)
                index = env[index_arg]
                record(gname, "store", where)
                if index < len(vec.items):
                    del vec.items[index]
        else:
            return _raise(f"unknown vector API {name}")
        return api


# -- checksum helpers -----------------------------------------------------

def _checksum_ip(packet: Packet) -> None:
    words = [
        (packet.ip["ip_v"] << 12)
        | (packet.ip["ip_hl"] << 8)
        | packet.ip["ip_tos"],
        packet.ip["ip_len"],
        packet.ip["ip_id"],
        packet.ip["ip_off"],
        (packet.ip["ip_ttl"] << 8) | packet.ip["ip_p"],
        packet.ip["src_addr"] >> 16,
        packet.ip["src_addr"] & 0xFFFF,
        packet.ip["dst_addr"] >> 16,
        packet.ip["dst_addr"] & 0xFFFF,
    ]
    total = sum(words)
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    packet.ip["ip_sum"] = (~total) & 0xFFFF


def _checksum_tcp(packet: Packet) -> None:
    if packet.tcp is None:
        return
    words = [
        packet.tcp["th_sport"],
        packet.tcp["th_dport"],
        packet.tcp["th_seq"] >> 16,
        packet.tcp["th_seq"] & 0xFFFF,
        packet.tcp["th_ack"] >> 16,
        packet.tcp["th_ack"] & 0xFFFF,
        packet.ip["src_addr"] >> 16,
        packet.ip["src_addr"] & 0xFFFF,
        packet.ip["dst_addr"] >> 16,
        packet.ip["dst_addr"] & 0xFFFF,
    ]
    total = sum(words)
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    packet.tcp["th_sum"] = (~total) & 0xFFFF
