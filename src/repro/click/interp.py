"""Host-side execution of lowered NF elements.

Paper Sections 4.3-4.4: "To obtain access frequencies, Clara runs the
Click NFs ... on the host machine with the specified workload."  This
module is that host: an NFIR interpreter with host-framework semantics
(elastic hashmaps, real header parsing), which records

* basic-block execution counts (keyed by NFIR block names, so they line
  up with the static analysis),
* one count per (global, block, load or store) state access, from which
  the per-global load/store counts and the per-(global, block) access
  vectors (the inputs to the placement ILP and the coalescing K-means)
  are derived, and
* framework API call counts.

Per-packet paths are not recorded here: the partial-offload extension,
their only reader, counts them (:func:`repro.core.partition.packet_paths`).

Execution is compiled.  Each NFIR function is generated once into the
source of one Python function, which keeps SSA values, formals and
allocas whose address never escapes in Python locals, inlines constants
and the integer formulas of :mod:`repro.nfir.instructions`, and calls
the framework APIs with positional arguments; so running a packet does
no per-instruction dispatch.  It records block counts, global accesses
and API counts and checks the per-block step limit as the NFIR
semantics define them, and raises every :class:`InterpError` at the
instruction that fails.  The code is cached per :class:`Function`
object (weakly, so it goes with its module) and shared by every
interpreter over that module, each of which binds it only to its own
global stores, profile and packet.  :func:`precompile` compiles a
module ahead of its first run; ``Clara.analyze`` does so in its
``prepare`` stage.

Per packet, the cost is kept to what the packet needs.
:meth:`Interpreter.run_trace` is the one per-packet loop
(:meth:`Interpreter.run_packet` runs its packet through it); it binds
the handler once per trace and takes each packet from its iterable only
when the one before is done, so a streamed trace is never held whole.
A slot local whose every store writes one ``*_header`` API's result
holds NULL or the current packet's header, so a field load or store
through it checks for NULL and then indexes the header dict itself.

The cache relies on one rule: **a function is not mutated after its
first run** (or its :func:`precompile`).  Only the inliner and
``replace_operands`` mutate functions, and they do so while lowering,
before any run.

It doubles as a correctness oracle in tests: elements are executed on
crafted packets and their NF-level behaviour (NAT rewrites, firewall
verdicts, sketch counts) is asserted directly.
"""

from __future__ import annotations

import threading
import weakref
from collections import Counter
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

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
        hdr = getattr(self.packet, header)
        if hdr is None:
            raise InterpError(f"packet has no {header} header")
        return hdr[fname]

    def write(self, path: Tuple, value) -> None:
        header, fname = path
        hdr = getattr(self.packet, header)
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
    #: (global, block, "load" or "store") -> count, in first-access
    #: order.  The access views below are derived from it.
    accesses: Counter = field(default_factory=Counter)
    api_counts: Counter = field(default_factory=Counter)

    @property
    def global_access(self) -> Dict[str, Counter]:
        """Loads and stores per global, name -> {"load": n, "store": n},
        globals and kinds in first-access order."""
        out: Dict[str, Counter] = {}
        for (name, _block, kind), count in self.accesses.items():
            out.setdefault(name, Counter())[kind] += count
        return out

    @property
    def global_block_access(self) -> Counter:
        """(global, block) -> access count, in first-access order; the
        coalescing access vectors."""
        out: Counter = Counter()
        for (name, block, _kind), count in self.accesses.items():
            out[(name, block)] += count
        return out

    def access_frequency(self, global_name: str) -> float:
        """Accesses per packet for one global (placement ILP input)."""
        if self.packets == 0:
            return 0.0
        return sum(self.global_access.get(global_name, {}).values()) / self.packets

    def access_vector(self, global_name: str, block_order: List[str]) -> np.ndarray:
        """Normalized per-block access vector (Section 4.4)."""
        per_block = self.global_block_access
        counts = np.array(
            [per_block.get((global_name, b), 0) for b in block_order],
            dtype=float,
        )
        total = counts.sum()
        return counts / total if total > 0 else counts


# -- the compiled form ----------------------------------------------------
#
# Each NFIR function compiles to one factory,
#
#     def _bind(G, P, I):          # stores, profile, interpreter
#         ...                      # this interpreter's stores and counters
#         def run(pkt, pstore, limit, a0=_UNSET, *_):
#             ...                  # the function's blocks
#         return run
#
# whose ``run`` keeps formals (``a<n>``), SSA values (``v<n>``) and
# promoted allocas (``m<n>``) in Python locals and moves between
# blocks through a ``while True`` loop that dispatches on the block
# index ``b`` down a binary tree of comparisons.  A block with one
# incoming edge is emitted at that edge instead.  Element text (block,
# global, field, callee and value names) enters the source only as
# ``repr()`` literals.

_UNSET = object()

_HEADER_APIS = {
    "eth_header": "eth",
    "ip_header": "ip",
    "tcp_header": "tcp",
    "udp_header": "udp",
}

#: deepest ``if`` nesting used for inlined blocks; a block past it is
#: dispatched to instead (CPython allows 100 indentation levels).
_MAX_NEST = 32

_ICMP_OPERATORS = {
    "eq": "==", "ne": "!=",
    "ult": "<", "ule": "<=", "ugt": ">", "uge": ">=",
    "slt": "<", "sle": "<=", "sgt": ">", "sge": ">=",
}


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


def _hash_key(ptr: Ptr) -> Tuple:
    return tuple(sorted(_read_struct(ptr).items()))


def _over(function: str, limit) -> None:
    raise InterpError(f"step limit exceeded in @{function} ({limit} steps)")


def _undefined(ref: str):
    raise InterpError(f"use of undefined value {ref}")


def _no_arm(where: str, pred: str) -> None:
    raise InterpError(f"phi in {where} has no arm for predecessor {pred}")


def _global_ptr(stores: Dict[str, object], name: str) -> Ptr:
    store = stores[name]
    return Ptr(store if isinstance(store, TreeStore) else None, (), name)


def _typed(stores: Dict[str, object], name: str, kind: type):
    store = stores[name]
    return store if isinstance(store, kind) else None


def _payload_byte(packet: Packet, i: int) -> int:
    payload = packet.payload
    if not payload:
        return 0
    return payload[i % len(payload)]


def _set_payload_byte(packet: Packet, i: int, value: int) -> None:
    if packet.payload:
        payload = bytearray(packet.payload)
        payload[i % len(payload)] = value & 0xFF
        packet.payload = bytes(payload)


def _vector_at(vec: HostVector, index: int, gname: str) -> Ptr:
    if index >= len(vec.items):
        return NULL
    item = vec.items[index]
    if isinstance(item, dict):
        return Ptr(TreeStore(item), (), gname)
    return Ptr(_BoxStore(vec.items, index), (), gname)


def _vector_value(ptr: Ptr):
    value = ptr.store.read(ptr.path)  # type: ignore[union-attr]
    return dict(value) if isinstance(value, dict) else value


def _undefined_value(exc: UnboundLocalError) -> Optional[InterpError]:
    """The :class:`InterpError` for an ``UnboundLocalError`` that
    generated code raised reading a value whose definition has not run,
    or ``None`` when the error came from elsewhere.  The culprit is the
    first unbound value local that the failing line loads.  CPython
    words the error differently across versions and leaves its
    ``name`` unset, so neither is read."""
    import dis

    tb = exc.__traceback__
    if tb is None:
        return None
    while tb.tb_next is not None:
        tb = tb.tb_next
    frame = tb.tb_frame
    refs = frame.f_globals.get("__refs__")
    if refs is None:
        return None
    code = frame.f_code
    spans = [(s, e) for s, e, line in code.co_lines() if line == tb.tb_lineno]
    bound = frame.f_locals
    for op in dis.get_instructions(code):
        if not op.opname.startswith("LOAD_FAST"):
            continue
        if not any(s <= op.offset < e for s, e in spans):
            continue
        names = op.argval if isinstance(op.argval, tuple) else (op.argval,)
        for name in names:
            if name in refs and name not in bound:
                return InterpError(f"use of undefined value {refs[name]}")
    return None


class _Address(NamedTuple):
    """Where a load or store goes, as source text: ``store`` is the
    store object's expression; the storage is reached either through
    ``place``, an expression naming the cell itself (a chain of
    subscripts into a :class:`TreeStore`'s tree, or a field of one of
    the packet's headers), or through ``path``, an expression for
    :meth:`_Store.read`/``write``.  ``nullable`` means ``store`` may be
    None (a bad pointer); a non-None ``origin`` is recorded, and
    ``static_origin`` means it is a literal."""

    store: str
    place: Optional[str]
    path: Optional[str]
    nullable: bool
    origin: Optional[str]
    static_origin: bool


def _subscripts(steps: Sequence[str]) -> str:
    return "".join(f"[{step}]" for step in steps)


class _Codegen:
    """Writes the factory source of one NFIR function.

    It reads the function only while generating.  What it leaves
    behind (``constants``, ``refs``, ``callees``) is plain data, so the
    compiled code keeps no reference to the IR."""

    def __init__(self, function: Function) -> None:
        self.function_name = function.name
        blocks: List[BasicBlock] = list(function.blocks)
        self.position = {id(block): i for i, block in enumerate(blocks)}

        def index(block: BasicBlock) -> int:
            # Branches may name a block outside the function; it runs
            # like any other, so it joins the table.
            i = self.position.get(id(block))
            if i is None:
                i = self.position[id(block)] = len(blocks)
                blocks.append(block)
            return i

        self.blocks = blocks
        #: per block index: straight-line instructions, terminator,
        #: successor indices and instruction count (terminator included).
        self.bodies: List[List[Instruction]] = []
        self.terms: List[Optional[Instruction]] = []
        self.succs: List[List[int]] = []
        self.sizes: List[int] = []
        i = 0
        while i < len(blocks):
            body: List[Instruction] = []
            term: Optional[Instruction] = None
            succ: List[int] = []
            for instr in blocks[i].instructions:
                if isinstance(instr, Br):
                    term, succ = instr, [index(instr.target)]
                    break
                if isinstance(instr, CondBr):
                    term = instr
                    succ = [index(instr.if_true), index(instr.if_false)]
                    break
                if isinstance(instr, Ret):
                    term = instr
                    break
                body.append(instr)
            self.bodies.append(body)
            self.terms.append(term)
            self.succs.append(succ)
            self.sizes.append(len(body) + (term is not None))
            i += 1

        seen = [False] * len(blocks)
        work = [0] if blocks else []
        while work:
            i = work.pop()
            if not seen[i]:
                seen[i] = True
                work.extend(self.succs[i])
        self.reachable = [i for i in range(len(blocks)) if seen[i]]
        self.preds = [0] * len(blocks)
        for i in self.reachable:
            for j in self.succs[i]:
                self.preds[j] += 1

        self.formals = [f"a{k}" for k in range(len(function.args))]
        #: value -> local name; local name -> the value's ref.
        self.local: Dict[Value, str] = {}
        self.refs: Dict[str, str] = {}
        #: promoted alloca -> (slot local, block index, position).
        self.slots: Dict[Value, Tuple[str, int, int]] = {}
        #: values never materialized: icmps folded into the condbr that
        #: is their only use, and GEPs folded into the one load or store
        #: after them in their block.
        self.fused: Set[Value] = set()
        #: fused GEP -> where its one load or store goes.
        self.addresses: Dict[Value, _Address] = {}
        #: promoted pointer slot every store to which writes the result
        #: of one ``*_header`` API -> that header.  Such a slot holds
        #: NULL or the current packet's header, since no API replaces a
        #: header dict during a packet.
        self.header_slots: Dict[Value, str] = {}
        #: pointers an alloca built, whose store is a tree store and
        #: whose origin is None -> their path as source literals (None
        #: when a step is computed at run time).
        self.facts: Dict[Value, Optional[Tuple[str, ...]]] = {}
        self.temps = 0
        self.has_phi = [False] * len(blocks)
        #: namespace constants the source names (kernels, types).
        self.constants: Dict[str, object] = {}
        self.globals: Dict[str, int] = {}
        self.tables: Dict[Tuple[str, str], str] = {}
        self.callees: List[str] = []
        for formal, name in zip(function.args, self.formals):
            self._name(formal, name)
        self._scan()
        self.targets: Dict[int, List[Tuple[int, str]]] = {}
        self._pending: List[int] = []

    # -- analysis --------------------------------------------------------
    def _instrs(self, i: int) -> List[Instruction]:
        term = self.terms[i]
        return self.bodies[i] + ([term] if term is not None else [])

    def _scan(self) -> None:
        # Every global any table block names is bound, so a missing
        # one fails at binding whether or not its block runs.
        for i in range(len(self.blocks)):
            for instr in self._instrs(i):
                for op in instr.operands:
                    if isinstance(op, GlobalVariable):
                        self._global(op.name)
        escaped: Set[int] = set()
        uses: Counter = Counter()
        for i in self.reachable:
            for instr in self._instrs(i):
                for op in instr.operands:
                    uses[id(op)] += 1
                if isinstance(instr, Store):
                    escaped.add(id(instr.value))
                elif not isinstance(instr, Load):
                    escaped.update(id(op) for op in instr.operands)
        count = 0
        for i in self.reachable:
            body, term = self.bodies[i], self.terms[i]
            for position, instr in enumerate(body):
                count += 1
                if (
                    isinstance(instr, Alloca)
                    and id(instr) not in escaped
                    and isinstance(instr.allocated_type, (IntType, PointerType))
                ):
                    # Only loaded and stored through: a Python local.
                    self.slots[instr] = (f"m{count}", i, position)
                    self.refs[f"m{count}"] = instr.ref()
                    continue
                if isinstance(instr, Phi):
                    self.has_phi[i] = True
                if _assigns(instr):
                    self._name(instr, f"v{count}")
            for position, instr in enumerate(body):
                if isinstance(instr, GEP) and uses[id(instr)] == 1 and any(
                    isinstance(later, (Load, Store)) and later.ptr is instr
                    for later in body[position + 1:]
                ):
                    self.fused.add(instr)
                    del self.refs[self.local.pop(instr)]
            if (
                isinstance(term, CondBr)
                and body
                and body[-1] is term.cond
                and isinstance(term.cond, ICmp)
                and uses[id(term.cond)] == 1
            ):
                self.fused.add(term.cond)
                del self.refs[self.local.pop(term.cond)]
        geps = []
        for i in self.reachable:
            for instr in self.bodies[i]:
                if isinstance(instr, Alloca) and instr not in self.slots:
                    self.facts[instr] = ()
                elif isinstance(instr, GEP):
                    geps.append(instr)
        changed = True
        while changed:
            changed = False
            for gep in geps:
                if gep in self.facts or gep.base not in self.facts:
                    continue
                base = self.facts[gep.base]
                steps = [
                    repr(idx) if isinstance(idx, str)
                    else repr(idx.value)
                    if isinstance(idx, Constant) and not idx.type.is_pointer
                    else None
                    for idx in gep.indices
                ]
                self.facts[gep] = (
                    None if base is None or None in steps
                    else base + tuple(steps)  # type: ignore[operator]
                )
                changed = True
        stored: Dict[Value, Set[Optional[str]]] = {}
        for i in self.reachable:
            for instr in self.bodies[i]:
                if isinstance(instr, Store) and instr.ptr in self.slots:
                    value = instr.value
                    stored.setdefault(instr.ptr, set()).add(
                        _HEADER_APIS.get(value.callee)
                        if isinstance(value, Call) and value.kind != CALL_KIND_INTERNAL
                        else None
                    )
        for slot, headers in stored.items():
            if (
                len(headers) == 1
                and None not in headers
                and isinstance(slot.allocated_type, PointerType)  # type: ignore[attr-defined]
            ):
                self.header_slots[slot] = headers.pop()  # type: ignore[assignment]

    def _header_field(self, gep: GEP) -> Optional[Tuple[str, str]]:
        """``(header, field)`` when ``gep`` names one field through a
        value loaded from a header slot; ``None`` otherwise."""
        base, indices = gep.base, gep.indices
        if (
            isinstance(base, Load)
            and base.ptr in self.header_slots
            and len(indices) == 1
            and isinstance(indices[0], str)
        ):
            return self.header_slots[base.ptr], indices[0]
        return None

    def _name(self, value: Value, name: str) -> None:
        self.local[value] = name
        self.refs[name] = value.ref()

    def _global(self, name: str) -> str:
        k = self.globals.setdefault(name, len(self.globals))
        return f"g{k}"

    def _table(self, name: str, kind: str) -> str:
        return self.tables.setdefault((name, kind), f"t{len(self.tables)}")

    def _const(self, prefix: str, value: object) -> str:
        for name, existing in self.constants.items():
            if existing == value and name.startswith(prefix):
                return name
        name = f"{prefix}{len(self.constants)}"
        self.constants[name] = value
        return name

    # -- operands --------------------------------------------------------
    def operand(self, value: Value) -> str:
        if isinstance(value, Constant):
            return "NULL" if value.type.is_pointer else repr(value.value)
        if isinstance(value, GlobalVariable):
            return self._global(value.name)
        name = self.local.get(value)
        if name is not None:
            return name
        return f"_undefined({value.ref()!r})"

    def _touch(self, value: Value) -> List[str]:
        """Statements evaluating ``value`` only for its undefined check."""
        if isinstance(value, (Constant, GlobalVariable)):
            return []
        return [self.operand(value)]

    # -- source ----------------------------------------------------------
    def source(self) -> str:
        body: List[str] = []
        if self.blocks:
            self._enqueue(0)
            while self._pending:
                i = self._pending.pop()
                out: List[Tuple[int, str]] = []
                self._chain(i, None, 0, out)
                self.targets[i] = out
            self._tree(sorted(self.targets), 3, body)
        lines = [
            "def _bind(G, P, I):",
            "    BC = P.block_counts",
            "    A = P.api_counts",
            "    ACC = P.accesses",
        ]
        for name, k in self.globals.items():
            lines.append(f"    g{k} = _global_ptr(G, {name!r})")
            lines.append(f"    s{k} = g{k}.store")
        for (name, kind), table in self.tables.items():
            lines.append(f"    {table} = _typed(G, {name!r}, {kind})")
        formals = "".join(f", {a}=_UNSET" for a in self.formals)
        lines.append(f"    def run(pkt, pstore, limit{formals}, *_):")
        for a in self.formals:
            lines.append(f"        if {a} is _UNSET: del {a}")
        if not self.blocks:
            lines.append("        raise IndexError('list index out of range')")
        else:
            lines.append("        steps = 0")
            if any(self.has_phi):
                lines.append("        prev = None")
            lines.append("        b = 0")
            lines.append("        while True:")
            lines.extend(body)
        lines.append("    return run")
        return "\n".join(lines) + "\n"

    def _tree(self, order: List[int], depth: int, lines: List[str]) -> None:
        """Dispatch on ``b`` over the sorted target indices ``order``;
        every leaf ends in a jump, a return or a raise."""
        pad = "    " * depth
        if len(order) == 1:
            for rel, text in self.targets[order[0]]:
                lines.append(pad + "    " * rel + text)
            return
        mid = len(order) // 2
        lines.append(f"{pad}if b < {order[mid]}:")
        self._tree(order[:mid], depth + 1, lines)
        self._tree(order[mid:], depth, lines)

    def _enqueue(self, i: int) -> None:
        if i not in self.targets:
            self.targets[i] = []
            self._pending.append(i)

    def _inline(self, j: int, depth: int) -> bool:
        return j != 0 and self.preds[j] == 1 and depth <= _MAX_NEST

    def _jump(self, src: int, dst: int, depth: int, out) -> None:
        self._enqueue(dst)
        if self.has_phi[dst]:
            out.append((depth, f"prev = {src}"))
        out.append((depth, f"b = {dst}"))
        out.append((depth, "continue"))

    def _chain(self, i: int, prev: Optional[int], depth: int, out) -> None:
        """Emit block ``i``, entered from block ``prev`` (``None`` when
        the dispatch loop enters it), and the blocks inlined after it."""
        while True:
            name = self.blocks[i].name
            out.append((depth, f"BC[{name!r}] += 1"))
            out.append((depth, f"steps += {self.sizes[i]}"))
            out.append((
                depth, f"if steps > limit: _over({self.function_name!r}, limit)"
            ))
            for position, instr in enumerate(self.bodies[i]):
                if isinstance(instr, Phi):
                    self._phi(instr, name, prev, depth, out)
                elif not isinstance(instr, ICmp) or instr not in self.fused:
                    for text in self._instr(instr, name, i, position):
                        out.append((depth, text))
            term = self.terms[i]
            if term is None:
                message = f"block {name} in @{self.function_name} fell through"
                out.append((depth, f"raise InterpError({message!r})"))
                return
            if isinstance(term, Ret):
                value = "None" if term.value is None else self.operand(term.value)
                out.append((depth, f"return {value}"))
                return
            if isinstance(term, Br):
                j = self.succs[i][0]
                if not self._inline(j, depth):
                    self._jump(i, j, depth, out)
                    return
                prev, i = i, j
                continue
            t, f = self.succs[i]
            cond = self._condition(term)  # type: ignore[arg-type]
            if self._inline(f, depth) and not self._inline(t, depth + 1):
                out.append((depth, f"if {cond}:"))
                self._jump(i, t, depth + 1, out)
                prev, i = i, f
                continue
            if self._inline(t, depth) and not self._inline(f, depth):
                negated = cond[4:] if cond.startswith("not ") else f"not ({cond})"
                out.append((depth, f"if {negated}:"))
                self._jump(i, f, depth + 1, out)
                prev, i = i, t
                continue
            out.append((depth, f"if {cond}:"))
            if self._inline(t, depth + 1):
                self._chain(t, i, depth + 1, out)
            else:
                self._jump(i, t, depth + 1, out)
            if not self._inline(f, depth):
                self._jump(i, f, depth, out)
                return
            prev, i = i, f

    def _phi(self, instr: Phi, where: str, prev: Optional[int], depth: int, out) -> None:
        target = self.local[instr]
        arms: Dict[int, Value] = {}
        for value, pred in instr.incomings:
            j = self.position.get(id(pred))
            if j is not None and j not in arms:
                arms[j] = value
        if prev is not None:
            # Inlined: the predecessor is known.
            if prev in arms:
                out.append((depth, f"{target} = {self.operand(arms[prev])}"))
            else:
                pred_name = self.blocks[prev].name
                out.append((depth, f"_no_arm({where!r}, {pred_name!r})"))
            return
        keyword = "if"
        for j, value in arms.items():
            out.append((depth, f"{keyword} prev == {j}:"))
            out.append((depth + 1, f"{target} = {self.operand(value)}"))
            keyword = "elif"
        out.append((depth, f"{keyword} prev is None:"))
        out.append((depth + 1, "raise InterpError('phi in entry block')"))
        names = self._const("_names", tuple(b.name for b in self.blocks))
        out.append((depth, "else:"))
        out.append((depth + 1, f"_no_arm({where!r}, {names}[prev])"))

    def _condition(self, term: CondBr) -> str:
        if term.cond in self.fused:
            return self._compare(term.cond)  # type: ignore[arg-type]
        return self.operand(term.cond)

    # -- instructions ----------------------------------------------------
    def _compare(self, instr: ICmp) -> str:
        """A Python boolean expression computing an ``icmp``: the
        formulas of :func:`~repro.nfir.instructions.icmp_kernel`, with
        constant operands folded."""
        lhs, rhs = self.operand(instr.lhs), self.operand(instr.rhs)
        if instr.lhs.type.is_pointer:
            same = f"_same_pointer({lhs}, {rhs})"
            if isinstance(instr.rhs, Constant) != isinstance(instr.lhs, Constant):
                # Against null, _same_pointer reduces to a null test.
                x = rhs if isinstance(instr.lhs, Constant) else lhs
                same = f"({x}.store is None if {x}.__class__ is Ptr else {x} == 0)"
            return same if instr.predicate == "eq" else f"not {same}"
        bits = instr.lhs.type.bits  # type: ignore[union-attr]
        mask, sign = (1 << bits) - 1, 1 << (bits - 1)
        signed = instr.predicate[0] == "s"

        def side(value: Value, text: str) -> str:
            if isinstance(value, Constant):
                folded = value.value & mask
                return str(folded ^ sign if signed else folded)
            return f"({text} & {mask}) ^ {sign}" if signed else f"{text} & {mask}"

        operator = _ICMP_OPERATORS[instr.predicate]
        return f"{side(instr.lhs, lhs)} {operator} {side(instr.rhs, rhs)}"

    def _binary(self, instr: BinaryOp) -> str:
        """The formulas of :func:`~repro.nfir.instructions.binary_kernel`
        as an expression; divisions call the kernel itself."""
        bits = instr.type.bits  # type: ignore[union-attr]
        mask, sign = (1 << bits) - 1, 1 << (bits - 1)
        lhs, rhs = self.operand(instr.lhs), self.operand(instr.rhs)
        const = instr.rhs.value if isinstance(instr.rhs, Constant) else None
        shift = f"({rhs} % {bits})" if const is None else str(const % bits)
        formulas = {
            "add": f"({lhs} + {rhs}) & {mask}",
            "sub": f"({lhs} - {rhs}) & {mask}",
            "mul": f"({lhs} * {rhs}) & {mask}",
            # A constant is already wrapped to the width.
            "and": f"{lhs} & {rhs}" if const is not None
            else f"{lhs} & {rhs} & {mask}",
            "or": f"({lhs} | {rhs}) & {mask}",
            "xor": f"({lhs} ^ {rhs}) & {mask}",
            "shl": f"({lhs} << {shift}) & {mask}",
            "lshr": f"({lhs} & {mask}) >> {shift}",
            "ashr": f"(((({lhs} & {mask}) ^ {sign}) - {sign}) >> {shift}) & {mask}",
        }
        if instr.opcode in formulas:
            return formulas[instr.opcode]
        kernel = self._const(
            "_kernel", binary_kernel(instr.opcode, instr.type)  # type: ignore[arg-type]
        )
        return f"{kernel}({lhs}, {rhs})"

    def _instr(self, instr: Instruction, where: str, i: int, position: int) -> List[str]:
        """Source lines for straight-line instruction ``position`` of
        block ``i``, named ``where``."""
        out = self.local.get(instr)
        if isinstance(instr, BinaryOp):
            return [f"{out} = {self._binary(instr)}"]
        if isinstance(instr, ICmp):
            return [f"{out} = 1 if {self._compare(instr)} else 0"]
        if isinstance(instr, Select):
            # One arm per line, so an undefined arm is found by line.
            return [
                f"if {self.operand(instr.cond)}:"
                f" {out} = {self.operand(instr.if_true)}",
                f"else: {out} = {self.operand(instr.if_false)}",
            ]
        if isinstance(instr, Cast):
            source = self.operand(instr.value)
            if instr.opcode == "bitcast":
                return [f"{out} = {source}"]
            mask = instr.type.max_unsigned()  # type: ignore[union-attr]
            if instr.opcode == "sext":
                bits = instr.value.type.bits  # type: ignore[union-attr]
                smask, sign = (1 << bits) - 1, 1 << (bits - 1)
                return [f"{out} = ((({source} & {smask}) ^ {sign}) - {sign}) & {mask}"]
            return [f"{out} = {source} & {mask}"]
        if isinstance(instr, Alloca):
            if instr in self.slots:
                zero = "0" if isinstance(instr.allocated_type, IntType) else "NULL"
                return [f"{self.slots[instr][0]} = {zero}"]
            allocated = instr.allocated_type
            if isinstance(allocated, IntType):
                return [f"{out} = Ptr(TreeStore(0))"]
            members = (
                [t for _, t in allocated.fields]
                if isinstance(allocated, StructType)
                else [allocated.element] if isinstance(allocated, ArrayType)
                else None
            )
            if members is not None and all(
                isinstance(t, (IntType, PointerType)) for t in members
            ):
                # Scalar members: a copy of one zero value is a zero value.
                zero = self._const("_zero", zero_value(allocated))
                return [f"{out} = Ptr(TreeStore({zero}.copy()))"]
            type_ = self._const("_type", allocated)
            return [f"{out} = Ptr(TreeStore(_zero_value({type_})))"]
        if isinstance(instr, Load):
            return self._load(instr, out, where)  # type: ignore[arg-type]
        if isinstance(instr, Store):
            return self._store(instr, where, i, position)
        if isinstance(instr, GEP):
            return self._gep(instr, out)  # type: ignore[arg-type]
        if isinstance(instr, Call):
            return self._call(instr, out, where)
        message = f"cannot interpret {instr.opcode}"
        return [f"raise InterpError({message!r})"]

    def _address(self, ptr: Value) -> Optional[_Address]:
        """How a load or store through ``ptr`` reaches its storage,
        when that is known without a runtime pointer check."""
        if ptr in self.addresses:
            return self.addresses[ptr]
        if isinstance(ptr, GlobalVariable):
            k = self.globals[ptr.name]
            return _Address(f"s{k}", f"s{k}.tree", None, True, repr(ptr.name), True)
        if ptr in self.facts and ptr in self.local:
            p, steps = self.local[ptr], self.facts[ptr]
            if steps is None:
                return _Address(f"{p}.store", None, f"{p}.path", False, None, False)
            return _Address(
                f"{p}.store", f"{p}.store.tree{_subscripts(steps)}", None,
                False, None, False,
            )
        return None

    def _access(
        self, address: _Address, kind: str, where: str, bad: str, value: Optional[str]
    ) -> List[str]:
        """A load (``value`` None) or store of ``value`` at ``address``."""
        lines = [f"if {address.store} is None: {bad}"] if address.nullable else []
        if address.place is not None:
            target = address.place
            lines.append(target if value is None else f"{target} = {value}")
        elif value is None:
            lines.append(f"{address.store}.read({address.path})")
        else:
            lines.append(f"{address.store}.write({address.path}, {value})")
        if address.origin is not None:
            record = f"ACC[({address.origin}, {where!r}, {kind!r})] += 1"
            lines.append(
                record if address.static_origin
                else f"if {address.origin} is not None: {record}"
            )
        return lines

    def _load(self, instr: Load, out: str, where: str) -> List[str]:
        bad = f"raise InterpError({f'load through bad pointer in {where}'!r})"
        if instr.ptr in self.slots:
            return [f"{out} = {self.slots[instr.ptr][0]}"]
        address = self._address(instr.ptr)
        if address is not None:
            lines = self._access(address, "load", where, bad, None)
            read = 1 if address.nullable else 0
            lines[read] = f"{out} = {lines[read]}"
            return lines
        p = self.operand(instr.ptr)
        return [
            f"if {p}.__class__ is not Ptr or {p}.store is None: {bad}",
            f"{out} = {p}.store.read({p}.path)",
            f"if {p}.origin is not None: ACC[({p}.origin, {where!r}, 'load')] += 1",
        ]

    def _store(self, instr: Store, where: str, i: int, position: int) -> List[str]:
        value = self.operand(instr.value)
        if instr.ptr in self.slots:
            slot, block, at = self.slots[instr.ptr]
            if block == 0 and (i != 0 or position > at):
                # The entry block ran the alloca before this store.
                return [f"{slot} = {value}"]
            # Read the slot first: a store before its alloca ran uses
            # an undefined pointer.
            return [slot, f"{slot} = {value}"]
        # The pointer and then the value must be defined before a bad
        # pointer is reported.
        bad = "; ".join(self._touch(instr.value) + [
            f"raise InterpError({f'store through bad pointer in {where}'!r})"
        ])
        address = self._address(instr.ptr)
        if address is not None:
            return self._access(address, "store", where, bad, value)
        p = self.operand(instr.ptr)
        return [
            f"if {p}.__class__ is not Ptr or {p}.store is None: {bad}",
            f"{p}.store.write({p}.path, {value})",
            f"if {p}.origin is not None: ACC[({p}.origin, {where!r}, 'store')] += 1",
        ]

    def _gep(self, instr: GEP, out: str) -> List[str]:
        fused = instr in self.fused
        view = self._header_field(instr) if fused else None
        if view is not None:
            # The base is NULL or the current packet's header: index
            # the header dict itself.  Header pointers have no origin.
            base = self.operand(instr.base)
            header, name = view
            self.addresses[instr] = _Address(
                f"{base}.store", f"pkt.{header}[{name!r}]", None, True, None, False
            )
            return [base]  # read where the GEP stands
        lines: List[str] = []
        base_steps = None
        if isinstance(instr.base, GlobalVariable):
            k, name = self.globals[instr.base.name], instr.base.name
            base_steps = ()
        else:
            base = self.operand(instr.base)
            if instr.base in self.facts:
                base_steps = self.facts[instr.base]
                lines.append(base)  # read where the GEP stands
            else:
                lines.append(
                    f"if {base}.__class__ is not Ptr:"
                    " raise InterpError('GEP on non-pointer value')"
                )
        steps = []
        for idx in instr.indices:
            if isinstance(idx, str):
                steps.append(repr(idx))
            elif isinstance(idx, Constant) and not idx.type.is_pointer:
                steps.append(repr(idx.value))
            else:
                step = f"int({self.operand(idx)})"  # type: ignore[arg-type]
                if fused:
                    # Converted where the GEP stands, used at the access.
                    self.temps += 1
                    lines.append(f"_p{self.temps} = {step}")
                    step = f"_p{self.temps}"
                steps.append(step)
        suffix = "(" + "".join(f"{step}, " for step in steps) + ")"
        if isinstance(instr.base, GlobalVariable):
            if not fused:
                return [f"{out} = Ptr(s{k}, {suffix}, {name!r})"]
            self.addresses[instr] = _Address(
                f"s{k}", f"s{k}.tree{_subscripts(steps)}", None, True, repr(name), True
            )
            return lines
        if not fused:
            if instr.base in self.facts:
                lines.pop()
            lines.append(
                f"{out} = Ptr({base}.store, {base}.path + {suffix}, {base}.origin)"
            )
            return lines
        if base_steps is not None:
            self.addresses[instr] = _Address(
                f"{base}.store",
                f"{base}.store.tree{_subscripts(base_steps + tuple(steps))}",
                None, False, None, False,
            )
        elif instr.base in self.facts:
            self.addresses[instr] = _Address(
                f"{base}.store", None, f"{base}.path + {suffix}", False, None, False
            )
        else:
            self.addresses[instr] = _Address(
                f"{base}.store", None, f"{base}.path + {suffix}",
                True, f"{base}.origin", False,
            )
        return lines

    def _call(self, instr: Call, out: Optional[str], where: str) -> List[str]:
        assign = f"{out} = " if out is not None else ""
        if instr.kind == CALL_KIND_INTERNAL:
            if instr.callee not in self.callees:
                self.callees.append(instr.callee)
            args = "".join(f", {self.operand(a)}" for a in instr.args)
            return [
                f"{assign}I._callee({instr.callee!r})(pkt, pstore, limit{args})"
            ]
        lines = [f"A[{instr.callee!r}] += 1"]
        body, result = self._api(instr, where)
        lines.extend(body)
        if result is not None:
            lines.append(assign + result)
        elif assign:
            lines.append(f"{assign}None")
        return lines

    def _arg(self, instr: Call, i: int) -> str:
        return self.operand(instr.args[i])

    def _api(self, instr: Call, where: str) -> Tuple[List[str], Optional[str]]:
        """Statements and result expression of framework API
        ``instr.callee``; no result expression means ``None``."""
        name = instr.callee
        if name in _HEADER_APIS:
            header = _HEADER_APIS[name]
            return [], (
                f"NULL if pkt.{header} is None else Ptr(pstore, ({header!r},))"
            )
        if name == "payload_byte":
            return [], f"_payload_byte(pkt, {self._arg(instr, 1)})"
        if name == "set_payload_byte":
            index, byte = self._arg(instr, 1), self._arg(instr, 2)
            return [f"_set_payload_byte(pkt, {index}, {byte})"], None
        if name == "payload_len":
            return [], "len(pkt.payload)"
        if name == "send":
            return [f"pkt.out_port = {self._arg(instr, 1)}"], None
        if name == "drop":
            return ["pkt.dropped = True"], None
        if name == "in_port":
            return [], "pkt.in_port"
        if name == "timestamp_ns":
            return [], "pkt.timestamp_ns"
        if name in ("checksum_update_ip", "checksum_update_tcp"):
            update = "_checksum_ip" if name == "checksum_update_ip" else "_checksum_tcp"
            return self._touch(instr.args[0]) + [f"{update}(pkt)"], None
        if name == "random_u32":
            return [], "int(I.rng.integers(0, 4294967296, dtype=_uint64))"

        # Stateful data-structure APIs.  The receiver global is the
        # first argument.
        receiver = instr.args[0]
        if not isinstance(receiver, GlobalVariable):
            message = f"API {name} receiver is not a global"
            return [f"raise InterpError({message!r})"], None
        if name.startswith("hashmap_"):
            return self._hashmap(instr, receiver.name, where)
        if name.startswith("vector_"):
            return self._vector(instr, receiver.name, where)
        message = f"unimplemented API {name!r}"
        return [f"raise InterpError({message!r})"], None

    def _hashmap(self, instr: Call, gname: str, where: str):
        name = instr.callee
        table = self._table(gname, "HostHashMap")
        lines = [
            f"if {table} is None:"
            f" raise InterpError({f'{gname} is not a hashmap'!r})",
            f"ACC[({gname!r}, {where!r}, 'load')] += 1",
        ]
        store = f"ACC[({gname!r}, {where!r}, 'store')] += 1"
        if name == "hashmap_size":
            return lines, f"len({table})"
        if name == "hashmap_find":
            lines.append(f"_e = {table}.find(_hash_key({self._arg(instr, 1)}))")
            return lines, f"NULL if _e is None else Ptr(TreeStore(_e), (), {gname!r})"
        if name == "hashmap_insert":
            lines.append(f"_k = _hash_key({self._arg(instr, 1)})")
            lines.append(f"_e = _read_struct({self._arg(instr, 2)})")
            lines.append(store)
            return lines, f"int({table}.insert(_k, _e))"
        if name == "hashmap_erase":
            lines.append(f"_k = _hash_key({self._arg(instr, 1)})")
            lines.append(store)
            return lines, f"int({table}.erase(_k))"
        message = f"unknown hashmap API {name}"
        return lines[:1] + [f"raise InterpError({message!r})"], None

    def _vector(self, instr: Call, gname: str, where: str):
        name = instr.callee
        vec = self._table(gname, "HostVector")
        lines = [
            f"if {vec} is None:"
            f" raise InterpError({f'{gname} is not a vector'!r})",
            f"ACC[({gname!r}, {where!r}, 'load')] += 1",
        ]
        store = f"ACC[({gname!r}, {where!r}, 'store')] += 1"
        if name == "vector_size":
            return lines, f"len({vec}.items)"
        if name == "vector_at":
            return lines, f"_vector_at({vec}, {self._arg(instr, 1)}, {gname!r})"
        if name == "vector_push":
            lines.append(f"_e = _vector_value({self._arg(instr, 1)})")
            lines.append(store)
            return lines, f"int({vec}.push(_e))"
        if name == "vector_remove":
            lines.append(f"_i = {self._arg(instr, 1)}")
            lines.append(store)
            lines.append(f"if _i < len({vec}.items): del {vec}.items[_i]")
            return lines, None
        message = f"unknown vector API {name}"
        return lines[:1] + [f"raise InterpError({message!r})"], None


def _assigns(instr: Instruction) -> bool:
    """Whether executing ``instr`` defines its SSA value."""
    if isinstance(instr, Call):
        return instr.produces_value
    return isinstance(instr, (Phi, BinaryOp, ICmp, Select, Cast, Alloca, Load, GEP))


#: Function -> its compiled factory.  Weak, so a function's code goes
#: with its module.
_COMPILED: "weakref.WeakKeyDictionary[Function, Callable]" = (
    weakref.WeakKeyDictionary()
)
_COMPILED_LOCK = threading.Lock()


def _generate(function: Function) -> Tuple[str, Dict[str, object], Dict[str, str], List[str]]:
    """The factory source of ``function`` and the plain data it names:
    namespace constants, value refs by local, and internal callees."""
    gen = _Codegen(function)
    source = gen.source()
    return source, gen.constants, gen.refs, gen.callees


def compile_function(function: Function) -> Callable:
    """The compiled factory of ``function``.  Generated and compiled on
    the first request for this function object, then shared by every
    interpreter, on any thread."""
    with _COMPILED_LOCK:
        factory = _COMPILED.get(function)
    if factory is None:
        source, constants, refs, callees = _generate(function)
        namespace = dict(_NAMESPACE)
        namespace.update(constants)
        namespace["__refs__"] = refs
        exec(compile(source, "<nfir>", "exec"), namespace)
        # Out of its own namespace, so the factory is freed by refcount.
        factory = namespace.pop("_bind")
        factory.callees = tuple(callees)
        with _COMPILED_LOCK:
            factory = _COMPILED.setdefault(function, factory)
    return factory


def precompile(module: Module) -> None:
    """Compile ``module``'s packet handler and every function it can
    call, so that interpreters over the module compile nothing."""
    if "pkt_handler" not in module.functions:
        return
    todo = [module.handler]
    done: Set[str] = set()
    while todo:
        function = todo.pop()
        if function.name in done:
            continue
        done.add(function.name)
        for callee in compile_function(function).callees:
            if callee in module.functions:
                todo.append(module.functions[callee])


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
        #: Function -> its compiled code bound to this interpreter.
        self._runners: Dict[Function, Callable] = {}
        # Bound code reaches the interpreter only through this weak
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
        """Run ``packets`` in order and return the profile.  Each packet
        is taken from ``packets`` only when the one before it is done,
        so a streamed trace (:func:`~repro.workload.trace.iter_trace`)
        is never held whole.  The handler is bound once, at the first
        packet."""
        profile = self.profile
        limit = self.max_steps
        handler = None
        try:
            for packet in packets:
                if handler is None:
                    handler = self._bound(self.module.handler)
                store = PacketStore(packet)
                handler(packet, store, limit, Ptr(store))
                profile.packets += 1
                if packet.dropped:
                    profile.dropped += 1
                elif packet.out_port is not None:
                    profile.sent += 1
        except UnboundLocalError as exc:
            error = _undefined_value(exc)
            if error is None:
                raise
            raise error from None
        return profile

    def run_packet(self, packet: Packet) -> Packet:
        """Run one packet (see :meth:`run_trace`) and return it."""
        self.run_trace((packet,))
        return packet

    def _bound(self, function: Function) -> Callable:
        """``function``'s compiled code bound to this interpreter's
        stores and profile, on its first run."""
        runner = self._runners.get(function)
        if runner is None:
            runner = self._runners[function] = compile_function(function)(
                self.globals, self.profile, self._weak
            )
        return runner

    def _callee(self, name: str) -> Callable:
        function = self.module.functions.get(name)
        if function is None:
            raise InterpError(f"call to unknown function @{name}")
        return self._bound(function)


# -- checksum helpers -----------------------------------------------------

def _checksum_ip(packet: Packet) -> None:
    ip = packet.ip
    total = (
        ((ip["ip_v"] << 12) | (ip["ip_hl"] << 8) | ip["ip_tos"])
        + ip["ip_len"]
        + ip["ip_id"]
        + ip["ip_off"]
        + ((ip["ip_ttl"] << 8) | ip["ip_p"])
    )
    src, dst = ip["src_addr"], ip["dst_addr"]
    total += (src >> 16) + (src & 0xFFFF) + (dst >> 16) + (dst & 0xFFFF)
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    ip["ip_sum"] = (~total) & 0xFFFF


def _checksum_tcp(packet: Packet) -> None:
    tcp = packet.tcp
    if tcp is None:
        return
    sport, dport = tcp["th_sport"], tcp["th_dport"]
    seq, ack = tcp["th_seq"], tcp["th_ack"]
    total = sport + dport + (seq >> 16) + (seq & 0xFFFF) + (ack >> 16) + (ack & 0xFFFF)
    ip = packet.ip
    src, dst = ip["src_addr"], ip["dst_addr"]
    total += (src >> 16) + (src & 0xFFFF) + (dst >> 16) + (dst & 0xFFFF)
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    tcp["th_sum"] = (~total) & 0xFFFF


#: What generated code names besides its own constants.
_NAMESPACE: Dict[str, object] = {
    "InterpError": InterpError,
    "Ptr": Ptr,
    "TreeStore": TreeStore,
    "HostHashMap": HostHashMap,
    "HostVector": HostVector,
    "NULL": NULL,
    "_UNSET": _UNSET,
    "_uint64": np.uint64,
    "_zero_value": zero_value,
    "_same_pointer": _same_pointer,
    "_read_struct": _read_struct,
    "_hash_key": _hash_key,
    "_over": _over,
    "_undefined": _undefined,
    "_no_arm": _no_arm,
    "_global_ptr": _global_ptr,
    "_typed": _typed,
    "_payload_byte": _payload_byte,
    "_set_payload_byte": _set_payload_byte,
    "_vector_at": _vector_at,
    "_vector_value": _vector_value,
    "_checksum_ip": _checksum_ip,
    "_checksum_tcp": _checksum_tcp,
}
