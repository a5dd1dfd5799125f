"""NFIR: a small LLVM-flavoured SSA intermediate representation.

Clara (SOSP '21) lowers legacy network functions to LLVM IR before any
analysis.  NFIR plays that role here: a typed, SSA-style IR with basic
blocks, a control-flow graph, a textual format with a parser/printer
round-trip, a verifier, an inliner, and the instruction-annotation pass
(compute vs. memory vs. framework-API) described in Section 3.1 of the
paper.
"""

from repro.nfir.types import (
    ArrayType,
    IntType,
    IRType,
    PointerType,
    StructType,
    VoidType,
    I1,
    I8,
    I16,
    I32,
    I64,
    VOID,
)
from repro.nfir.values import Argument, Constant, Value
from repro.nfir.instructions import (
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
    BINARY_OPCODES,
    CAST_OPCODES,
    ICMP_PREDICATES,
)
from repro.nfir.block import BasicBlock
from repro.nfir.function import Function, GlobalVariable, Module
from repro.nfir.builder import IRBuilder
from repro.nfir.printer import print_function, print_instruction, print_module
from repro.nfir.parser import parse_module
from repro.nfir.cfg import reverse_postorder
from repro.nfir.verifier import VerificationError, verify_function, verify_module
from repro.nfir.inliner import inline_internal_calls
from repro.nfir.annotate import (
    AnnotatedBlock,
    Category,
    annotate_function,
    annotate_module,
    classify_instruction,
)
from repro.nfir.analysis import (
    Diagnostic,
    DominatorTree,
    LintReport,
    PassRegistry,
    default_registry,
    lint_module,
)

__all__ = [
    "ArrayType",
    "IntType",
    "IRType",
    "PointerType",
    "StructType",
    "VoidType",
    "I1",
    "I8",
    "I16",
    "I32",
    "I64",
    "VOID",
    "Argument",
    "Constant",
    "Value",
    "Alloca",
    "BinaryOp",
    "Br",
    "Call",
    "Cast",
    "CondBr",
    "GEP",
    "ICmp",
    "Instruction",
    "Load",
    "Phi",
    "Ret",
    "Select",
    "Store",
    "BINARY_OPCODES",
    "CAST_OPCODES",
    "ICMP_PREDICATES",
    "BasicBlock",
    "Function",
    "GlobalVariable",
    "Module",
    "IRBuilder",
    "print_function",
    "print_instruction",
    "print_module",
    "parse_module",
    "reverse_postorder",
    "VerificationError",
    "verify_function",
    "verify_module",
    "inline_internal_calls",
    "AnnotatedBlock",
    "Category",
    "annotate_function",
    "annotate_module",
    "classify_instruction",
    "Diagnostic",
    "DominatorTree",
    "LintReport",
    "PassRegistry",
    "default_registry",
    "lint_module",
]
