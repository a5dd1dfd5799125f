"""Terse constructors for writing ClickScript elements in Python.

Every element in :mod:`repro.click.elements` is built with these
helpers; they are pure sugar over :mod:`repro.click.ast`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.click import ast as C

ExprLike = Union[C.Expr, int]


def e(value: ExprLike) -> C.Expr:
    if isinstance(value, C.Expr):
        return value
    return C.IntLit(value)


def v(name: str) -> C.VarRef:
    return C.VarRef(name)


def lit(value: int, type_: str = "u32") -> C.IntLit:
    return C.IntLit(value, type_)


def fld(base: ExprLike, name: str) -> C.FieldExpr:
    return C.FieldExpr(e(base), name)


def idx(base: ExprLike, index: ExprLike) -> C.IndexExpr:
    return C.IndexExpr(e(base), e(index))


# comparisons -----------------------------------------------------------

def eq(a: ExprLike, b: ExprLike) -> C.CmpExpr:
    return C.CmpExpr("==", e(a), e(b))


def ne(a: ExprLike, b: ExprLike) -> C.CmpExpr:
    return C.CmpExpr("!=", e(a), e(b))


def lt(a: ExprLike, b: ExprLike) -> C.CmpExpr:
    return C.CmpExpr("<", e(a), e(b))


def le(a: ExprLike, b: ExprLike) -> C.CmpExpr:
    return C.CmpExpr("<=", e(a), e(b))


def gt(a: ExprLike, b: ExprLike) -> C.CmpExpr:
    return C.CmpExpr(">", e(a), e(b))


def ge(a: ExprLike, b: ExprLike) -> C.CmpExpr:
    return C.CmpExpr(">=", e(a), e(b))


def and_(a: ExprLike, b: ExprLike) -> C.BinExpr:
    return C.BinExpr("and", e(a), e(b))


def or_(a: ExprLike, b: ExprLike) -> C.BinExpr:
    return C.BinExpr("or", e(a), e(b))


# calls ------------------------------------------------------------------

def mcall(receiver: str, method: str, *args: ExprLike) -> C.CallExpr:
    return C.CallExpr(method, [e(a) for a in args], receiver=v(receiver))


def fcall(name: str, *args: ExprLike) -> C.CallExpr:
    return C.CallExpr(name, [e(a) for a in args])


def pkt(method: str, *args: ExprLike) -> C.CallExpr:
    return mcall("pkt", method, *args)


# statements --------------------------------------------------------------

def decl(name: str, type_: str, init: Optional[ExprLike] = None) -> C.DeclStmt:
    return C.DeclStmt(name, type_, e(init) if init is not None else None)


def assign(target: ExprLike, value: ExprLike) -> C.AssignStmt:
    return C.AssignStmt(e(target), e(value))


def if_(
    cond: ExprLike,
    then: Sequence[C.Stmt],
    els: Sequence[C.Stmt] = (),
) -> C.IfStmt:
    return C.IfStmt(e(cond), list(then), list(els))


def while_(cond: ExprLike, body: Sequence[C.Stmt], max_trips: int = 4096) -> C.WhileStmt:
    return C.WhileStmt(e(cond), list(body), max_trips)


def for_(
    var: str,
    start: ExprLike,
    end: ExprLike,
    body: Sequence[C.Stmt],
    var_type: str = "u32",
) -> C.ForStmt:
    return C.ForStmt(var, e(start), e(end), list(body), var_type)


def expr(value: ExprLike) -> C.ExprStmt:
    return C.ExprStmt(e(value))


def ret(value: Optional[ExprLike] = None) -> C.ReturnStmt:
    return C.ReturnStmt(e(value) if value is not None else None)


def brk() -> C.BreakStmt:
    return C.BreakStmt()


# declarations --------------------------------------------------------------

def struct(name: str, *fields: tuple) -> C.StructDef:
    return C.StructDef(name, list(fields))


def scalar_state(name: str, type_: str = "u32") -> C.StateDecl:
    return C.StateDecl(name, "scalar", value_type=type_)


def array_state(name: str, type_: str, entries: int) -> C.StateDecl:
    return C.StateDecl(name, "array", value_type=type_, entries=entries)


def hashmap_state(
    name: str, key_struct: str, value_struct: str, entries: int
) -> C.StateDecl:
    return C.StateDecl(
        name, "hashmap", value_type=value_struct, key_struct=key_struct,
        entries=entries,
    )


def vector_state(name: str, elem: str, entries: int) -> C.StateDecl:
    return C.StateDecl(name, "vector", value_type=elem, entries=entries)


def helper(
    name: str,
    params: Sequence[tuple],
    ret_type: str,
    body: Sequence[C.Stmt],
) -> C.FuncDef:
    return C.FuncDef(name, list(params), ret_type, list(body))
