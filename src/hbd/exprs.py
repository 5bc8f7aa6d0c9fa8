"""The small expression language used by atom blocks.

Expressions range over a block's parameters and are built from arithmetic,
min/max, comparisons, boolean connectives, if-then-else and literals.  The
language deliberately cannot observe unknown values, so every expression
denotes a monotone function once extended with the bottom-propagation rules
of the evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Union

from .errors import TypeMismatchError
from .types import BaseType, TypeList


@dataclass(frozen=True)
class Lit:
    value: object  # bool | int | float


@dataclass(frozen=True)
class Ref:
    name: str


@dataclass(frozen=True)
class Un:
    op: str  # "neg" | "not"
    a: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str  # + - * / min max < <= == and or
    a: "Expr"
    b: "Expr"


@dataclass(frozen=True)
class Ite:
    cond: "Expr"
    then: "Expr"
    orelse: "Expr"


Expr = Union[Lit, Ref, Un, Bin, Ite]

_NUMERIC = (BaseType.REAL, BaseType.INT)
_ARITH = {"+", "-", "*", "/", "min", "max"}
_COMPARE = {"<", "<="}
_BOOLOPS = {"and", "or"}


def lit_kind(value: object) -> BaseType:
    # bool must be tested before int: bool is a subclass of int.
    if isinstance(value, bool):
        return BaseType.BOOL
    if isinstance(value, int):
        return BaseType.INT
    if isinstance(value, float):
        return BaseType.REAL
    raise TypeMismatchError(f"literal {value!r} has no base type")


def infer_kind(e: Expr, env: Mapping[str, BaseType]) -> BaseType:
    """Kind of ``e`` given parameter kinds, or raise TypeMismatchError."""
    if isinstance(e, Lit):
        return lit_kind(e.value)
    if isinstance(e, Ref):
        if e.name not in env:
            raise TypeMismatchError(f"unbound parameter {e.name!r}")
        return env[e.name]
    if isinstance(e, Un):
        k = infer_kind(e.a, env)
        if e.op == "neg":
            if k not in _NUMERIC:
                raise TypeMismatchError(f"neg expects a numeric operand, got {k}")
            return k
        if e.op == "not":
            if k != BaseType.BOOL:
                raise TypeMismatchError(f"not expects Bool, got {k}")
            return k
        raise TypeMismatchError(f"unknown unary op {e.op!r}")
    if isinstance(e, Bin):
        ka = infer_kind(e.a, env)
        kb = infer_kind(e.b, env)
        if ka != kb:
            raise TypeMismatchError(f"operands of {e.op!r} disagree: {ka} vs {kb}")
        if e.op in _ARITH:
            if ka not in _NUMERIC:
                raise TypeMismatchError(f"{e.op!r} expects numeric operands, got {ka}")
            return ka
        if e.op in _COMPARE:
            if ka not in _NUMERIC:
                raise TypeMismatchError(f"{e.op!r} expects numeric operands, got {ka}")
            return BaseType.BOOL
        if e.op == "==":
            return BaseType.BOOL
        if e.op in _BOOLOPS:
            if ka != BaseType.BOOL:
                raise TypeMismatchError(f"{e.op!r} expects Bool operands, got {ka}")
            return BaseType.BOOL
        raise TypeMismatchError(f"unknown binary op {e.op!r}")
    if isinstance(e, Ite):
        kc = infer_kind(e.cond, env)
        if kc != BaseType.BOOL:
            raise TypeMismatchError(f"if condition must be Bool, got {kc}")
        kt = infer_kind(e.then, env)
        ke = infer_kind(e.orelse, env)
        if kt != ke:
            raise TypeMismatchError(f"if branches disagree: {kt} vs {ke}")
        return kt
    raise TypeMismatchError(f"not an expression: {e!r}")


def free_refs(e: Expr) -> frozenset:
    if isinstance(e, Lit):
        return frozenset()
    if isinstance(e, Ref):
        return frozenset((e.name,))
    if isinstance(e, Un):
        return free_refs(e.a)
    if isinstance(e, Bin):
        return free_refs(e.a) | free_refs(e.b)
    if isinstance(e, Ite):
        return free_refs(e.cond) | free_refs(e.then) | free_refs(e.orelse)
    raise TypeMismatchError(f"not an expression: {e!r}")


def subst_refs(e: Expr, mapping: Mapping[str, str]) -> Expr:
    if isinstance(e, Lit):
        return e
    if isinstance(e, Ref):
        return Ref(mapping.get(e.name, e.name))
    if isinstance(e, Un):
        return Un(e.op, subst_refs(e.a, mapping))
    if isinstance(e, Bin):
        return Bin(e.op, subst_refs(e.a, mapping), subst_refs(e.b, mapping))
    if isinstance(e, Ite):
        return Ite(
            subst_refs(e.cond, mapping),
            subst_refs(e.then, mapping),
            subst_refs(e.orelse, mapping),
        )
    raise TypeMismatchError(f"not an expression: {e!r}")


@dataclass(frozen=True)
class ExprFun:
    """A tuple-valued function [p1,...,pn -> e1,...,em] over named parameters.

    Parameter k stands for the function's k-th argument: an atom reads its
    inputs by position, so the names are local to the function.
    Construction validates the bodies and keeps the kinds it infers as
    ``out_kinds``."""

    params: tuple  # tuple[Var, ...]
    bodies: tuple  # tuple[Expr, ...]
    in_kinds: TypeList = field(init=False, repr=False, compare=False)
    out_kinds: TypeList = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        env = {p.name: p.ty for p in self.params}
        if len(env) != len(self.params):
            names = [p.name for p in self.params]
            raise TypeMismatchError(f"duplicate parameter names: {names}")
        out_kinds = []
        for body in self.bodies:
            missing = free_refs(body).difference(env)
            if missing:
                raise TypeMismatchError(f"unbound names in body: {sorted(missing)}")
            out_kinds.append(infer_kind(body, env))
        object.__setattr__(self, "in_kinds", tuple(env.values()))
        object.__setattr__(self, "out_kinds", tuple(out_kinds))


def fmt_expr(e: Expr) -> str:
    if isinstance(e, Lit):
        return repr(e.value)
    if isinstance(e, Ref):
        return e.name
    if isinstance(e, Un):
        return f"({'-' if e.op == 'neg' else e.op} {fmt_expr(e.a)})"
    if isinstance(e, Bin):
        return f"({fmt_expr(e.a)} {e.op} {fmt_expr(e.b)})"
    if isinstance(e, Ite):
        return f"(if {fmt_expr(e.cond)} then {fmt_expr(e.then)} else {fmt_expr(e.orelse)})"
    return repr(e)
