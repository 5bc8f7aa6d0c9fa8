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


def _analyse(e: Expr, env: Mapping[str, tuple], reads: set) -> tuple:
    """(kind, op tree) of ``e``, whose parameters ``env`` maps to (position,
    kind); adds the positions ``e`` reads to ``reads``.  Raises
    TypeMismatchError at the first fault the walk meets."""
    if isinstance(e, Lit):
        return lit_kind(e.value), ("lit", e.value)
    if isinstance(e, Ref):
        if e.name not in env:
            raise TypeMismatchError(f"unbound names in body: {[e.name]}")
        k, kind = env[e.name]
        reads.add(k)
        return kind, ("arg", k)
    if isinstance(e, Un):
        k, a = _analyse(e.a, env, reads)
        if e.op == "neg":
            if k not in _NUMERIC:
                raise TypeMismatchError(f"neg expects a numeric operand, got {k}")
        elif e.op == "not":
            if k != BaseType.BOOL:
                raise TypeMismatchError(f"not expects Bool, got {k}")
        else:
            raise TypeMismatchError(f"unknown unary op {e.op!r}")
        return k, (e.op, a)
    if isinstance(e, Bin):
        ka, a = _analyse(e.a, env, reads)
        kb, b = _analyse(e.b, env, reads)
        if ka != kb:
            raise TypeMismatchError(f"operands of {e.op!r} disagree: {ka} vs {kb}")
        if e.op in _ARITH or e.op in _COMPARE:
            if ka not in _NUMERIC:
                raise TypeMismatchError(f"{e.op!r} expects numeric operands, got {ka}")
        elif e.op in _BOOLOPS:
            if ka != BaseType.BOOL:
                raise TypeMismatchError(f"{e.op!r} expects Bool operands, got {ka}")
        elif e.op != "==":
            raise TypeMismatchError(f"unknown binary op {e.op!r}")
        op = "//" if e.op == "/" and ka == BaseType.INT else e.op
        return (ka if e.op in _ARITH else BaseType.BOOL), (op, a, b)
    if isinstance(e, Ite):
        kc, c = _analyse(e.cond, env, reads)
        if kc != BaseType.BOOL:
            raise TypeMismatchError(f"if condition must be Bool, got {kc}")
        kt, t = _analyse(e.then, env, reads)
        ke, f = _analyse(e.orelse, env, reads)
        if kt != ke:
            raise TypeMismatchError(f"if branches disagree: {kt} vs {ke}")
        return kt, ("ite", c, t, f)
    raise TypeMismatchError(f"not an expression: {e!r}")


@dataclass(frozen=True)
class ExprFun:
    """A tuple-valued function [p1,...,pn -> e1,...,em] over named parameters.

    Parameter k stands for the function's k-th argument: an atom reads its
    inputs by position, so the names are local to the function.
    Construction checks each body in one walk and keeps what it finds:
    ``out_kinds``, the kind of each body; ``reads``, the sorted positions
    each body reads; and ``trees``, each body as an op tree over positions,
    made of ``("arg", k)``, ``("lit", value)`` and ``(op, *operand trees)``
    nodes, with ``/`` of Ints written ``//`` (it floors)."""

    params: tuple  # tuple[Var, ...]
    bodies: tuple  # tuple[Expr, ...]
    in_kinds: TypeList = field(init=False, repr=False, compare=False)
    out_kinds: TypeList = field(init=False, repr=False, compare=False)
    reads: tuple = field(init=False, repr=False, compare=False)
    trees: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        env = {p.name: (k, p.ty) for k, p in enumerate(self.params)}
        if len(env) != len(self.params):
            names = [p.name for p in self.params]
            raise TypeMismatchError(f"duplicate parameter names: {names}")
        out_kinds, reads, trees = [], [], []
        for body in self.bodies:
            read = set()
            kind, tree = _analyse(body, env, read)
            out_kinds.append(kind)
            reads.append(tuple(sorted(read)))
            trees.append(tree)
        object.__setattr__(self, "in_kinds", tuple(p.ty for p in self.params))
        object.__setattr__(self, "out_kinds", tuple(out_kinds))
        object.__setattr__(self, "reads", tuple(reads))
        object.__setattr__(self, "trees", tuple(trees))


def fmt_expr(e: Expr, names: Mapping[str, str]) -> str:
    """``e`` as text, each parameter shown by its name in ``names``."""
    if isinstance(e, Lit):
        return repr(e.value)
    if isinstance(e, Ref):
        return names[e.name]
    if isinstance(e, Un):
        return f"({'-' if e.op == 'neg' else e.op} {fmt_expr(e.a, names)})"
    if isinstance(e, Bin):
        return f"({fmt_expr(e.a, names)} {e.op} {fmt_expr(e.b, names)})"
    if isinstance(e, Ite):
        return (
            f"(if {fmt_expr(e.cond, names)} then {fmt_expr(e.then, names)}"
            f" else {fmt_expr(e.orelse, names)})"
        )
    return repr(e)
