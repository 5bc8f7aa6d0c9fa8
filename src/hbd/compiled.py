"""Batch evaluator used by the sampling oracles.

Compiles a term once and evaluates it on many input tuples at a time,
column-wise.  Regions built purely from wiring (identity, split, sink,
switch, route, and their serial/parallel/feedback compositions) collapse to
index maps, so the per-sample cost is dominated by atoms and fixpoint
iterations rather than by plumbing size.  Each atom becomes a generated
column kernel, one list comprehension per output, whose code is compiled
once per shape and shared by every atom of that shape.

Semantics are identical to ``semantics.eval_term`` (the kernels inline its
scalar operations; same joint Kleene iteration); the two evaluators are
cross-checked by property tests.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass
from typing import Optional

from .errors import TypeMismatchError
from .exprs import Bin, ExprFun, Ite, Lit, Ref, Un, infer_kind
from .semantics import (
    BOT,
    DEFAULT_CONFIG,
    EvalConfig,
    EvalStats,
    check_kinds,
    fixpoint_divergence,
)
from .terms import Atom, Feedback, Id, Parallel, Route, Serial, Sink, Split, Switch, Term
from .types import BaseType

# An index map sends each output position to an input position, or to None
# for a constantly-unknown output.
IndexMap = tuple


class _Ctx:
    __slots__ = ("m", "bot_col", "stats", "max_fix_iters")

    def __init__(self, m: int, stats, max_fix_iters: int):
        self.m = m
        self.bot_col = [BOT] * m
        self.stats = stats
        self.max_fix_iters = max_fix_iters


class _Node:
    __slots__ = ("in_arity", "out_arity")

    def run(self, cols, ctx):  # pragma: no cover - interface
        raise NotImplementedError


class _MapC(_Node):
    __slots__ = ("imap",)

    def __init__(self, in_arity: int, imap: IndexMap):
        self.in_arity = in_arity
        self.out_arity = len(imap)
        self.imap = imap

    def run(self, cols, ctx):
        return [ctx.bot_col if i is None else cols[i] for i in self.imap]


class _AtomC(_Node):
    __slots__ = ("kernel",)

    def __init__(self, in_arity: int, out_arity: int, kernel):
        self.in_arity = in_arity
        self.out_arity = out_arity
        self.kernel = kernel

    def run(self, cols, ctx):
        return self.kernel(cols, ctx.m)


class _SerialC(_Node):
    __slots__ = ("a", "b")

    def __init__(self, a: _Node, b: _Node):
        self.a = a
        self.b = b
        self.in_arity = a.in_arity
        self.out_arity = b.out_arity

    def run(self, cols, ctx):
        return self.b.run(self.a.run(cols, ctx), ctx)


class _ParC(_Node):
    __slots__ = ("left", "right")

    def __init__(self, left: _Node, right: _Node):
        self.left = left
        self.right = right
        self.in_arity = left.in_arity + right.in_arity
        self.out_arity = left.out_arity + right.out_arity

    def run(self, cols, ctx):
        n = self.left.in_arity
        return self.left.run(cols[:n], ctx) + self.right.run(cols[n:], ctx)


class _FbC(_Node):
    __slots__ = ("n", "body")

    def __init__(self, n: int, body: _Node):
        self.n = n
        self.body = body
        self.in_arity = body.in_arity - n
        self.out_arity = body.out_arity - n

    def run(self, cols, ctx):
        n = self.n
        xs = [ctx.bot_col] * n
        iters = 0
        cap = ctx.max_fix_iters + n - 1
        while True:
            res = self.body.run(xs + cols, ctx)
            iters += 1
            new = res[:n]
            if new == xs:
                if ctx.stats is not None:
                    ctx.stats.record(n, iters)
                return res[n:]
            if iters >= cap:
                raise fixpoint_divergence(cap, (v for col in new for v in col))
            xs = new


def _map_serial(m1: _MapC, m2: _MapC) -> _MapC:
    imap = tuple(None if i is None else m1.imap[i] for i in m2.imap)
    return _MapC(m1.in_arity, imap)


def _map_parallel(m1: _MapC, m2: _MapC) -> _MapC:
    shifted = tuple(None if i is None else i + m1.in_arity for i in m2.imap)
    return _MapC(m1.in_arity + m2.in_arity, m1.imap + shifted)


def _map_feedback(m: _MapC) -> _MapC:
    first = m.imap[0]
    x = None if first is None or first == 0 else first - 1
    rest = tuple(
        None if i is None else (x if i == 0 else i - 1) for i in m.imap[1:]
    )
    return _MapC(m.in_arity - 1, rest)


class _KernelSource:
    """Source text of one atom's column kernel.

    Parameters become the row variables ``v0``.. (their columns ``c0``..),
    literals the names ``k0``.. that ``bind`` receives, and each non-leaf
    operand a temporary ``t0``.. assigned where it is first evaluated, so
    the text holds no wire name and no literal value.  Each rule below is
    the matching scalar operation of ``semantics`` written inline.
    """

    def __init__(self, fn: ExprFun, cfg: EvalConfig):
        self.index = {p.name: i for i, p in enumerate(fn.params)}
        self.kinds = {p.name: p.ty for p in fn.params}
        self.strict_multiply = cfg.strict_multiply
        self.lits = []
        self.temps = 0
        self.used = set()  # parameter indices read by the current body
        outs = "".join(f"            {self.column(b)},\n" for b in fn.bodies)
        names = ", ".join(f"k{i}" for i in range(len(self.lits)))
        unpack = "".join(f"c{i}, " for i in range(len(fn.params)))
        self.text = (
            f"def bind({names}):\n"
            "    def kernel(cols, m):\n"
            + (f"        {unpack}= cols\n" if unpack else "")
            + f"        return [\n{outs}        ]\n"
            "    return kernel\n"
        )

    def column(self, e) -> str:
        if isinstance(e, Ref):
            return f"c{self.index[e.name]}"  # the input column itself
        if isinstance(e, Lit):
            return f"[{self.expr(e)}] * m"
        self.used = set()
        code = self.expr(e)
        used = sorted(self.used)
        if not used:
            return f"[{code} for _ in range(m)]"
        if len(used) == 1:
            return f"[{code} for v{used[0]} in c{used[0]}]"
        names = ", ".join(f"v{i}" for i in used)
        return f"[{code} for {names} in zip({', '.join(f'c{i}' for i in used)})]"

    def operand(self, e):
        """(code evaluating ``e``, name holding it after, whether it can be
        bot); a literal is never bot."""
        if isinstance(e, (Lit, Ref)):
            name = self.expr(e)
            return name, name, isinstance(e, Ref)
        t = f"t{self.temps}"
        self.temps += 1
        return f"({t} := {self.expr(e)})", t, True

    @staticmethod
    def strict(operands, result: str, extra: str = "") -> str:
        guards = [f"{first} is BOT" for first, _, maybe_bot in operands if maybe_bot]
        if extra:
            guards.append(extra)
        return f"(BOT if {' or '.join(guards)} else {result})" if guards else result

    def expr(self, e) -> str:
        if isinstance(e, Lit):
            self.lits.append(e.value)
            return f"k{len(self.lits) - 1}"
        if isinstance(e, Ref):
            i = self.index[e.name]
            self.used.add(i)
            return f"v{i}"
        if isinstance(e, Un):
            a = self.operand(e.a)
            return self.strict([a], f"(-{a[1]})" if e.op == "neg" else f"(not {a[1]})")
        if isinstance(e, Ite):
            first, c, maybe_bot = self.operand(e.cond)
            pick = f"({self.expr(e.then)} if {c} else {self.expr(e.orelse)})"
            return f"(BOT if {first} is BOT else {pick})" if maybe_bot else pick
        if not isinstance(e, Bin):
            raise TypeMismatchError(f"not an expression: {e!r}")
        a, b = self.operand(e.a), self.operand(e.b)
        x, y = a[1], b[1]
        if e.op == "*" and not self.strict_multiply:
            # v * 0 == 0 even for unknown v; the zero's kind fixes the result kind
            return (
                f"({x} * {y} if ({a[0]} is not BOT) & ({b[0]} is not BOT) else "
                f"{x} if {x} is not BOT and {x} == 0 else "
                f"{y} if {y} is not BOT and {y} == 0 else BOT)"
            )
        if e.op == "/":
            # bot on a zero divisor; floor division on Int
            div = "//" if infer_kind(e.a, self.kinds) is BaseType.INT else "/"
            return self.strict([a, b], f"{x} {div} {y}", f"{y} == 0")
        if e.op == "min":  # min(x, y) and max(x, y) keep x unless y wins
            return self.strict([a, b], f"({y} if {y} < {x} else {x})")
        if e.op == "max":
            return self.strict([a, b], f"({y} if {y} > {x} else {x})")
        return self.strict([a, b], f"({x} {e.op} {y})")


@functools.lru_cache(maxsize=1024)
def _kernel_binder(text: str):
    namespace = {"BOT": BOT}
    exec(compile(text, "<atom kernel>", "exec"), namespace)
    return namespace["bind"]


# Kernels are pure functions, so every term that contains one expression
# function (the strategies of one diagram list share their atoms) reuses its
# kernel while the function lives.  Keyed by id: equal ExprFuns may differ in
# literal kind (1, 1.0, True) or sign (0.0, -0.0).
_KERNELS: dict = {}


def compile_exprfun(fn: ExprFun, cfg: EvalConfig):
    """The atom as a column kernel ``kernel(cols, m) -> out_cols``: one list
    comprehension per body over the input columns.  Kernels of one shape
    share their code; literal values are bound per instance."""
    key = (id(fn), cfg.strict_multiply)
    kernel = _KERNELS.get(key)
    if kernel is None:
        src = _KernelSource(fn, cfg)
        kernel = _KERNELS[key] = _kernel_binder(src.text)(*src.lits)
        weakref.finalize(fn, _KERNELS.pop, key, None)
    return kernel


def _compile(term: Term, cfg: EvalConfig) -> _Node:
    if isinstance(term, Id):
        n = len(term.t)
        return _MapC(n, tuple(range(n)))
    if isinstance(term, Split):
        n = len(term.t)
        return _MapC(n, tuple(range(n)) * 2)
    if isinstance(term, Sink):
        return _MapC(len(term.t), ())
    if isinstance(term, Switch):
        n, k = len(term.t), len(term.t2)
        return _MapC(n + k, tuple(range(n, n + k)) + tuple(range(n)))
    if isinstance(term, Route):
        return _MapC(len(term.t), term.imap)
    if isinstance(term, Atom):
        fn = term.fn
        return _AtomC(len(fn.params), len(fn.bodies), compile_exprfun(fn, cfg))
    if isinstance(term, Serial):
        a = _compile(term.first, cfg)
        b = _compile(term.second, cfg)
        if isinstance(a, _MapC) and isinstance(b, _MapC):
            return _map_serial(a, b)
        return _SerialC(a, b)
    if isinstance(term, Parallel):
        a = _compile(term.left, cfg)
        b = _compile(term.right, cfg)
        if isinstance(a, _MapC) and isinstance(b, _MapC):
            return _map_parallel(a, b)
        return _ParC(a, b)
    if isinstance(term, Feedback):
        n = 0
        inner = term
        while isinstance(inner, Feedback):
            n += 1
            inner = inner.body
        body = _compile(inner, cfg)
        if isinstance(body, _MapC):
            for _ in range(n):
                body = _map_feedback(body)
            return body
        return _FbC(n, body)
    raise TypeMismatchError(f"not a term: {term!r}")


@dataclass
class Compiled:
    root: _Node
    in_types: tuple
    out_types: tuple
    cfg: EvalConfig

    def run(self, rows, stats: Optional[EvalStats] = None, validate: bool = True):
        """Evaluate on a batch of input tuples; returns output tuples."""
        rows = list(rows)
        if validate:
            for row in rows:
                check_kinds(row, self.in_types, "input")
        m = len(rows)
        if m == 0:
            return []
        ctx = _Ctx(m, stats, self.cfg.max_fix_iters)
        cols = [list(col) for col in zip(*rows)] if self.in_types else []
        out_cols = self.root.run(cols, ctx)
        if not out_cols:
            return [()] * m
        return list(zip(*out_cols))

    def run_one(self, row, stats: Optional[EvalStats] = None):
        return self.run([row], stats=stats)[0]


def compile_term(term: Term, cfg: EvalConfig = DEFAULT_CONFIG) -> Compiled:
    term.typing
    return Compiled(_compile(term, cfg), term.in_types, term.out_types, cfg)
