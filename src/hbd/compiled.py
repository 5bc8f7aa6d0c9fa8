"""Batch evaluator used by the sampling oracles.

Compiles a term once and evaluates it on many input tuples at a time,
column-wise.  Regions built purely from wiring (identity, split, sink,
switch, route, and their serial/parallel/feedback compositions) collapse to
index maps, so the per-sample cost is dominated by atoms and fixpoint
iterations rather than by plumbing size.

Semantics are identical to ``semantics.eval_term`` (same scalar kernels,
same joint Kleene iteration); the two evaluators are cross-checked by a
property test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import TypeMismatchError
from .exprs import Bin, ExprFun, Ite, Lit, Ref, Un
from .semantics import (
    BOT,
    DEFAULT_CONFIG,
    EvalConfig,
    EvalStats,
    binop_table,
    check_kinds,
    fixpoint_divergence,
    op_neg,
    op_not,
)
from .terms import Atom, Feedback, Id, Parallel, Route, Serial, Sink, Split, Switch, Term

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
    __slots__ = ("closures",)

    def __init__(self, in_arity: int, closures):
        self.in_arity = in_arity
        self.out_arity = len(closures)
        self.closures = closures

    def run(self, cols, ctx):
        rows = list(zip(*cols)) if cols else [()] * ctx.m
        return [[f(row) for row in rows] for f in self.closures]


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


def compile_exprfun(fn: ExprFun, cfg: EvalConfig):
    """Each body becomes a closure over the argument row."""
    binops = binop_table(cfg)
    index = {p.name: i for i, p in enumerate(fn.params)}

    def comp(e):
        if isinstance(e, Lit):
            v = e.value
            return lambda row: v
        if isinstance(e, Ref):
            i = index[e.name]
            return lambda row: row[i]
        if isinstance(e, Un):
            fa = comp(e.a)
            op = op_neg if e.op == "neg" else op_not
            return lambda row: op(fa(row))
        if isinstance(e, Bin):
            fa, fb = comp(e.a), comp(e.b)
            op = binops[e.op]
            return lambda row: op(fa(row), fb(row))
        if isinstance(e, Ite):
            fc, ft, fe = comp(e.cond), comp(e.then), comp(e.orelse)

            def ite(row):
                c = fc(row)
                if c is BOT:
                    return BOT
                return ft(row) if c else fe(row)

            return ite
        raise TypeMismatchError(f"not an expression: {e!r}")

    return [comp(b) for b in fn.bodies]


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
        return _AtomC(len(term.fn.params), compile_exprfun(term.fn, cfg))
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
