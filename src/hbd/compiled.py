"""Batch evaluator of the sampling oracles.  The harness runs it once per
class of equal output graphs (``hbd.symbolic``).

Compiles a term once into a flat register program and evaluates it on many
input tuples at a time, column-wise.  Wiring (identity, split, sink, switch,
route, and their serial/parallel/feedback compositions) is resolved at
compile time to register numbers and emits no step, so the per-sample cost
is that of atoms and fixpoint iterations rather than of plumbing size.  An
atom is one step that runs a generated column kernel, one list
comprehension per output, whose code is compiled once per shape and shared
by every atom of that shape.  A feedback tower around atoms is one loop
step over its body's program; only such loops nest at run time.

Semantics are identical to ``semantics.eval_term`` (the kernels inline its
scalar operations; same joint Kleene iteration, whose settle test reads NaN
as equal to NaN once plain ``==`` has failed up to the cap); the two
evaluators are cross-checked by property tests.
"""

from __future__ import annotations

import functools
import itertools
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
    _collect_tower,
    check_kinds,
    fixpoint_divergence,
    same_value,
)
from .terms import Atom, Feedback, Id, Parallel, Route, Serial, Sink, Split, Switch, Term
from .types import BaseType


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


# A program is a list of steps over a register file: numbered slots that hold
# one column each, register 0 the unknown (bot) column.  An atom step is
# (kernel, input registers, output registers, None); a loop step, one
# feedback tower, is (None, fed-back registers, new-value registers, body
# program).  Wiring emits no step: it only decides which registers later
# steps read.


def _emit(term: Term, regs: list, steps: list, fresh, cfg: EvalConfig) -> list:
    """Append ``term``'s steps to ``steps`` given the registers holding its
    inputs; returns the registers holding its outputs."""
    if isinstance(term, Id):
        return regs
    if isinstance(term, Split):
        return regs + regs
    if isinstance(term, Sink):
        return []
    if isinstance(term, Switch):
        n = len(term.t)
        return regs[n:] + regs[:n]
    if isinstance(term, Route):
        return [0 if i is None else regs[i] for i in term.imap]
    if isinstance(term, Atom):
        outs = [next(fresh) for _ in term.fn.bodies]
        steps.append((compile_exprfun(term.fn, cfg), regs, outs, None))
        return outs
    if isinstance(term, Serial):
        mid = _emit(term.first, regs, steps, fresh, cfg)
        return _emit(term.second, mid, steps, fresh, cfg)
    if isinstance(term, Parallel):
        n = len(term.left.in_types)
        left = _emit(term.left, regs[:n], steps, fresh, cfg)
        return left + _emit(term.right, regs[n:], steps, fresh, cfg)
    if isinstance(term, Feedback):
        n, body = _collect_tower(term)
        fed = [next(fresh) for _ in range(n)]
        program = []
        outs = _emit(body, fed + regs, program, fresh, cfg)
        if program:
            steps.append((None, fed, outs[:n], program))
            return outs[n:]
        # Pure wiring: a fed-back wire settles on the register that its chain
        # of fed-back wires ends at (within n links), or on bot in a cycle.
        new = dict(zip(fed, outs[:n]))
        ends = []
        for r in outs[n:]:
            for _ in range(n):
                r = new.get(r, r)
            ends.append(0 if r in new else r)
        return ends
    raise TypeMismatchError(f"not a term: {term!r}")


def _exec(steps: list, regs: list, m: int, stats, max_fix_iters: int) -> None:
    for kernel, ins, outs, program in steps:
        if program is None:
            for r, col in zip(outs, kernel([regs[i] for i in ins], m)):
                regs[r] = col
            continue
        # joint Kleene iteration of the tower from bot; ``ins`` are fed back
        n = len(ins)
        xs = [regs[0]] * n
        iters = 0
        cap = max_fix_iters + n - 1
        while True:
            for r, col in zip(ins, xs):
                regs[r] = col
            _exec(program, regs, m, stats, max_fix_iters)
            iters += 1
            new = [regs[r] for r in outs]
            if new == xs:
                break
            if iters >= cap:
                if all(map(same_value, itertools.chain(*new), itertools.chain(*xs))):
                    break
                raise fixpoint_divergence(cap)
            xs = new
        if stats is not None:
            stats.record(n, iters)


@dataclass
class Compiled:
    steps: list
    outs: list  # the registers holding the term's outputs
    size: int  # registers in the file
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
        regs = [None] * self.size
        regs[0] = [BOT] * m
        if self.in_types:
            regs[1 : 1 + len(self.in_types)] = [list(col) for col in zip(*rows)]
        _exec(self.steps, regs, m, stats, self.cfg.max_fix_iters)
        if not self.outs:
            return [()] * m
        return list(zip(*(regs[r] for r in self.outs)))

    def run_one(self, row, stats: Optional[EvalStats] = None):
        return self.run([row], stats=stats)[0]


def compile_term(term: Term, cfg: EvalConfig = DEFAULT_CONFIG) -> Compiled:
    term.typing
    fresh = itertools.count(1 + len(term.in_types))
    steps = []
    outs = _emit(term, list(range(1, 1 + len(term.in_types))), steps, fresh, cfg)
    return Compiled(steps, outs, next(fresh), term.in_types, term.out_types, cfg)
