"""Executable model of the algebra over flat pointed value domains.

Each base domain is extended with the unknown value ``BOT``; the order is
flat (``BOT <= v`` and otherwise only ``v <= v``).  Atoms evaluate their
expression function with strict bottom propagation, so every atom is
monotone, and feedback is the least fixpoint of the fed-back component,
computed by Kleene iteration starting from ``BOT``.  NaN equals NaN in the
fixpoint tests, so a wire that carries NaN settles.

A maximal tower of nested feedbacks is iterated jointly: the simultaneous
fixpoint, which equals the nested least fixpoints for monotone bodies
(Bekić's lemma).  The property tests check it against the literal
one-wire-at-a-time semantics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .errors import FixpointDivergence, TypeMismatchError
from .exprs import Bin, ExprFun, Ite, Lit, Ref, Un
from .terms import Atom, Feedback, Id, Parallel, Route, Serial, Sink, Split, Switch, Term
from .types import BaseType, TypeList


class _Bottom:
    __slots__ = ()

    def __repr__(self):
        return "bot"

    def __reduce__(self):
        return (_get_bot, ())


BOT = _Bottom()


def _get_bot():
    return BOT


_KINDS = {bool: BaseType.BOOL, int: BaseType.INT, float: BaseType.REAL}


def value_kind(v) -> Optional[BaseType]:
    kind = _KINDS.get(type(v))
    if kind is not None or v is BOT:
        return kind
    if isinstance(v, bool):
        return BaseType.BOOL
    if isinstance(v, int):
        return BaseType.INT
    if isinstance(v, float):
        return BaseType.REAL
    raise TypeMismatchError(f"not a value: {v!r}")


def check_kinds(values, t: TypeList, what: str = "input") -> None:
    if len(values) != len(t):
        raise TypeMismatchError(f"{what} arity {len(values)} != expected {len(t)}")
    for i, (v, k) in enumerate(zip(values, t)):
        kv = value_kind(v)
        if kv is not None and kv != k:
            raise TypeMismatchError(f"{what}[{i}] has kind {kv}, expected {k}")


# The iterations a feedback tower one wire wide may take; a tower w wires
# wide may take MAX_FIX_ITERS + w - 1.
MAX_FIX_ITERS = 8


@dataclass
class EvalStats:
    """Fixpoint census.  ``feedback_runs`` holds (tower width, Kleene
    iterations), one per tower ``eval_term`` iterated on values.
    ``symbolic_runs`` holds (total tower width, passes), one per term with
    towers that the symbolic evaluator solved jointly.  Compiled rows run
    no fixpoint, so ``Compiled.run`` records nothing."""

    feedback_runs: list = field(default_factory=list)
    symbolic_runs: list = field(default_factory=list)

    def record(self, width: int, iters: int) -> None:
        self.feedback_runs.append((width, iters))


# -- scalar operations of the reference evaluator -----------------------------

def op_neg(a):
    return BOT if a is BOT else -a


def op_not(a):
    return BOT if a is BOT else not a


def op_add(a, b):
    return BOT if a is BOT or b is BOT else a + b


def op_sub(a, b):
    return BOT if a is BOT or b is BOT else a - b


def op_mul(a, b):
    return BOT if a is BOT or b is BOT else a * b


def op_div(a, b):
    """Division; by-zero (and 0/0) yields bot to keep totality and monotonicity."""
    if a is BOT or b is BOT or b == 0:
        return BOT
    if isinstance(a, int):
        return a // b
    return a / b


def op_min(a, b):
    return BOT if a is BOT or b is BOT else min(a, b)


def op_max(a, b):
    return BOT if a is BOT or b is BOT else max(a, b)


def op_lt(a, b):
    return BOT if a is BOT or b is BOT else a < b


def op_le(a, b):
    return BOT if a is BOT or b is BOT else a <= b


def op_eq(a, b):
    return BOT if a is BOT or b is BOT else a == b


def op_and(a, b):
    return BOT if a is BOT or b is BOT else (a and b)


def op_or(a, b):
    return BOT if a is BOT or b is BOT else (a or b)


BINOPS = {
    "+": op_add,
    "-": op_sub,
    "*": op_mul,
    "/": op_div,
    "min": op_min,
    "max": op_max,
    "<": op_lt,
    "<=": op_le,
    "==": op_eq,
    "and": op_and,
    "or": op_or,
}


def _eval_expr_node(e, env):
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Ref):
        return env[e.name]
    if isinstance(e, Un):
        a = _eval_expr_node(e.a, env)
        return op_neg(a) if e.op == "neg" else op_not(a)
    if isinstance(e, Bin):
        return BINOPS[e.op](_eval_expr_node(e.a, env), _eval_expr_node(e.b, env))
    if isinstance(e, Ite):
        c = _eval_expr_node(e.cond, env)
        if c is BOT:
            return BOT
        return _eval_expr_node(e.then if c else e.orelse, env)
    raise TypeMismatchError(f"not an expression: {e!r}")


def eval_expr(fn: ExprFun, args):
    """Apply an expression function to a value tuple with bot propagation."""
    check_kinds(args, fn.in_kinds, "argument")
    env = {p.name: a for p, a in zip(fn.params, args)}
    return tuple(_eval_expr_node(body, env) for body in fn.bodies)


# -- term evaluation ----------------------------------------------------------

def fixpoint_divergence(cap: int) -> FixpointDivergence:
    """The error for a feedback that has not settled within ``cap`` iterations."""
    return FixpointDivergence(
        f"no fixed point within {cap} iterations (non-monotone atom?)"
    )


def same_value(a, b) -> bool:
    """Equality of the fixpoint tests, under which NaN equals NaN.  Each loop
    tries plain ``==`` first and this only once the cap is reached, where a
    fed-back NaN, which never equals the NaN before it, counts as settled."""
    return a == b or (a != a and b != b)


def _collect_tower(term: Feedback):
    n = 0
    while isinstance(term, Feedback):
        n += 1
        term = term.body
    return n, term


def eval_term(term: Term, inputs, stats: Optional[EvalStats] = None):
    """Reference evaluator, the oracle of ``hbd.compiled``; input kinds must
    match the term's input types."""
    check_kinds(inputs, term.in_types, "input")
    return _ev(term, tuple(inputs), stats)


def _ev(term, vals, stats):
    if isinstance(term, Id):
        return vals
    if isinstance(term, Split):
        return vals + vals
    if isinstance(term, Sink):
        return ()
    if isinstance(term, Switch):
        n = len(term.t)
        return vals[n:] + vals[:n]
    if isinstance(term, Route):
        return tuple(BOT if i is None else vals[i] for i in term.imap)
    if isinstance(term, Atom):
        env = {p.name: a for p, a in zip(term.fn.params, vals)}
        return tuple(_eval_expr_node(b, env) for b in term.fn.bodies)
    if isinstance(term, Serial):
        return _ev(term.second, _ev(term.first, vals, stats), stats)
    if isinstance(term, Parallel):
        n = len(term.left.in_types)
        return _ev(term.left, vals[:n], stats) + _ev(term.right, vals[n:], stats)
    if isinstance(term, Feedback):
        n, body = _collect_tower(term)
        step = lambda xs: _ev(body, xs + vals, stats)  # noqa: E731
        return kleene(step, n, MAX_FIX_ITERS + n - 1, stats)
    raise TypeMismatchError(f"not a term: {term!r}")


def kleene(body, n: int, cap: int, stats: Optional[EvalStats] = None):
    """Joint Kleene iteration of a tower ``n`` wires wide: ``body`` maps the
    fed-back values to the body's outputs, and the iteration starts from bot.
    Returns the outputs after the fed-back ones once these settle, and
    records (n, iterations) in ``stats.feedback_runs``.  On monotone bodies
    the tower settles within n + 1 iterations, inside the cap; a tower that
    has not settled by the cap raises ``FixpointDivergence``."""
    xs = (BOT,) * n
    iters = 0
    while True:
        out = body(xs)
        iters += 1
        new = out[:n]
        if new == xs:
            break
        if iters >= cap:
            if all(map(same_value, new, xs)):
                break
            raise fixpoint_divergence(cap)
        xs = new
    if stats is not None:
        stats.record(n, iters)
    return out[n:]


# -- input sampling and monotonicity ------------------------------------------

_REAL_POOL = (-3.5, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0, 7.5)
_INT_POOL = (-5, -2, -1, 0, 1, 2, 3, 7)


def _random_value(rng: random.Random, k: BaseType):
    if rng.random() < 0.25:
        return BOT
    if k == BaseType.BOOL:
        return rng.random() < 0.5
    if k == BaseType.INT:
        return rng.choice(_INT_POOL) if rng.random() < 0.7 else rng.randint(-50, 50)
    return (
        rng.choice(_REAL_POOL)
        if rng.random() < 0.7
        else round(rng.uniform(-10.0, 10.0), 3)
    )


def sample_inputs(t: TypeList, n: int, seed: int):
    """Deterministic input tuples for type ``t``.

    All-Bool types are enumerated exhaustively, bot included, when the full
    domain fits in ``n`` tuples; otherwise coordinates are drawn
    independently, with probability 1/4 of bot per coordinate.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if not t:
        return [()]
    if all(k == BaseType.BOOL for k in t):
        domain = (BOT, True, False)
        if len(domain) ** len(t) <= n:
            out = [()]
            for _ in t:
                out = [tup + (v,) for tup in out for v in domain]
            return out
    rng = random.Random(seed)
    return [tuple(_random_value(rng, k) for k in t) for _ in range(n)]
