"""Shared generators for the property suites."""

import random

from hbd import semantics
from hbd.axioms import _random_expr
from hbd.exprs import Bin, ExprFun, Ite, Lit, Ref, Un
from hbd.io_diagrams import IoDiagram, switch_vars
from hbd.symbolic import Graph
from hbd.terms import mk_atom, mk_feedback, mk_serial
from hbd.types import BaseType, Var

KINDS = (BaseType.REAL, BaseType.INT, BaseType.BOOL)
R, I, B = KINDS

# Zero and negative divisors, big ints, signed zeros and infinities, so that
# floor division, NaN and exact Int arithmetic all occur.
VALUES = {
    R: (0.0, -0.0, 1.0, -2.5, 3.0, float("inf"), -float("inf")),
    I: (0, 1, -1, 3, -7, 2**80, -(2**80), 2**80 + 1),
    B: (True, False),
}


def _leaf(rng, params, want):
    pool = [p for p in params if p.ty is want]
    if pool and rng.random() < 0.6:
        return Ref(rng.choice(pool).name)
    return Lit(rng.choice(VALUES[want]))


def expr_all_ops(rng: random.Random, params, want, depth):
    """A type-correct expression of kind ``want`` using every operator."""
    if depth <= 0 or rng.random() < 0.2:
        return _leaf(rng, params, want)
    sub = lambda k: expr_all_ops(rng, params, k, depth - 1)  # noqa: E731
    if rng.random() < 0.15:
        return Ite(sub(B), sub(want), sub(want))
    if want is B:
        choice = rng.random()
        if choice < 0.4:
            k = rng.choice((R, I))
            return Bin(rng.choice(("<", "<=", "==")), sub(k), sub(k))
        if choice < 0.55:
            return Un("not", sub(B))
        if choice < 0.65:
            return Bin("==", sub(B), sub(B))
        return Bin(rng.choice(("and", "or")), sub(B), sub(B))
    if rng.random() < 0.1:
        return Un("neg", sub(want))
    op = rng.choice(("+", "-", "*", "*", "/", "/", "min", "max"))
    return Bin(op, sub(want), sub(want))


def growing_tower(x_body):
    """The tower x = x_body around [x, u, c -> x_body, x * 2.0]; with
    x_body = ite(c, u, x) its graph grows one node per iteration and never
    settles, so the term is undecided and runs on ``eval_term``."""
    params = (Var("x", R), Var("u", R), Var("c", B))
    y = Bin("*", Ref("x"), Lit(2.0))
    return mk_feedback(mk_atom("F", ExprFun(params, (x_body, y))))


def decided(term) -> bool:
    """Whether every feedback tower of ``term`` settles as a graph, so that
    ``compile_term`` makes it straight-line code rather than ``eval_term``."""
    graph = Graph()
    symbols = [graph.symbol(i) for i in range(len(term.in_types))]
    return graph.outputs(term, symbols) is not None


def non_monotone_neg(monkeypatch):
    """The expression language cannot express a non-monotone atom, so the
    reference evaluator's ``neg`` becomes x -> 0.0 on bot and x + 1.0
    otherwise, which never settles in an undecided term."""
    monkeypatch.setattr(
        semantics, "op_neg", lambda x: 0.0 if x is semantics.BOT else x + 1.0
    )


def random_io_list(rng: random.Random, n: int, names: int = 8, real_only=False):
    """An io-distinct list of atom diagrams.

    Every variable has at most one producer and at most one consumer, which
    both yields io-distinctness and mirrors the single-source/single-target
    wire discipline of normalized documents.
    """
    pool = [
        Var(f"x{rng.randrange(10**6)}_{i}", BaseType.REAL if real_only else rng.choice(KINDS))
        for i in range(names)
    ]
    producer = {v: rng.randrange(-1, n) for v in pool}
    consumer = {v: rng.randrange(-1, n) for v in pool}
    diagrams = []
    for i in range(n):
        ins = tuple(v for v in pool if consumer[v] == i)
        outs = tuple(v for v in pool if producer[v] == i)
        params = tuple(Var(f"p{k}", v.ty) for k, v in enumerate(ins))
        bodies = tuple(_random_expr(rng, params, v.ty, 2) for v in outs)
        diagrams.append(
            IoDiagram(ins, outs, mk_atom(f"blk{rng.randrange(10**6)}", ExprFun(params, bodies)))
        )
    return diagrams


def perm_variant(rng: random.Random, a: IoDiagram) -> IoDiagram:
    """An io-diagram equivalent to ``a`` with permuted interface lists."""
    ins = list(a.inputs)
    outs = list(a.outputs)
    rng.shuffle(ins)
    rng.shuffle(outs)
    ins, outs = tuple(ins), tuple(outs)
    body = mk_serial(switch_vars(ins, a.inputs), mk_serial(a.body, switch_vars(a.outputs, outs)))
    return IoDiagram(ins, outs, body)
