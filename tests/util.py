"""Shared generators for the property suites."""

import random
from functools import reduce

from hbd import semantics
from hbd.axioms import _random_expr
from hbd.exprs import Bin, ExprFun, Ite, Lit, Ref, Un
from hbd.feedbackless import (
    internal_serial,
    internal_vars,
    oi_rel,
    transitive_closure,
    validate_ok_fbless,
)
from hbd.errors import CompositionError
from hbd.io_diagrams import (
    IoDiagram,
    beside,
    chain,
    fold_parallel,
    inter,
    switch_vars,
    union_ord,
)
from hbd.symbolic import Graph
from hbd.terms import (
    Atom,
    Feedback,
    Id,
    Parallel,
    Route,
    Serial,
    Sink,
    Split,
    Switch,
    mk_atom,
    mk_feedback,
    mk_serial,
)
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


def shared_input_list(rng: random.Random, n: int, names: int = 6):
    """Atom diagrams whose inputs come from one small pool of names, so most
    elements share an input name with the elements before them; every
    output name is fresh."""
    pool = [Var(f"s{i}", rng.choice(KINDS)) for i in range(names)]
    diagrams = []
    for i in range(n):
        ins = tuple(rng.sample(pool, rng.randint(0, 3)))
        outs = tuple(Var(f"o{i}_{k}", rng.choice(KINDS)) for k in range(rng.randint(1, 2)))
        params = tuple(Var(f"p{k}", v.ty) for k, v in enumerate(ins))
        bodies = tuple(_random_expr(rng, params, v.ty, 2) for v in outs)
        diagrams.append(IoDiagram(ins, outs, mk_atom(f"blk{i}", ExprFun(params, bodies))))
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


# -- the quadratic definitions the indexed ones replaced, kept as oracles ------

def stable_topo_order_oracle(succs) -> list:
    """Rescan all remaining nodes for the smallest ready one at every step."""
    n = len(succs)
    indeg = [0] * n
    for i in range(n):
        for j in succs[i]:
            indeg[j] += 1
    remaining = set(range(n))
    order = []
    while remaining:
        ready = [i for i in sorted(remaining) if indeg[i] == 0]
        pick = ready[0] if ready else min(remaining)
        remaining.discard(pick)
        order.append(pick)
        for j in succs[pick]:
            if j in remaining:
                indeg[j] -= 1
    return order


def topo_order_oracle(ds) -> list:
    """Test every ordered pair of diagrams for a shared wire."""
    n = len(ds)
    out_sets = [set(d.outputs) for d in ds]
    in_sets = [set(d.inputs) for d in ds]
    succs = [
        {j for j in range(n) if j != i and out_sets[i] & in_sets[j]}
        for i in range(n)
    ]
    return [ds[i] for i in stable_topo_order_oracle(succs)]


def loop_free_oracle(items) -> bool:
    """No pair (x, x) in the transitive closure of the dependency relation."""
    return all(a != b for a, b in transitive_closure(oi_rel(items)))


class TopologicalOracle:
    """``Topological``'s order, testing every pair of internal variables."""

    def order(self, blocks) -> list:
        deps_of = {b.output: b.deps for b in blocks}
        first_seen = {b.output: i for i, b in enumerate(blocks)}
        nodes = sorted(internal_vars(blocks), key=lambda v: first_seen[v])
        succs = [{j for j, w in enumerate(nodes) if u in deps_of[w]} for u in nodes]
        return [nodes[i] for i in stable_topo_order_oracle(succs)]


def fbless_translate_oracle(blocks, order_policy) -> IoDiagram:
    """Compose each producer into every remaining block, each step."""
    blocks = list(blocks)
    validate_ok_fbless(blocks)
    for u in order_policy.order(blocks):
        producer = next(b for b in blocks if b.output == u)
        rest = [b for b in blocks if b is not producer]
        blocks = [internal_serial(producer, b) for b in rest]
    return fold_parallel([b.base for b in blocks])


def _parallel_pair(a: IoDiagram, b: IoDiagram) -> IoDiagram:
    """The pairwise rule: split the shared inputs, put the bodies side by side."""
    clash = inter(a.outputs, b.outputs)
    if clash:
        names = ",".join(w.name for w in clash)
        raise CompositionError(f"parallel composition output clash: {names}")
    ins = union_ord(a.inputs, b.inputs)
    body = chain(switch_vars(ins, a.inputs + b.inputs), beside(a.body, b.body))
    return IoDiagram(ins, a.outputs + b.outputs, body)


def fold_parallel_oracle(ds) -> IoDiagram:
    """Fold pair by pair, validating every partial fold."""
    return reduce(_parallel_pair, ds)


def print_term_oracle(term) -> str:
    """The recursive printer, one string per subterm."""
    if isinstance(term, Id):
        return "(id" + "".join(" " + t.value for t in term.t) + ")"
    if isinstance(term, Split):
        return "(split" + "".join(" " + t.value for t in term.t) + ")"
    if isinstance(term, Sink):
        return "(sink" + "".join(" " + t.value for t in term.t) + ")"
    if isinstance(term, Switch):
        left = " ".join(t.value for t in term.t)
        right = " ".join(t.value for t in term.t2)
        return f"(switch ({left}) ({right}))"
    if isinstance(term, Route):
        left = " ".join(t.value for t in term.t)
        right = " ".join(t.value for t in term.t2)
        idx = " ".join("_" if i is None else str(i) for i in term.imap)
        return f"(route ({left}) ({right}) ({idx}))"
    if isinstance(term, Atom):
        return f"(atom {term.name})"
    if isinstance(term, Serial):
        return f"(serial {print_term_oracle(term.first)} {print_term_oracle(term.second)})"
    if isinstance(term, Parallel):
        return f"(par {print_term_oracle(term.left)} {print_term_oracle(term.right)})"
    if isinstance(term, Feedback):
        return f"(feedback {print_term_oracle(term.body)})"
    raise TypeError(f"not a term: {term!r}")
