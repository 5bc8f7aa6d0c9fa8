"""Shared generators for the property suites."""

import random
from dataclasses import dataclass
from functools import reduce

from hbd import semantics
from hbd.axioms import _random_expr
from hbd.exprs import Bin, ExprFun, Ite, Lit, Ref, Un
from hbd.feedbackless import (
    internal_serial,
    internal_vars,
    oi_rel,
    validate_ok_fbless,
)
from hbd.compiled import compile_term
from hbd.errors import CompositionError, SchemaError
from hbd.io_diagrams import (
    IoDiagram,
    beside,
    chain,
    fold_parallel,
    switch_vars,
)
from hbd.sim import SimTrace, StepRow, _check_row, _typed
from hbd.symbolic import BOT as BOT_NODE, Graph, _operands
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
    iter_subterms,
)
from hbd.types import BaseType, Var, types_of

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
    if want == B:
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


def free_refs(e) -> frozenset:
    """The parameter names ``e`` reads, by a walk of its own: the oracle of
    ``ExprFun.reads``."""
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
    raise TypeError(f"not an expression: {e!r}")


def growing_tower(x_body):
    """The tower x = x_body around [x, u, c -> x_body, x * 2.0]; with
    x_body = ite(c, u, x) its graph grows one node per iteration and never
    repeats, so its symbolic solve stops at the cap, though on values it
    settles within two iterations."""
    params = (Var("x", R), Var("u", R), Var("c", B))
    y = Bin("*", Ref("x"), Lit(2.0))
    return Feedback(Atom("F", ExprFun(params, (x_body, y))))


def non_monotone_neg(monkeypatch):
    """The expression language cannot express a non-monotone atom, so the
    reference evaluator's ``neg`` becomes x -> 0.0 on bot and x + 1.0
    otherwise: fed back through ``eval_term``, it never settles."""
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
            IoDiagram(ins, outs, Atom(f"blk{rng.randrange(10**6)}", ExprFun(params, bodies)))
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
        diagrams.append(IoDiagram(ins, outs, Atom(f"blk{i}", ExprFun(params, bodies))))
    return diagrams


def perm_variant(rng: random.Random, a: IoDiagram) -> IoDiagram:
    """An io-diagram equivalent to ``a`` with permuted interface lists."""
    ins = list(a.inputs)
    outs = list(a.outputs)
    rng.shuffle(ins)
    rng.shuffle(outs)
    ins, outs = tuple(ins), tuple(outs)
    body = Serial(switch_vars(ins, a.inputs), Serial(a.body, switch_vars(a.outputs, outs)))
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


def _successors(rel) -> dict:
    """Each name of ``rel`` -> the set of names it is paired with."""
    succ: dict = {}
    for a, b in rel:
        succ.setdefault(a, set()).add(b)
    return succ


def transitive_closure(rel) -> frozenset:
    """Every pair (a, c) with a path from a to c in ``rel``."""
    succ = _successors(rel)
    closure = {a: set(bs) for a, bs in succ.items()}
    changed = True
    while changed:
        changed = False
        for a in closure:
            extra = set()
            for b in closure[a]:
                extra |= closure.get(b, set())
            if not extra <= closure[a]:
                closure[a] |= extra
                changed = True
    return frozenset((a, b) for a, bs in closure.items() for b in bs)


def loop_free_oracle(items) -> bool:
    """No pair (x, x) in the transitive closure of the dependency relation."""
    return all(a != b for a, b in transitive_closure(oi_rel(items)))


def topological_order_oracle(blocks) -> list:
    """``topological_order``, testing every pair of internal variables."""
    reads = {b.outputs[0].name: b.in_pos for b in blocks}
    first_seen = {b.outputs[0].name: i for i, b in enumerate(blocks)}
    nodes = sorted(internal_vars(blocks), key=lambda v: first_seen[v])
    succs = [{j for j, w in enumerate(nodes) if u in reads[w]} for u in nodes]
    return [nodes[i] for i in stable_topo_order_oracle(succs)]


def random_order(blocks, seed) -> list:
    """The internal variable names, listed as their producers appear in
    ``blocks`` and then shuffled by ``random.Random(seed)``."""
    first_seen = {b.outputs[0].name: i for i, b in enumerate(blocks)}
    order = sorted(internal_vars(blocks), key=first_seen.__getitem__)
    random.Random(seed).shuffle(order)
    return order


def fbless_translate_oracle(blocks, order) -> IoDiagram:
    """Compose each producer into every remaining block, each step."""
    blocks = list(blocks)
    validate_ok_fbless(blocks)
    for u in order:
        producer = next(b for b in blocks if b.outputs[0].name == u)
        rest = [b for b in blocks if b is not producer]
        blocks = [internal_serial(producer, b) for b in rest]
    return fold_parallel(blocks)


def shared_serials(term) -> list:
    """The ``Serial`` nodes of ``term`` reached along two or more paths from
    its root: compositions built once and reused, told apart by identity."""
    seen, shared = set(), {}
    for t in iter_subterms(term):  # a tree walk: one visit per path
        if isinstance(t, Serial):
            if id(t) in seen:
                shared[id(t)] = t
            seen.add(id(t))
    return list(shared.values())


# -- the variable-list compositions the indexed ones replaced, kept as oracles --
# They compare Vars, by name, through ``Var.__eq__`` and ``Var.__hash__``, and
# rebuild name sets and first-position dicts at every step.

def inter(x, y) -> tuple:
    """Common elements, in the order they occur in x."""
    ys = {v.name for v in y}
    return tuple(v for v in x if v.name in ys)


def minus(x, y) -> tuple:
    """Elements of x not occurring in y."""
    ys = {v.name for v in y}
    return tuple(v for v in x if v.name not in ys)


def union_ord(x, y) -> tuple:
    """x followed by the elements of y not in x."""
    return tuple(x) + minus(y, x)


def is_perm(x, y) -> bool:
    """True when x and y contain the same elements with the same multiplicities."""
    if len(x) != len(y):
        return False
    counts: dict = {}
    for v in x:
        counts[v.name] = counts.get(v.name, 0) + 1
    for v in y:
        c = counts.get(v.name, 0)
        if c == 0:
            return False
        counts[v.name] = c - 1
    return True


def vars_between(a: IoDiagram, b: IoDiagram) -> tuple:
    """Outputs of a that are inputs of b, in output order."""
    return inter(a.outputs, b.inputs)


def switch_vars_oracle(x, y):
    """``switch_vars`` by ``Var`` comparison and a first-position dict."""
    x = tuple(x)
    y = tuple(y)
    if y == x:
        return Id(types_of(x))
    if not y:
        return Sink(types_of(x))
    first: dict = {}
    for i, v in enumerate(x):
        first.setdefault(v.name, i)
    return Route(types_of(x), types_of(y), tuple(first.get(v.name) for v in y))


def named_serial_oracle(a: IoDiagram, b: IoDiagram) -> IoDiagram:
    v = vars_between(a, b)
    clash = inter(minus(a.outputs, b.inputs), b.outputs)
    if clash:
        names = ",".join(w.name for w in clash)
        raise CompositionError(
            f"serial composition would duplicate outputs: {names}"
        )
    x = minus(b.inputs, v)
    y = minus(a.outputs, v)
    ins = union_ord(a.inputs, x)
    outs = y + b.outputs
    body = chain(
        switch_vars_oracle(ins, a.inputs + x),
        beside(a.body, switch_vars_oracle(x, x)),
        switch_vars_oracle(a.outputs + x, y + b.inputs),
        beside(switch_vars_oracle(y, y), b.body),
    )
    return IoDiagram(ins, outs, body)


def named_feedback_oracle(a: IoDiagram) -> IoDiagram:
    v = inter(a.outputs, a.inputs)
    if not v:
        return a
    ins = minus(a.inputs, v)
    outs = minus(a.outputs, v)
    body = chain(
        switch_vars_oracle(v + ins, a.inputs),
        a.body,
        switch_vars_oracle(a.outputs, v + outs),
    )
    for w in v:
        body = Feedback(body)
    return IoDiagram(ins, outs, body)


def _parallel_pair(a: IoDiagram, b: IoDiagram) -> IoDiagram:
    """The pairwise rule: split the shared inputs, put the bodies side by side."""
    clash = inter(a.outputs, b.outputs)
    if clash:
        names = ",".join(w.name for w in clash)
        raise CompositionError(f"parallel composition output clash: {names}")
    ins = union_ord(a.inputs, b.inputs)
    body = chain(switch_vars_oracle(ins, a.inputs + b.inputs), beside(a.body, b.body))
    return IoDiagram(ins, a.outputs + b.outputs, body)


def fold_parallel_oracle(ds) -> IoDiagram:
    """Fold pair by pair, validating every partial fold."""
    return reduce(_parallel_pair, ds)


def named_parallel(a: IoDiagram, b: IoDiagram) -> IoDiagram:
    """Side-by-side composition; shared input names are split."""
    return fold_parallel((a, b))


# -- checks that only the tests make ---------------------------------------------

def is_arb(term) -> bool:
    """Whether ``term`` is an Arb constant, ``Feedback(Split((a,)))``."""
    return (
        isinstance(term, Feedback)
        and isinstance(term.body, Split)
        and len(term.body.t) == 1
    )


def feedbacks_outside_arb(term) -> int:
    """Count Feedback nodes that are not the one inside an Arb constant."""
    return sum(
        1 for t in iter_subterms(term) if isinstance(t, Feedback) and not is_arb(t)
    )


def graph_reads(term) -> list:
    """For each output of ``term``, the sorted input positions that its
    symbolic output graph (``hbd.symbolic``) reaches: the inputs it reads,
    found without looking at the term's wiring."""
    graph = Graph()
    outs = graph.outputs(term, [graph.symbol(i) for i in range(len(term.in_types))])
    reads = []
    for node in outs:
        found, seen, stack = set(), {node}, [node]
        while stack:
            key = graph.keys[stack.pop()]
            if key[0] == "in":
                found.add(key[1])
            for n in _operands(key):
                if n not in seen:
                    seen.add(n)
                    stack.append(n)
        reads.append(sorted(found))
    return reads


@dataclass
class MonotoneReport:
    checked: int
    counterexamples: list

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def __bool__(self) -> bool:
        return self.ok


def value_leq(v, w) -> bool:
    """Flat order: bot below everything, concrete values only below themselves."""
    return v is semantics.BOT or (
        w is not semantics.BOT
        and semantics.value_kind(v) is semantics.value_kind(w)
        and v == w
    )


def tuple_leq(vs, ws) -> bool:
    return len(vs) == len(ws) and all(value_leq(v, w) for v, w in zip(vs, ws))


def check_monotone(term, samples: int, seed: int) -> MonotoneReport:
    """Sample ordered input pairs v <= w and verify eval(v) <= eval(w)."""
    rng = random.Random(seed)
    highs = semantics.sample_inputs(term.in_types, samples, rng.randrange(2**32))
    lows = [
        tuple(semantics.BOT if rng.random() < 0.4 else v for v in w) for w in highs
    ]
    compiled = compile_term(term)
    out_low = compiled.run(lows)
    out_high = compiled.run(highs)
    bad = [
        (lo, hi, ol, oh)
        for lo, hi, ol, oh in zip(lows, highs, out_low, out_high)
        if not tuple_leq(ol, oh)
    ]
    return MonotoneReport(checked=len(highs), counterexamples=bad)


def print_term_oracle(term) -> str:
    """The recursive printer, one string per subterm."""
    if isinstance(term, Id):
        return "(id" + "".join(" " + t for t in term.t) + ")"
    if isinstance(term, Split):
        return "(split" + "".join(" " + t for t in term.t) + ")"
    if isinstance(term, Sink):
        return "(sink" + "".join(" " + t for t in term.t) + ")"
    if isinstance(term, Switch):
        left = " ".join(term.t)
        right = " ".join(term.t2)
        return f"(switch ({left}) ({right}))"
    if isinstance(term, Route):
        left = " ".join(term.t)
        right = " ".join(term.t2)
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


# -- the nested feedback solvers the joint ones replaced, kept as oracles -------

def nested_outputs_oracle(graph, term, inputs):
    """``graph.outputs`` as a recursive walk that Kleene-iterates each maximal
    tower on its own, inside every iteration of the towers around it, until
    its fed-back nodes repeat or it reaches its own cap
    ``MAX_FIX_ITERS + width - 1``.  A tower is solved once per tuple of
    input nodes within one call."""
    solved = {}  # (id(Feedback), input nodes) -> its output nodes

    def tree_node(t, args):
        if t[0] == "arg":
            return args[t[1]]
        if t[0] == "lit":
            return graph.lit(t[1])
        return graph.apply(t[0], *[tree_node(c, args) for c in t[1:]])

    def ev(term, vals):
        if isinstance(term, Serial):
            return ev(term.second, ev(term.first, vals))
        if isinstance(term, Parallel):
            n = len(term.left.in_types)
            return ev(term.left, vals[:n]) + ev(term.right, vals[n:])
        if isinstance(term, Route):
            return tuple(BOT_NODE if i is None else vals[i] for i in term.imap)
        if isinstance(term, Atom):
            return tuple(tree_node(t, vals) for t in term.fn.trees)
        if isinstance(term, Id):
            return vals
        if isinstance(term, Split):
            return vals + vals
        if isinstance(term, Sink):
            return ()
        if isinstance(term, Switch):
            n = len(term.t)
            return vals[n:] + vals[:n]
        if isinstance(term, Feedback):
            key = (id(term), vals)
            if key not in solved:
                solved[key] = tower(term, vals)
            return solved[key]
        raise TypeError(f"not a term: {term!r}")

    def tower(term, vals):
        n, body = semantics._collect_tower(term)
        xs = (BOT_NODE,) * n
        cap = semantics.MAX_FIX_ITERS + n - 1
        iters = 0
        while True:
            out = ev(body, xs + vals)
            iters += 1
            if out[:n] == xs or iters >= cap:
                break
            xs = out[:n]
        return out[n:]

    return ev(term, tuple(inputs))


def nested_eval_term(term, inputs, stats=None):
    """``eval_term`` with the literal one-wire-at-a-time semantics of
    feedback: each ``Feedback`` is its own least fixpoint, iterated inside
    every iteration of the feedbacks around it with the cap
    ``MAX_FIX_ITERS``, and records (1, iterations) in
    ``stats.feedback_runs``."""

    def ev(term, vals):
        if isinstance(term, Serial):
            return ev(term.second, ev(term.first, vals))
        if isinstance(term, Parallel):
            n = len(term.left.in_types)
            return ev(term.left, vals[:n]) + ev(term.right, vals[n:])
        if isinstance(term, Feedback):
            return feedback_single(term.body, vals)
        return semantics._ev(term, vals, stats)  # holds no feedback

    def feedback_single(body, vals):
        x, iters, cap = semantics.BOT, 0, semantics.MAX_FIX_ITERS
        while True:
            out = ev(body, (x,) + vals)
            iters += 1
            if value_leq(out[0], x) and value_leq(x, out[0]):
                break
            if iters >= cap:
                if semantics.same_value(out[0], x):
                    break
                raise semantics.fixpoint_divergence(cap)
            x = out[0]
        if stats is not None:
            stats.record(1, iters)
        return out[1:]

    semantics.check_kinds(inputs, term.in_types, "input")
    return ev(term, tuple(inputs))


def simulate_translated_oracle(diagram, state_table, rows):
    """``sim.simulate_translated`` as one ``Compiled.run`` call per step:
    per step, a list of the diagram's inputs, each external one checked by
    ``_typed`` as it is read, and the next state picked out by position.
    Row-wise: its ``steps`` are the ``StepRow``s it builds step by step, not
    ones read back from its columns."""
    compiled = compile_term(diagram.body)
    out_names = [v.name for v in diagram.outputs]
    out_pos = {name: i for i, name in enumerate(out_names)}
    for e in state_table:
        if e.next_state.name not in out_pos:
            raise SchemaError(
                f"translated diagram lost next-state variable {e.next_state.name}"
            )
    state_names = [e.state.name for e in state_table]
    state_pos = {name: i for i, name in enumerate(state_names)}
    sources = [(state_pos.get(v.name), v) for v in diagram.inputs]
    ext_in = [v for pos, v in sources if pos is None]
    ext_names = {v.name for v in ext_in}
    next_pos = [out_pos[e.next_state.name] for e in state_table]

    state = tuple(e.init for e in state_table)
    trace = SimTrace([v.name for v in ext_in], out_names, state_names, state)
    steps = []
    for step, row in enumerate(rows):
        _check_row(row, ext_names, f"step {step}")
        values = [
            _typed(row[v.name], v, step) if pos is None else state[pos] for pos, v in sources
        ]
        (out,) = compiled.run([values], validate=False)
        new_state = tuple(out[i] for i in next_pos)
        steps.append(
            StepRow(
                inputs={v.name: row[v.name] for v in ext_in},
                outputs=dict(zip(out_names, out)),
                state_before=dict(zip(state_names, state)),
                state_after=dict(zip(state_names, new_state)),
            )
        )
        trace.inputs.append(tuple(row[v.name] for v in ext_in))
        trace.outputs.append(tuple(out))
        trace.states.append(new_state)
        state = new_state
    trace.steps = steps
    return trace


# -- block library -----------------------------------------------------------

def library_ports(kind: str, t: BaseType):
    """The ports of a library block of type ``t``, as (params giving that
    type, in ports, out ports, initial states); None when ``kind`` has no
    block of type ``t``.  The oracle for the ports the block specs read
    from their functions.  The logical blocks ignore ``type``."""
    value = {R: 1.5, I: 2, B: True}[t]
    binary = (("a", t), ("b", t))
    if kind in ("Add", "Sub", "Min", "Max", "Div", "Mul"):
        return None if t == B else ({}, binary, (("out", t),), ())
    if kind == "Relational":
        return None if t == B else ({}, binary, (("out", B),), ())
    if kind in ("LogicalAnd", "LogicalOr"):
        return {}, (("a", B), ("b", B)), (("out", B),), ()
    if kind == "LogicalNot":
        return {}, (("a", B),), (("out", B),), ()
    if kind == "Gain":
        return None if t == B else ({"k": value}, (("a", t),), (("out", t),), ())
    if kind == "Constant":
        return {"value": value}, (), (("out", t),), ()
    if kind == "UnitDelay":
        return {"init": value}, (("x", t),), (("y", t),), (value,)
    if kind == "SplitBlk":
        return {}, (("x", t),), (("out1", t), ("out2", t)), ()
    if kind == "Identity":
        return {}, (("x", t),), (("out", t),), ()
    if kind == "SwitchBlk":
        return {}, (("c", B), ("t", t), ("e", t)), (("out", t),), ()
    raise KeyError(kind)


# -- nested documents --------------------------------------------------------

# Small documents with subsystem instances, shared by the frontend and
# simulation suites.

SUB_DOC = {
    "version": 1,
    "name": "outer",
    "inputs": [{"name": "u", "type": "Real", "to": "S1.p"}],
    "outputs": [{"name": "y", "type": "Real", "from": "S1.q"}],
    "blocks": [{"id": "S1", "kind": "Inner"}],
    "wires": [],
    "subsystems": {
        "Inner": {
            "version": 1,
            "name": "inner",
            "inputs": [{"name": "p", "type": "Real", "to": "Sum.b"}],
            "outputs": [{"name": "q", "type": "Real", "from": "Spl.out2"}],
            "blocks": [
                {"id": "Sum", "kind": "Add"},
                {"id": "Dly", "kind": "UnitDelay", "params": {"init": 0.0}},
                {"id": "Spl", "kind": "SplitBlk"},
            ],
            "wires": [
                {"from": "Sum.out", "to": "Dly.x"},
                {"from": "Dly.y", "to": "Spl.x"},
                {"from": "Spl.out1", "to": "Sum.a"},
            ],
        }
    },
}


# Two inputs and two outputs around a Sub block; the outer document lists
# the instance's ports in the reverse of the subsystem's declared order, so
# renaming them by position in the outer document would swap them.
DIFF_DOC = {
    "version": 1,
    "name": "outer-diff",
    "inputs": [
        {"name": "x", "type": "Real", "to": "G.a"},
        {"name": "y", "type": "Real", "to": "S1.p"},
    ],
    "outputs": [
        {"name": "o1", "type": "Real", "from": "S1.e"},
        {"name": "o2", "type": "Real", "from": "S1.d"},
    ],
    "blocks": [
        {"id": "G", "kind": "Gain", "params": {"k": 2.0}},
        {"id": "S1", "kind": "Diff"},
    ],
    "wires": [{"from": "G.out", "to": "S1.q"}],
    "subsystems": {
        "Diff": {
            "version": 1,
            "name": "diff",
            "inputs": [
                {"name": "p", "type": "Real", "to": "Sub.a"},
                {"name": "q", "type": "Real", "to": ["Sub.b", "K.a"]},
            ],
            "outputs": [
                {"name": "d", "type": "Real", "from": "Sub.out"},
                {"name": "e", "type": "Real", "from": "K.out"},
            ],
            "blocks": [
                {"id": "Sub", "kind": "Sub"},
                {"id": "K", "kind": "Gain", "params": {"k": 3.0}},
            ],
            "wires": [],
        }
    },
}


TWINS_DOC = {
    "version": 1,
    "name": "twins",
    "inputs": [
        {"name": "u1", "type": "Real", "to": "S1.p"},
        {"name": "u2", "type": "Real", "to": "S2.p"},
    ],
    "outputs": [{"name": "y", "type": "Real", "from": "Sum.out"}],
    "blocks": [
        {"id": "S1", "kind": "Inner"},
        {"id": "S2", "kind": "Inner"},
        {"id": "Sum", "kind": "Add"},
    ],
    "wires": [
        {"from": "S1.q", "to": "Sum.a"},
        {"from": "S2.q", "to": "Sum.b"},
    ],
    "subsystems": SUB_DOC["subsystems"],
}


FANOUT_DOC = {
    "version": 1,
    "name": "fan-out",
    "inputs": [{"name": "u", "type": "Real", "to": "G.a"}],
    "outputs": [
        {"name": "y", "type": "Real", "from": "S1.q"},
        {"name": "z", "type": "Real", "from": "H.out"},
    ],
    "blocks": [
        {"id": "G", "kind": "Gain", "params": {"k": 2.0}},
        {"id": "S1", "kind": "Pair"},
        {"id": "H", "kind": "Gain", "params": {"k": 10.0}},
    ],
    "wires": [{"from": "G.out", "to": "S1.p"}, {"from": "G.out", "to": "H.a"}],
    "subsystems": {
        "Pair": {
            "version": 1,
            "name": "pair",
            "inputs": [{"name": "p", "type": "Real", "to": ["A.a", "B.a"]}],
            "outputs": [{"name": "q", "type": "Real", "from": "Sum.out"}],
            "blocks": [
                {"id": "A", "kind": "Gain", "params": {"k": 3.0}},
                {"id": "B", "kind": "Gain", "params": {"k": 5.0}},
                {"id": "Sum", "kind": "Add"},
            ],
            "wires": [{"from": "A.out", "to": "Sum.a"}, {"from": "B.out", "to": "Sum.b"}],
        }
    },
}


# Three levels: ``Mid`` defines ``Inner``, and the gain-and-delay ``G`` is
# defined only at the top but instantiated at every level, twice in
# ``Inner``, so ``Inner`` and ``Mid`` reach it through inherited scope.
_G = {
    "version": 1,
    "name": "g",
    "inputs": [{"name": "a", "type": "Real", "to": ["K.a", "D.x"]}],
    "outputs": [{"name": "b", "type": "Real", "from": "S.out"}],
    "blocks": [
        {"id": "K", "kind": "Gain", "params": {"k": 2.0}},
        {"id": "D", "kind": "UnitDelay", "params": {"init": 1.0}},
        {"id": "S", "kind": "Add"},
    ],
    "wires": [{"from": "K.out", "to": "S.a"}, {"from": "D.y", "to": "S.b"}],
}
_INNER = {
    "version": 1,
    "name": "inner",
    "inputs": [{"name": "p", "type": "Real", "to": ["G1.a", "G2.a"]}],
    "outputs": [
        {"name": "q", "type": "Real", "from": "A.out"},
        {"name": "r", "type": "Real", "from": "G2.b"},
    ],
    "blocks": [{"id": "G1", "kind": "G"}, {"id": "G2", "kind": "G"}, {"id": "A", "kind": "Add"}],
    "wires": [{"from": "G1.b", "to": "A.a"}, {"from": "G2.b", "to": "A.b"}],
}
INHERITED_DOC = {
    "version": 1,
    "name": "inherited",
    "inputs": [{"name": "u", "type": "Real", "to": ["M.m", "T.a"]}],
    "outputs": [
        {"name": "y", "type": "Real", "from": "M.n"},
        {"name": "z", "type": "Real", "from": "M.o"},
        {"name": "w", "type": "Real", "from": "T.b"},
    ],
    "blocks": [{"id": "M", "kind": "Mid"}, {"id": "T", "kind": "G"}],
    "wires": [],
    "subsystems": {
        "G": _G,
        "Mid": {
            "version": 1,
            "name": "mid",
            "inputs": [{"name": "m", "type": "Real", "to": "I.p"}],
            "outputs": [
                {"name": "n", "type": "Real", "from": "I.q"},
                {"name": "o", "type": "Real", "from": "H.b"},
            ],
            "blocks": [{"id": "I", "kind": "Inner"}, {"id": "H", "kind": "G"}],
            "wires": [{"from": "I.r", "to": "H.a"}],
            "subsystems": {"Inner": _INNER},
        },
    },
}


# A switch whose output feeds its own else input: the graph of every
# translation of it grows one node per pass and stops at the cap.
LATCH = {
    "version": 1,
    "name": "latch",
    "inputs": [
        {"name": "c", "type": "Bool", "to": "S.c"},
        {"name": "u", "type": "Real", "to": "S.t"},
    ],
    "outputs": [{"name": "y", "type": "Real", "from": "S.out"}],
    "blocks": [{"id": "S", "kind": "SwitchBlk"}],
    "wires": [{"from": "S.out", "to": "S.e"}],
}
