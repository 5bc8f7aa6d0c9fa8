"""Feedback-free translation for deterministic, algebraic-loop-free diagrams.

Multi-output blocks are first split into single-output blocks carrying
accurate per-output input dependencies.  If the refined output->input
dependency relation has no cycle (Kahn's algorithm, ``loop_free``),
internal variables are eliminated one at a time by composing each producer
serially into all of its consumers, found through a name -> readers index;
the surviving blocks are folded in parallel.  The bookkeeping around the
compositions is linear in the diagram.  The result contains no feedback
operator outside Arb constants.  ``check_deterministic`` checks a block's
determinism equation with the harness's oracle, ``term_cells``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial

from .errors import PreconditionError
from .io_diagrams import (
    EquivConfig,
    IoDiagram,
    equivalence_samples,
    fold_parallel,
    named_serial,
    switch_vars,
)
from .terms import Atom, Id, Serial, Term, iter_subterms, mk_atom, mk_parallel, mk_serial
from .exprs import ExprFun, Ref, free_refs
from .translator import stable_topo_order
from .types import Var, types_of


@dataclass(frozen=True)
class SplitBlock:
    """A single-output io-diagram plus the inputs its output really reads."""

    base: IoDiagram
    deps: frozenset  # frozenset[Var]

    def __post_init__(self):
        if len(self.base.outputs) != 1:
            raise PreconditionError(
                f"split block must have one output, got {self.base.outputs}"
            )
        if not self.deps <= set(self.base.inputs):
            raise PreconditionError("deps must be a subset of the inputs")

    @property
    def output(self) -> Var:
        return self.base.outputs[0]


def check_deterministic(a: IoDiagram, samples: int = 64) -> bool:
    """Check of [x -> x,x] ;; (S || S) == S ;; [y -> y,y] by the harness's
    oracle, ``term_cells``: proved when both sides have equal output graphs,
    sampled otherwise.  A side that finds no fixed point fails the check."""
    from .harness import term_cells  # the harness imports this module

    x = a.inputs
    y = a.outputs
    lhs = mk_serial(switch_vars(x, x + x), mk_parallel(a.body, a.body))
    rhs = mk_serial(a.body, switch_vars(y, y + y))
    rows = partial(equivalence_samples, types_of(x), EquivConfig(samples=samples))
    return bool(term_cells([lhs, rhs], rows)[0][1])


def split_block(a: IoDiagram) -> list:
    """One single-output block per output of ``a``.

    Per-output dependencies are the free variables of the output's
    expression when the body is an atom, and fall back to the full input
    list otherwise (the generic projection ``S ;; [u1..un -> ui]``, which
    over-approximates dependencies).
    """
    if len(a.outputs) == 1:
        return [SplitBlock(a, _deps_for(a, 0))]
    out = []
    for i, u in enumerate(a.outputs):
        deps = _deps_for(a, i)
        if isinstance(a.body, Atom):
            body_expr = a.body.fn.bodies[i]
            kept = tuple(v for v in a.inputs if v in deps)
            if isinstance(body_expr, Ref):
                src = next(v for v in a.inputs if v.name == body_expr.name)
                base = IoDiagram((src,), (u,), Id((src.ty,)))
            else:
                fn = ExprFun(tuple(kept), (body_expr,))
                base = IoDiagram(
                    kept, (u,), mk_atom(f"{a.body.name}.{u.name}", fn)
                )
            out.append(SplitBlock(base, frozenset(kept)))
        else:
            body = mk_serial(a.body, switch_vars(a.outputs, (u,)))
            out.append(SplitBlock(IoDiagram(a.inputs, (u,), body), deps))
    return out


def _deps_for(a, i) -> frozenset:
    if isinstance(a.body, Atom):
        names = free_refs(a.body.fn.bodies[i])
        return frozenset(v for v in a.inputs if v.name in names)
    return frozenset(a.inputs)


def oi_rel(items) -> frozenset:
    """Output->input dependency pairs.

    For plain io-diagrams this is the full product set(O) x set(I); for
    split blocks the refined per-output dependencies are used.
    """
    pairs = set()
    for it in items:
        if isinstance(it, SplitBlock):
            pairs.update((it.output, v) for v in it.deps)
        else:
            pairs.update(
                (o, v) for o in set(it.outputs) for v in set(it.inputs)
            )
    return frozenset(pairs)


def _successors(rel):
    succ: dict = {}
    for a, b in rel:
        succ.setdefault(a, set()).add(b)
    return succ


def transitive_closure(rel) -> frozenset:
    """Every pair (a, c) with a path from a to c in ``rel``.  The tests
    check ``loop_free`` against it."""
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


def loop_free(items) -> bool:
    """No variable reaches itself through the dependency relation: Kahn's
    algorithm removes every variable of ``oi_rel(items)``.  A variable on a
    cycle, a self-loop included, never runs out of predecessors."""
    succ: dict = {}
    indeg: dict = {}
    for a, b in oi_rel(items):
        succ.setdefault(a.name, []).append(b.name)
        indeg[b.name] = indeg.get(b.name, 0) + 1
        indeg.setdefault(a.name, 0)
    ready = [v for v, k in indeg.items() if k == 0]
    removed = 0
    while ready:
        v = ready.pop()
        removed += 1
        for w in succ.get(v, ()):
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return removed == len(indeg)


def find_cycle(items):
    """A witness path x -> ... -> x in the dependency relation, or None."""
    succ = _successors(oi_rel(items))
    for start in sorted(succ, key=lambda v: v.name):
        stack = [(start, [start])]
        seen = set()
        while stack:
            node, path = stack.pop()
            for nxt in sorted(succ.get(node, ()), key=lambda v: v.name):
                if nxt == start:
                    return path + [start]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, path + [nxt]))
    return None


def internal_vars(blocks) -> set:
    """Variables produced by one block and consumed by another."""
    produced = {b.output for b in blocks}
    consumed = set()
    for b in blocks:
        consumed.update(b.base.inputs)
    return produced & consumed


def internal_serial(a: SplitBlock, b: SplitBlock) -> SplitBlock:
    """a |> b: compose serially only when b consumes a's output."""
    if a.output in set(b.base.inputs):
        base = named_serial(a.base, b.base)
        deps = (b.deps - {a.output}) | a.deps
        return SplitBlock(base, deps & set(base.inputs))
    return b


def _internal_by_first_seen(blocks) -> list:
    """Internal variables in the order their producers appear in ``blocks``."""
    first_seen = {b.output: i for i, b in enumerate(blocks)}
    return sorted(internal_vars(blocks), key=lambda v: first_seen[v])


@dataclass(frozen=True)
class GivenOrder:
    names: tuple  # tuple of variable names or Vars, elimination order

    def order(self, blocks) -> list:
        internal = internal_vars(blocks)
        by_name = {v.name: v for v in internal}
        order = []
        for item in self.names:
            name = item.name if isinstance(item, Var) else item
            if name not in by_name:
                raise PreconditionError(
                    f"GivenOrder names unknown internal variable {name!r}"
                )
            order.append(by_name[name])
        if set(order) != internal or len(order) != len(internal):
            raise PreconditionError(
                "GivenOrder must list every internal variable exactly once"
            )
        return order


@dataclass(frozen=True)
class Topological:
    def order(self, blocks) -> list:
        # u precedes w when w's producer reads u: eliminating upstream
        # variables first maximizes reuse of already-composed producers.
        deps_of = {b.output.name: b.deps for b in blocks}
        nodes = _internal_by_first_seen(blocks)
        index = {u.name: i for i, u in enumerate(nodes)}
        succs = [set() for _ in nodes]
        for j, w in enumerate(nodes):
            for u in deps_of[w.name]:
                if u.name in index:
                    succs[index[u.name]].add(j)
        return [nodes[i] for i in stable_topo_order(succs)]


@dataclass(frozen=True)
class RandomOrder:
    seed: int

    def order(self, blocks) -> list:
        order = _internal_by_first_seen(blocks)
        random.Random(self.seed).shuffle(order)
        return order


def validate_ok_fbless(blocks) -> None:
    if not blocks:
        raise PreconditionError("feedbackless translation needs at least one block")
    outs = [b.output for b in blocks]
    if len(set(outs)) != len(outs):
        raise PreconditionError(
            f"feedbackless translation: duplicate outputs: {[v.name for v in outs]}"
        )
    if not loop_free(blocks):
        cycle = find_cycle(blocks)
        path = " -> ".join(v.name for v in cycle) if cycle else "?"
        raise PreconditionError(f"feedbackless translation: algebraic loop: {path}")


def ok_fbless(blocks) -> bool:
    try:
        validate_ok_fbless(blocks)
        return True
    except PreconditionError:
        return False


def fbless_translate(blocks, order_policy=Topological()) -> IoDiagram:
    """Algorithm: eliminate one internal variable per step, then fold in
    parallel.  ``order_policy`` (GivenOrder, Topological or RandomOrder)
    picks the elimination order.

    The blocks keep their list positions (slots), and the survivors fold in
    list order.  ``producer`` maps an output name to its slot and
    ``readers`` maps a name to the slots whose inputs hold it, so
    eliminating ``u`` composes its producer into the blocks of
    ``readers[u]`` alone, and every ``internal_serial`` call composes."""
    slots = list(blocks)
    validate_ok_fbless(slots)
    order = order_policy.order(slots)
    producer = {b.output.name: i for i, b in enumerate(slots)}
    readers: dict = {}
    for i, b in enumerate(slots):
        for v in b.base.inputs:
            readers.setdefault(v.name, set()).add(i)
    for u in order:
        p = producer.pop(u.name)
        a, slots[p] = slots[p], None
        for v in a.base.inputs:
            readers[v.name].discard(p)
        for i in readers.pop(u.name, ()):
            slots[i] = internal_serial(a, slots[i])
            for v in slots[i].base.inputs:
                readers.setdefault(v.name, set()).add(i)
    return fold_parallel([b.base for b in slots if b is not None])


@dataclass
class SharingStats:
    """Structural census of serial subterms that contain at least one atom."""

    total: int = 0
    distinct: int = 0
    repeated: dict = field(default_factory=dict)  # subterm -> occurrence count


def count_shared_compositions(term: Term) -> SharingStats:
    has_atom: dict = {}

    def atom_in(t) -> bool:
        if id(t) in has_atom:
            return has_atom[id(t)]
        if isinstance(t, Atom):
            r = True
        elif isinstance(t, Serial):
            r = atom_in(t.first) or atom_in(t.second)
        elif hasattr(t, "left"):
            r = atom_in(t.left) or atom_in(t.right)
        elif hasattr(t, "body"):
            r = atom_in(t.body)
        else:
            r = False
        has_atom[id(t)] = r
        return r

    counts: dict = {}
    for sub in iter_subterms(term):
        if isinstance(sub, Serial) and atom_in(sub):
            counts[sub] = counts.get(sub, 0) + 1
    stats = SharingStats(
        total=sum(counts.values()),
        distinct=len(counts),
        repeated={t: c for t, c in counts.items() if c >= 2},
    )
    return stats
