"""Feedback-free translation for deterministic, algebraic-loop-free diagrams.

Multi-output blocks are first split into single-output blocks carrying
accurate per-output input dependencies.  An atom reads its inputs by
position: parameter k of its function stands for input k, so an output
depends on the inputs at the positions of the parameters its expression
reads, whatever the parameters are called.  If the refined output->input
dependency relation has no cycle (Kahn's algorithm, ``loop_free``),
internal variables are eliminated one at a time by composing each producer
serially into all of its consumers, found through a name -> readers index;
the surviving blocks are folded in parallel.  The bookkeeping around the
compositions is linear in the diagram, and keyed by variable name, as the
io-diagrams' own interface maps are: dependency sets, the dependency
relation, internal variables and elimination orders all hold names.  An
elimination order is a plain sequence of names, topological by default.  The
result contains no feedback operator outside Arb constants.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import PreconditionError
from .io_diagrams import IoDiagram, fold_parallel, named_serial, switch_vars
from .terms import Atom, Id, Serial
from .exprs import ExprFun, Ref
from .translator import stable_topo_order


@dataclass(frozen=True)
class SplitBlock:
    """A single-output io-diagram plus the names of the inputs its output
    really reads."""

    base: IoDiagram
    deps: frozenset  # frozenset[str]: names of inputs

    def __post_init__(self):
        if len(self.base.outputs) != 1:
            raise PreconditionError(
                f"split block must have one output, got {self.base.outputs}"
            )
        if not self.base.in_pos.keys() >= self.deps:
            raise PreconditionError("deps must be a subset of the input names")

    @property
    def name(self) -> str:
        """The name of the output."""
        return self.base.outputs[0].name


def split_block(a: IoDiagram) -> list:
    """One single-output block per output of ``a``.

    When the body is an atom, an output reads the inputs at the positions of
    the parameters its expression reads: its split atom keeps those
    parameters and takes those inputs.  Otherwise it falls back to the full
    input list (the generic projection ``S ;; [u1..un -> ui]``, which
    over-approximates dependencies).
    """
    if len(a.outputs) == 1:
        return [SplitBlock(a, _deps_for(a, 0))]
    out = []
    for i, u in enumerate(a.outputs):
        if isinstance(a.body, Atom):
            fn = a.body.fn
            kept = fn.reads[i]
            ins = tuple(a.inputs[k] for k in kept)
            if isinstance(fn.bodies[i], Ref):
                body = Id((ins[0].ty,))
            else:
                kept_fn = ExprFun(tuple(fn.params[k] for k in kept), (fn.bodies[i],))
                body = Atom(f"{a.body.name}.{u.name}", kept_fn)
        else:
            ins = a.inputs
            body = Serial(a.body, switch_vars(a.outputs, (u,)))
        out.append(SplitBlock(IoDiagram(ins, (u,), body), frozenset(v.name for v in ins)))
    return out


def _deps_for(a, i) -> frozenset:
    """The input names output ``i`` of ``a`` reads: parameter k of an atom
    stands for input k."""
    if isinstance(a.body, Atom):
        return frozenset(a.inputs[k].name for k in a.body.fn.reads[i])
    return frozenset(a.in_pos)


def oi_rel(items) -> frozenset:
    """Output->input dependency pairs, as name pairs.

    For plain io-diagrams this is the full product set(O) x set(I); for
    split blocks the refined per-output dependencies are used.
    """
    pairs = set()
    for it in items:
        if isinstance(it, SplitBlock):
            pairs.update((it.name, n) for n in it.deps)
        else:
            pairs.update(itertools.product(it.out_pos, it.in_pos))
    return frozenset(pairs)


def _successors(rel):
    succ: dict = {}
    for a, b in rel:
        succ.setdefault(a, set()).add(b)
    return succ


def loop_free(items) -> bool:
    """No variable reaches itself through the dependency relation: Kahn's
    algorithm removes every name of ``oi_rel(items)``.  A name on a cycle,
    a self-loop included, never runs out of predecessors."""
    succ: dict = {}
    indeg: dict = {}
    for a, b in oi_rel(items):
        succ.setdefault(a, []).append(b)
        indeg[b] = indeg.get(b, 0) + 1
        indeg.setdefault(a, 0)
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
    """A witness path of names x -> ... -> x in the dependency relation, or
    None."""
    succ = _successors(oi_rel(items))
    for start in sorted(succ):
        stack = [(start, [start])]
        seen = set()
        while stack:
            node, path = stack.pop()
            for nxt in sorted(succ.get(node, ())):
                if nxt == start:
                    return path + [start]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, path + [nxt]))
    return None


def internal_vars(blocks) -> set:
    """Names of the variables produced by one block and consumed by
    another."""
    produced = {b.name for b in blocks}
    consumed = set()
    for b in blocks:
        consumed.update(b.base.in_pos)
    return produced & consumed


def internal_serial(a: SplitBlock, b: SplitBlock) -> SplitBlock:
    """a |> b: compose serially only when b consumes a's output."""
    u = a.name
    if u in b.base.in_pos:
        base = named_serial(a.base, b.base)
        deps = b.deps.difference((u,)).union(a.deps)
        return SplitBlock(base, deps.intersection(base.in_pos))
    return b


def topological_order(blocks) -> list:
    """The internal variable names, upstream first: u precedes w when w's
    producer reads u, which maximizes reuse of already-composed producers.
    Ties go to the name whose producer comes first in ``blocks``."""
    deps_of = {b.name: b.deps for b in blocks}
    first_seen = {b.name: i for i, b in enumerate(blocks)}
    nodes = sorted(internal_vars(blocks), key=first_seen.__getitem__)
    index = {u: i for i, u in enumerate(nodes)}
    succs = [set() for _ in nodes]
    for j, w in enumerate(nodes):
        for u in deps_of[w]:
            if u in index:
                succs[index[u]].add(j)
    return [nodes[i] for i in stable_topo_order(succs)]


def validate_ok_fbless(blocks) -> None:
    if not blocks:
        raise PreconditionError("feedbackless translation needs at least one block")
    outs = [b.name for b in blocks]
    if len(set(outs)) != len(outs):
        raise PreconditionError(
            f"feedbackless translation: duplicate outputs: {outs}"
        )
    if not loop_free(blocks):
        cycle = find_cycle(blocks)
        path = " -> ".join(cycle) if cycle else "?"
        raise PreconditionError(f"feedbackless translation: algebraic loop: {path}")


def fbless_translate(blocks, order=None) -> IoDiagram:
    """Algorithm: eliminate one internal variable per step, then fold in
    parallel.  ``order`` is the elimination order, a permutation of the
    internal variable names; it defaults to ``topological_order(blocks)``.

    The blocks keep their list positions (slots), and the survivors fold in
    list order.  ``producer`` maps an output name to its slot and
    ``readers`` maps a name to the slots whose inputs hold it, so
    eliminating ``u`` composes its producer into the blocks of
    ``readers[u]`` alone, and every ``internal_serial`` call composes.
    A composed block reads its own inputs but ``u``, and all of the
    producer's, so the producer's inputs pass its readers on to them."""
    slots = list(blocks)
    validate_ok_fbless(slots)
    if order is None:
        order = topological_order(slots)
    elif sorted(order) != sorted(internal_vars(slots)):
        raise PreconditionError(
            f"elimination order {list(order)} is not a permutation of the "
            f"internal variables {sorted(internal_vars(slots))}"
        )
    producer = {b.name: i for i, b in enumerate(slots)}
    readers: dict = {}
    for i, b in enumerate(slots):
        for n in b.base.in_pos:
            readers.setdefault(n, set()).add(i)
    for u in order:
        p = producer.pop(u)
        a, slots[p] = slots[p], None
        targets = readers.pop(u)
        for n in a.base.in_pos:
            held = readers[n]
            held.discard(p)
            held |= targets
        for i in targets:
            slots[i] = internal_serial(a, slots[i])
    return fold_parallel([b.base for b in slots if b is not None])
