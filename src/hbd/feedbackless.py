"""Feedback-free translation for deterministic, algebraic-loop-free diagrams.

Every block is first split into single-output io-diagrams, one per output,
whose inputs are the inputs that output depends on, so the dependency
relation is the paper's set(O) x set(I) of each split block.  An atom reads
its inputs by position: parameter k of its function stands for input k, so
an output of a multi-output atom depends on the inputs at the positions of
the parameters its expression reads, whatever the parameters are called.
Any other multi-output body, such as a subsystem instance that recursive
mode has translated, is sliced to each output by dead-wire elimination
(M. Weiser, "Program slicing", IEEE TSE 1984): the slice keeps only the
wiring, atoms and feedback wires its output reads, over the inputs it
reads, which is the per-output profile of Lublinerman, Szegedy and Tripakis
(POPL 2009).  A single-output block depends on every input, and so does
every split of a block whose outputs leave an input unread.  If the
relation has no cycle (Kahn's algorithm,
``loop_free``), internal variables are eliminated one at a time by
composing each producer serially into all of its consumers, found through
a name -> readers index; the surviving blocks are folded in parallel.  The
bookkeeping around the compositions is linear in the diagram, and keyed by
variable name, as the io-diagrams' own interface maps are: the dependency
relation, internal variables and elimination orders all hold names.  An
elimination order is a plain sequence of names, topological by default.  The
result contains no feedback operator outside Arb constants.
"""

from __future__ import annotations

import itertools

from .errors import PreconditionError
from .io_diagrams import IoDiagram, beside, chain, fold_parallel, named_serial, switch_vars
from .terms import Atom, Feedback, Id, Parallel, Route, Serial, Sink, Split, Switch, Term
from .exprs import ExprFun, Ref
from .translator import stable_topo_order


def split_block(a: IoDiagram) -> list:
    """Single-output io-diagrams, one per output of ``a``: the inputs of
    each are exactly the inputs its output reads, when together they read
    every input of ``a``.

    A diagram with one output is its own split block.  An atom's output
    reads the inputs at the positions of the parameters its expression
    reads: its split atom keeps those parameters and takes those inputs.
    Any other body is sliced to each output (``_slice``), so a translated
    subsystem instance splits as its blocks do.  A block whose outputs
    together leave an input unread takes the generic projection
    ``S ;; [u1..un -> ui]`` with every input, which over-approximates
    dependencies, so that the split blocks keep the block's interface.
    """
    if len(a.outputs) == 1:
        return [a]
    atom = isinstance(a.body, Atom)
    deps = {}
    reads = a.body.fn.reads if atom else [sorted(d) for d in _deps(a.body, deps)]
    if len(set().union(*reads)) < len(a.inputs):
        return [
            IoDiagram(a.inputs, (u,), Serial(a.body, switch_vars(a.outputs, (u,))))
            for u in a.outputs
        ]
    out = []
    for k, (u, kept) in enumerate(zip(a.outputs, reads)):
        ins = tuple(a.inputs[i] for i in kept)
        if not atom:
            body = _slice(a.body, (k,), deps)
        elif isinstance(a.body.fn.bodies[k], Ref):
            body = Id((ins[0].ty,))
        else:
            fn = a.body.fn
            kept_fn = ExprFun(tuple(fn.params[i] for i in kept), (fn.bodies[k],))
            body = Atom(f"{a.body.name}.{u.name}", kept_fn)
        out.append(IoDiagram(ins, (u,), body))
    return out


# -- per-output slices (dead-wire elimination) ---------------------------------

def _sources(t: Term):
    """The input position each output of a wiring constant carries (None
    for an unknown value), or None when ``t`` is not one."""
    if isinstance(t, Route):
        return t.imap
    if isinstance(t, Id):
        return range(len(t.t))
    if isinstance(t, Split):
        return (*range(len(t.t)),) * 2
    if isinstance(t, Sink):
        return ()
    if isinstance(t, Switch):
        n, m = len(t.t), len(t.t2)
        return (*range(n, n + m), *range(n))
    return None


def _deps(t: Term, memo: dict) -> tuple:
    """For each output of ``t``, the set of input positions it reads; one
    walk of the term, each shared subterm analysed once (``memo``, keyed by
    ``id``).  A ``Feedback`` output reads what its body output reads, and
    when that includes the fed-back wire, what the fed-back output reads."""
    key = id(t)
    if key in memo:
        return memo[key]
    src = _sources(t)
    if src is not None:
        d = tuple(frozenset() if i is None else frozenset((i,)) for i in src)
    elif isinstance(t, Atom):
        d = tuple(map(frozenset, t.fn.reads))
    elif isinstance(t, Serial):
        first = _deps(t.first, memo)
        d = tuple(frozenset().union(*[first[m] for m in r]) for r in _deps(t.second, memo))
    elif isinstance(t, Parallel):
        n = len(t.left.in_types)
        right = _deps(t.right, memo)
        d = _deps(t.left, memo) + tuple(frozenset(i + n for i in r) for r in right)
    elif isinstance(t, Feedback):
        body = _deps(t.body, memo)
        d = tuple(
            frozenset(i - 1 for i in (r | body[0] if 0 in r else r) if i)
            for r in body[1:]
        )
    else:
        raise TypeError(f"not a term: {t!r}")
    memo[key] = d
    return d


def _reads(t: Term, need, memo: dict) -> tuple:
    """The sorted input positions that the outputs ``need`` of ``t`` read."""
    d = _deps(t, memo)
    return tuple(sorted(frozenset().union(*[d[k] for k in need])))


def _slice(t: Term, need: tuple, memo: dict) -> Term:
    """``t`` cut down to the outputs at the sorted positions ``need``: its
    inputs are the ones those outputs read (``_reads``), in order, and every
    wire that feeds no needed output is gone.  ``t`` itself when nothing is
    cut; ``Id(())`` when nothing is needed."""
    tin, tout = t.typing
    ins = _reads(t, need, memo)
    if len(need) == len(tout) and len(ins) == len(tin):
        return t
    if not need:
        return Id(())
    src = _sources(t)
    if src is not None:
        at = {i: j for j, i in enumerate(ins)}  # an unknown output (None) stays one
        imap = tuple(at.get(src[k]) for k in need)
        t2 = tuple(tout[k] for k in need)
        if imap == tuple(range(len(ins))):
            return Id(t2)
        return Route(tuple(tin[i] for i in ins), t2, imap)
    if isinstance(t, Atom):
        fn = t.fn
        kept_fn = ExprFun(tuple(fn.params[i] for i in ins), tuple(fn.bodies[k] for k in need))
        return Atom(f"{t.name}[{','.join(map(str, need))}]", kept_fn)
    if isinstance(t, Serial):
        mid = _reads(t.second, need, memo)
        return chain(_slice(t.first, mid, memo), _slice(t.second, need, memo))
    if isinstance(t, Parallel):
        n = len(t.left.out_types)
        left = _slice(t.left, tuple(k for k in need if k < n), memo)
        return beside(left, _slice(t.right, tuple(k - n for k in need if k >= n), memo))
    # Feedback: the wire stays when a needed output reads the guess
    inner = tuple(k + 1 for k in need)
    if 0 in _reads(t.body, inner, memo):
        return Feedback(_slice(t.body, (0,) + inner, memo))
    return _slice(t.body, inner, memo)


def _name(b: IoDiagram) -> str:
    """The name of the one output of a split block."""
    return b.outputs[0].name


def oi_rel(items) -> frozenset:
    """Output->input dependency pairs, as name pairs: set(O) x set(I) of
    every io-diagram, split block or not."""
    pairs = set()
    for it in items:
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


def loop_witness(items) -> str:
    """``algebraic loop: x -> ... -> x``, naming a cycle of the dependency
    relation of ``items``, which are not loop-free."""
    cycle = find_cycle(items)
    return "algebraic loop: " + (" -> ".join(cycle) if cycle else "?")


def internal_vars(blocks) -> set:
    """Names of the variables produced by one block and consumed by
    another."""
    produced = {_name(b) for b in blocks}
    consumed = set()
    for b in blocks:
        consumed.update(b.in_pos)
    return produced & consumed


def internal_serial(a: IoDiagram, b: IoDiagram) -> IoDiagram:
    """a |> b: compose serially only when b consumes a's output."""
    return named_serial(a, b) if _name(a) in b.in_pos else b


def topological_order(blocks) -> list:
    """The internal variable names, upstream first: u precedes w when w's
    producer reads u, which maximizes reuse of already-composed producers.
    Ties go to the name whose producer comes first in ``blocks``."""
    reads = {_name(b): b.in_pos for b in blocks}
    first_seen = {_name(b): i for i, b in enumerate(blocks)}
    nodes = sorted(internal_vars(blocks), key=first_seen.__getitem__)
    index = {u: i for i, u in enumerate(nodes)}
    succs = [set() for _ in nodes]
    for j, w in enumerate(nodes):
        for u in reads[w]:
            if u in index:
                succs[index[u]].add(j)
    return [nodes[i] for i in stable_topo_order(succs)]


def validate_ok_fbless(blocks) -> None:
    if not blocks:
        raise PreconditionError("feedbackless translation needs at least one block")
    for b in blocks:
        if len(b.outputs) != 1:
            raise PreconditionError(f"split block must have one output, got {b.outputs}")
    outs = [_name(b) for b in blocks]
    if len(set(outs)) != len(outs):
        raise PreconditionError(
            f"feedbackless translation: duplicate outputs: {outs}"
        )
    if not loop_free(blocks):
        raise PreconditionError(f"feedbackless translation: {loop_witness(blocks)}")


def fbless_translate(blocks, order=None) -> IoDiagram:
    """Algorithm: eliminate one internal variable per step, then fold in
    parallel.  ``blocks`` are single-output io-diagrams (``split_block``);
    ``order`` is the elimination order, a permutation of the internal
    variable names; it defaults to ``topological_order(blocks)``.

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
    producer = {_name(b): i for i, b in enumerate(slots)}
    readers: dict = {}
    for i, b in enumerate(slots):
        for n in b.in_pos:
            readers.setdefault(n, set()).add(i)
    for u in order:
        p = producer.pop(u)
        a, slots[p] = slots[p], None
        targets = readers.pop(u)
        for n in a.in_pos:
            held = readers[n]
            held.discard(p)
            held |= targets
        for i in targets:
            slots[i] = internal_serial(a, slots[i])
    return fold_parallel([b for b in slots if b is not None])
