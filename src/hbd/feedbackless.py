"""Feedback-free translation for deterministic, algebraic-loop-free diagrams.

Every multi-output block is first split into single-output io-diagrams,
one per output, whose inputs are the inputs that output depends on, so the
dependency relation is the paper's set(O) x set(I) of each split block.
One slicer does it for atoms and translated subsystem instances alike:
dead-wire elimination (M. Weiser, "Program slicing", IEEE TSE 1984) keeps
only the wiring, atoms and feedback wires an output reads, over the inputs
it reads, which is the per-output profile of Lublinerman, Szegedy and
Tripakis (POPL 2009).  An atom reads its inputs by position: parameter k of
its function stands for input k, whatever the parameters are called.  A
single-output block depends on every input, and so does every split of a
block whose outputs leave an input unread.

If the relation has no cycle (``loop_free``: one depth-first walk, which
also names the cycle it finds), internal variables are eliminated one at a
time by composing each producer serially into all of its consumers, found
through a name -> readers index; the surviving blocks are folded in
parallel.  The bookkeeping around the compositions is linear in the
diagram, and keyed by variable name, as the io-diagrams' own interface
maps are: the dependency relation, internal variables and elimination
orders all hold names.  An elimination order is a plain sequence of names,
topological by default.  The result contains no feedback operator outside
Arb constants.
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
    each are the inputs its output reads (``_deps``), and its body is
    ``a``'s body sliced to that output (``_slice``).

    A diagram with one output is its own split block.  Atoms and other
    bodies, such as a translated subsystem instance, split alike: a cut
    atom keeps the parameters its output reads, and an output that passes
    an input on is an identity.  A block whose outputs together leave an
    input unread takes the generic projection ``S ;; [u1..un -> ui]`` with
    every input, which over-approximates dependencies, so that the split
    blocks keep the block's interface.
    """
    if len(a.outputs) == 1:
        return [a]
    deps = {}
    reads = _deps(a.body, deps)
    if len(frozenset().union(*reads)) < len(a.inputs):
        return [
            IoDiagram(a.inputs, (u,), Serial(a.body, switch_vars(a.outputs, (u,))))
            for u in a.outputs
        ]
    return [
        IoDiagram(tuple(a.inputs[i] for i in sorted(r)), (u,), _slice(a.body, (k,), deps))
        for k, (u, r) in enumerate(zip(a.outputs, reads))
    ]


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
    cut; ``Id(())`` when nothing is needed.  A cut atom ``A`` is wiring when
    each needed output passes a parameter on, and otherwise the atom
    ``A[k,...]`` over the needed outputs k and the parameters they read."""
    if isinstance(t, Atom) and len(need) == 1 and len(t.fn.bodies) > 1:
        if isinstance(t.fn.bodies[need[0]], Ref):  # the commonest cut: a delay or split output
            return Id(t.fn.out_kinds[need[0] : need[0] + 1])
    tin, tout = t.typing
    ins = _reads(t, need, memo)
    if len(need) == len(tout) and len(ins) == len(tin):
        return t
    if not need:
        return Id(())
    src = _sources(t)
    if isinstance(t, Atom):
        fn = t.fn
        if not all(isinstance(fn.bodies[k], Ref) for k in need):
            kept_fn = ExprFun(tuple(fn.params[i] for i in ins), tuple(fn.bodies[k] for k in need))
            return Atom(f"{t.name}[{','.join(map(str, need))}]", kept_fn)
        src = {k: fn.reads[k][0] for k in need}  # each passes one input on
    if src is not None:
        at = {i: j for j, i in enumerate(ins)}  # an unknown output (None) stays one
        imap = tuple(at.get(src[k]) for k in need)
        t2 = tuple(tout[k] for k in need)
        if imap == tuple(range(len(ins))):
            return Id(t2)
        return Route(tuple(tin[i] for i in ins), t2, imap)
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


def find_cycle(items):
    """A witness path of names x -> ... -> x in the dependency relation of
    ``items``, or None.  One depth-first walk, from each output name in list
    order, follows the items' own ``out_pos`` -> ``in_pos`` maps and stops
    at the first name it meets on its own path; each name is entered once.
    The cycle starts at its smallest name."""
    reads: dict = {}  # output name -> the input maps of the items producing it
    for it in items:
        for name in it.out_pos:
            reads.setdefault(name, []).append(it.in_pos)
    done = set()
    for root in reads:
        if root in done:
            continue
        path = {root: 0}  # the walk's path in order, each name -> its index
        todo = [itertools.chain.from_iterable(reads[root])]
        while todo:
            name = next(todo[-1], None)
            if name is None:
                todo.pop()
                done.add(path.popitem()[0])
            elif name in path:
                cycle = list(path)[path[name] :]
                k = cycle.index(min(cycle))
                return cycle[k:] + cycle[: k + 1]
            elif name in reads and name not in done:
                path[name] = len(path)
                todo.append(itertools.chain.from_iterable(reads[name]))
    return None


def loop_free(items) -> bool:
    """No variable reaches itself through the dependency relation, a
    self-loop included."""
    return find_cycle(items) is None


def loop_witness(items) -> str:
    """``algebraic loop: x -> ... -> x``, naming a cycle of the dependency
    relation of ``items``, which are not loop-free."""
    return "algebraic loop: " + " -> ".join(find_cycle(items))


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
