"""Diagrams with named inputs and outputs, and their compositions.

An io-diagram is a triple (input variables, output variables, term); the
variable lists are duplicate-free and type-consistent with the term.  Each
io-diagram indexes its interface once, when it is built: ``in_pos`` and
``out_pos`` map each input and output name to its position, in list order,
and building them is the duplicate check.  The named compositions are
computed from those maps, with set operations on their key views, and
compare variables by name, as strings, never through ``Var``.  They
connect matching names via general switches, one ``Route`` node each,
which route, duplicate, discard and (for absent names) invent unknown
values.  They emit no identity plumbing: a switch that is the identity is
left out of its serial chain (``chain``), an ``Id(())`` unit out of its
parallel pair, an identity beside the identity on the adjoining edge of the
other side merges with it (``beside``), and ``FB`` over no common name is
its argument.  So the terms that the translation loop (``hbd.translator``)
and the feedbackless translation (``hbd.feedbackless``) build from them
already have the size ``terms.rewrite_basic`` gives them; the test suite
checks this on the corpus and on 50-block documents.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import CompositionError, TypeMismatchError
from .semantics import BOT, same_value, sample_inputs, value_kind
from .terms import (
    Feedback,
    Id,
    Parallel,
    Route,
    Serial,
    Sink,
    Term,
)
from .types import BaseType, TypeList, fmt_types, types_of

VarList = tuple  # tuple[Var, ...]


@dataclass(frozen=True)
class IoDiagram:
    inputs: VarList
    outputs: VarList
    body: Term
    in_pos: dict = field(init=False, repr=False, compare=False)  # name -> input position
    out_pos: dict = field(init=False, repr=False, compare=False)  # name -> output position

    def __post_init__(self):
        # a repeated name keeps one position, so its map is the shorter
        in_pos = {v.name: i for i, v in enumerate(self.inputs)}
        if len(in_pos) != len(self.inputs):
            raise TypeMismatchError(f"duplicate input names: {self.inputs}")
        out_pos = {v.name: i for i, v in enumerate(self.outputs)}
        if len(out_pos) != len(self.outputs):
            raise TypeMismatchError(f"duplicate output names: {self.outputs}")
        tin, tout = self.body.typing
        if tin != types_of(self.inputs) or tout != types_of(self.outputs):
            raise TypeMismatchError(
                f"body typing {fmt_types(tin)}->{fmt_types(tout)} does not match interface "
                f"{self.inputs}->{self.outputs}"
            )
        object.__setattr__(self, "in_pos", in_pos)
        object.__setattr__(self, "out_pos", out_pos)

    def __repr__(self):
        return f"IoDiagram(({','.join(self.in_pos)}) -> ({','.join(self.out_pos)}))"


def _names(xs) -> tuple:
    return tuple([v.name for v in xs])


def _without(xs, drop) -> VarList:
    """The elements of ``xs`` whose name is not a key of ``drop``."""
    return tuple([v for v in xs if v.name not in drop])


# -- general switch -----------------------------------------------------------

def switch_names(pos: dict, t: TypeList, names: tuple, t2: TypeList) -> Term:
    """The switch from a duplicate-free list, given by its name -> position
    map ``pos`` and its types ``t``, to the names ``names`` of types ``t2``:
    the identity when ``names`` is that list, the sink when it is empty,
    and one ``Route`` otherwise, with None for a name not in ``pos``."""
    imap = tuple(map(pos.get, names))
    if len(imap) == len(t) and imap == tuple(range(len(t))):
        return Id(t)
    if not imap:
        return Sink(t)
    return Route(t, t2, imap)


def switch_vars(x, y) -> Term:
    """Wiring term of type T(x) -> T(y) routing names of x to names of y.

    Output j carries the input of the first x_i with the same name as y_j,
    or an unknown value when no such input exists.  The degenerate cases
    are the identity (y names x) and the sink (empty y); every other switch
    is one ``Route`` node, which ``terms.expand_routes`` rebuilds from the
    constants.
    """
    xn, yn = _names(x), _names(y)
    if yn == xn:
        return Id(types_of(x))
    first = {n: i for i, n in reversed(tuple(enumerate(xn)))}  # the first one wins
    return switch_names(first, types_of(x), yn, types_of(y))


# -- named compositions -------------------------------------------------------

def chain(*parts: Term) -> Term:
    """``parts`` in series, right-nested, without the identities among them;
    the first part stands alone when every part is one."""
    kept = [p for p in parts if not isinstance(p, Id)] or parts[:1]
    body = kept[-1]
    for p in reversed(kept[:-1]):
        body = Serial(p, body)
    return body


def beside(left: Term, right: Term) -> Term:
    """``left`` and ``right`` in parallel, without an ``Id(())`` unit, and
    with an identity merged into the identity on the adjoining edge of the
    other side: ``Id(a) || Id(b)``, ``Id(a) || (Id(b) || X)`` and
    ``(X || Id(a)) || Id(b)`` become ``Id(a b)``, ``Id(a b) || X`` and
    ``X || Id(a b)``."""
    if isinstance(left, Id):
        if not left.t:
            return right
        if isinstance(right, Id):
            return Id(left.t + right.t)
        if isinstance(right, Parallel) and isinstance(right.left, Id):
            return Parallel(Id(left.t + right.left.t), right.right)
    if isinstance(right, Id):
        if not right.t:
            return left
        if isinstance(left, Parallel) and isinstance(left.right, Id):
            return Parallel(left.left, Id(left.right.t + right.t))
    return Parallel(left, right)


def named_serial(a: IoDiagram, b: IoDiagram) -> IoDiagram:
    """Connect a's outputs to b's same-named inputs in series.

    b's inputs that a does not drive (x) join a's inputs, and a's outputs
    that b does not read (y) join b's outputs; an output of both is a
    ``CompositionError`` naming those outputs in a's order.  The switches
    and parallel units that would be identities are not built."""
    a_out, b_in = a.out_pos, b.in_pos
    if not a_out.keys().isdisjoint(b.out_pos):
        clash = [n for n in a_out if n in b.out_pos and n not in b_in]
        if clash:
            raise CompositionError(
                f"serial composition would duplicate outputs: {','.join(clash)}"
            )
    # the two disjoint-name branches pay: a `large` pass is ~71 ms CPU with them, ~77 without
    if a_out.keys().isdisjoint(b_in):
        x, xn, y, yn = b.inputs, tuple(b_in), a.outputs, tuple(a_out)
    else:
        x, y = _without(b.inputs, a_out), _without(a.outputs, b_in)
        xn, yn = _names(x), _names(y)
    tx, ty = types_of(x), types_of(y)
    a_in, (t_in, t_mid) = a.in_pos, a.body.typing
    parts = []
    if a_in.keys().isdisjoint(xn):
        ins = a.inputs + x
    else:  # x names some of a's inputs: one switch splits them
        ins = a.inputs + _without(x, a_in)
        pos = {v.name: i for i, v in enumerate(ins)}
        parts.append(switch_names(pos, types_of(ins), tuple(a_in) + xn, t_in + tx))
    parts.append(beside(a.body, Id(tx)) if x else a.body)
    mid = {**a_out, **{n: i for i, n in enumerate(xn, len(a_out))}} if x else a_out
    parts.append(switch_names(mid, t_mid + tx, yn + tuple(b_in), ty + b.body.in_types))
    parts.append(beside(Id(ty), b.body) if y else b.body)
    return IoDiagram(ins, y + b.outputs, chain(*parts))


def fold_parallel(ds) -> IoDiagram:
    """The elements of ``ds`` side by side, left to right, built in one pass.

    The body is left-nested, as folding the pairs in turn would build it:
    wherever an element shares an input name with the elements before it,
    one input switch splits the shared names, and an output shared with an
    earlier element is a ``CompositionError`` naming those outputs in the
    order the earlier elements give them.  Only the result is an
    ``IoDiagram``, validated once: the partial folds are well formed by
    construction, so their interfaces are not checked again.  The running
    interface keeps its name -> position maps and its input types."""
    first, *rest = ds
    if not rest:
        return first
    ins, outs, body = list(first.inputs), list(first.outputs), first.body
    in_pos, out_pos = dict(first.in_pos), dict(first.out_pos)
    types = list(body.in_types)
    for d in rest:
        if not out_pos.keys().isdisjoint(d.out_pos):
            clash = sorted(out_pos.keys() & d.out_pos.keys(), key=out_pos.__getitem__)
            raise CompositionError(f"parallel composition output clash: {','.join(clash)}")
        before = len(ins)
        body = beside(body, d.body)
        fresh = _without(d.inputs, in_pos)
        ins += fresh
        types += types_of(fresh)
        in_pos.update({v.name: i for i, v in enumerate(fresh, before)})
        if len(fresh) < len(d.inputs):  # a shared input: one switch splits it
            imap = tuple(range(before)) + tuple(map(in_pos.__getitem__, d.in_pos))
            route = Route(tuple(types), tuple(types[:before]) + d.body.in_types, imap)
            body = chain(route, body)
        out_pos.update({n: i for i, n in enumerate(d.out_pos, len(outs))})
        outs += d.outputs
    return IoDiagram(tuple(ins), tuple(outs), body)


def named_feedback(a: IoDiagram) -> IoDiagram:
    """Connect all of a's same-named outputs and inputs in feedback; ``a``
    itself when they have no name in common."""
    a_in, a_out = a.in_pos, a.out_pos
    if a_in.keys().isdisjoint(a_out):
        return a
    v = tuple([w for w in a.outputs if w.name in a_in])
    ins, outs = _without(a.inputs, a_out), _without(a.outputs, a_in)
    vn, tv = _names(v), types_of(v)
    loop = {n: i for i, n in enumerate(vn + _names(ins))}
    body = chain(
        switch_names(loop, tv + types_of(ins), tuple(a_in), a.body.in_types),
        a.body,
        switch_names(a_out, a.body.out_types, vn + _names(outs), tv + types_of(outs)),
    )
    for _ in v:
        body = Feedback(body)
    return IoDiagram(ins, outs, body)


# -- sampling and comparison for the equivalence oracle (hbd.harness) ---------

@dataclass
class EquivResult:
    equivalent: bool
    reason: str = ""
    counterexample: Optional[tuple] = None  # (input, out_a, out_b)
    proved: bool = False  # equal output graphs, not only equal on the samples

    def __bool__(self) -> bool:
        return self.equivalent


REL_TOL = 1e-9  # tolerances of every Real comparison (values_close)
ABS_TOL = 1e-12


def values_close(a, b) -> bool:
    """Equal kinds and values, Reals within the tolerances.  NaN equals NaN,
    and an infinity equals only itself."""
    if a is BOT or b is BOT:
        return a is BOT and b is BOT
    ka, kb = value_kind(a), value_kind(b)
    if ka != kb:
        return False
    if same_value(a, b):
        return True
    return (
        ka == BaseType.REAL
        and math.isfinite(a)
        and math.isfinite(b)
        and abs(a - b) <= max(ABS_TOL, REL_TOL * max(abs(a), abs(b)))
    )


def tuples_close(xs, ys) -> bool:
    return len(xs) == len(ys) and all(values_close(a, b) for a, b in zip(xs, ys))


_CANONICAL = {
    BaseType.BOOL: (BOT, True, False),
    BaseType.INT: (BOT, 0, 1),
    BaseType.REAL: (BOT, 0.0, 1.5),
}
EXHAUSTIVE_LIMIT = 4096  # the largest canonical grid that is enumerated


def equivalence_samples(t: TypeList, samples: int):
    """Input tuples for comparing two bodies of input type ``t``.

    When the canonical domain (all Bool values plus bot, two canonical
    values plus bot per numeric coordinate) has at most ``EXHAUSTIVE_LIMIT``
    tuples it is enumerated completely; random tuples top the list up to
    ``samples`` either way."""
    if not t:
        return [()]
    rows = []
    total = 1
    for k in t:
        total *= len(_CANONICAL[k])
        if total > EXHAUSTIVE_LIMIT:
            break
    if total <= EXHAUSTIVE_LIMIT:
        rows = list(itertools.product(*(_CANONICAL[k] for k in t)))
        if all(k == BaseType.BOOL for k in t):
            return rows  # the canonical grid is the whole domain
    if len(rows) < samples:
        rows.extend(sample_inputs(t, samples - len(rows), seed=0))
    return rows


def differences(rows, outs_a, outs_b):
    """(input, out_a, out_b) for each sampled input on which two evaluations
    differ beyond ``REL_TOL`` and ``ABS_TOL``."""
    for row, oa, ob in zip(rows, outs_a, outs_b):
        if not tuples_close(oa, ob):
            yield row, oa, ob
