"""Diagrams with named inputs and outputs, and their compositions.

An io-diagram is a triple (input variables, output variables, term); the
variable lists are duplicate-free and type-consistent with the term.  The
named compositions connect matching variable names via general switches,
one ``Route`` node each, which route, duplicate, discard and (for absent
names) invent unknown values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from typing import Optional

from .errors import CompositionError, TypeMismatchError
from .semantics import BOT, same_value, sample_inputs, value_kind
from .terms import (
    Id,
    Route,
    Sink,
    Term,
    mk_feedback,
    mk_parallel,
    mk_serial,
)
from .types import BaseType, TypeList, types_of

VarList = tuple  # tuple[Var, ...]


def inter(x, y) -> VarList:
    """Common elements, in the order they occur in x."""
    ys = set(y)
    return tuple(v for v in x if v in ys)


def minus(x, y) -> VarList:
    """Elements of x not occurring in y."""
    ys = set(y)
    return tuple(v for v in x if v not in ys)


def union_ord(x, y) -> VarList:
    """x followed by the elements of y not in x."""
    return tuple(x) + minus(y, x)


def is_perm(x, y) -> bool:
    """True when x and y contain the same elements with the same multiplicities."""
    if len(x) != len(y):
        return False
    counts: dict = {}
    for v in x:
        counts[v] = counts.get(v, 0) + 1
    for v in y:
        c = counts.get(v, 0)
        if c == 0:
            return False
        counts[v] = c - 1
    return True


@dataclass(frozen=True)
class IoDiagram:
    inputs: VarList
    outputs: VarList
    body: Term

    def __post_init__(self):
        if len(set(self.inputs)) != len(self.inputs):
            raise TypeMismatchError(f"duplicate input names: {self.inputs}")
        if len(set(self.outputs)) != len(self.outputs):
            raise TypeMismatchError(f"duplicate output names: {self.outputs}")
        tin, tout = self.body.typing
        if tin != types_of(self.inputs) or tout != types_of(self.outputs):
            raise TypeMismatchError(
                f"body typing {tin}->{tout} does not match interface "
                f"{self.inputs}->{self.outputs}"
            )

    def __repr__(self):
        ins = ",".join(v.name for v in self.inputs)
        outs = ",".join(v.name for v in self.outputs)
        return f"IoDiagram(({ins}) -> ({outs}))"


def vars_between(a: IoDiagram, b: IoDiagram) -> VarList:
    """Outputs of a that are inputs of b, in output order."""
    return inter(a.outputs, b.inputs)


# -- general switch -----------------------------------------------------------

def switch_vars(x, y) -> Term:
    """Wiring term of type T(x) -> T(y) routing names of x to names of y.

    Output j carries the input of the first x_i with the same name as y_j,
    or an unknown value when no such input exists.  The degenerate cases
    are the identity (y == x) and the sink (empty y); every other switch is
    one ``Route`` node, which ``terms.expand_routes`` rebuilds from the
    constants.
    """
    x = tuple(x)
    y = tuple(y)
    if y == x:
        return Id(types_of(x))
    if not y:
        return Sink(types_of(x))
    first: dict = {}
    for i, v in enumerate(x):
        first.setdefault(v, i)
    return Route(types_of(x), types_of(y), tuple(first.get(v) for v in y))


# -- named compositions -------------------------------------------------------

def named_serial(a: IoDiagram, b: IoDiagram) -> IoDiagram:
    """Connect a's outputs to b's same-named inputs in series."""
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
    body = mk_serial(
        switch_vars(ins, a.inputs + x),
        mk_serial(
            mk_parallel(a.body, switch_vars(x, x)),
            mk_serial(
                switch_vars(a.outputs + x, y + b.inputs),
                mk_parallel(switch_vars(y, y), b.body),
            ),
        ),
    )
    return IoDiagram(ins, outs, body)


def named_parallel(a: IoDiagram, b: IoDiagram) -> IoDiagram:
    """Side-by-side composition; shared input names are split."""
    clash = inter(a.outputs, b.outputs)
    if clash:
        names = ",".join(w.name for w in clash)
        raise CompositionError(f"parallel composition output clash: {names}")
    ins = union_ord(a.inputs, b.inputs)
    body = mk_serial(
        switch_vars(ins, a.inputs + b.inputs), mk_parallel(a.body, b.body)
    )
    return IoDiagram(ins, a.outputs + b.outputs, body)


def fold_parallel(ds) -> IoDiagram:
    return reduce(named_parallel, ds)


def named_feedback(a: IoDiagram) -> IoDiagram:
    """Connect all of a's same-named outputs and inputs in feedback."""
    v = inter(a.outputs, a.inputs)
    ins = minus(a.inputs, v)
    outs = minus(a.outputs, v)
    body = mk_serial(
        switch_vars(v + ins, a.inputs),
        mk_serial(a.body, switch_vars(a.outputs, v + outs)),
    )
    for w in v:
        body = mk_feedback(body)
    return IoDiagram(ins, outs, body)


# -- sampling and comparison for the equivalence oracle (hbd.harness) ---------

@dataclass(frozen=True)
class EquivConfig:
    samples: int = 200
    exhaustive_limit: int = 4096


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
    if ka is not kb:
        return False
    if same_value(a, b):
        return True
    return (
        ka is BaseType.REAL
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


def equivalence_samples(t: TypeList, cfg: EquivConfig):
    """Input tuples for comparing two bodies of input type ``t``.

    When the canonical domain (all Bool values plus bot, two canonical
    values plus bot per numeric coordinate) fits in ``exhaustive_limit`` it
    is enumerated completely; random tuples top the list up to the
    requested ``samples`` budget either way."""
    if not t:
        return [()]
    rows = []
    total = 1
    for k in t:
        total *= len(_CANONICAL[k])
        if total > cfg.exhaustive_limit:
            break
    if total <= cfg.exhaustive_limit:
        rows = list(itertools.product(*(_CANONICAL[k] for k in t)))
        if all(k is BaseType.BOOL for k in t):
            return rows  # the canonical grid is the whole domain
    if len(rows) < cfg.samples:
        rows.extend(sample_inputs(t, cfg.samples - len(rows), seed=0))
    return rows


def differences(rows, outs_a, outs_b):
    """(input, out_a, out_b) for each sampled input on which two evaluations
    differ beyond ``REL_TOL`` and ``ABS_TOL``."""
    for row, oa, ob in zip(rows, outs_a, outs_b):
        if not tuples_close(oa, ob):
            yield row, oa, ob
