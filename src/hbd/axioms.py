"""The sixteen algebra laws as executable checks.

Each law is instantiated with randomly generated well-typed terms (atoms
drawn from a small expression library plus wiring constants) and checked by
the harness's oracle, ``term_cells``: an instance holds when both sides have
the same output graphs, and otherwise both sides are compared on sampled
inputs including unknowns.
The constructive-functions model satisfies all sixteen, so any
counterexample indicates an implementation bug.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial

from .errors import TypeMismatchError
from .exprs import Bin, ExprFun, Ite, Lit, Ref, Un
from .harness import term_cells
from .semantics import sample_inputs
from .terms import (
    Atom,
    Feedback,
    Id,
    Parallel,
    Serial,
    Sink,
    Split,
    Switch,
    Term,
    feedback_n,
)
from .types import BaseType, TypeList, Var, fmt_types

_KINDS = (BaseType.REAL, BaseType.INT, BaseType.BOOL)


def _random_types(rng: random.Random, lo=0, hi=3) -> TypeList:
    return tuple(rng.choice(_KINDS) for _ in range(rng.randint(lo, hi)))


def _lit(rng: random.Random, k: BaseType):
    if k == BaseType.BOOL:
        return Lit(rng.random() < 0.5)
    if k == BaseType.INT:
        return Lit(rng.randint(-3, 3))
    return Lit(round(rng.uniform(-2.0, 2.0), 2))


def _random_expr(rng: random.Random, params, want: BaseType, depth: int):
    """A type-correct expression of kind ``want`` over the given parameters."""
    pool = [p for p in params if p.ty == want]
    if depth <= 0 or rng.random() < 0.3:
        if pool and rng.random() < 0.8:
            return Ref(rng.choice(pool).name)
        return _lit(rng, want)
    if want == BaseType.BOOL:
        choice = rng.random()
        numeric = [p for p in params if p.ty in (BaseType.REAL, BaseType.INT)]
        if choice < 0.4 and numeric:
            k = rng.choice(numeric).ty
            return Bin(
                rng.choice(("<", "<=", "==")),
                _random_expr(rng, params, k, depth - 1),
                _random_expr(rng, params, k, depth - 1),
            )
        if choice < 0.6:
            return Un("not", _random_expr(rng, params, want, depth - 1))
        return Bin(
            rng.choice(("and", "or")),
            _random_expr(rng, params, want, depth - 1),
            _random_expr(rng, params, want, depth - 1),
        )
    choice = rng.random()
    if choice < 0.15:
        return Un("neg", _random_expr(rng, params, want, depth - 1))
    if choice < 0.3:
        return Ite(
            _random_expr(rng, params, BaseType.BOOL, depth - 1),
            _random_expr(rng, params, want, depth - 1),
            _random_expr(rng, params, want, depth - 1),
        )
    return Bin(
        rng.choice(("+", "-", "*", "min", "max")),
        _random_expr(rng, params, want, depth - 1),
        _random_expr(rng, params, want, depth - 1),
    )


def _random_atom(rng: random.Random, in_t: TypeList, out_t: TypeList = None) -> Term:
    params = tuple(Var(f"p{i}", k) for i, k in enumerate(in_t))
    if out_t is None:
        out_t = _random_types(rng, 1, 2)
    bodies = tuple(_random_expr(rng, params, k, 2) for k in out_t)
    return Atom(f"f{rng.randrange(10**6)}", ExprFun(params, bodies))


def random_term(rng: random.Random, in_t: TypeList, depth: int = 2) -> Term:
    """A random well-typed term with the given input type (output type free)."""
    if depth <= 0:
        choice = rng.random()
        if not in_t:
            return Id(()) if choice < 0.5 else _random_atom(rng, in_t)
        if choice < 0.3:
            return Id(in_t)
        if choice < 0.4:
            return Split(in_t)
        if choice < 0.5:
            return Sink(in_t)
        if choice < 0.6 and len(in_t) >= 2:
            k = rng.randint(1, len(in_t) - 1)
            return Switch(in_t[:k], in_t[k:])
        return _random_atom(rng, in_t)
    choice = rng.random()
    if choice < 0.45:
        first = random_term(rng, in_t, depth - 1)
        return Serial(first, random_term(rng, first.out_types, depth - 1))
    if choice < 0.7 and len(in_t) >= 2:
        k = rng.randint(1, len(in_t) - 1)
        return Parallel(
            random_term(rng, in_t[:k], depth - 1), random_term(rng, in_t[k:], depth - 1)
        )
    if choice < 0.8:
        a = rng.choice(_KINDS)
        body = _loop_body(rng, (a,), in_t)
        return Feedback(body)
    return random_term(rng, in_t, 0)


def _loop_body(rng: random.Random, lead: TypeList, s: TypeList) -> Term:
    """A term of type lead+s -> lead+t whose leading outputs can be fed back."""
    if rng.random() < 0.5:
        # an atom whose first |lead| outputs repeat the lead kinds
        out_rest = _random_types(rng, 0, 2)
        return _random_atom(rng, lead + s, lead + out_rest)
    # wiring through the lead: G || R with G preserving the lead type
    parts = []
    for a in lead:
        if a == BaseType.BOOL:
            g = Id((a,)) if rng.random() < 0.5 else _random_atom(rng, (a,), (a,))
        else:
            g = Id((a,)) if rng.random() < 0.4 else _random_atom(rng, (a,), (a,))
        parts.append(g)
    rest = random_term(rng, s, 1)
    out = parts[0]
    for p in parts[1:]:
        out = Parallel(out, p)
    return Parallel(out, rest)


@dataclass
class Equation:
    lhs: Term
    rhs: Term


@dataclass
class AxiomOutcome:
    name: str
    instances: int = 0
    # (input, lhs_out, rhs_out), or the reason when a side has no outputs
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _ax1(rng):
    s = random_term(rng, _random_types(rng, 0, 3))
    tin, tout = s.typing
    return [Equation(Serial(Id(tin), s), s), Equation(Serial(s, Id(tout)), s)]


def _ax2(rng):
    s = random_term(rng, _random_types(rng, 0, 2))
    t = random_term(rng, s.out_types)
    r = random_term(rng, t.out_types)
    return [
        Equation(Serial(s, Serial(t, r)), Serial(Serial(s, t), r))
    ]


def _ax3(rng):
    s = random_term(rng, _random_types(rng, 0, 3))
    return [
        Equation(Parallel(Id(()), s), s),
        Equation(Parallel(s, Id(())), s),
    ]


def _ax4(rng):
    s = random_term(rng, _random_types(rng, 0, 2), 1)
    t = random_term(rng, _random_types(rng, 0, 2), 1)
    r = random_term(rng, _random_types(rng, 0, 2), 1)
    return [
        Equation(
            Parallel(s, Parallel(t, r)), Parallel(Parallel(s, t), r)
        )
    ]


def _ax5(rng):
    s = random_term(rng, _random_types(rng, 0, 2))
    s2 = random_term(rng, s.out_types)
    t = random_term(rng, _random_types(rng, 0, 2))
    t2 = random_term(rng, t.out_types)
    return [
        Equation(
            Serial(Parallel(s, t), Parallel(s2, t2)),
            Parallel(Serial(s, s2), Serial(t, t2)),
        )
    ]


def _ax6(rng):
    t = _random_types(rng, 0, 3)
    return [
        Equation(Serial(Split(t), Parallel(Sink(t), Id(t))), Id(t))
    ]


def _ax7(rng):
    t = _random_types(rng, 0, 3)
    return [Equation(Serial(Split(t), Switch(t, t)), Split(t))]


def _ax8(rng):
    t = _random_types(rng, 0, 3)
    return [
        Equation(
            Serial(Split(t), Parallel(Id(t), Split(t))),
            Serial(Split(t), Parallel(Split(t), Id(t))),
        )
    ]


def _ax9(rng):
    t = _random_types(rng, 0, 2)
    t2 = _random_types(rng, 0, 2)
    t3 = _random_types(rng, 0, 2)
    return [
        Equation(
            Switch(t, t2 + t3),
            Serial(
                Parallel(Switch(t, t2), Id(t3)),
                Parallel(Id(t2), Switch(t, t3)),
            ),
        )
    ]


def _ax10(rng):
    t = _random_types(rng, 0, 3)
    t2 = _random_types(rng, 0, 3)
    return [Equation(Sink(t + t2), Parallel(Sink(t), Sink(t2)))]


def _ax11(rng):
    t = _random_types(rng, 0, 2)
    t2 = _random_types(rng, 0, 2)
    return [
        Equation(
            Split(t + t2),
            Serial(
                Parallel(Split(t), Split(t2)),
                Parallel(Id(t), Parallel(Switch(t, t2), Id(t2))),
            ),
        )
    ]


def _ax12(rng):
    s = random_term(rng, _random_types(rng, 0, 2))
    t = random_term(rng, _random_types(rng, 0, 2))
    return [
        Equation(
            Serial(
                Switch(s.in_types, t.in_types),
                Serial(Parallel(t, s), Switch(t.out_types, s.out_types)),
            ),
            Parallel(s, t),
        )
    ]


def _ax13(rng):
    a = rng.choice(_KINDS)
    return [Equation(Feedback(Switch((a,), (a,))), Id((a,)))]


def _ax14(rng):
    a = rng.choice(_KINDS)
    s = _loop_body(rng, (a,), _random_types(rng, 0, 2))
    t = random_term(rng, _random_types(rng, 0, 2), 1)
    return [
        Equation(Feedback(Parallel(s, t)), Parallel(Feedback(s), t))
    ]


def _ax15(rng):
    a = rng.choice(_KINDS)
    aa = random_term(rng, _random_types(rng, 0, 2), 1)
    s = _loop_body(rng, (a,), aa.out_types)
    b = random_term(rng, s.out_types[1:], 1)
    lhs = Feedback(
        Serial(
            Parallel(Id((a,)), aa),
            Serial(s, Parallel(Id((a,)), b)),
        )
    )
    rhs = Serial(aa, Serial(Feedback(s), b))
    return [Equation(lhs, rhs)]


def _ax16(rng):
    a = rng.choice(_KINDS)
    b = rng.choice(_KINDS)
    s_t = _random_types(rng, 0, 2)
    s = _loop_body(rng, (a, b), s_t)
    t_out = s.out_types[2:]
    lhs = feedback_n(
        2,
        Serial(
            Parallel(Switch((b,), (a,)), Id(s_t)),
            Serial(s, Parallel(Switch((a,), (b,)), Id(t_out))),
        ),
    )
    rhs = feedback_n(2, s)
    return [Equation(lhs, rhs)]


AXIOMS = [
    ("1 identity for serial", _ax1),
    ("2 serial associativity", _ax2),
    ("3 empty identity for parallel", _ax3),
    ("4 parallel associativity", _ax4),
    ("5 serial/parallel distributivity", _ax5),
    ("6 split then sink", _ax6),
    ("7 split then switch", _ax7),
    ("8 split reassociation", _ax8),
    ("9 switch of concatenation", _ax9),
    ("10 sink of concatenation", _ax10),
    ("11 split of concatenation", _ax11),
    ("12 switch conjugation of parallel", _ax12),
    ("13 feedback of switch", _ax13),
    ("14 feedback of parallel", _ax14),
    ("15 feedback of serial", _ax15),
    ("16 feedback reordering", _ax16),
]


def check_equation(eq: Equation, samples: int, seed: int):
    """[] when ``term_cells`` proves the equation or finds no counterexample
    on ``samples`` inputs drawn with bot from ``seed``; else a list of the
    first one, (input, lhs value, rhs value), or of the cell's reason when
    a side has no outputs (its symbolic evaluation failed)."""
    if eq.lhs.typing != eq.rhs.typing:
        (a, b), (c, d) = eq.lhs.typing, eq.rhs.typing
        raise TypeMismatchError(
            f"equation sides have different typings: "
            f"{fmt_types(a)}->{fmt_types(b)} vs {fmt_types(c)}->{fmt_types(d)}"
        )
    rows = partial(sample_inputs, eq.lhs.in_types, samples, seed)
    cell = term_cells([eq.lhs, eq.rhs], rows)[0][1]
    if cell:
        return []
    return [cell.reason if cell.counterexample is None else cell.counterexample]


def run_axiom_suite(instances: int = 100, samples: int = 100, seed: int = 0):
    """One outcome per axiom; an axiom fails if any instance has a
    counterexample or a side without outputs."""
    outcomes = []
    for name, builder in AXIOMS:
        rng = random.Random(f"{seed}/{name}")
        outcome = AxiomOutcome(name)
        for i in range(instances):
            for eq in builder(rng):
                outcome.instances += 1
                bad = check_equation(eq, samples, seed + i)
                if bad:
                    outcome.failures.append(bad[0])
        outcomes.append(outcome)
    return outcomes
