"""Term AST of the block-diagram algebra.

Terms are built from four wiring constants (identity, duplication, discard,
segment swap), named atoms carrying an expression function, and three
composition operators: serial, parallel and feedback.  The general switch
is one derived ``Route`` node; ``expand_routes`` rewrites it into the four
constants, which is how the paper defines it.  Every well-formed
term has a unique derived typing ``in_types -> out_types``; the smart
constructors enforce the arity rules and raise ``TypeMismatchError`` naming
the node kinds and the clashing types otherwise.  The message never prints
a subterm, so its size does not grow with the term.

Feedback always peels exactly one leading wire; ``feedback_n`` iterates it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .errors import ParseError, TypeMismatchError
from .exprs import ExprFun
from .types import BaseType, EPSILON, TypeList, base_type, fmt_types

# Translations are deep: the incr term of random_diagram(7, n, n) is 410 nodes
# deep at n = 200 and 978 at n = 500, the fbpar term 571 and 1,405.  Typing,
# rewriting, compiling and evaluating all recurse (printing does not), so the
# default limit of 1,000 is too tight.
if sys.getrecursionlimit() < 20_000:
    sys.setrecursionlimit(20_000)


class _once:
    """``cached_property`` without its lock (as in Python 3.12): a term's
    typing is computed on first access, where any type error is raised, and
    then read from the instance dict.  A racing second computation would
    give the same typing."""

    def __init__(self, fn):
        self.fn = fn

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, term, owner=None):
        if term is None:
            return self
        value = term.__dict__[self.name] = self.fn(term)
        return value


class Term:
    __slots__ = ()

    @property
    def typing(self):
        raise NotImplementedError

    @property
    def in_types(self) -> TypeList:
        return self.typing[0]

    @property
    def out_types(self) -> TypeList:
        return self.typing[1]


@dataclass(frozen=True)
class Id(Term):
    t: TypeList

    @_once
    def typing(self):
        return (self.t, self.t)

    def __repr__(self):
        return f"Id{fmt_types(self.t)}"


@dataclass(frozen=True)
class Split(Term):
    t: TypeList

    @_once
    def typing(self):
        return (self.t, self.t + self.t)

    def __repr__(self):
        return f"Split{fmt_types(self.t)}"


@dataclass(frozen=True)
class Sink(Term):
    t: TypeList

    @_once
    def typing(self):
        return (self.t, EPSILON)

    def __repr__(self):
        return f"Sink{fmt_types(self.t)}"


@dataclass(frozen=True)
class Switch(Term):
    t: TypeList
    t2: TypeList

    @_once
    def typing(self):
        return (self.t + self.t2, self.t2 + self.t)

    def __repr__(self):
        return f"Switch{fmt_types(self.t)}{fmt_types(self.t2)}"


@dataclass(frozen=True)
class Route(Term):
    """The general switch as one node: output j carries input ``imap[j]``,
    or an unknown value where ``imap[j]`` is None."""

    t: TypeList
    t2: TypeList
    imap: tuple  # tuple[int | None, ...], one entry per output

    @_once
    def typing(self):
        if len(self.imap) != len(self.t2):
            raise TypeMismatchError(
                f"route has {len(self.imap)} indices for {len(self.t2)} outputs: {self!r}"
            )
        for i, k in zip(self.imap, self.t2):
            if i is not None and not (0 <= i < len(self.t) and self.t[i] is k):
                raise TypeMismatchError(f"route index {i} cannot yield {k}: {self!r}")
        return (self.t, self.t2)

    def __repr__(self):
        idx = " ".join("_" if i is None else str(i) for i in self.imap)
        return f"Route{fmt_types(self.t)}{fmt_types(self.t2)}[{idx}]"


@dataclass(frozen=True)
class Atom(Term):
    name: str
    fn: ExprFun

    @_once
    def typing(self):
        return (self.fn.in_kinds, self.fn.out_kinds)

    def __repr__(self):
        return f"Atom({self.name})"


@dataclass(frozen=True)
class Serial(Term):
    first: Term
    second: Term

    @_once
    def typing(self):
        (tin, tmid) = self.first.typing
        (tmid2, tout) = self.second.typing
        if tmid != tmid2:
            raise TypeMismatchError(
                f"serial mismatch: {_kind(self.first)} yields {fmt_types(tmid)} "
                f"but {_kind(self.second)} expects {fmt_types(tmid2)}"
            )
        return (tin, tout)

    def __repr__(self):
        return f"({self.first!r} ;; {self.second!r})"


@dataclass(frozen=True)
class Parallel(Term):
    left: Term
    right: Term

    @_once
    def typing(self):
        (a, b) = self.left.typing
        (c, d) = self.right.typing
        return (a + c, b + d)

    def __repr__(self):
        return f"({self.left!r} || {self.right!r})"


@dataclass(frozen=True)
class Feedback(Term):
    body: Term

    @_once
    def typing(self):
        (tin, tout) = self.body.typing
        if not tin or not tout or tin[0] is not tout[0]:
            raise TypeMismatchError(
                f"feedback needs one leading wire type on both sides of its "
                f"{_kind(self.body)} body: {fmt_types(tin)} -> {fmt_types(tout)}"
            )
        return (tin[1:], tout[1:])

    def __repr__(self):
        return f"feedback({self.body!r})"


def _kind(term: Term) -> str:
    return type(term).__name__


def type_of(term: Term):
    """Derived typing ``(in_types, out_types)`` of a well-formed term."""
    return term.typing


def mk_serial(first: Term, second: Term) -> Term:
    t = Serial(first, second)
    t.typing
    return t


def mk_parallel(left: Term, right: Term) -> Term:
    t = Parallel(left, right)
    t.typing
    return t


def mk_feedback(body: Term) -> Term:
    t = Feedback(body)
    t.typing
    return t


def feedback_n(n: int, body: Term) -> Term:
    if n < 0:
        raise ValueError("feedback_n needs n >= 0")
    for i in range(n):
        (tin, tout) = body.typing
        if not tin or not tout or tin[0] is not tout[0]:
            raise TypeMismatchError(
                f"feedback_n: wire {i} cannot be fed back on a {_kind(body)} "
                f"body typed {fmt_types(tin)} -> {fmt_types(tout)}"
            )
        body = Feedback(body)
    return body


def mk_arb(a: BaseType) -> Term:
    """The no-input term producing an unknown value: feedback of Split."""
    return Feedback(Split((a,)))


def mk_atom(name: str, fn: ExprFun) -> Atom:
    t = Atom(name, fn)
    t.typing
    return t


def is_arb(term: Term) -> bool:
    return (
        isinstance(term, Feedback)
        and isinstance(term.body, Split)
        and len(term.body.t) == 1
    )


def iter_subterms(term: Term):
    stack = [term]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, Serial):
            stack.append(t.first)
            stack.append(t.second)
        elif isinstance(t, Parallel):
            stack.append(t.left)
            stack.append(t.right)
        elif isinstance(t, Feedback):
            stack.append(t.body)


def term_size(term: Term) -> int:
    return sum(1 for _ in iter_subterms(term))


def feedbacks_outside_arb(term: Term) -> int:
    """Count Feedback nodes that are not the one inside an Arb constant."""
    return sum(
        1 for t in iter_subterms(term) if isinstance(t, Feedback) and not is_arb(t)
    )


# -- rewriting ---------------------------------------------------------------

def _serial_parts(term: Term, out):
    if isinstance(term, Serial):
        _serial_parts(term.first, out)
        _serial_parts(term.second, out)
    else:
        out.append(term)


def _parallel_parts(term: Term, out):
    if isinstance(term, Parallel):
        _parallel_parts(term.left, out)
        _parallel_parts(term.right, out)
    else:
        out.append(term)


def rewrite_basic(term: Term) -> Term:
    """Size-nonincreasing cleanup of identity plumbing.

    Applies, bottom-up and to a fixed point: identity elimination in serial
    chains, unit elimination for Id() in parallel, reassociation of serial
    and parallel compositions to right-nested form, and merging of adjacent
    identities in parallel (Id(t) || Id(t') -> Id(t.t')).  The result has
    the same typing and the same semantics as the input, and the function
    is idempotent.
    """
    if isinstance(term, Feedback):
        return Feedback(rewrite_basic(term.body))
    if isinstance(term, Serial):
        parts: list = []
        _serial_parts(term, parts)
        parts = [rewrite_basic(p) for p in parts]
        # a rewritten part may itself be a serial chain again
        flat: list = []
        for p in parts:
            _serial_parts(p, flat)
        kept = [p for p in flat if not isinstance(p, Id)]
        if not kept:
            return Id(term.in_types)
        out = kept[-1]
        for p in reversed(kept[:-1]):
            out = Serial(p, out)
        return out
    if isinstance(term, Parallel):
        parts = []
        _parallel_parts(term, parts)
        parts = [rewrite_basic(p) for p in parts]
        flat = []
        for p in parts:
            _parallel_parts(p, flat)
        merged: list = []
        for p in flat:
            if isinstance(p, Id) and p.t == EPSILON:
                continue
            if isinstance(p, Id) and merged and isinstance(merged[-1], Id):
                merged[-1] = Id(merged[-1].t + p.t)
            else:
                merged.append(p)
        if not merged:
            return Id(EPSILON)
        out = merged[-1]
        for p in reversed(merged[:-1]):
            out = Parallel(p, out)
        return out
    return term


def _route_output(t: TypeList, i, ty: BaseType) -> Term:
    # One output of the switch: Sink every input but input i, which passes
    # through; with no source (i is None) the output is Arb of type ty.
    if i is None:
        out, k = mk_arb(ty), len(t)
    else:
        out, k = Parallel(Id((t[i],)), Sink(t[i + 1:])), i
    for j in reversed(range(k)):
        out = Parallel(Sink((t[j],)), out)
    return out


def _expand_route(r: Route) -> Term:
    # [x -> y] as the paper builds it: Id when y == x, Sink when y is empty,
    # else Split(x) ;; ([x -> y_1] || [x -> y_2 ...]), where the tail is again
    # Id once it equals x, and a single output's route at the end.
    t, imap = r.t, r.imap
    ident = tuple(range(len(t)))
    if imap == ident:
        return Id(t)
    if not imap:
        return Sink(t)
    tail = len(imap) - len(t)
    if 1 <= tail < len(imap) and imap[tail:] == ident:
        out = Id(t)
    else:
        tail = len(imap) - 1
        out = _route_output(t, imap[tail], r.t2[tail])
    for j in reversed(range(tail)):
        out = Serial(Split(t), Parallel(_route_output(t, imap[j], r.t2[j]), out))
    return out


def expand_routes(term: Term) -> Term:
    """``term`` with every Route rebuilt from the four wiring constants.

    For a Route that ``switch_vars(x, y)`` built from a duplicate-free ``x``
    this is exactly the tree the paper's definition of ``[x -> y]`` gives,
    so Route is derived notation only."""
    if isinstance(term, Route):
        return _expand_route(term)
    if isinstance(term, Serial):
        return Serial(expand_routes(term.first), expand_routes(term.second))
    if isinstance(term, Parallel):
        return Parallel(expand_routes(term.left), expand_routes(term.right))
    if isinstance(term, Feedback):
        return Feedback(expand_routes(term.body))
    return term


# -- textual format ----------------------------------------------------------

def _term(t) -> Term:
    """``t`` itself; a ``TypeError`` when it is not a term."""
    if not isinstance(t, Term):
        raise TypeError(f"not a term: {t!r}")
    return t


# Type names are read from ``_value_``, the enum's plain attribute: ``.value``
# is a property, and a dict keyed by the enum calls its Python ``__hash__``.

def _types_text(t: TypeList) -> str:
    return " ".join([k._value_ for k in t])


def _constant_text(head: str, t: TypeList) -> str:
    return head + "".join([" " + k._value_ for k in t]) + ")"


def print_term(term: Term) -> str:
    """Prefix textual form, e.g. ``(serial (par (atom Add) (id Real)) ...)``.

    A Route prints its input types, output types and index map, with ``_``
    for an unknown output: ``(route (Real Int) (Int Real) (1 _))``.  The
    walk keeps its own stack of subterms and separating texts, so a term of
    any depth prints without recursion."""
    out: list = []
    stack = [_term(term)]
    while stack:
        t = stack.pop()
        if isinstance(t, str):
            out.append(t)
        elif isinstance(t, Serial):
            out.append("(serial ")
            stack += (")", _term(t.second), " ", _term(t.first))
        elif isinstance(t, Parallel):
            out.append("(par ")
            stack += (")", _term(t.right), " ", _term(t.left))
        elif isinstance(t, Feedback):
            out.append("(feedback ")
            stack += (")", _term(t.body))
        elif isinstance(t, Route):
            idx = " ".join(["_" if i is None else str(i) for i in t.imap])
            out.append(f"(route ({_types_text(t.t)}) ({_types_text(t.t2)}) ({idx}))")
        elif isinstance(t, Atom):
            out.append(f"(atom {t.name})")
        elif isinstance(t, Id):
            out.append(_constant_text("(id", t.t))
        elif isinstance(t, Split):
            out.append(_constant_text("(split", t.t))
        elif isinstance(t, Sink):
            out.append(_constant_text("(sink", t.t))
        elif isinstance(t, Switch):
            out.append(f"(switch ({_types_text(t.t)}) ({_types_text(t.t2)}))")
        else:
            raise TypeError(f"not a term: {t!r}")
    return "".join(out)


def collect_atoms(term: Term) -> dict:
    """Name -> Atom map for every atom occurring in ``term``."""
    atoms: dict = {}
    for t in iter_subterms(term):
        if isinstance(t, Atom):
            prev = atoms.setdefault(t.name, t)
            if prev != t:
                raise ValueError(f"atom name {t.name!r} bound to two different atoms")
    return atoms


def _tokenize(text: str):
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse_term(text: str, atoms=None) -> Term:
    """Parse the textual form back into a Term.

    ``atoms`` maps atom names to Atom terms; it is required whenever the
    text mentions one.  ``parse_term(print_term(t), collect_atoms(t)) == t``.
    """
    atoms = atoms or {}
    toks = _tokenize(text)
    pos = 0

    def need(tok):
        nonlocal pos
        if pos >= len(toks) or toks[pos] != tok:
            raise ParseError(f"expected {tok!r} at token {pos} in term text")
        pos += 1

    def types_until_close() -> TypeList:
        nonlocal pos
        out = []
        while pos < len(toks) and toks[pos] != ")":
            out.append(base_type(toks[pos]))
            pos += 1
        return tuple(out)

    def paren_types() -> TypeList:
        need("(")
        t = types_until_close()
        need(")")
        return t

    def parse() -> Term:
        nonlocal pos
        need("(")
        if pos >= len(toks):
            raise ParseError("unexpected end of term text")
        head = toks[pos]
        pos += 1
        if head in ("id", "split", "sink"):
            t = types_until_close()
            need(")")
            return {"id": Id, "split": Split, "sink": Sink}[head](t)
        if head == "switch":
            t, t2 = paren_types(), paren_types()
            need(")")
            return Switch(t, t2)
        if head == "route":
            t, t2 = paren_types(), paren_types()
            need("(")
            imap = []
            while pos < len(toks) and toks[pos] != ")":
                tok = toks[pos]
                if tok != "_" and not (tok.isascii() and tok.isdigit()):
                    raise ParseError(f"bad route index {tok!r} at token {pos}")
                imap.append(None if tok == "_" else int(tok))
                pos += 1
            need(")")
            need(")")
            return Route(t, t2, tuple(imap))
        if head == "atom":
            name = toks[pos]
            pos += 1
            need(")")
            if name not in atoms:
                raise ParseError(f"unknown atom {name!r}")
            return atoms[name]
        if head in ("serial", "par"):
            a = parse()
            b = parse()
            need(")")
            return Serial(a, b) if head == "serial" else Parallel(a, b)
        if head == "feedback":
            a = parse()
            need(")")
            return Feedback(a)
        raise ParseError(f"unknown term head {head!r}")

    term = parse()
    if pos != len(toks):
        raise ParseError(f"trailing tokens after term: {toks[pos:]!r}")
    term.typing
    return term
