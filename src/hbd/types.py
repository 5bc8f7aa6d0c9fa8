"""Base types, type lists and named variables.

A wire carries a scalar of one of three base kinds.  A base type is one of
three plain strings, ``BaseType.REAL``, ``.INT`` and ``.BOOL``, and two
types are compared with ``==``: typing only ever asks whether two base
types are equal, and a tuple that holds only strings is not tracked by the
cyclic garbage collector, so the typing tuples of a large term cost the
collector nothing.  Identity (``is``) is no test of a type: a type read
back from a pickle is an equal string, not the same object.  Term
interfaces are finite sequences of base types (``TypeList``); the empty
sequence is the unit of concatenation.  Variables are names bound to
exactly one base type per diagram document, and compare by name alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SchemaError


class BaseType:
    """The names of the three base types."""

    REAL = "Real"
    INT = "Int"
    BOOL = "Bool"


TypeList = tuple  # tuple[BaseType, ...]

EPSILON: TypeList = ()

_BY_NAME = {t: t for t in (BaseType.REAL, BaseType.INT, BaseType.BOOL)}


def base_type(name: str) -> BaseType:
    """The base type called ``name``, as this module's own string object, so
    types read from a document share it; a ``SchemaError`` for any other
    name."""
    if isinstance(name, str) and name in _BY_NAME:
        return _BY_NAME[name]
    raise SchemaError(f"unknown base type {name!r}")


def fmt_types(t: TypeList) -> str:
    return "(" + ",".join(t) + ")"


@dataclass(frozen=True, eq=False)
class Var:
    """A named wire.  Equality and hashing are by name only; the enclosing
    document guarantees a single type per name."""

    name: str
    ty: BaseType

    def __eq__(self, other) -> bool:
        if not isinstance(other, Var):
            return NotImplemented
        return self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return f"{self.name}:{self.ty}"


def types_of(xs) -> TypeList:
    """Map a sequence of variables to its TypeList (the function T)."""
    return tuple([v.ty for v in xs])
