"""Base types, type lists and named variables.

A wire carries a scalar of one of three base kinds.  Term interfaces are
finite sequences of base types (``TypeList``); the empty sequence is the
unit of concatenation.  Variables are names bound to exactly one base type
per diagram document, and compare by name alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import attrgetter

from .errors import SchemaError


class BaseType(enum.Enum):
    REAL = "Real"
    INT = "Int"
    BOOL = "Bool"

    def __repr__(self) -> str:
        return self.value

    def __str__(self) -> str:
        return self.value


TypeList = tuple  # tuple[BaseType, ...]

EPSILON: TypeList = ()

_BY_NAME = {t.value: t for t in BaseType}


def base_type(name: str) -> BaseType:
    if isinstance(name, str) and name in _BY_NAME:
        return _BY_NAME[name]
    raise SchemaError(f"unknown base type {name!r}")


def fmt_types(t: TypeList) -> str:
    return "(" + ",".join(b.value for b in t) + ")"


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
        return f"{self.name}:{self.ty.value}"


_ty = attrgetter("ty")


def types_of(xs) -> TypeList:
    """Map a sequence of variables to its TypeList (the function T)."""
    return tuple(map(_ty, xs))
