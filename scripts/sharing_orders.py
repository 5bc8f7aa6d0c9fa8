#!/usr/bin/env python3
"""Elimination-order experiment for the feedbackless translation.

On a chain A -> B -> split -> (C, D), eliminating upstream variables first
builds the serial composition of A and B once and reuses it in both output
chains; eliminating downstream variables first rebuilds it per chain.  This
script prints the repeated-subterm census for every elimination order of
the internal variables.
"""

import itertools
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from hbd.exprs import Bin, ExprFun, Lit, Ref
from hbd.feedbackless import (
    GivenOrder,
    SplitBlock,
    count_shared_compositions,
    fbless_translate,
    internal_vars,
)
from hbd.harness import io_equiv
from hbd.io_diagrams import IoDiagram
from hbd.terms import Atom, Id, term_size
from hbd.types import BaseType, Var

R = BaseType.REAL


def gain(name, src, dst, k):
    return SplitBlock(
        IoDiagram(
            (src,),
            (dst,),
            Atom(name, ExprFun((Var(src.name, R),), (Bin("*", Lit(k), Ref(src.name)),))),
        ),
        frozenset((src.name,)),
    )


def main() -> int:
    a, b, c, d, u, v, w = (Var(n, R) for n in "abcduvw")
    blocks = [
        gain("A", u, a, 2.0),
        gain("B", a, b, 3.0),
        SplitBlock(IoDiagram((b,), (c,), Id((R,))), frozenset("b")),
        SplitBlock(IoDiagram((b,), (d,), Id((R,))), frozenset("b")),
        gain("C", c, v, -1.0),
        gain("D", d, w, 5.0),
    ]
    names = sorted(internal_vars(blocks))
    print(f"internal variables: {names}")
    reference = None
    for order in itertools.permutations(names):
        out = fbless_translate(blocks, GivenOrder(order))
        stats = count_shared_compositions(out.body)
        reused = max(stats.repeated.values(), default=1)
        print(
            f"order {','.join(order)}: term size {term_size(out.body):3d}, "
            f"{stats.distinct:2d} distinct serial regions, "
            f"max reuse {reused}"
        )
        if reference is None:
            reference = out
        else:
            assert io_equiv(out, reference), "orders must stay io-equivalent"
    print("all orders io-equivalent: yes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
