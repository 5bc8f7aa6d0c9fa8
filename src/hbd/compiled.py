"""Batch evaluator of the sampling oracles, and the row function of
``hbd simulate``.

``compile_term`` evaluates a term once on input symbols (``hbd.symbolic``):
one flat program, its feedback towers solved together.  The term's output
graph becomes one straight-line Python function of one input row: one
assignment per node, each the scalar rule of ``semantics`` written inline.
Wiring (identity, split, sink, switch, route, and their compositions)
leaves no trace in that function, and neither do the towers, so a row
records nothing in the census and cannot diverge.

``Compiled.run`` evaluates a batch of rows and serves the oracles;
``hbd simulate`` (``sim.simulate_translated``) calls ``Compiled.row`` once
per step, with no input check of its own.

Results equal those of ``eval_term``, the reference evaluator, except that
a tower the reference stops an iteration early on ``0.0 == -0.0`` may give
a zero of the other sign; the two evaluators are cross-checked by property
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .semantics import EvalStats, check_kinds
from .symbolic import Graph
from .terms import Term


@dataclass
class Compiled:
    row: Callable  # row(*input values) -> output values
    source: str  # the Python text of ``row``
    in_types: tuple

    def run(self, rows, stats: Optional[EvalStats] = None, validate: bool = True):
        """Evaluate on a batch of input tuples; returns output tuples.  A row
        runs no fixpoint, so ``stats`` is never read or written; it stays
        only because ``perfbench/spans.py`` calls
        ``run(compiled, rows, stats=, validate=)``, which
        ``test_benchmark_bindings_resolve`` pins."""
        rows = list(rows)
        if validate:
            for row in rows:
                check_kinds(row, self.in_types, "input")
        row = self.row
        return [row(*r) for r in rows]


def compile_term(term: Term) -> Compiled:
    graph = Graph()
    inputs = [graph.symbol(i) for i in range(len(term.in_types))]
    row, source = graph.function(inputs, graph.outputs(term, inputs))
    return Compiled(row, source, term.in_types)
