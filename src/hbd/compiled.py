"""Batch evaluator of the sampling oracles, and the row function of
``hbd simulate``.

``compile_term`` evaluates a term once on input symbols (``hbd.symbolic``):
one flat program, its feedback towers solved together.  A decided term,
one whose towers settle there, becomes its output graph as one
straight-line Python function of one input row: one assignment per node,
each the scalar rule of ``semantics`` written inline.  Wiring (identity,
split, sink, switch, route, and their compositions) leaves no trace in that
function, and neither do the towers, so it records nothing in the census
and cannot diverge.  An undecided term, one whose towers have not settled
within the cap, runs each row on the reference evaluator
(``semantics.row_evaluator``, ``eval_term`` without its input check), with
its cap, settle test, census and ``fixpoint_divergence`` message.  So
``EvalStats.feedback_runs`` counts exactly the towers the reference
evaluator iterated on values.

``Compiled.run`` evaluates a batch of rows and serves the oracles;
``hbd simulate`` (``sim.simulate_translated``) calls ``Compiled.row`` once
per step, with no stats and no input check of its own.

Results equal those of ``eval_term``, except that a tower the reference
stops an iteration early on ``0.0 == -0.0`` may give a zero of the other
sign in a decided term; the two evaluators are cross-checked by property
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .semantics import DEFAULT_CONFIG, EvalConfig, EvalStats, check_kinds, row_evaluator
from .symbolic import Graph
from .terms import Term


@dataclass
class Compiled:
    row: Callable  # row(stats, *input values) -> output values
    source: Optional[str]  # the Python text of ``row``; None when it runs row_evaluator
    in_types: tuple
    out_types: tuple

    def run(self, rows, stats: Optional[EvalStats] = None, validate: bool = True):
        """Evaluate on a batch of input tuples; returns output tuples."""
        rows = list(rows)
        if validate:
            for row in rows:
                check_kinds(row, self.in_types, "input")
        row = self.row
        return [row(stats, *r) for r in rows]

    def run_one(self, row, stats: Optional[EvalStats] = None):
        return self.run([row], stats=stats)[0]


def compile_term(term: Term, cfg: EvalConfig = DEFAULT_CONFIG) -> Compiled:
    term.typing
    graph = Graph(cfg)
    inputs = [graph.symbol(i) for i in range(len(term.in_types))]
    outputs = graph.outputs(term, inputs)
    if outputs is None:  # undecided: the reference evaluator runs each row
        row, source = row_evaluator(term, cfg), None
    else:
        row, source = graph.function(inputs, outputs)
    return Compiled(row, source, term.in_types, term.out_types)
