"""Batch evaluator of the sampling oracles and of ``hbd simulate``.

``compile_term`` evaluates a term once on input symbols (``hbd.symbolic``),
which solves every feedback tower that settles there, and emits the output
graph as one straight-line Python function of one input row: one assignment
per node, each the scalar rule of ``semantics`` written inline.  Wiring
(identity, split, sink, switch, route, and their compositions) leaves no
trace in that function, and neither do the decided towers.  A tower that
has not settled within the cap is one loop node: its body compiles the same
way into its own row function, which ``semantics.kleene`` iterates per row
with the cap, settle test and census of ``semantics.eval_term``.  Only loop
nodes record into ``EvalStats.feedback_runs``, one entry per row.

Results equal those of ``semantics.eval_term``, the reference evaluator,
except that a tower the reference stops an iteration early on
``0.0 == -0.0`` may give a zero of the other sign; the two evaluators are
cross-checked by property tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .semantics import DEFAULT_CONFIG, EvalConfig, EvalStats, check_kinds, kleene
from .symbolic import Graph
from .terms import Term


@dataclass
class Compiled:
    row: Callable  # row(stats, *input values) -> output values
    source: str  # the Python text of ``row``
    loops: tuple  # the compiled body of each loop node's tower
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
    loops = []

    def loop(n, body):
        loops.append(compile_term(body, cfg))
        body_row = loops[-1].row
        cap = cfg.max_fix_iters + n - 1
        return lambda stats, *vals: kleene(
            lambda xs: body_row(stats, *xs, *vals), n, cap, stats
        )

    row, source = graph.function(inputs, graph.evaluate(term, inputs), loop)
    return Compiled(row, source, tuple(loops), term.in_types, term.out_types)
