"""Determinacy harness: translate one diagram list under many strategies
(``translate`` runs each strategy's step generator to its end) and fill the
pairwise equivalence matrix.  ``term_cells`` is the one oracle of hbd, also
behind the axiom suite and a block's determinism check,
``check_deterministic``: terms with the same symbolic output graphs
(``hbd.symbolic``) compute the same function, so their cell is proved and
neither runs; every other cell is sampled, and a graph class runs only when
a sampled cell needs it.
``equivalence_cells`` aligns each io-diagram to the first by name with
``Route`` wiring; ``io_equiv`` is its two-diagram case.  A strategy whose
translation fails fails its row and column with the reason.  Every term that
runs is straight-line code (``hbd.compiled``) and cannot diverge.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

from .compiled import compile_term
from .errors import CompositionError, PreconditionError, TypeMismatchError
from .feedbackless import fbless_translate, loop_free, split_block
from .io_diagrams import (
    EquivResult,
    IoDiagram,
    chain,
    differences,
    equivalence_samples,
    switch_names,
    switch_vars,
)
from .semantics import EvalStats
from .symbolic import Graph
from .terms import Parallel, Serial, term_size
from .translator import FeedbackParallel, Incremental, RandomChoices, translate
from .types import types_of


@dataclass
class StrategyRun:
    label: str
    diagram: Optional[IoDiagram]  # None when the translation failed
    seconds: float
    failure: str = ""  # why there is no diagram

    @property
    def size(self) -> int:
        return 0 if self.diagram is None else term_size(self.diagram.body)


@dataclass
class RunReport:
    runs: list = field(default_factory=list)
    matrix: list = field(default_factory=list)  # [[EquivResult]]
    samples_used: int = 0
    stats: EvalStats = field(default_factory=EvalStats)

    @property
    def all_equivalent(self) -> bool:
        return all(bool(cell) for row in self.matrix for cell in row)

    def render(self) -> str:
        lines = []
        for run in self.runs:
            lines.append(
                f"{run.label:>12}: {run.size:5d} nodes  {run.seconds * 1000:8.1f} ms"
            )
        lines.append(f"samples per pair: {self.samples_used}")
        cells = [row[j] for i, row in enumerate(self.matrix) for j in range(i, len(row))]
        proved = sum(c.proved for c in cells)
        failed = sum(not c for c in cells)
        lines.append(
            f"pairs: {proved} proved (equal output graphs), "
            f"{len(cells) - proved - failed} sampled, {failed} failed"
        )
        labels = [r.label for r in self.runs]
        width = max(len(l) for l in labels) if labels else 0
        col = max(width, 6)  # fits every label and the widest mark, "proved"
        lines.append(" " * (width + 2) + " ".join(f"{l:>{col}}" for l in labels))
        for label, row in zip(labels, self.matrix):
            marks = (("proved" if c.proved else "ok") if c else "FAIL" for c in row)
            lines.append(f"{label:>{width}}  " + " ".join(f"{m:>{col}}" for m in marks))
        for i, row in enumerate(self.matrix):
            for j in range(i, len(row)):
                cell = row[j]
                if not cell:
                    at = "" if cell.counterexample is None else f" at {cell.counterexample}"
                    lines.append(
                        f"counterexample {labels[i]} vs {labels[j]}: {cell.reason}{at}"
                    )
        return "\n".join(lines)


_TRANSLATION_ERRORS = (CompositionError, PreconditionError, TypeMismatchError)


def translate_all(diagrams: Sequence[IoDiagram], seeds: Sequence[int] = range(20)):
    """(label, io-diagram, seconds) for fbpar, incr, each seed, and fbless
    when the list of split blocks (``split_block``: single-output
    io-diagrams over the inputs their output depends on) is loop-free.  A
    strategy whose translation raises gets no io-diagram and records why in
    ``failure``, so a list that is not io-distinct fails every strategy but
    fbless."""
    runs = []

    def timed(label, thunk):
        t0 = time.perf_counter()
        try:
            result, failure = thunk(), ""
        except _TRANSLATION_ERRORS as exc:
            result, failure = None, f"translation failed: {type(exc).__name__}: {exc}"
        runs.append(StrategyRun(label, result, time.perf_counter() - t0, failure))

    timed("fbpar", lambda: translate(diagrams, FeedbackParallel()))
    timed("incr", lambda: translate(diagrams, Incremental()))
    for seed in seeds:
        timed(f"rand{seed}", lambda s=seed: translate(diagrams, RandomChoices(s)))
    blocks = [sb for d in diagrams for sb in split_block(d)]
    if loop_free(blocks):
        timed("fbless", lambda: fbless_translate(blocks))
    return runs


_SYMBOLIC_ERRORS = (RecursionError, TypeMismatchError)


def term_cells(
    terms: Sequence,
    sample: Callable[[], list],
    stats: Optional[EvalStats] = None,
):
    """The symmetric matrix of ``EquivResult`` cells that compares terms of
    one typing pairwise: the one oracle of hbd.

    An entry may be a string in place of a term: the reason there is none.
    Each term is evaluated once in one ``symbolic.Graph``.  A cell between
    two equal output graphs is proved, and neither term runs.  Every other
    cell is sampled on the rows of ``sample()``, which is called at most
    once, and each graph class runs once.  A string entry, or a term whose
    symbolic evaluation raises (too deep for the recursion limit, or not a
    term), fails its whole row and column with that reason.
    """
    graph = Graph()
    typed = next((t for t in terms if not isinstance(t, str)), None)
    symbols = [] if typed is None else [graph.symbol(i) for i in range(len(typed.in_types))]
    terms = list(terms)
    dags = [None] * len(terms)
    for i, t in enumerate(terms):
        if not isinstance(t, str):
            try:
                dags[i] = graph.outputs(t, symbols, stats)
            except _SYMBOLIC_ERRORS as exc:
                terms[i] = f"symbolic evaluation failed: {type(exc).__name__}: {exc}"
    rows = None  # sample(), drawn when the first term runs
    ran = {}  # graph class -> its outputs on the rows

    def outputs(i):
        """Entry ``i``'s outputs on the rows, or why there are none."""
        nonlocal rows
        if isinstance(terms[i], str):
            return terms[i]
        if dags[i] not in ran:
            if rows is None:
                rows = sample()
            ran[dags[i]] = compile_term(terms[i]).run(rows, validate=False)
        return ran[dags[i]]

    n = len(terms)
    matrix = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if dags[i] is not None and dags[i] == dags[j]:  # None: a reason
                cell = EquivResult(True, proved=True)
            else:
                a = outputs(i)
                b = a if isinstance(a, str) else outputs(j)  # a reason fails the cell
                failed = isinstance(b, str)
                diff = None if failed or a == b else next(differences(rows, a, b), None)
                reason = b if failed else "semantic difference" if diff else ""
                cell = EquivResult(not reason, reason, diff)
            matrix[i][j] = matrix[j][i] = cell
    return matrix


def check_deterministic(a: IoDiagram, samples: int = 64) -> bool:
    """Check of [x -> x,x] ;; (S || S) == S ;; [y -> y,y] by ``term_cells``:
    proved when both sides have equal output graphs, sampled otherwise.  A
    side whose symbolic evaluation fails fails the check."""
    x = a.inputs
    y = a.outputs
    lhs = Serial(switch_vars(x, x + x), Parallel(a.body, a.body))
    rhs = Serial(a.body, switch_vars(y, y + y))
    rows = partial(equivalence_samples, types_of(x), samples)
    return bool(term_cells([lhs, rhs], rows)[0][1])


def _aligned(d, ref, ref_ty):
    """``d`` aligned by name to the reference io-diagram (a, a'), as the
    term ``[I(a)->I(b)] ;; D(b) ;; [O(b)->O(a')]``, or why it cannot be.
    Interfaces are duplicate-free, so they are permutations of each other
    when their name sets are equal."""
    if isinstance(d, str):
        return d
    if d.in_pos.keys() != ref.in_pos.keys():
        return "input lists are not permutations"
    if d.out_pos.keys() != ref.out_pos.keys():
        return "output lists are not permutations"
    for v in d.inputs + d.outputs:
        if ref_ty[v.name] != v.ty:
            return f"variable {v.name} has type {v.ty} vs {ref_ty[v.name]}"
    (tin, tout), (rin, rout) = d.body.typing, ref.body.typing
    return chain(
        switch_names(ref.in_pos, rin, tuple(d.in_pos), tin),
        d.body,
        switch_names(d.out_pos, tout, tuple(ref.out_pos), rout),
    )


def equivalence_cells(
    diagrams: Sequence[IoDiagram],
    samples: int = 200,
    stats: Optional[EvalStats] = None,
):
    """(rows, matrix): pairwise io-equivalence of ``diagrams``, and the
    input rows drawn for it.

    An entry may be a string in place of an io-diagram: the reason a
    strategy produced none.  ``samples`` inputs, or the whole canonical
    grid, are drawn for the first io-diagram (``equivalence_samples``), and
    each diagram is aligned to that interface by name (``_aligned``)
    before ``term_cells`` compares them.  A diagram whose interface is not a
    permutation of the first's fails its row and column with that reason.
    """
    ref = next((d for d in diagrams if not isinstance(d, str)), None)
    rows = [] if ref is None else equivalence_samples(ref.body.in_types, samples)
    # names compare equal regardless of type, so the types are pinned too
    ref_ty = {} if ref is None else {v.name: v.ty for v in ref.inputs + ref.outputs}
    terms = [_aligned(d, ref, ref_ty) for d in diagrams]
    return rows, term_cells(terms, lambda: rows, stats=stats)


def io_equiv(a: IoDiagram, b: IoDiagram, samples: int = 200) -> EquivResult:
    """Equality up to interface permutation, proved or sampled: the
    off-diagonal cell of ``equivalence_cells([a, b], samples)``."""
    return equivalence_cells([a, b], samples)[1][0][1]


def equivalence_matrix(runs: Sequence[StrategyRun], samples: int = 200) -> RunReport:
    """Pairwise io-equivalence of all runs, via shared name-aligned samples."""
    report = RunReport(runs=list(runs))
    if runs:
        rows, report.matrix = equivalence_cells(
            [run.failure or run.diagram for run in runs], samples, report.stats
        )
        report.samples_used = len(rows)
    return report


def run_determinacy(
    diagrams: Sequence[IoDiagram],
    seeds: Sequence[int] = range(20),
    samples: int = 200,
) -> RunReport:
    if not diagrams:
        raise PreconditionError("no diagrams to check")
    runs = translate_all(diagrams, seeds)
    return equivalence_matrix(runs, samples)
