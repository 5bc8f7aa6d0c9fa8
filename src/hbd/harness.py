"""Determinacy harness: translate one diagram list under many strategies
(``translate`` runs each strategy's step generator to its end) and fill the
pairwise equivalence matrix.  ``term_cells`` is the one oracle of hbd, also
behind the axiom suite and ``feedbackless.check_deterministic``: terms with
the same symbolic output graphs (``hbd.symbolic``) compute the same
function, so their cell is proved and neither runs; every other cell is
sampled, and a graph class runs only when a sampled cell needs it.
``equivalence_cells`` aligns each io-diagram to the first by name with
``Route`` wiring; ``io_equiv`` is its two-diagram case.  A strategy whose
translation fails fails its row and column with the reason.  So does an
undecided strategy whose feedback finds no fixed point when it runs on the
reference evaluator, ``eval_term``; a decided one runs as straight-line code
and cannot diverge.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .compiled import compile_term
from .errors import (
    CompositionError,
    FixpointDivergence,
    PreconditionError,
    TypeMismatchError,
)
from .feedbackless import fbless_translate, loop_free, split_block
from .io_diagrams import (
    EquivConfig,
    EquivResult,
    IoDiagram,
    chain,
    differences,
    equivalence_samples,
    is_perm,
    switch_vars,
)
from .semantics import DEFAULT_CONFIG, EvalConfig, EvalStats
from .symbolic import Graph
from .terms import print_term, term_size
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

    @property
    def term_text(self) -> str:
        return "" if self.diagram is None else print_term(self.diagram.body)


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


_TRANSLATION_ERRORS = (CompositionError, PreconditionError, TypeMismatchError, RecursionError)


def translate_all(diagrams: Sequence[IoDiagram], seeds: Sequence[int] = range(20)):
    """(label, io-diagram, seconds) for fbpar, incr, each seed, and fbless
    when the split block list is loop-free.  A strategy whose translation
    raises gets no io-diagram and records why in ``failure``."""
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


def term_cells(
    terms: Sequence,
    sample: Callable[[], list],
    cfg: EvalConfig = DEFAULT_CONFIG,
    stats: Optional[EvalStats] = None,
):
    """The symmetric matrix of ``EquivResult`` cells that compares terms of
    one typing pairwise: the one oracle of hbd.

    An entry may be a string in place of a term: the reason there is none.
    Each term is evaluated once in one ``symbolic.Graph``.  A cell between
    two equal decided output graphs is proved, and neither term runs.  Every
    other cell is sampled on the rows of ``sample()``, which is called at
    most once: each graph class runs once, and each undecided term on its
    own, on the reference evaluator.  A string entry, or an undecided term
    that finds no fixed point, fails its whole row and column with that
    reason.
    """
    graph = Graph(cfg)
    typed = next((t for t in terms if not isinstance(t, str)), None)
    symbols = [] if typed is None else [graph.symbol(i) for i in range(len(typed.in_types))]
    dags = [None if isinstance(t, str) else graph.outputs(t, symbols, stats) for t in terms]
    rows = None  # sample(), drawn when the first term runs
    ran = {}  # graph class, or the index of an undecided term -> outputs or why none

    def outputs(i):
        """Entry ``i``'s outputs on the rows, or why there are none."""
        nonlocal rows
        if isinstance(terms[i], str):
            return terms[i]
        key = i if dags[i] is None else dags[i]
        if key not in ran:
            if rows is None:
                rows = sample()
            try:
                ran[key] = compile_term(terms[i], cfg).run(rows, stats=stats, validate=False)
            except FixpointDivergence as exc:  # only eval_term iterates: dags[i] is None
                ran[key] = f"fixpoint divergence: {exc}"
        return ran[key]

    n = len(terms)
    matrix = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if dags[i] is not None and dags[i] == dags[j]:
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


def _aligned(d, ref_ins, ref_outs, ref_ty):
    """``d`` aligned by name to the reference interface (a, a'), as the term
    ``[I(a)->I(b)] ;; D(b) ;; [O(b)->O(a')]``, or why it cannot be."""
    if isinstance(d, str):
        return d
    if not is_perm(d.inputs, ref_ins):
        return "input lists are not permutations"
    if not is_perm(d.outputs, ref_outs):
        return "output lists are not permutations"
    for v in d.inputs + d.outputs:
        if ref_ty[v.name] is not v.ty:
            return f"variable {v.name} has type {v.ty} vs {ref_ty[v.name]}"
    return chain(switch_vars(ref_ins, d.inputs), d.body, switch_vars(d.outputs, ref_outs))


def equivalence_cells(
    diagrams: Sequence[IoDiagram],
    cfg: EquivConfig = EquivConfig(),
    stats: Optional[EvalStats] = None,
):
    """(samples, matrix): pairwise io-equivalence of ``diagrams``.

    An entry may be a string in place of an io-diagram: the reason a
    strategy produced none.  Inputs are sampled for the first io-diagram,
    and each diagram is aligned to that interface by name (``_aligned``)
    before ``term_cells`` compares them.  A diagram whose interface is not a
    permutation of the first's fails its row and column with that reason.
    """
    ref = next((d for d in diagrams if not isinstance(d, str)), None)
    ref_ins, ref_outs = ((), ()) if ref is None else (ref.inputs, ref.outputs)
    samples = [] if ref is None else equivalence_samples(types_of(ref_ins), cfg)
    # names compare equal regardless of type, so the types are pinned too
    ref_ty = {v.name: v.ty for v in ref_ins + ref_outs}
    terms = [_aligned(d, ref_ins, ref_outs, ref_ty) for d in diagrams]
    return samples, term_cells(terms, lambda: samples, stats=stats)


def io_equiv(a: IoDiagram, b: IoDiagram, cfg: EquivConfig = EquivConfig()) -> EquivResult:
    """Equality up to interface permutation, proved or sampled: the
    off-diagonal cell of ``equivalence_cells([a, b], cfg)``."""
    return equivalence_cells([a, b], cfg)[1][0][1]


def equivalence_matrix(
    runs: Sequence[StrategyRun],
    cfg: EquivConfig = EquivConfig(),
    stats: Optional[EvalStats] = None,
) -> RunReport:
    """Pairwise io-equivalence of all runs, via shared name-aligned samples."""
    report = RunReport(runs=list(runs), stats=stats or EvalStats())
    if runs:
        samples, report.matrix = equivalence_cells(
            [run.failure or run.diagram for run in runs], cfg, report.stats
        )
        report.samples_used = len(samples)
    return report


def run_determinacy(
    diagrams: Sequence[IoDiagram],
    seeds: Sequence[int] = range(20),
    samples: int = 200,
) -> RunReport:
    if not diagrams:
        raise PreconditionError("no diagrams to check")
    runs = translate_all(diagrams, seeds)
    return equivalence_matrix(runs, EquivConfig(samples=samples))
