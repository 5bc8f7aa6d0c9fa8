"""Determinacy harness: translate one diagram list under many strategies
(``translate`` runs each strategy's step generator to its end) and fill the
pairwise equivalence matrix with the one oracle, ``equivalence_cells``.  It
aligns inputs and outputs by variable name and evaluates each result
symbolically (``hbd.symbolic``): strategies with the same output graphs
compute the same function, so their cell is proved, and only one of them
runs on the shared samples.  Every other cell is sampled.  ``io_equiv`` is
its two-diagram case.  A strategy whose translation fails fails its row and
column with the reason.  So does an undecided strategy whose feedback finds
no fixed point when it runs; a decided one runs as straight-line code and
cannot diverge.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

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
    differences,
    equivalence_samples,
    is_perm,
)
from .semantics import EvalStats
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
        header = " " * (width + 2) + " ".join(f"{l:>6}"[:6] for l in labels)
        lines.append(header)
        for label, row in zip(labels, self.matrix):
            marks = (("proved" if c.proved else "ok") if c else "FAIL" for c in row)
            lines.append(f"{label:>{width}}  " + " ".join(f"{m:>6}" for m in marks))
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


def _misaligned(d: IoDiagram, ref_ins, ref_outs, ref_ty) -> Optional[str]:
    """Why ``d``'s interface cannot be aligned by name to the reference one."""
    if not is_perm(d.inputs, ref_ins):
        return "input lists are not permutations"
    if not is_perm(d.outputs, ref_outs):
        return "output lists are not permutations"
    for v in d.inputs + d.outputs:
        if ref_ty[v.name] is not v.ty:
            return f"variable {v.name} has type {v.ty} vs {ref_ty[v.name]}"
    return None


def equivalence_cells(
    diagrams: Sequence[IoDiagram],
    cfg: EquivConfig = EquivConfig(),
    stats: Optional[EvalStats] = None,
):
    """(samples, matrix): pairwise io-equivalence of ``diagrams``.

    An entry may be a string in place of an io-diagram: the reason a
    strategy produced none.  Inputs are sampled for the first io-diagram,
    and each body is aligned to that interface by name, which evaluates
    ``[I(a)->I(b)] ;; D(b) ;; [O(b)->O(a)]``.  First each body is evaluated
    symbolically (``symbolic.Graph``) into its aligned output graphs.  Then
    it runs on the samples only when no earlier body with the same graphs
    has run; otherwise it reuses that body's output columns.  A cell between
    equal graphs is proved; any other cell is sampled.  A string entry, a
    diagram whose interface is not a permutation of the first's, or an
    undecided one that finds no fixed point fails its whole row and column
    with that reason.
    """
    ref = next((d for d in diagrams if not isinstance(d, str)), None)
    ref_ins, ref_outs = ((), ()) if ref is None else (ref.inputs, ref.outputs)
    samples = [] if ref is None else equivalence_samples(types_of(ref_ins), cfg)
    columns = list(zip(*samples))
    in_pos = {v: i for i, v in enumerate(ref_ins)}
    # names compare equal regardless of type, so the types are pinned too
    ref_ty = {v.name: v.ty for v in ref_ins + ref_outs}
    graph = Graph()
    symbols = [graph.symbol(i) for i in range(len(ref_ins))]
    aligned = []  # per diagram: its output columns in ref's order, or why there are none
    dags = []  # per diagram: its output graphs in ref's order, or None
    evaluated = {}  # output graphs -> the aligned columns of the first body that ran
    for d in diagrams:
        reason = d if isinstance(d, str) else _misaligned(d, ref_ins, ref_outs, ref_ty)
        dag = None
        if reason is None:
            in_map = [in_pos[v] for v in d.inputs]
            out_pos = {v: i for i, v in enumerate(d.outputs)}
            nodes = graph.outputs(d.body, [symbols[i] for i in in_map], stats)
            if nodes is not None:
                dag = tuple(nodes[out_pos[v]] for v in ref_outs)
            if dag in evaluated:
                cols = evaluated[dag]
            else:
                rows = list(zip(*[columns[i] for i in in_map])) if in_map else samples
                try:
                    outs = compile_term(d.body).run(rows, stats=stats, validate=False)
                except FixpointDivergence as exc:  # only a loop node iterates: dag is None
                    reason = f"fixpoint divergence: {exc}"
                else:
                    out_cols = list(zip(*outs))
                    cols = [out_cols[out_pos[v]] for v in ref_outs]
                    if dag is not None:
                        evaluated[dag] = cols
        aligned.append(reason or cols)
        dags.append(dag)

    n = len(diagrams)
    matrix = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a, b = aligned[i], aligned[j]
            reason = a if isinstance(a, str) else b if isinstance(b, str) else None
            diff = (
                None
                if reason or a == b
                else next(differences(samples, zip(*a), zip(*b)), None)
            )
            if reason or diff:
                cell = EquivResult(False, reason or "semantic difference", diff)
            else:
                cell = EquivResult(True, proved=dags[i] is not None and dags[i] == dags[j])
            matrix[i][j] = matrix[j][i] = cell
    return samples, matrix


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
