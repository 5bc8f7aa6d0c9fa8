"""Determinacy harness: translate one diagram list under many strategies
(``translate`` runs each strategy's step generator to its end) and fill the
pairwise equivalence matrix with the one sampling oracle,
``equivalence_cells``, which evaluates each result once on shared samples
with inputs and outputs aligned by variable name.  ``io_equiv`` is its
two-diagram case.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .compiled import compile_term
from .errors import FixpointDivergence, PreconditionError
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
from .terms import print_term, term_size
from .translator import FeedbackParallel, Incremental, RandomChoices, translate
from .types import types_of


@dataclass
class StrategyRun:
    label: str
    diagram: IoDiagram
    seconds: float

    @property
    def size(self) -> int:
        return term_size(self.diagram.body)

    @property
    def term_text(self) -> str:
        return print_term(self.diagram.body)


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
        labels = [r.label for r in self.runs]
        width = max(len(l) for l in labels) if labels else 0
        header = " " * (width + 2) + " ".join(f"{l:>6}"[:6] for l in labels)
        lines.append(header)
        for label, row in zip(labels, self.matrix):
            cells = " ".join(f"{'ok' if c else 'FAIL':>6}" for c in row)
            lines.append(f"{label:>{width}}  {cells}")
        for i, row in enumerate(self.matrix):
            for j in range(i, len(row)):
                cell = row[j]
                if not cell:
                    at = "" if cell.counterexample is None else f" at {cell.counterexample}"
                    lines.append(
                        f"counterexample {labels[i]} vs {labels[j]}: {cell.reason}{at}"
                    )
        return "\n".join(lines)


def translate_all(diagrams: Sequence[IoDiagram], seeds: Sequence[int] = range(20)):
    """(label, io-diagram, seconds) for fbpar, incr, each seed, and fbless
    when the split block list is loop-free."""
    runs = []

    def timed(label, thunk):
        t0 = time.perf_counter()
        result = thunk()
        runs.append(StrategyRun(label, result, time.perf_counter() - t0))

    timed("fbpar", lambda: translate(diagrams, FeedbackParallel()))
    timed("incr", lambda: translate(diagrams, Incremental()))
    for seed in seeds:
        timed(f"rand{seed}", lambda s=seed: translate(diagrams, RandomChoices(s)))
    blocks = [sb for d in diagrams for sb in split_block(d)]
    if loop_free(blocks):
        timed("fbless", lambda: fbless_translate(blocks))
    return runs


def equivalence_cells(
    diagrams: Sequence[IoDiagram],
    cfg: EquivConfig = EquivConfig(),
    stats: Optional[EvalStats] = None,
):
    """(samples, matrix): pairwise io-equivalence of nonempty ``diagrams``.

    Inputs are sampled for the first diagram; each body runs once with its
    arguments and results aligned to that interface by name, which evaluates
    ``[I(a)->I(b)] ;; D(b) ;; [O(b)->O(a)]``.  A diagram whose interface is
    not a permutation of the first's, or that finds no fixed point, fails
    its whole row and column with that reason.
    """
    ref = diagrams[0]
    samples = equivalence_samples(types_of(ref.inputs), cfg)
    in_pos = {v: i for i, v in enumerate(ref.inputs)}
    # names compare equal regardless of type, so the types are pinned too
    ref_ty = {v.name: v.ty for v in ref.inputs + ref.outputs}
    aligned = []  # per diagram: its outputs in ref's order, or why there are none
    for d in diagrams:
        if not is_perm(d.inputs, ref.inputs):
            aligned.append("input lists are not permutations")
            continue
        if not is_perm(d.outputs, ref.outputs):
            aligned.append("output lists are not permutations")
            continue
        clash = [v for v in d.inputs + d.outputs if ref_ty[v.name] is not v.ty]
        if clash:
            v = clash[0]
            aligned.append(f"variable {v.name} has type {v.ty} vs {ref_ty[v.name]}")
            continue
        in_map = [in_pos[v] for v in d.inputs]
        rows = [tuple(row[i] for i in in_map) for row in samples]
        try:
            outs = compile_term(d.body, cfg.eval_config).run(
                rows, stats=stats, validate=False
            )
        except FixpointDivergence as exc:
            aligned.append(f"fixpoint divergence: {exc}")
            continue
        out_pos = {v: i for i, v in enumerate(d.outputs)}
        out_map = [out_pos[v] for v in ref.outputs]
        aligned.append([tuple(o[i] for i in out_map) for o in outs])

    n = len(diagrams)
    matrix = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a, b = aligned[i], aligned[j]
            reason = a if isinstance(a, str) else b if isinstance(b, str) else None
            diff = None if reason or a == b else next(differences(samples, a, b), None)
            if reason or diff:
                cell = EquivResult(False, reason or "semantic difference", diff)
            else:
                cell = EquivResult(True)
            matrix[i][j] = matrix[j][i] = cell
    return samples, matrix


def io_equiv(a: IoDiagram, b: IoDiagram, cfg: EquivConfig = EquivConfig()) -> EquivResult:
    """Sampling check of equality up to interface permutation: the
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
            [run.diagram for run in runs], cfg, report.stats
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
