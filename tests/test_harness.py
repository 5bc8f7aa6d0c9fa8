"""Determinacy harness report invariants."""

import importlib
import inspect
import math
import re
import runpy
import types
from pathlib import Path

from hbd import exprs
from hbd.exprs import Bin, ExprFun, Ite, Lit, Ref
from hbd.harness import StrategyRun, equivalence_matrix, run_determinacy, translate_all
from hbd.io_diagrams import IoDiagram
from hbd.terms import Atom, print_term
from hbd.types import BaseType, Var

R = BaseType.REAL


def _blk(name, op):
    a, b, u = Var("a", R), Var("b", R), Var("u", R)
    fn = ExprFun((Var("a", R), Var("b", R)), (Bin(op, Ref("a"), Ref("b")),))
    return IoDiagram((a, b), (u,), Atom(name, fn))


def test_matrix_symmetric_with_true_diagonal(running_example):
    report = run_determinacy(list(running_example), seeds=range(4), samples=60)
    n = len(report.runs)
    for i in range(n):
        assert bool(report.matrix[i][i])
        for j in range(n):
            assert bool(report.matrix[i][j]) == bool(report.matrix[j][i])
    assert report.all_equivalent


def test_inequivalent_runs_are_flagged_with_counterexample():
    runs = [
        StrategyRun("adds", _blk("Add", "+"), 0.0),
        StrategyRun("subs", _blk("Sub", "-"), 0.0),
    ]
    report = equivalence_matrix(runs, 50)
    assert not report.all_equivalent
    cell = report.matrix[0][1]
    assert not cell and cell.counterexample is not None
    rendered = report.render()
    assert "FAIL" in rendered and "counterexample" in rendered
    assert rendered.count("counterexample") == 1  # each pair is listed once


def test_matrix_columns_fit_long_labels(running_example):
    """Each column is as wide as the longest label, so rand10, rand100 and
    rand101 stay apart and every mark sits under its label."""
    runs = translate_all(list(running_example), seeds=(10, 100, 101))
    lines = equivalence_matrix(runs, 20).render().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("pairs:")) + 1
    header, rows = lines[at], lines[at + 1 : at + 1 + len(runs)]
    assert header.split() == ["fbpar", "incr", "rand10", "rand100", "rand101", "fbless"]
    ends = [m.end() for m in re.finditer(r"\S+", header)]
    for row in rows:
        assert [m.end() for m in re.finditer(r"\S+", row)][1:] == ends
        assert row.split()[1:] == ["proved"] * len(runs)


def _loop_diagram(x_body):
    """((u, x), (x, y), [u, x -> x_body, x]) with x fed back by every
    strategy but fbless, which composes the loop away."""
    u, x, y = Var("u", R), Var("x", R), Var("y", R)
    return IoDiagram((u, x), (x, y), Atom("F", ExprFun((u, x), (x_body, Ref("x")))))


def test_nan_loop_cells_are_proved():
    """x = u*inf - u*inf is NaN for finite u.  NaN equals NaN in the fixpoint
    tests and in the comparison, so every strategy settles and every cell
    is proved."""
    nan = Bin("-", Bin("*", Ref("u"), Lit(math.inf)), Bin("*", Ref("u"), Lit(math.inf)))
    report = run_determinacy([_loop_diagram(nan)], seeds=range(2), samples=20)
    assert [r.label for r in report.runs] == ["fbpar", "incr", "rand0", "rand1", "fbless"]
    assert all(cell.proved for row in report.matrix for cell in row)
    assert "pairs: 15 proved (equal output graphs), 0 sampled, 0 failed" in report.render()


def test_graphs_capped_at_other_widths_are_sampled_equal(compiled_runs):
    """x = ite(c, u, x) never repeats as a graph.  With u passed through a
    feedback of a switch, which is the identity, its solve is two wires
    wide and stops one pass later, on another graph: the two terms compute
    one function through different graphs, so their cell is sampled, runs
    both, and holds."""
    from hbd.harness import term_cells
    from hbd.semantics import sample_inputs
    from hbd.terms import Feedback, Id, Parallel, Serial, Switch

    from util import growing_tower

    loop = growing_tower(Ite(Ref("c"), Ref("u"), Ref("x")))
    wide = Serial(Parallel(Feedback(Switch((R,), (R,))), Id((BaseType.BOOL,))), loop)
    matrix = term_cells([loop, wide], lambda: sample_inputs(loop.in_types, 40, seed=1))
    cell = matrix[0][1]
    assert cell and not cell.proved and matrix[0][0].proved and matrix[1][1].proved
    assert len(compiled_runs) == 2


def test_failed_strategies_are_listed_once_per_pair():
    """Strategies with no io-diagram fail every cell with the reason: each
    failing pair is listed once, a run against itself included, with no
    counterexample input."""
    reasons = [f"translation failed: planted {k}" for k in range(4)]
    runs = [StrategyRun(f"s{k}", None, 0.0, reason) for k, reason in enumerate(reasons)]
    report = equivalence_matrix(runs, 20)
    for i, row in enumerate(report.matrix):
        for j, cell in enumerate(row):
            assert not cell and cell.reason == reasons[min(i, j)]
    rendered = report.render()
    assert "at None" not in rendered
    assert "pairs: 0 proved (equal output graphs), 0 sampled, 10 failed" in rendered
    pairs = [line.split(":")[0] for line in rendered.splitlines() if line.startswith("counter")]
    assert len(pairs) == len(set(pairs)) == 4 + 3 + 2 + 1


def test_benchmark_bindings_resolve(monkeypatch):
    """The benchmark's traced run wraps these hbd entry points by name; a
    missing one fails every benchmark run, so it must fail here first."""
    spans = runpy.run_path(str(Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"))
    for _, owner, attr, _ in spans["BINDINGS"]:
        module = importlib.import_module("hbd.terms" if owner == "api" else f"hbd.{owner}")
        assert callable(getattr(module, attr, None)), (owner, attr)
    from hbd.compiled import Compiled, compile_term

    # The traced run replaces Compiled.run by a wrapper with these parameters
    # and counts rows and the fixpoint census only there.
    params = list(inspect.signature(Compiled.run).parameters)
    assert params == ["self", "rows", "stats", "validate"]
    batches = []
    run = Compiled.run

    def counted(compiled, rows, stats=None, validate=True):
        batches.append(list(rows))
        return run(compiled, batches[-1], stats=stats, validate=validate)

    monkeypatch.setattr(Compiled, "run", counted)
    assert compile_term(_blk("A", "+").body).run([(1.0, 2.0)])[0] == (3.0,)
    assert batches == [[(1.0, 2.0)]]

    # The workloads call hbd with these signatures: the warm-up (check,
    # translate, and simulate translated and direct), then the corpus
    # workload's reference check and census counts, here on the hbd modules
    # this process has imported already.
    workloads = runpy.run_path(str(Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"))
    api = types.SimpleNamespace(
        **{name: importlib.import_module(f"hbd.{name}") for name in workloads["_MODULES"]}
    )
    api.rewrite_basic, api.print_term = api.terms.rewrite_basic, api.terms.print_term
    workloads["warm_up"](api)
    diagrams, _, _ = api.frontend.document_io_list(api.gen.random_diagram(1, 5, 5))
    out = {"report": api.harness.run_determinacy(diagrams, seeds=range(1), samples=20)}
    corpus = types.SimpleNamespace(api=api, seed=0)
    workloads["Corpus"].check(corpus, None, out)  # compile_term(body), eval_term(body, row)
    counts = workloads["Corpus"].counts(corpus, None, out)
    assert counts["compiled.fixpoints"] == len(api.semantics.EvalStats().feedback_runs) == 0


def test_translate_all_labels(running_example):
    runs = translate_all(list(running_example), seeds=range(3))
    labels = [r.label for r in runs]
    assert labels == ["fbpar", "incr", "rand0", "rand1", "rand2", "fbless"]
    assert all(r.size > 0 and print_term(r.diagram.body).startswith("(") for r in runs)


def test_translate_all_refuses_a_list_that_is_not_io_distinct(running_example):
    """A list that is not io-distinct fails every strategy but fbless with
    the reason; an io-distinct list translates under every strategy."""
    runs = translate_all(list(running_example), seeds=range(3))
    assert len(runs) == 6 and all(r.diagram is not None for r in runs)
    add = running_example[0]
    runs = translate_all([add, add], seeds=range(3))
    reason = "translation failed: PreconditionError: input list is not io-distinct"
    assert [r.failure for r in runs[:-1]] == [reason] * 5
    assert runs[-1].label == "fbless" and runs[-1].failure != reason


def test_a_loop_leaves_fbless_out_and_says_why():
    """fbless does not run on a list with an algebraic loop.  The report
    names the loop in its text, with no FAIL cell, and keeps the note out of
    its runs, which all have a diagram."""
    from hbd.frontend import document_io_list
    from hbd.gen import loop_diagram

    diagrams, _, _ = document_io_list(loop_diagram())
    report = run_determinacy(diagrams, seeds=range(2), samples=20)
    assert [r.label for r in report.runs] == ["fbpar", "incr", "rand0", "rand1"]
    assert all(r.diagram is not None for r in report.runs)
    assert report.not_run == [("fbless", "algebraic loop: w1 -> w3 -> w2 -> w1")]
    text = report.render()
    assert "      fbless: not run: algebraic loop: w1 -> w3 -> w2 -> w1\n" in text
    assert "FAIL" not in text and report.all_equivalent
    # a caller that asks for no notes gets the same runs
    assert [r.label for r in translate_all(diagrams, seeds=range(2))] == ["fbpar", "incr", "rand0", "rand1"]


def test_translated_terms_round_trip_through_text(running_example, corpus_diagrams):
    from hbd.terms import collect_atoms, parse_term

    samples = [translate_all(list(running_example), seeds=range(2))]
    for _, diagrams, _ in corpus_diagrams[:3]:
        samples.append(translate_all(diagrams, seeds=range(2)))
    for runs in samples:
        for run in runs:
            body = run.diagram.body
            assert parse_term(print_term(body), collect_atoms(body)) == body


def test_matrix_analyses_no_expression(corpus_diagrams, monkeypatch):
    """Each body is analysed once, when its function is built (fbless builds
    split functions while translating): checking the translated terms
    analyses none."""
    run_lists = [translate_all(diagrams, range(2)) for _, diagrams, _ in corpus_diagrams[:4]]
    walks = []
    analyse = exprs._analyse
    monkeypatch.setattr(exprs, "_analyse", lambda *a: walks.append(a) or analyse(*a))
    for runs in run_lists:
        assert equivalence_matrix(runs, samples=20).all_equivalent
    assert walks == []


def test_failed_translation_is_a_fail_cell(running_example, sum_path, monkeypatch, capsys):
    """A strategy whose translation raises fails only its own row and
    column; ``hbd check`` reports the reason and exits 1."""
    import hbd.harness as harness
    from hbd.cli import main
    from hbd.errors import CompositionError
    from hbd.translator import FeedbackParallel, RandomChoices

    translate = harness.translate
    broken = set()

    def failing(diagrams, strategy):
        if strategy in broken:
            raise CompositionError("planted clash")
        return translate(diagrams, strategy)

    monkeypatch.setattr(harness, "translate", failing)
    reason = "translation failed: CompositionError: planted clash"
    # the second round also fails fbpar, so the inputs are sampled for incr
    for planted, failed in ((RandomChoices(1), {3}), (FeedbackParallel(), {0, 3})):
        broken.add(planted)
        report = run_determinacy(list(running_example), seeds=range(3), samples=20)
        labels = [r.label for r in report.runs]
        assert labels == ["fbpar", "incr", "rand0", "rand1", "rand2", "fbless"]
        for i, row in enumerate(report.matrix):
            for j, cell in enumerate(row):
                assert bool(cell) == (not failed & {i, j})
                if i in failed:
                    assert cell.reason == reason
        assert report.samples_used == 20
        assert reason in report.render()
    broken.discard(FeedbackParallel())
    assert main(["check", sum_path, "--seeds", "3", "--samples", "20"]) == 1
    out = capsys.readouterr().out
    assert f"counterexample fbpar vs rand1: {reason}" in out
    assert "counterexample fbpar vs incr" not in out


def test_too_deep_term_is_a_fail_cell():
    """A term too deep for the recursion limit fails its own row and column
    with the reason, and the run completes: the other terms are still
    compared."""
    import sys

    from hbd.terms import Id, Serial

    deep = _blk("Add", "+")
    body = deep.body
    for _ in range(3000):
        body = Serial(Id((R, R)), body)  # typed one level at a time
    runs = [
        StrategyRun("flat", _blk("Add", "+"), 0.0),
        StrategyRun("deep", IoDiagram(deep.inputs, deep.outputs, body), 0.0),
        StrategyRun("again", _blk("Add", "+"), 0.0),
    ]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 1000)
    try:
        report = equivalence_matrix(runs, 20)
    finally:
        sys.setrecursionlimit(limit)
    reason = "symbolic evaluation failed: RecursionError: maximum recursion depth exceeded"
    for i, row in enumerate(report.matrix):
        for j, cell in enumerate(row):
            if 1 in (i, j):
                assert not cell and cell.reason.startswith(reason), (i, j, cell.reason)
            else:
                assert cell.proved
    rendered = report.render()
    assert "pairs: 3 proved (equal output graphs), 0 sampled, 3 failed" in rendered
    assert f"counterexample flat vs deep: {reason}" in rendered


def test_translation_runs_within_a_small_stack():
    """No translation step recurses: every strategy translates a 400-block
    diagram with 200 frames to spare above the caller, so a RecursionError
    is no translation failure that ``translate_all`` records."""
    import sys

    from hbd.frontend import document_io_list
    from hbd.gen import random_diagram

    diagrams, _, _ = document_io_list(random_diagram(7, 400, 400))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 200)
    try:
        runs = translate_all(diagrams, seeds=range(3))
    finally:
        sys.setrecursionlimit(limit)
    assert [r.label for r in runs] == ["fbpar", "incr", "rand0", "rand1", "rand2", "fbless"]
    assert all(r.diagram is not None and not r.failure for r in runs)


def test_bench_script_summarizes_pairs():
    """``scripts/bench.py`` gives each side's quartiles per workload and
    metric, and counts the pairs the change won, by each metric's
    direction, where the sides ever differ."""
    bench = runpy.run_path(str(Path(__file__).resolve().parent.parent / "scripts" / "bench.py"))
    metrics = [{"name": "work_per_s", "better": "higher"}, {"name": "term_nodes", "better": "lower"},
               {"name": "op_s.p50", "better": "lower"}]

    def result(work, latency):
        values = {"work_per_s": work, "term_nodes": 7, "op_s.p50": latency}
        return {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {k: {"value": v, "unit": ""} for k, v in values.items()}}

    runs = []
    for pair, (parent, change) in enumerate([(10, 12), (11, 10), (9, 13), (10, 14), (12, 15)], 1):
        runs.append({"side": "parent", "workload": "w", "seed": 0, "pair": pair, "result": result(parent, 1 / parent)})
        runs.append({"side": "change", "workload": "w", "seed": 0, "pair": pair, "result": result(change, 1 / change)})
    summary = bench["summarize"](runs, metrics)["w"]
    assert summary["work_per_s"]["parent"] == {"q1": 9.5, "median": 10, "q3": 11.5}
    assert summary["work_per_s"]["change"]["median"] == 13
    assert summary["work_per_s"]["change_better_pairs"] == "4/5"
    assert summary["op_s.p50"]["change_better_pairs"] == "4/5"
    assert "change_better_pairs" not in summary["term_nodes"]
    assert summary["attempted"] == {"parent": 15, "change": 15}
    assert summary["correct"] == {"parent": True, "change": True}
