"""The sixteen algebra laws, plus a self-test that the checker catches lies."""

import os
import pathlib
import subprocess
import sys

import pytest

import hbd
import hbd.axioms
from hbd.axioms import AXIOMS, Equation, check_equation, run_axiom_suite
from hbd.semantics import eval_term, sample_inputs
from hbd.terms import Feedback, Id, Parallel, Serial, Sink, Split, Switch
from hbd.types import BaseType

R, I, B = BaseType.REAL, BaseType.INT, BaseType.BOOL


@pytest.mark.parametrize("name,builder", AXIOMS, ids=[n for n, _ in AXIOMS])
def test_axiom_smoke(name, builder):
    import random

    rng = random.Random(hash(name) & 0xFFFF)
    for i in range(12):
        for eq in builder(rng):
            assert not check_equation(eq, samples=25, seed=i), name


def test_axiom_six_directly():
    # Split(t) ;; Sink(t)||Id(t) == Id(t), checked by the reference evaluator
    t = (R, I)
    lhs = Serial(Split(t), Parallel(Sink(t), Id(t)))
    for row in sample_inputs(t, 30, seed=1):
        assert eval_term(lhs, row) == row


def test_axiom_thirteen_directly():
    lhs = Feedback(Switch((I,), (I,)))
    for row in sample_inputs((I,), 20, seed=2):
        assert eval_term(lhs, row) == row


def test_checker_catches_planted_inequality():
    t = (I,)
    true_eq = Equation(Split(t), Serial(Split(t), Switch(t, t)))
    assert not check_equation(true_eq, samples=40, seed=0)  # axiom 7 holds
    planted = Equation(Switch(t, t), Id((I, I)))  # well-typed and false
    bad = check_equation(planted, samples=40, seed=0)
    assert bad, "a false equation must produce counterexamples"
    row, lo, ro = bad[0]
    assert lo != ro


def test_side_without_outputs_fails_its_axiom_with_the_reason(monkeypatch, capsys):
    """A side too deep for the symbolic evaluator has no outputs and no
    counterexample: ``check_equation`` reports the cell's reason, and
    ``hbd axioms`` fails that axiom with it and exits 1."""
    from hbd.cli import main

    deep = Id((R,))
    for _ in range(25_000):
        deep = Serial(deep, Id((R,)))
    eq = Equation(deep, Id((R,)))
    (reason,) = check_equation(eq, samples=20, seed=0)
    assert reason.startswith("symbolic evaluation failed: RecursionError")
    monkeypatch.setattr(hbd.axioms, "AXIOMS", [("too deep", lambda rng: [eq])])
    assert main(["axioms", "--instances", "1", "--samples", "20"]) == 1
    out = capsys.readouterr().out
    assert f"  failed: {reason}\n" in out and out.endswith("0/1 axioms pass\n")


def test_suite_proves_every_instance(monkeypatch):
    """Both sides of every instance have equal output graphs, those whose
    towers stop at the cap included, so no instance needs sampling."""
    cells = []
    term_cells = hbd.axioms.term_cells

    def kept(terms, rows):
        matrix = term_cells(terms, rows)
        cells.append(matrix[0][1])
        return matrix

    monkeypatch.setattr(hbd.axioms, "term_cells", kept)
    outcomes = run_axiom_suite(instances=10, samples=20, seed=0)
    assert len(cells) == sum(o.instances for o in outcomes) >= 160
    assert all(cell.proved for cell in cells)


def test_false_law_prints_a_counterexample_and_exits_1(monkeypatch, capsys):
    from hbd.cli import main

    t = (I,)
    planted = Equation(Switch(t, t), Id((I, I)))
    monkeypatch.setattr(hbd.axioms, "AXIOMS", [("planted", lambda rng: [planted])])
    assert main(["axioms", "--instances", "2", "--samples", "20"]) == 1
    out = capsys.readouterr().out
    assert "[   2 instances] FAIL" in out and "  counterexample: input=(" in out


def test_suite_small_run_all_pass():
    outcomes = run_axiom_suite(instances=6, samples=25, seed=7)
    assert len(outcomes) == 16
    for outcome in outcomes:
        assert outcome.ok, (outcome.name, outcome.failures[:1])


def test_suite_single_sample_budget_still_passes():
    outcomes = run_axiom_suite(instances=4, samples=1, seed=13)
    assert all(o.ok for o in outcomes)


def test_suite_seed_variation():
    for seed in (101, 202, 303):
        outcomes = run_axiom_suite(instances=5, samples=30, seed=seed)
        assert all(o.ok for o in outcomes), [o.name for o in outcomes if not o.ok]


_SHOW_FIRST_INSTANCES = """
import hbd.axioms as ax
check = ax.check_equation
def show(eq, *args):
    print(repr(eq.lhs), repr(eq.rhs))
    return check(eq, *args)
ax.check_equation = show
ax.run_axiom_suite(instances=1, samples=1)
"""


def test_suite_instances_do_not_depend_on_hash_seed():
    """Each law draws the same first instance in processes whose str
    hashing differs, so a counterexample reproduces from its seed."""
    src = str(pathlib.Path(hbd.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    outs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", _SHOW_FIRST_INSTANCES],
            env=env, capture_output=True, text=True, check=True,
        )
        outs.append(proc.stdout)
    assert outs[0].count("\n") >= 16
    assert outs[0] == outs[1]
