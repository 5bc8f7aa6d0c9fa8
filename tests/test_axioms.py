"""The sixteen algebra laws, plus a self-test that the checker catches lies."""

import os
import pathlib
import subprocess
import sys

import pytest

import hbd
import hbd.axioms
from hbd.axioms import AXIOMS, Equation, check_equation, run_axiom_suite
from hbd.errors import FixpointDivergence
from hbd.exprs import Ite, Ref, Un
from hbd.semantics import EvalConfig, eval_term, sample_inputs
from hbd.terms import Id, Sink, Split, Switch, mk_feedback, mk_parallel, mk_serial
from hbd.types import BaseType

from util import growing_tower, non_monotone_neg

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
    lhs = mk_serial(Split(t), mk_parallel(Sink(t), Id(t)))
    for row in sample_inputs(t, 30, seed=1):
        assert eval_term(lhs, row) == row


def test_axiom_thirteen_directly():
    lhs = mk_feedback(Switch((I,), (I,)))
    for row in sample_inputs((I,), 20, seed=2):
        assert eval_term(lhs, row) == row


def test_checker_catches_planted_inequality():
    t = (I,)
    true_eq = Equation(Split(t), mk_serial(Split(t), Switch(t, t)))
    assert not check_equation(true_eq, samples=40, seed=0)  # axiom 7 holds
    planted = Equation(Switch(t, t), Id((I, I)))  # well-typed and false
    bad = check_equation(planted, samples=40, seed=0)
    assert bad, "a false equation must produce counterexamples"
    row, lo, ro = bad[0]
    assert lo != ro


def test_diverging_side_raises_and_axioms_exit_4(monkeypatch, capsys):
    """A side whose feedback finds no fixed point is no counterexample:
    ``check_equation`` raises ``FixpointDivergence`` and ``hbd axioms``
    exits 4 with the reason."""
    from hbd.cli import main

    non_monotone_neg(monkeypatch)
    loop = growing_tower(Ite(Ref("c"), Ref("u"), Un("neg", Ref("x"))))
    eq = Equation(loop, loop)
    with pytest.raises(FixpointDivergence, match="^no fixed point within 8 iterations"):
        check_equation(eq, samples=20, seed=0)
    monkeypatch.setattr(hbd.axioms, "AXIOMS", [("diverging", lambda rng: [eq])])
    assert main(["axioms", "--instances", "1", "--samples", "20"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("fixpoint divergence: no fixed point") and err.count("divergence") == 1


def test_suite_small_run_all_pass():
    outcomes = run_axiom_suite(instances=6, samples=25, seed=7)
    assert len(outcomes) == 16
    for outcome in outcomes:
        assert outcome.ok, (outcome.name, outcome.failures[:1])


def test_suite_nonstrict_multiply_model():
    cfg = EvalConfig(strict_multiply=False)
    outcomes = run_axiom_suite(instances=4, samples=25, seed=11, cfg=cfg)
    for outcome in outcomes:
        assert outcome.ok, (outcome.name, outcome.failures[:1])


def test_suite_single_sample_budget_still_passes():
    outcomes = run_axiom_suite(instances=4, samples=1, seed=13)
    assert all(o.ok for o in outcomes)


def test_suite_seed_variation():
    for seed in (101, 202, 303):
        outcomes = run_axiom_suite(instances=5, samples=30, seed=seed)
        assert all(o.ok for o in outcomes), [o.name for o in outcomes if not o.ok]


def test_sampler_distinguishes_the_two_multiply_models():
    # the same term evaluated under strict and nonstrict multiply differs
    # on inputs pairing bot with zero, so the oracle must see through it
    from hbd.compiled import compile_term
    from hbd.exprs import Bin, ExprFun, Ref
    from hbd.io_diagrams import differences
    from hbd.semantics import sample_inputs
    from hbd.terms import mk_atom
    from hbd.types import Var

    mul = mk_atom(
        "mul", ExprFun((Var("a", R), Var("b", R)), (Bin("*", Ref("a"), Ref("b")),))
    )
    strict = compile_term(mul, EvalConfig(strict_multiply=True))
    lazy = compile_term(mul, EvalConfig(strict_multiply=False))
    rows = sample_inputs((R, R), 200, seed=3)
    diffs = list(differences(rows, strict.run(rows), lazy.run(rows)))
    assert diffs, "sampling must produce bot-with-zero pairs"


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
