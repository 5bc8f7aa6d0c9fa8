"""The compiled row functions: one-atom terms, whose row function is the
atom's kernel, against the reference expression evaluator; deep
expressions; a tower whose graph grows to the cap, against the reference
term evaluator; and the pure-Python dependency set."""

import inspect
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest

import hbd
from hbd.compiled import compile_term
from hbd.exprs import Bin, ExprFun, Ite, Lit, Ref, Un
from hbd.frontend import FbLess, flatten_or_recurse
from hbd.semantics import BOT, EvalStats, eval_expr, eval_term, sample_inputs
from hbd.symbolic import Graph
from hbd.terms import Atom
from hbd.translator import FeedbackParallel, Incremental
from hbd.types import BaseType, Var

from util import VALUES as _VALUES, expr_all_ops as _expr, growing_tower

R, I, B = BaseType.REAL, BaseType.INT, BaseType.BOOL
INF = float("inf")
BIG = 2**80


def _random_value(rng, k):
    return BOT if rng.random() < 0.25 else rng.choice(_VALUES[k])


def _same(a, b) -> bool:
    """Equal value of equal kind: True is not 1, -0.0 is not 0.0, NaN is NaN."""
    if a is BOT or b is BOT:
        return a is b
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


def _kernel(fn):
    """The compiled one-atom term of ``fn``: its row function is the kernel."""
    return compile_term(Atom("f", fn))


def _check(fn, rows):
    outs = _kernel(fn).run(rows)
    assert len(outs) == len(rows)
    for row, got in zip(rows, outs):
        want = eval_expr(fn, row)
        assert len(got) == len(fn.bodies)
        assert all(map(_same, got, want)), (fn, row, got, want)


def test_kernels_agree_with_eval_expr():
    rng = random.Random(29)
    for _ in range(300):
        params = tuple(Var(f"p{i}", rng.choice((R, I, B))) for i in range(rng.randint(0, 3)))
        bodies = tuple(
            _expr(rng, params, rng.choice((R, I, B)), rng.randint(0, 4))
            for _ in range(rng.randint(1, 3))
        )
        fn = ExprFun(params, bodies)
        rows = [tuple(_random_value(rng, p.ty) for p in params) for _ in range(40)]
        _check(fn, rows)


def _grid(*kinds):
    rows = [()]
    for k in kinds:
        rows = [r + (v,) for r in rows for v in (BOT,) + _VALUES[k]]
    return rows


@pytest.mark.parametrize(
    "kinds, body",
    [
        # floor division on Int, true division on Real, bot on a zero divisor
        ((I, I), Bin("/", Ref("a"), Ref("b"))),
        ((R, R), Bin("/", Ref("a"), Ref("b"))),
        ((I, I), Bin("/", Bin("-", Ref("a"), Ref("b")), Bin("*", Ref("b"), Lit(-2)))),
        # multiply is strict: bot times zero is bot, of either operand
        ((R, R), Bin("*", Ref("a"), Ref("b"))),
        ((I, I), Bin("*", Bin("+", Ref("a"), Lit(0)), Bin("min", Ref("b"), Lit(0)))),
        ((R, R), Bin("*", Lit(0.0), Bin("/", Ref("a"), Ref("b")))),
        # a bot condition gives bot; bot in the untaken branch does not matter
        ((I, I), Ite(Bin("<", Ref("a"), Ref("b")), Ref("a"), Bin("/", Ref("a"), Lit(0)))),
        ((R, R), Ite(Bin("==", Ref("a"), Ref("b")), Bin("-", Ref("b"), Ref("a")), Ref("b"))),
        # Int stays exact past 2**53
        ((I, I), Bin("-", Bin("*", Ref("a"), Ref("b")), Bin("*", Ref("b"), Ref("a")))),
        ((I, I), Bin("max", Bin("+", Ref("a"), Lit(BIG)), Un("neg", Ref("b")))),
        # inf literals that produce NaN
        ((R, R), Bin("-", Bin("*", Ref("a"), Lit(INF)), Bin("*", Ref("b"), Lit(INF)))),
        ((R, R), Bin("*", Bin("+", Ref("a"), Lit(-INF)), Ref("b"))),
        ((R, R), Bin("min", Bin("*", Ref("a"), Lit(INF)), Ref("b"))),
    ],
)
def test_kernel_rules_on_every_value_pair(kinds, body):
    fn = ExprFun(tuple(Var(n, k) for n, k in zip("ab", kinds)), (body,))
    _check(fn, _grid(*kinds))


def test_kernel_values_by_hand():
    i2 = (Var("a", I), Var("b", I))
    r2 = (Var("a", R), Var("b", R))
    div = (Bin("/", Ref("a"), Ref("b")),)
    run = lambda params, bodies, rows: [  # noqa: E731
        out for (out,) in _kernel(ExprFun(params, bodies)).run(rows)
    ]
    assert run(i2, div, [(7, -2), (-7, 2), (7, 0), (0, 0), (BIG, 3)]) == [
        -4, -4, BOT, BOT, BIG // 3
    ]
    assert run(r2, div, [(7.0, -2.0), (1.0, -0.0)]) == [-3.5, BOT]
    mul = (Bin("*", Ref("a"), Ref("b")),)
    assert run(r2, mul, [(BOT, 0.0), (BOT, 1.0), (-0.0, BOT)]) == [BOT, BOT, BOT]


def test_ref_and_literal_columns():
    """A Ref body hands back its input value itself, so a NaN passing
    through a feedback unchanged counts as settled; a Lit body is its
    literal, kind and sign included."""
    fn = ExprFun((Var("x", R), Var("s", R)), (Ref("s"), Ref("x"), Lit(2.5), Lit(-0.0)))
    x, s = float("nan"), 0.0
    out = _kernel(fn).run([(x, s)])[0]
    assert out[0] is s and out[1] is x
    assert out[2] == 2.5 and _same(out[3], -0.0)


def test_deep_expression_compiles():
    """One assignment per node: an atom nested 300 deep compiles and runs,
    though one nested Python expression for it would exceed the parser's
    nesting limit."""
    e = Ref("a")
    for i in range(300):
        e = Bin("+", e, Lit(1)) if i % 2 else Bin("min", Lit(1000), e)
    fn = ExprFun((Var("a", I),), (e,))
    rows = [(0,), (7,), (BOT,), (2000,)]
    assert _kernel(fn).run(rows) == [eval_expr(fn, row) for row in rows]
    assert _kernel(fn).run([(0,)])[0] == (150,)


def test_growing_tower_compiles_to_straight_line_code():
    """x = ite(c, u, x) grows one node per iteration, so its graph never
    repeats and its solve stops at the cap.  The term still compiles to
    straight-line code, and each row is eval_term's, value by value; the
    rows run no fixpoint, where eval_term iterates once or twice a row."""
    loop = growing_tower(Ite(Ref("c"), Ref("u"), Ref("x")))
    compiled = compile_term(loop)
    assert compiled.source.startswith("def row(")
    census = set()
    for row in sample_inputs(loop.in_types, 60, seed=3):
        got, want = EvalStats(), EvalStats()
        (out,) = compiled.run([row], got)
        assert all(map(_same, out, eval_term(loop, row, stats=want)))
        assert got.feedback_runs == got.symbolic_runs == []
        census.update(want.feedback_runs)
    assert census == {(1, 1), (1, 2)}


def test_row_takes_the_input_values_alone():
    """The row function's parameters are the term's inputs, one each: no
    fixpoint is left to run, so it takes no census."""
    compiled = _kernel(ExprFun((Var("a", R), Var("b", I)), (Ref("b"), Ref("a"))))
    assert list(inspect.signature(compiled.row).parameters) == ["v1", "v2"]
    assert compiled.source.startswith("def row(v1, v2):\n")
    assert compiled.row(1.5, 2) == (2, 1.5)
    assert _kernel(ExprFun((), (Lit(1.0),))).row() == (1.0,)


def test_simulated_terms_are_decided(corpus_docs):
    """Every tower of the 84 terms `hbd simulate` runs on the corpus (each
    document with a UnitDelay, under fbpar, incr and fbless) settles as a
    graph within w + 1 passes, for w the total width of the term's towers,
    well before the cap."""
    docs = [d for d in corpus_docs if any(b.kind == "UnitDelay" for b in d.blocks)]
    assert len(docs) == 28
    terms = 0
    for doc in docs:
        for method in (FeedbackParallel(), Incremental(), FbLess()):
            body = flatten_or_recurse(doc, "flatten", method).diagram.body
            graph, stats = Graph(), EvalStats()
            graph.outputs(body, [graph.symbol(i) for i in range(len(body.in_types))], stats)
            assert all(passes <= width + 1 for width, passes in stats.symbolic_runs), (
                doc.name, method
            )
            terms += 1
    assert terms == 84


def test_import_hbd_leaves_numpy_out():
    """numpy alone would add about 10 MB of resident memory."""
    src = str(pathlib.Path(hbd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, hbd, hbd.cli; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
