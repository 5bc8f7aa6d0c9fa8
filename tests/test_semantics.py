"""Value domain, expression evaluation, term evaluation, sampling,
monotonicity, and agreement between the reference and batch evaluators."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from hbd.axioms import random_term
from hbd.compiled import compile_term
from hbd.errors import FixpointDivergence, TypeMismatchError
from hbd.exprs import Bin, ExprFun, Ite, Lit, Ref, Un
from hbd.semantics import (
    BOT,
    MAX_FIX_ITERS,
    EvalStats,
    eval_expr,
    eval_term,
    sample_inputs,
    value_kind,
)
from hbd.symbolic import BOT as BOT_NODE, Graph
from hbd.terms import (
    Atom,
    Feedback,
    Id,
    Parallel,
    Route,
    Serial,
    Sink,
    Split,
    Switch,
    iter_subterms,
    mk_arb,
)
from hbd.types import BaseType, Var

from util import (
    check_monotone,
    growing_tower,
    nested_eval_term,
    non_monotone_neg,
    tuple_leq,
    value_leq,
)

R, I, B = BaseType.REAL, BaseType.INT, BaseType.BOOL


def test_value_kinds():
    assert value_kind(BOT) is None
    assert value_kind(True) == B
    assert value_kind(3) == I
    assert value_kind(3.0) == R


def test_flat_order():
    assert value_leq(BOT, 5)
    assert value_leq(5, 5)
    assert not value_leq(5, 6)
    assert not value_leq(5, BOT)
    assert not value_leq(True, 1)  # kinds differ even though True == 1
    assert tuple_leq((BOT, 2), (1.0, 2))


def test_eval_constants():
    assert eval_term(Switch((R,), (I,)), (1.5, 2)) == (2, 1.5)
    assert eval_term(Split((I,)), (4,)) == (4, 4)
    assert eval_term(Sink((R, B)), (1.0, True)) == ()
    assert eval_term(Id(()), ()) == ()


def test_eval_feedback_of_switch_is_identity():
    assert eval_term(Feedback(Switch((R,), (R,))), (7.0,)) == (7.0,)


def test_eval_arb_is_unknown():
    assert eval_term(mk_arb(I), ()) == (BOT,)


def test_eval_input_validation():
    with pytest.raises(TypeMismatchError):
        eval_term(Id((R,)), (2,))
    with pytest.raises(TypeMismatchError):
        eval_term(Id((R,)), (1.0, 2.0))


ADD_I = ExprFun((Var("z", I), Var("u", I)), (Bin("+", Ref("z"), Ref("u")),))
MUL_R = ExprFun((Var("x", R), Var("y", R)), (Bin("*", Ref("x"), Ref("y")),))


def test_expr_bottom_propagation():
    assert eval_expr(ADD_I, (BOT, 3)) == (BOT,)
    assert eval_expr(ADD_I, (2, 3)) == (5,)


def test_multiply_is_strict():
    """Bot times zero is bot, in the reference, the graph and the compiled
    evaluator alike, as inf times zero is NaN: a rule of zero absorbing bot
    would not be monotone."""
    compiled = compile_term(Atom("Mul", MUL_R))
    for evaluate in (lambda row: eval_expr(MUL_R, row), lambda row: compiled.run([row])[0]):
        left, right, nan = map(evaluate, [(BOT, 0.0), (0.0, BOT), (float("inf"), 0.0)])
        assert left == right == (BOT,) and math.isnan(nan[0])
    g = Graph()
    assert g.apply("*", BOT_NODE, g.lit(0.0)) == g.apply("*", g.lit(0), BOT_NODE) == BOT_NODE


def test_division_by_zero_is_unknown():
    div = ExprFun((Var("a", R), Var("b", R)), (Bin("/", Ref("a"), Ref("b")),))
    assert eval_expr(div, (1.0, 0.0)) == (BOT,)
    assert eval_expr(div, (0.0, 0.0)) == (BOT,)
    assert eval_expr(div, (1.0, 2.0)) == (0.5,)
    div_i = ExprFun((Var("a", I), Var("b", I)), (Bin("/", Ref("a"), Ref("b")),))
    assert eval_expr(div_i, (7, 2)) == (3,)


def test_ite_strict_in_condition():
    f = ExprFun(
        (Var("c", B), Var("a", I), Var("b", I)),
        (Ite(Ref("c"), Ref("a"), Ref("b")),),
    )
    assert eval_expr(f, (BOT, 1, 2)) == (BOT,)
    assert eval_expr(f, (True, 1, BOT)) == (1,)
    assert eval_expr(f, (False, BOT, 2)) == (2,)


def test_sample_inputs_bool_exhaustive():
    rows = sample_inputs((B,), 8, seed=0)
    assert set(rows) == {(BOT,), (True,), (False,)}


def test_sample_inputs_deterministic():
    a = sample_inputs((R, I), 20, seed=5)
    b = sample_inputs((R, I), 20, seed=5)
    assert a == b


def test_sample_inputs_empty_type():
    assert sample_inputs((), 10, seed=1) == [()]


def test_check_monotone_basics():
    assert check_monotone(Id((R,)), 100, seed=1).ok
    assert check_monotone(Split((I,)), 100, seed=2).ok
    add = Atom("Add", ADD_I)
    assert check_monotone(add, 200, seed=3).ok
    assert check_monotone(Atom("Mul", MUL_R), 300, seed=4).ok


def test_fixpoint_iteration_counts():
    stats = EvalStats()
    eval_term(Feedback(Switch((R,), (R,))), (3.5,), stats=stats)
    assert stats.feedback_runs == [(1, 2)]
    stats = EvalStats()
    eval_term(mk_arb(R), (), stats=stats)
    assert stats.feedback_runs == [(1, 1)]


def test_strict_atoms_converge_immediately():
    # through strict atoms the fed-back wire stays unknown: x -> x+1 from
    # bot is bot, a fixed point after one iteration
    inc = Atom(
        "inc",
        ExprFun((Var("x", I), Var("u", I)), (Bin("+", Ref("x"), Lit(1)), Ref("u"))),
    )
    stats = EvalStats()
    assert eval_term(Feedback(inc), (5,), stats=stats) == (5,)
    assert stats.feedback_runs == [(1, 1)]


def test_fixpoint_divergence_guard(monkeypatch):
    """``eval_term`` on a tower that is not monotone finds no fixed point
    within the cap and says so; where the body settles, the same term runs."""
    non_monotone_neg(monkeypatch)
    loop = growing_tower(Ite(Ref("c"), Ref("u"), Un("neg", Ref("x"))))
    stats = EvalStats()
    assert eval_term(loop, (1.0, True), stats) == (2.0,)
    assert stats.feedback_runs == [(1, 2)]
    with pytest.raises(FixpointDivergence, match=r"within 8 iterations \(non-monotone atom\?\)"):
        eval_term(loop, (1.0, False), stats)


def test_towers_settle_within_width_plus_one():
    """The bound the symbolic solve's cap relies on: every atom is monotone,
    so a tower w wires wide settles on values within w + 1 iterations, on
    terms nested up to three deep and rows with bot (finite values, so no
    NaN is fed back)."""
    rng = random.Random(5)
    towers = 0
    for i in range(200):
        t = random_term(rng, tuple(rng.choice((R, I, B)) for _ in range(rng.randint(0, 3))), 3)
        stats = EvalStats()
        for row in sample_inputs(t.in_types, 5, seed=i):
            eval_term(t, row, stats)
        assert all(iters <= width + 1 for width, iters in stats.feedback_runs), stats
        towers += len(stats.feedback_runs)
    assert towers >= 500, towers


def test_nan_feedback_settles_to_nan():
    """x = u*inf - u*inf feeds a fresh NaN back on every iteration.  NaN
    equals NaN in the fixpoint tests, which try it once plain == has failed
    up to the cap, so both reference loops settle there on NaN.  As a graph
    the tower settles after two iterations, at compile time, and records no
    run-time fixpoint."""
    nan = Bin("-", Bin("*", Ref("u"), Lit(float("inf"))), Bin("*", Ref("u"), Lit(float("inf"))))
    loop = Feedback(
        Atom("F", ExprFun((Var("x", R), Var("u", R)), (nan, Ref("x"))))
    )
    for evaluate in (eval_term, nested_eval_term):
        stats = EvalStats()
        (out,) = evaluate(loop, (1.0,), stats=stats)
        assert math.isnan(out)
        assert stats.feedback_runs == [(1, 8)]
    compiled = compile_term(loop)
    stats = EvalStats()
    ((out,),) = compiled.run([(1.0,)], stats=stats)
    assert math.isnan(out)
    assert stats.feedback_runs == [] and stats.symbolic_runs == []


def test_joint_equals_nested_feedback():
    rng = random.Random(11)
    checked = 0
    for _ in range(120):
        t = random_term(rng, tuple(rng.choice((R, I, B)) for _ in range(rng.randint(0, 2))), 2)
        rows = sample_inputs(t.in_types, 10, seed=checked)
        for row in rows:
            assert nested_eval_term(t, row) == eval_term(t, row)
        checked += 1
    assert checked == 120


def test_compiled_agrees_with_reference():
    rng = random.Random(13)
    for i in range(150):
        t = random_term(rng, tuple(rng.choice((R, I, B)) for _ in range(rng.randint(0, 3))), 2)
        rows = sample_inputs(t.in_types, 15, seed=i)
        compiled = compile_term(t)
        got = compiled.run(rows)
        for row, out in zip(rows, got):
            assert out == eval_term(t, row)


def _feedback_bodies(t):
    return [s.body for s in iter_subterms(t) if isinstance(s, Feedback)]


def _nested_growing(rng, depth):
    """(u, c) -> (y): a tower x = ite(c, g, x) whose graph never repeats,
    where g is u or, nested, such a tower on (ite(c, u, x), c)."""
    if depth == 0:
        return growing_tower(Ite(Ref("c"), Ref("u"), Ref("x")))
    x, u, c, w, y = Var("x", R), Var("u", R), Var("c", B), Var("w", R), Var("y", R)
    pre = Atom(
        f"pre{depth}",
        ExprFun((x, u, c), (Ref("x"), Ref("c"), Ite(Ref("c"), Ref("u"), Ref("x")), Ref("c"))),
    )
    op = rng.choice(("+", "*", "max"))
    post = Atom(
        f"post{depth}",
        ExprFun((x, c, y), (Ite(Ref("c"), Ref("y"), Ref("x")), Bin(op, Ref("y"), Lit(2.0)))),
    )
    inner = Parallel(Id((R, B)), _nested_growing(rng, depth - 1))
    return Feedback(Serial(pre, Serial(inner, post)))


def test_compiled_rows_record_no_fixpoint():
    """Every tower is solved at compile time, also one whose graph still
    grows at the cap (nested, below), so ``Compiled.run`` records nothing,
    while ``eval_term`` iterates the same towers row by row; the two agree
    on every row."""
    rng = random.Random(29)
    checked = 0
    while checked < 80:
        t = random_term(rng, tuple(rng.choice((R, I, B)) for _ in range(rng.randint(0, 3))), 3)
        bodies = _feedback_bodies(t)
        if not bodies or not all(any(isinstance(s, Atom) for s in iter_subterms(b)) for b in bodies):
            continue
        compiled = compile_term(t)
        for row in sample_inputs(t.in_types, 5, seed=checked):
            want, got = EvalStats(), EvalStats()
            assert compiled.run([row], got) == [eval_term(t, row, stats=want)]
            assert got.feedback_runs == [] and want.feedback_runs
        checked += 1
    for depth in range(4):
        t = _nested_growing(rng, depth)
        compiled = compile_term(t)
        rows = sample_inputs(t.in_types, 40, seed=depth)
        got, want = EvalStats(), EvalStats()
        assert compiled.run(rows, got) == [eval_term(t, row, stats=want) for row in rows]
        assert got.feedback_runs == []
        assert len(want.feedback_runs) >= 40 * (depth + 1)
        assert {width for width, _ in want.feedback_runs} == {1}
        assert max(iters for _, iters in want.feedback_runs) >= 2


def test_pure_wiring_feedback_runs_no_loop():
    # a feedback around wiring alone settles at compile time: no fixpoint is
    # recorded, and a wire fed back only to itself is unknown
    arb_pair = Feedback(Feedback(Route((R, R, R), (R, R, R), (1, 0, 0))))
    chain = Feedback(Feedback(Route((R, R, R), (R, R, R), (1, 2, 0))))
    for t, row, out in ((mk_arb(R), (), (BOT,)), (arb_pair, (1.0,), (BOT,)), (chain, (1.0,), (1.0,))):
        assert eval_term(t, row) == out
        stats = EvalStats()
        assert compile_term(t).run([row], stats) == [out]
        assert stats.feedback_runs == []


def test_compiled_output_kinds_match():
    rng = random.Random(17)
    for i in range(40):
        t = random_term(rng, (R, I), 2)
        compiled = compile_term(t)
        for row, out in zip(
            sample_inputs(t.in_types, 8, seed=i), compiled.run(sample_inputs(t.in_types, 8, seed=i))
        ):
            for v, k in zip(out, t.out_types):
                assert value_kind(v) in (None, k)


def test_eval_is_pure():
    t = Serial(Split((R,)), Parallel(Id((R,)), Atom("neg", ExprFun((Var("x", R),), (Un("neg", Ref("x")),)))))
    row = (2.5,)
    assert eval_term(t, row) == eval_term(t, row) == (2.5, -2.5)


@given(st.integers(-5, 5), st.integers(-5, 5))
@settings(max_examples=50)
def test_expr_add_matches_python(a, b):
    assert eval_expr(ADD_I, (a, b)) == (a + b,)


def test_max_fix_iters_validation():
    """A tower w wires wide settles within w + 1 iterations; its cap
    MAX_FIX_ITERS + w - 1 covers that only while MAX_FIX_ITERS >= 2."""
    assert MAX_FIX_ITERS >= 2
