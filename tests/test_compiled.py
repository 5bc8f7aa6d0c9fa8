"""Column kernels of atoms: agreement with the reference expression
evaluator, shared code per shape, and the pure-Python dependency set."""

import gc
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest

import hbd
from hbd.compiled import _KERNELS, compile_exprfun
from hbd.exprs import Bin, ExprFun, Ite, Lit, Ref, Un
from hbd.frontend import block_spec
from hbd.semantics import BOT, EvalConfig, eval_expr
from hbd.types import BaseType, Var

from util import VALUES as _VALUES, expr_all_ops as _expr

R, I, B = BaseType.REAL, BaseType.INT, BaseType.BOOL
INF = float("inf")
BIG = 2**80

STRICT = EvalConfig()
NONSTRICT = EvalConfig(strict_multiply=False)


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


def _check(fn, rows, cfg):
    cols = [list(col) for col in zip(*rows)] if fn.params else []
    out_cols = compile_exprfun(fn, cfg)(cols, len(rows))
    assert len(out_cols) == len(fn.bodies)
    for j, row in enumerate(rows):
        want = eval_expr(fn, row, cfg)
        got = tuple(col[j] for col in out_cols)
        assert all(map(_same, got, want)), (fn, row, got, want)


@pytest.mark.parametrize("cfg", [STRICT, NONSTRICT], ids=["strict", "nonstrict"])
def test_kernels_agree_with_eval_expr(cfg):
    rng = random.Random(29)
    for _ in range(300):
        params = tuple(Var(f"p{i}", rng.choice((R, I, B))) for i in range(rng.randint(0, 3)))
        bodies = tuple(
            _expr(rng, params, rng.choice((R, I, B)), rng.randint(0, 4))
            for _ in range(rng.randint(1, 3))
        )
        fn = ExprFun(params, bodies)
        rows = [tuple(_random_value(rng, p.ty) for p in params) for _ in range(40)]
        _check(fn, rows, cfg)


def _grid(*kinds):
    rows = [()]
    for k in kinds:
        rows = [r + (v,) for r in rows for v in (BOT,) + _VALUES[k]]
    return rows


@pytest.mark.parametrize(
    "kinds, body, cfg",
    [
        # floor division on Int, true division on Real, bot on a zero divisor
        ((I, I), Bin("/", Ref("a"), Ref("b")), STRICT),
        ((R, R), Bin("/", Ref("a"), Ref("b")), STRICT),
        ((I, I), Bin("/", Bin("-", Ref("a"), Ref("b")), Bin("*", Ref("b"), Lit(-2))), STRICT),
        # v * 0 == 0 for unknown v, of the zero's kind
        ((R, R), Bin("*", Ref("a"), Ref("b")), NONSTRICT),
        ((I, I), Bin("*", Bin("+", Ref("a"), Lit(0)), Bin("min", Ref("b"), Lit(0))), NONSTRICT),
        ((R, R), Bin("*", Lit(0.0), Bin("/", Ref("a"), Ref("b"))), NONSTRICT),
        # a bot condition gives bot; bot in the untaken branch does not matter
        ((I, I), Ite(Bin("<", Ref("a"), Ref("b")), Ref("a"), Bin("/", Ref("a"), Lit(0))), STRICT),
        ((R, R), Ite(Bin("==", Ref("a"), Ref("b")), Bin("-", Ref("b"), Ref("a")), Ref("b")), NONSTRICT),
        # Int stays exact past 2**53
        ((I, I), Bin("-", Bin("*", Ref("a"), Ref("b")), Bin("*", Ref("b"), Ref("a"))), STRICT),
        ((I, I), Bin("max", Bin("+", Ref("a"), Lit(BIG)), Un("neg", Ref("b"))), STRICT),
        # inf literals that produce NaN
        ((R, R), Bin("-", Bin("*", Ref("a"), Lit(INF)), Bin("*", Ref("b"), Lit(INF))), STRICT),
        ((R, R), Bin("*", Bin("+", Ref("a"), Lit(-INF)), Ref("b")), NONSTRICT),
        ((R, R), Bin("min", Bin("*", Ref("a"), Lit(INF)), Ref("b")), STRICT),
    ],
)
def test_kernel_rules_on_every_value_pair(kinds, body, cfg):
    fn = ExprFun(tuple(Var(n, k) for n, k in zip("ab", kinds)), (body,))
    _check(fn, _grid(*kinds), cfg)


def test_kernel_values_by_hand():
    i2 = (Var("a", I), Var("b", I))
    r2 = (Var("a", R), Var("b", R))
    div = (Bin("/", Ref("a"), Ref("b")),)
    run = lambda params, bodies, cols, cfg=STRICT: compile_exprfun(  # noqa: E731
        ExprFun(params, bodies), cfg
    )(cols, len(cols[0]))
    assert run(i2, div, [[7, -7, 7, 0, BIG], [-2, 2, 0, 0, 3]]) == [
        [-4, -4, BOT, BOT, BIG // 3]
    ]
    assert run(r2, div, [[7.0, 1.0], [-2.0, -0.0]]) == [[-3.5, BOT]]
    mul = (Bin("*", Ref("a"), Ref("b")),)
    assert run(r2, mul, [[BOT, BOT, -0.0], [0.0, 1.0, BOT]], NONSTRICT) == [[0.0, BOT, -0.0]]
    assert run(r2, mul, [[BOT], [0.0]]) == [[BOT]]


def test_ref_and_literal_columns():
    """A Ref body hands back its input column itself, so a NaN passing
    through a feedback unchanged counts as settled; a Lit body is one
    value repeated."""
    fn = ExprFun((Var("x", R), Var("s", R)), (Ref("s"), Ref("x"), Lit(2.5)))
    x, s = [1.0, float("nan")], [BOT, 0.0]
    out = compile_exprfun(fn, STRICT)([x, s], 2)
    assert out[0] is s and out[1] is x
    assert out[2] == [2.5, 2.5]


def test_one_code_object_per_shape():
    def gain(k, wire, cfg):
        fn = block_spec("Gain", {"k": k}).fn.rename_params([wire])
        return compile_exprfun(fn, cfg)

    g1, g2 = gain(2.0, "u1", STRICT), gain(-0.5, "w7", STRICT)
    assert g1.__code__ is g2.__code__
    assert g1([[4.0]], 1) == [[8.0]] and g2([[4.0]], 1) == [[-2.0]]
    assert gain(2.0, "u1", NONSTRICT).__code__ is not g1.__code__
    assert gain(3.0, "u1", NONSTRICT).__code__ is gain(0.0, "v", NONSTRICT).__code__


def test_import_hbd_leaves_numpy_out():
    """numpy alone would add about 10 MB of resident memory."""
    src = str(pathlib.Path(hbd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, hbd, hbd.cli; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_kernel_memo_lives_as_long_as_its_function():
    before = len(_KERNELS)
    fns = [block_spec("Gain", {"k": float(k)}).fn for k in range(5)]
    kernels = [compile_exprfun(fn, STRICT) for fn in fns]
    assert [compile_exprfun(fn, STRICT) for fn in fns] == kernels
    assert len(_KERNELS) == before + 5
    del fns
    gc.collect()
    assert len(_KERNELS) == before
