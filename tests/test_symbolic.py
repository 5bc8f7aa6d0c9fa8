"""The symbolic oracle: output graphs against the reference evaluator, the
node rules one by one, and the harness verdicts it proves or leaves to
sampling."""

import random

import pytest

import hbd.harness
from hbd.axioms import Equation, check_equation
from hbd.exprs import Bin, ExprFun, Ite, Lit, Ref
from hbd.feedbackless import check_deterministic
from hbd.harness import (
    StrategyRun,
    equivalence_cells,
    equivalence_matrix,
    run_determinacy,
    translate_all,
)
from hbd.io_diagrams import EquivConfig, IoDiagram, equivalence_samples
from hbd.semantics import (
    BOT,
    EvalConfig,
    EvalStats,
    binop_table,
    eval_term,
    op_neg,
    op_not,
    same_value,
    value_kind,
)
from hbd.symbolic import BOT as BOT_NODE
from hbd.symbolic import Graph
from hbd.terms import (
    Feedback,
    Id,
    Parallel,
    Route,
    Serial,
    Split,
    Switch,
    feedback_n,
    mk_atom,
    mk_feedback,
    mk_parallel,
    mk_serial,
)
from hbd.translator import Incremental, translate
from hbd.types import Var

from util import KINDS, expr_all_ops, growing_tower, nested_outputs_oracle

R, I, B = KINDS
STRICT = EvalConfig()
NONSTRICT = EvalConfig(strict_multiply=False)


# -- a graph interpreter, written from the scalar rules -----------------------

def graph_value(graph: Graph, node: int, row, memo: dict):
    """The value of ``node`` when input symbol i holds ``row[i]``."""
    if node in memo:
        return memo[node]
    key = graph.keys[node]
    op = key[0]
    val = lambda n: graph_value(graph, n, row, memo)  # noqa: E731
    if op == "bot":
        v = BOT
    elif op == "in":
        v = row[key[1]]
    elif op == "lit":
        v = key[3]
    elif op == "ite":
        c = val(key[1])
        v = BOT if c is BOT else val(key[2] if c else key[3])
    elif op in ("neg", "not"):
        v = (op_neg if op == "neg" else op_not)(val(key[1]))
    elif op in ("/", "//"):
        a, b = val(key[1]), val(key[2])
        if a is BOT or b is BOT or b == 0:
            v = BOT
        else:
            assert isinstance(a, int) == (op == "//")  # the kind is static
            v = a // b if op == "//" else a / b
    else:
        v = binop_table(graph.cfg)[op](val(key[1]), val(key[2]))
    memo[node] = v
    return v


def _same(a, b) -> bool:
    """Equal kind and value, NaN equal to NaN.  The sign of zero is not
    compared: the concrete fixpoint test reads 0.0 == -0.0 and may stop a
    tower one iteration before its graph settles, and in this language the
    sign of a zero reaches nothing but the sign of a zero."""
    return value_kind(a) is value_kind(b) and same_value(a, b)


def _atom(rng, in_t, out_t):
    params = tuple(Var(f"p{i}", k) for i, k in enumerate(in_t))
    bodies = tuple(expr_all_ops(rng, params, k, 3) for k in out_t)
    return mk_atom(f"f{rng.randrange(10**6)}", ExprFun(params, bodies))


def _kinds(rng, lo, hi):
    return tuple(rng.choice(KINDS) for _ in range(rng.randint(lo, hi)))


def _term(rng, in_t, depth):
    """A random term over every operator, with routes and feedback towers
    one to three wires wide around arbitrary bodies."""
    c = rng.random()
    if depth <= 0 or c < 0.2:
        if in_t and c < 0.08:
            imap = tuple(rng.choice((None,) + tuple(range(len(in_t)))) for _ in range(3))
            t2 = tuple(rng.choice(KINDS) if i is None else in_t[i] for i in imap)
            return Route(in_t, t2, imap)
        return _atom(rng, in_t, _kinds(rng, 1, 2))
    if c < 0.45:
        first = _term(rng, in_t, depth - 1)
        return mk_serial(first, _term(rng, first.out_types, depth - 1))
    if c < 0.6 and len(in_t) >= 2:
        k = rng.randint(1, len(in_t) - 1)
        return mk_parallel(_term(rng, in_t[:k], depth - 1), _term(rng, in_t[k:], depth - 1))
    lead = _kinds(rng, 1, 3)
    inner = _term(rng, lead + in_t, depth - 1)
    return feedback_n(len(lead), mk_serial(inner, _atom(rng, inner.out_types, lead + _kinds(rng, 0, 2))))


@pytest.mark.parametrize("cfg", [STRICT, NONSTRICT], ids=["strict", "nonstrict"])
def test_graphs_evaluate_like_eval_term(cfg):
    rng = random.Random(41)
    decided = towers = 0
    for _ in range(150):
        term = _term(rng, _kinds(rng, 0, 3), 3)
        graph = Graph(cfg)
        stats = EvalStats()
        outs = graph.outputs(term, [graph.symbol(i) for i in range(len(term.in_types))], stats)
        if outs is None:
            continue
        decided += 1
        towers += len(stats.symbolic_runs)
        for row in equivalence_samples(term.in_types, EquivConfig(samples=25, exhaustive_limit=64)):
            memo = {}
            got = tuple(graph_value(graph, n, row, memo) for n in outs)
            want = eval_term(term, row, cfg)
            assert all(map(_same, got, want)), (term, row, got, want)
    assert decided >= 90 and towers >= 60, (decided, towers)


# -- node rules ----------------------------------------------------------------

def test_literal_identity_keeps_kind_and_sign_of_zero():
    g = Graph()
    assert len({g.lit(1), g.lit(True), g.lit(1.0)}) == 3
    assert g.lit(0.0) != g.lit(-0.0)
    assert g.lit(1) == g.lit(1) and g.lit(-0.0) == g.lit(-0.0)


def test_strict_operators_give_bot_on_a_bot_operand():
    g = Graph()
    u, one = g.symbol(0), g.lit(1.0)
    for op in ("+", "-", "*", "/", "min", "max", "<", "<=", "=="):
        assert g.apply(op, BOT_NODE, u) == BOT_NODE
        assert g.apply(op, one, BOT_NODE) == BOT_NODE
    assert g.apply("neg", BOT_NODE) == g.apply("not", BOT_NODE) == BOT_NODE
    assert g.apply("and", BOT_NODE, g.lit(False)) == BOT_NODE
    assert g.apply("+", u, one) == g.apply("+", u, one) != g.apply("+", one, u)


def test_ite_with_bot_or_literal_condition():
    g = Graph()
    c, u, v = g.symbol(0), g.symbol(1), g.symbol(2)
    assert g.apply("ite", BOT_NODE, u, v) == BOT_NODE
    assert g.apply("ite", g.lit(True), u, v) == u
    assert g.apply("ite", g.lit(False), u, v) == v
    assert g.apply("ite", c, u, BOT_NODE) == g.node(("ite", c, u, BOT_NODE))


def test_nonstrict_multiply_keeps_the_literal_zero():
    g, s = Graph(NONSTRICT), Graph(STRICT)
    for zero in (0.0, -0.0, 0):
        z = g.lit(zero)
        assert g.apply("*", BOT_NODE, z) == z and g.apply("*", z, BOT_NODE) == z
        assert s.apply("*", BOT_NODE, s.lit(zero)) == BOT_NODE
    assert g.apply("*", BOT_NODE, g.lit(2.0)) == BOT_NODE
    assert g.apply("*", BOT_NODE, BOT_NODE) == BOT_NODE
    # whether the symbol is zero is up to the input, so the node stays
    u = g.symbol(0)
    assert g.apply("*", u, BOT_NODE) == g.node(("*", u, BOT_NODE))


def test_division_keeps_its_static_kind_and_stays_a_node():
    for ty, op, zero in ((I, "//", 0), (R, "/", 0.0)):
        params = (Var("a", ty), Var("b", ty))
        bodies = (Bin("/", Ref("a"), Ref("b")), Bin("/", Ref("a"), Lit(zero)))
        g = Graph()
        a, b = g.symbol(0), g.symbol(1)
        q, by_zero = g.outputs(mk_atom("div", ExprFun(params, bodies)), (a, b))
        assert g.keys[q] == (op, a, b)
        assert g.keys[by_zero] == (op, a, g.lit(zero))  # bot comes per input


# -- feedback ------------------------------------------------------------------

def _loop(body_x):
    """feedback of [x, u, c -> body_x, x] over one wire x."""
    params = (Var("x", R), Var("u", R), Var("c", B))
    return mk_feedback(mk_atom("F", ExprFun(params, (body_x, Ref("x")))))


def test_kleene_iteration_from_bot_and_the_cap():
    g = Graph()
    u, c = g.symbol(0), g.symbol(1)
    stats = EvalStats()
    # x = u + x settles on bot at once; x = ite(c, u, u) in two iterations
    assert g.outputs(_loop(Bin("+", Ref("u"), Ref("x"))), (u, c), stats) == (BOT_NODE,)
    (x,) = g.outputs(_loop(Ite(Ref("c"), Ref("u"), Ref("u"))), (u, c), stats)
    assert x == g.node(("ite", c, u, u))
    assert stats.symbolic_runs[:2] == [(1, 1), (1, 2)]
    # a chain x <- y <- z <- 1.0 settles after four iterations
    params = tuple(Var(n, R) for n in "xyzu")
    chain = mk_atom("C", ExprFun(params, (Ref("y"), Ref("z"), Lit(1.0), Ref("x"))))
    assert g.outputs(feedback_n(3, chain), (u,), stats) == (g.lit(1.0),)
    assert stats.symbolic_runs[-1] == (3, 4)
    # x = ite(c, u, x) grows one node per iteration: undecided at the cap
    stats = EvalStats()
    assert g.outputs(_loop(Ite(Ref("c"), Ref("u"), Ref("x"))), (u, c), stats) is None
    assert stats.symbolic_runs == []


def test_all_towers_of_a_term_are_solved_together():
    """Every feedback occurrence of a term is iterated in one joint solve,
    recorded as one (total width, passes) entry; the reference evaluator
    records each tower it iterates.  One tower that never settles leaves
    the whole term undecided, and records nothing."""
    fb = _loop(Ite(Ref("c"), Ref("u"), Ref("u")))
    term = Serial(Split((R, B)), Parallel(fb, fb))
    g = Graph()
    symbols = (g.symbol(0), g.symbol(1))
    stats = EvalStats()
    outs = g.outputs(term, symbols, stats)
    assert outs[0] == outs[1] == g.node(("ite", symbols[1], symbols[0], symbols[0]))
    assert stats.symbolic_runs == [(2, 2)]
    ref = EvalStats()
    eval_term(term, (1.0, True), stats=ref)
    assert ref.feedback_runs == [(1, 2), (1, 2)]
    # a settling tower beside one that grows a node per pass: undecided
    loop = _loop(Ite(Ref("c"), Ref("u"), Ref("x")))
    stats = EvalStats()
    assert g.outputs(Serial(Split((R, B)), Parallel(fb, loop)), symbols, stats) is None
    assert g.outputs(loop, symbols, stats) is None and stats.symbolic_runs == []


def _same_outputs_as_nested(graph, term, stats=None):
    """Whether the joint solve and the nested oracle give the same output
    nodes, or both None, in one graph; and the joint outputs."""
    symbols = [graph.symbol(i) for i in range(len(term.in_types))]
    joint = graph.outputs(term, symbols, stats)
    return joint == nested_outputs_oracle(graph, term, symbols), joint


@pytest.mark.parametrize("cfg", [STRICT, NONSTRICT], ids=["strict", "nonstrict"])
def test_joint_solve_equals_nested_solves_on_random_terms(cfg):
    """Bekić's lemma on graphs: the joint fixpoint of all towers gives the
    nested fixpoints' output nodes, on terms with towers nested in towers
    through ;; and ||; a term undecided one way is undecided the other."""
    rng = random.Random(41)
    graph = Graph(cfg)
    decided = towers = 0
    for _ in range(150):
        stats = EvalStats()
        same, joint = _same_outputs_as_nested(graph, _term(rng, _kinds(rng, 0, 3), 3), stats)
        assert same
        decided += joint is not None
        towers += sum(width > 1 for width, _ in stats.symbolic_runs)
    assert decided >= 130 and towers >= 80, (decided, towers)


def test_joint_solve_equals_nested_solves_on_the_corpus(corpus_reports):
    """Every term of the corpus matrices gets the nested solves' output
    nodes, and every one is decided."""
    terms = 0
    for report in corpus_reports:
        graph = Graph()
        for run in report.runs:
            same, joint = _same_outputs_as_nested(graph, run.diagram.body)
            assert same and joint is not None, run.label
            terms += 1
    assert terms >= 30 * 22


# -- the harness -----------------------------------------------------------------

def _replace_first(term, pred, f):
    """``term`` with its first subterm (in pre-order) satisfying ``pred``
    replaced by ``f`` of it."""
    done = False

    def go(t):
        nonlocal done
        if done:
            return t
        if pred(t):
            done = True
            return f(t)
        if isinstance(t, Serial):
            return Serial(go(t.first), go(t.second))
        if isinstance(t, Parallel):
            return Parallel(go(t.left), go(t.right))
        if isinstance(t, Feedback):
            return Feedback(go(t.body))
        return t

    out = go(term)
    assert done
    return out


def _swap_route(r: Route) -> Route:
    imap = list(r.imap)
    i, j = next(
        (i, j)
        for i in range(len(imap))
        for j in range(i + 1, len(imap))
        if imap[i] != imap[j] and r.t2[i] is r.t2[j]
    )
    imap[i], imap[j] = imap[j], imap[i]
    return Route(r.t, r.t2, tuple(imap))


def _drop_feedback(fb: Feedback):
    """The body with bot on its first input and its first output discarded."""
    tin, tout = fb.body.typing
    return mk_serial(
        Route(tin[1:], tin, (None,) + tuple(range(len(tin) - 1))),
        mk_serial(fb.body, Route(tout, tout[1:], tuple(range(1, len(tout))))),
    )


@pytest.mark.parametrize(
    "mutate",
    [
        lambda t: _replace_first(t, lambda s: isinstance(s, Route) and len(set(s.imap)) > 1, _swap_route),
        lambda t: _replace_first(t, lambda s: isinstance(s, Feedback), _drop_feedback),
    ],
    ids=["swapped-route", "dropped-feedback"],
)
def test_mutations_change_the_graph_and_fail_by_sampling(running_example, mutate):
    d = translate(list(running_example), Incremental())
    m = IoDiagram(d.inputs, d.outputs, mutate(d.body))
    g = Graph()
    symbols = [g.symbol(i) for i in range(len(d.inputs))]
    assert g.outputs(d.body, symbols) != g.outputs(m.body, symbols)
    _, matrix = equivalence_cells([d, m], EquivConfig(samples=40))
    assert matrix[0][0].proved and matrix[1][1].proved
    cell = matrix[0][1]
    assert not cell and not cell.proved
    assert cell.reason == "semantic difference" and cell.counterexample is not None


class _NoGraphs(Graph):
    """Leaves every term undecided, which samples every cell as before the
    symbolic oracle."""

    def outputs(self, term, inputs, stats=None):
        return None


def test_undecided_tower_is_sampled_with_the_sampling_verdict(monkeypatch, compiled_runs):
    """x = ite(c, u, x) never settles as a graph, so each strategy runs and
    every cell is sampled; the verdicts equal those of sampling alone."""
    u, c, x, y = Var("u", R), Var("c", B), Var("x", R), Var("y", R)
    fn = ExprFun((x, u, c), (Ite(Ref("c"), Ref("u"), Ref("x")), Bin("*", Ref("x"), Lit(2.0))))
    d = IoDiagram((x, u, c), (x, y), mk_atom("F", fn))
    report = run_determinacy([d], seeds=range(2), samples=30)
    assert len(compiled_runs) == len(report.runs) == 4  # no fbless: x depends on x
    assert report.all_equivalent
    assert not any(cell.proved for row in report.matrix for cell in row)
    monkeypatch.setattr(hbd.harness, "Graph", _NoGraphs)
    sampled = run_determinacy([d], seeds=range(2), samples=30)
    assert report.matrix == sampled.matrix


def test_each_output_graph_runs_once(compiled_runs, corpus_diagrams):
    """Strategies with equal output graphs form one graph class: every cell
    is proved and nothing runs."""
    report = run_determinacy(corpus_diagrams[0][1], seeds=range(4), samples=30)
    assert len(report.runs) >= 6 and compiled_runs == []
    assert len(report.stats.symbolic_runs) > len(report.stats.feedback_runs)
    assert all(cell.proved for row in report.matrix for cell in row)


def test_every_cell_is_proved_at_two_hundred_blocks(compiled_runs):
    """At 200 blocks each term holds up to 281 towers, nested through ;;
    and ||.  Solved jointly, every one of the 23 strategies is decided and
    all 529 cells are proved by equal graphs, in about a second; solved
    tower by tower, the check took about a minute."""
    from hbd.frontend import document_io_list
    from hbd.gen import random_diagram

    diagrams, _, _ = document_io_list(random_diagram(7, 200, 200))
    report = run_determinacy(diagrams)
    assert len(report.runs) == 23 and compiled_runs == []
    assert all(cell.proved for row in report.matrix for cell in row)
    assert max(width for width, _ in report.stats.symbolic_runs) >= 200


def test_each_sampled_graph_class_runs_once(compiled_runs, running_example):
    """With one strategy's Route swapped there are two graph classes; the
    sampled cells between them run each class exactly once."""
    runs = translate_all(list(running_example), seeds=range(2))
    d = runs[1].diagram
    swapped = _replace_first(d.body, lambda s: isinstance(s, Route) and len(set(s.imap)) > 1, _swap_route)
    runs[1] = StrategyRun("swapped", IoDiagram(d.inputs, d.outputs, swapped), 0.0)
    report = equivalence_matrix(runs, EquivConfig(samples=30))
    assert len(runs) == 5 and len(compiled_runs) == 2
    for i, row in enumerate(report.matrix):
        for j, cell in enumerate(row):
            assert cell.proved == ((i == 1) == (j == 1))
            assert bool(cell) == cell.proved  # the swap is found by sampling


def test_equation_checks_share_the_oracle(compiled_runs, monkeypatch, running_example):
    """``check_equation`` and ``check_deterministic`` run nothing on a cell
    proved by equal graphs and exactly both sides on a sampled one; with no
    graph decided they reach the same verdicts by sampling alone."""
    t = (I,)
    loop = growing_tower(Ite(Ref("c"), Ref("u"), Ref("x")))  # undecided
    equations = [
        Equation(Split(t), mk_serial(Split(t), Switch(t, t))),  # law 7, proved
        Equation(Switch(t, t), Id((I, I))),  # false: different graphs
        Equation(loop, loop),  # true, but undecided
    ]
    loop_diagram = IoDiagram((Var("u", R), Var("c", B)), (Var("v", R),), loop)
    checks = [lambda eq=eq: check_equation(eq, samples=40, seed=0) for eq in equations]
    checks += [lambda d=d: check_deterministic(d) for d in (running_example[0], loop_diagram)]

    def verdicts():
        out = []
        for check in checks:
            before = len(compiled_runs)
            out.append((check(), len(compiled_runs) - before))
        return out

    proved = verdicts()
    assert [runs for _, runs in proved] == [0, 2, 2, 0, 2]
    assert [bool(v) for v, _ in proved] == [False, True, False, True, True]
    monkeypatch.setattr(hbd.harness, "Graph", _NoGraphs)
    sampled = verdicts()
    assert [v for v, _ in sampled] == [v for v, _ in proved]
    assert [runs for _, runs in sampled] == [2] * 5
