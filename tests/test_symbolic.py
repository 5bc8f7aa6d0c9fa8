"""The symbolic oracle: output graphs against the reference evaluator, the
node rules one by one, and the harness verdicts it proves or leaves to
sampling."""

import random

import pytest

import hbd.harness
from hbd import frontend
from hbd.axioms import Equation, check_equation
from hbd.exprs import Bin, ExprFun, Ite, Lit, Ref
from hbd.harness import (
    StrategyRun,
    check_deterministic,
    equivalence_cells,
    equivalence_matrix,
    run_determinacy,
    translate_all,
)
from hbd.io_diagrams import IoDiagram, equivalence_samples
from hbd.semantics import (
    BINOPS,
    BOT,
    MAX_FIX_ITERS,
    EvalStats,
    eval_expr,
    eval_term,
    op_neg,
    op_not,
    same_value,
    value_kind,
)
from hbd.symbolic import BOT as BOT_NODE
from hbd.symbolic import Graph
from hbd.terms import (
    Atom,
    Feedback,
    Id,
    Parallel,
    Route,
    Serial,
    Split,
    Switch,
    feedback_n,
)
from hbd.translator import Incremental, translate
from hbd.types import Var

from util import KINDS, VALUES, expr_all_ops, free_refs, growing_tower, nested_outputs_oracle

R, I, B = KINDS


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
        v = BINOPS[op](val(key[1]), val(key[2]))
    memo[node] = v
    return v


def _same(a, b) -> bool:
    """Equal kind and value, NaN equal to NaN.  The sign of zero is not
    compared: the concrete fixpoint test reads 0.0 == -0.0 and may stop a
    tower one iteration before its graph settles, and in this language the
    sign of a zero reaches nothing but the sign of a zero."""
    return value_kind(a) == value_kind(b) and same_value(a, b)


def _atom(rng, in_t, out_t):
    params = tuple(Var(f"p{i}", k) for i, k in enumerate(in_t))
    bodies = tuple(expr_all_ops(rng, params, k, 3) for k in out_t)
    return Atom(f"f{rng.randrange(10**6)}", ExprFun(params, bodies))


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
        return Serial(first, _term(rng, first.out_types, depth - 1))
    if c < 0.6 and len(in_t) >= 2:
        k = rng.randint(1, len(in_t) - 1)
        return Parallel(_term(rng, in_t[:k], depth - 1), _term(rng, in_t[k:], depth - 1))
    lead = _kinds(rng, 1, 3)
    inner = _term(rng, lead + in_t, depth - 1)
    return feedback_n(len(lead), Serial(inner, _atom(rng, inner.out_types, lead + _kinds(rng, 0, 2))))


def _capped(stats) -> bool:
    """Whether the joint solve recorded in ``stats`` ran to its cap, where
    a graph that still grows stops."""
    return any(passes >= MAX_FIX_ITERS + width - 1 for width, passes in stats.symbolic_runs)


def test_graphs_evaluate_like_eval_term():
    rng = random.Random(41)
    capped = towers = 0
    for _ in range(150):
        term = _term(rng, _kinds(rng, 0, 3), 3)
        graph = Graph()
        stats = EvalStats()
        outs = graph.outputs(term, [graph.symbol(i) for i in range(len(term.in_types))], stats)
        capped += _capped(stats)
        towers += len(stats.symbolic_runs)
        for row in equivalence_samples(term.in_types, 25):
            memo = {}
            got = tuple(graph_value(graph, n, row, memo) for n in outs)
            want = eval_term(term, row)
            assert all(map(_same, got, want)), (term, row, got, want)
    assert capped >= 5 and towers >= 70, (capped, towers)


def _value(rng, k):
    """A value of kind ``k``, or bot, or, for Real, NaN."""
    c = rng.random()
    if c < 0.2:
        return BOT
    if k == R and c < 0.3:
        return float("nan")
    return rng.choice(VALUES[k])


def test_straight_line_code_equals_eval_term_on_random_terms():
    """Every term compiles to straight-line code, also one whose towers have
    not settled as graphs at the cap, and the code gives eval_term's values
    on rows mixing bot, NaN, both zeros and both infinities.  The capped
    solves are sound by the width bound: over flat domains a joint tower w
    wires wide has its least fixpoint after w passes, and the cap is at
    least w + 1."""
    rng, values = random.Random(41), random.Random(0)
    capped = 0
    for _ in range(3000):
        term = _term(rng, _kinds(rng, 0, 3), 3)
        # compile_term's steps, with the census kept
        graph, stats = Graph(), EvalStats()
        symbols = [graph.symbol(i) for i in range(len(term.in_types))]
        row_fn, _ = graph.function(symbols, graph.outputs(term, symbols, stats))
        capped += _capped(stats)
        for _ in range(4):
            row = tuple(_value(values, k) for k in term.in_types)
            got, want = row_fn(*row), eval_term(term, row)
            assert all(map(_same, got, want)), (term, row, got, want)
    assert capped == 218, capped  # the terms whose solves ran to the cap


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


def test_division_keeps_its_static_kind_and_stays_a_node():
    for ty, op, zero in ((I, "//", 0), (R, "/", 0.0)):
        params = (Var("a", ty), Var("b", ty))
        bodies = (Bin("/", Ref("a"), Ref("b")), Bin("/", Ref("a"), Lit(zero)))
        g = Graph()
        a, b = g.symbol(0), g.symbol(1)
        q, by_zero = g.outputs(Atom("div", ExprFun(params, bodies)), (a, b))
        assert g.keys[q] == (op, a, b)
        assert g.keys[by_zero] == (op, a, g.lit(zero))  # bot comes per input


# -- the analysis an ExprFun keeps ---------------------------------------------

def _random_fns(rng, count):
    """Functions over every operator, whose parameters a body may leave unread."""
    for _ in range(count):
        params = tuple(Var(f"p{i}", k) for i, k in enumerate(_kinds(rng, 0, 4)))
        bodies = tuple(expr_all_ops(rng, params, k, 3) for k in _kinds(rng, 1, 3))
        yield ExprFun(params, bodies)


def _library_fns():
    """The function of every block kind, and of the numeric ones over Ints."""
    needs = {"Gain": {"k": 2}, "Constant": {"value": 1.5}}
    for kind in frontend.LIBRARY:
        yield frontend.block_spec(kind, needs.get(kind, {})).fn
    for kind in ("Add", "Div", "Gain", "Relational"):
        yield frontend.block_spec(kind, {**needs.get(kind, {}), "type": "Int"}).fn


def test_reads_are_the_positions_of_the_names_each_body_reads():
    fns = [*_random_fns(random.Random(5), 400), *_library_fns()]
    for fn in fns:
        for i, body in enumerate(fn.bodies):
            names = free_refs(body)
            want = tuple(k for k, p in enumerate(fn.params) if p.name in names)
            assert fn.reads[i] == want, (fn, i)
    assert any(len(r) < len(fn.params) for fn in fns for r in fn.reads)


def _trees_row(fn):
    """``fn.trees`` run in a fresh graph, as the straight-line code of a row."""
    graph = Graph()
    symbols = [graph.symbol(i) for i in range(len(fn.params))]

    def node(t):
        if t[0] == "arg":
            return symbols[t[1]]
        if t[0] == "lit":
            return graph.lit(t[1])
        return graph.apply(t[0], *map(node, t[1:]))

    return graph.function(symbols, tuple(node(t) for t in fn.trees))[0]


def test_trees_run_in_a_fresh_graph_give_eval_expr_values():
    """Equal values, kinds and signs of zero on rows mixing bot, NaN, both
    zeros and big ints, and bot on Int division by a zero argument or a
    zero literal."""
    values = random.Random(0)
    for fn in [*_random_fns(random.Random(6), 300), *_library_fns()]:
        row_fn = _trees_row(fn)
        for _ in range(6):
            row = tuple(_value(values, k) for k in fn.in_kinds)
            got, want = row_fn(*row), eval_expr(fn, row)
            assert repr(got) == repr(want), (fn, row, got, want)
    ints = (Var("a", I), Var("b", I))
    by_zero = ExprFun(ints, (Bin("/", Ref("a"), Ref("b")), Bin("/", Ref("a"), Lit(0))))
    row_fn = _trees_row(by_zero)
    for row in ((7, 0), (-7, 2), (BOT, 0)):
        assert row_fn(*row) == eval_expr(by_zero, row)
    assert row_fn(7, 0) == (BOT, BOT) and row_fn(-7, 2) == (-4, BOT)


# -- feedback ------------------------------------------------------------------

def _loop(body_x):
    """feedback of [x, u, c -> body_x, x] over one wire x."""
    params = (Var("x", R), Var("u", R), Var("c", B))
    return Feedback(Atom("F", ExprFun(params, (body_x, Ref("x")))))


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
    chain = Atom("C", ExprFun(params, (Ref("y"), Ref("z"), Lit(1.0), Ref("x"))))
    assert g.outputs(feedback_n(3, chain), (u,), stats) == (g.lit(1.0),)
    assert stats.symbolic_runs[-1] == (3, 4)
    # x = ite(c, u, x) grows one node per iteration: the solve stops at the
    # cap, MAX_FIX_ITERS passes for one wire, and the output is the guess of
    # the last pass, ite(c, u, ...) nested one level less deep
    stats = EvalStats()
    (x,) = g.outputs(_loop(Ite(Ref("c"), Ref("u"), Ref("x"))), (u, c), stats)
    assert x == _ites(g, c, u, MAX_FIX_ITERS - 1)
    assert stats.symbolic_runs == [(1, MAX_FIX_ITERS)]


def _ites(g, c, u, depth):
    """ite(c, u, ite(c, u, ... bot)), ``depth`` levels deep."""
    node = BOT_NODE
    for _ in range(depth):
        node = g.apply("ite", c, u, node)
    return node


def test_all_towers_of_a_term_are_solved_together():
    """Every feedback occurrence of a term is iterated in one joint solve,
    recorded as one (total width, passes) entry; the reference evaluator
    records each tower it iterates.  One tower that never repeats runs the
    whole solve to the cap of its total width."""
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
    # a settling tower beside one that grows a node per pass: the joint
    # solve of width 2 stops at its cap, one pass after the loop's own
    loop = _loop(Ite(Ref("c"), Ref("u"), Ref("x")))
    stats = EvalStats()
    c, u = symbols[1], symbols[0]
    both = g.outputs(Serial(Split((R, B)), Parallel(fb, loop)), symbols, stats)
    assert both == (outs[0], _ites(g, c, u, MAX_FIX_ITERS))
    assert g.outputs(loop, symbols, stats) == (_ites(g, c, u, MAX_FIX_ITERS - 1),)
    assert stats.symbolic_runs == [(2, MAX_FIX_ITERS + 1), (1, MAX_FIX_ITERS)]


def test_cap_grows_with_the_total_width():
    """w towers that each grow a node per pass, side by side, are one joint
    solve w wires wide that stops at its cap, MAX_FIX_ITERS + w - 1 passes:
    at least the w + 1 the width bound needs."""
    loop = _loop(Ite(Ref("c"), Ref("u"), Ref("x")))
    g = Graph()
    u, c = g.symbol(0), g.symbol(1)
    term = loop
    for w in range(1, 5):
        stats = EvalStats()
        symbols = [u, c] * w
        assert g.outputs(term, symbols, stats) == (_ites(g, c, u, MAX_FIX_ITERS + w - 2),) * w
        assert stats.symbolic_runs == [(w, MAX_FIX_ITERS + w - 1)]
        term = Parallel(term, loop)


def _joint_and_nested(graph, term, stats=None):
    """The output nodes of the joint solve and of the nested oracle, in one
    graph."""
    symbols = [graph.symbol(i) for i in range(len(term.in_types))]
    return graph.outputs(term, symbols, stats), nested_outputs_oracle(graph, term, symbols)


def test_joint_solve_equals_nested_solves_on_random_terms():
    """Bekić's lemma on graphs: the joint fixpoint of all towers gives the
    nested fixpoints' output nodes, on terms with towers nested in towers
    through ;; and ||.  Where a graph still grows at the cap, the joint
    solve and each nested one stop at caps of their own widths, so their
    nodes differ but their values agree on every row."""
    rng = random.Random(41)
    graph = Graph()
    capped = towers = 0
    for _ in range(150):
        stats = EvalStats()
        term = _term(rng, _kinds(rng, 0, 3), 3)
        joint, nested = _joint_and_nested(graph, term, stats)
        towers += sum(width > 1 for width, _ in stats.symbolic_runs)
        if not _capped(stats):
            assert joint == nested
            continue
        capped += 1
        for row in equivalence_samples(term.in_types, 25):
            memo = {}
            got = [graph_value(graph, n, row, memo) for n in joint]
            assert all(map(_same, got, (graph_value(graph, n, row, memo) for n in nested)))
    assert 5 <= capped <= 20 and towers >= 80, (capped, towers)


def test_joint_solve_equals_nested_solves_on_the_corpus(corpus_reports):
    """Every term of the corpus matrices gets the nested solves' output
    nodes, each settling before its cap."""
    terms = 0
    for report in corpus_reports:
        graph = Graph()
        for run in report.runs:
            stats = EvalStats()
            joint, nested = _joint_and_nested(graph, run.diagram.body, stats)
            assert joint == nested and not _capped(stats), run.label
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
    return Serial(
        Route(tin[1:], tin, (None,) + tuple(range(len(tin) - 1))),
        Serial(fb.body, Route(tout, tout[1:], tuple(range(1, len(tout))))),
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
    _, matrix = equivalence_cells([d, m], 40)
    assert matrix[0][0].proved and matrix[1][1].proved
    cell = matrix[0][1]
    assert not cell and not cell.proved
    assert cell.reason == "semantic difference" and cell.counterexample is not None


class _NoProofs(Graph):
    """Gives each term an output node of its own, so that no two terms have
    equal graphs and every cell between two terms is sampled, as before
    the symbolic oracle."""

    def outputs(self, term, inputs, stats=None):
        own = self.node(("own", len(self.keys)))
        return super().outputs(term, inputs, stats) + (own,)


def _verdicts(report):
    return [[bool(cell) for cell in row] for row in report.matrix]


def test_towers_stopped_at_the_cap_keep_the_sampling_verdict(monkeypatch, compiled_runs):
    """x = ite(c, u, x) never repeats as a graph.  Each strategy feeds back
    the one wire x, so every solve stops at the same cap on the same nodes:
    every cell is proved and nothing runs.  Sampling alone, which runs each
    strategy, gives the same verdicts."""
    u, c, x, y = Var("u", R), Var("c", B), Var("x", R), Var("y", R)
    fn = ExprFun((x, u, c), (Ite(Ref("c"), Ref("u"), Ref("x")), Bin("*", Ref("x"), Lit(2.0))))
    d = IoDiagram((x, u, c), (x, y), Atom("F", fn))
    report = run_determinacy([d], seeds=range(2), samples=30)
    assert len(report.runs) == 4 and compiled_runs == []  # no fbless: x depends on x
    assert report.stats.symbolic_runs == [(1, MAX_FIX_ITERS)] * 4
    assert all(cell.proved for row in report.matrix for cell in row)
    monkeypatch.setattr(hbd.harness, "Graph", _NoProofs)
    sampled = run_determinacy([d], seeds=range(2), samples=30)
    assert len(compiled_runs) == 4
    assert sum(cell.proved for row in sampled.matrix for cell in row) == 4  # the diagonal
    assert _verdicts(sampled) == _verdicts(report)


def test_each_output_graph_runs_once(compiled_runs, corpus_diagrams):
    """Strategies with equal output graphs form one graph class: every cell
    is proved and nothing runs."""
    report = run_determinacy(corpus_diagrams[0][1], seeds=range(4), samples=30)
    assert len(report.runs) >= 6 and compiled_runs == []
    assert len(report.stats.symbolic_runs) > len(report.stats.feedback_runs)
    assert all(cell.proved for row in report.matrix for cell in row)


def test_every_cell_is_proved_at_two_hundred_blocks(compiled_runs):
    """At 200 blocks each term holds up to 281 towers, nested through ;;
    and ||.  Solved jointly, the towers of every one of the 23 strategies
    settle and all 529 cells are proved by equal graphs, in about a second; solved
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
    report = equivalence_matrix(runs, 30)
    assert len(runs) == 5 and len(compiled_runs) == 2
    for i, row in enumerate(report.matrix):
        for j, cell in enumerate(row):
            assert cell.proved == ((i == 1) == (j == 1))
            assert bool(cell) == cell.proved  # the swap is found by sampling


def test_equation_checks_share_the_oracle(compiled_runs, monkeypatch, running_example):
    """``check_equation`` and ``check_deterministic`` run nothing on a cell
    proved by equal graphs and exactly both sides on a sampled one; with no
    cell proved they reach the same verdicts by sampling alone."""
    t = (I,)
    loop = growing_tower(Ite(Ref("c"), Ref("u"), Ref("x")))  # stops at the cap
    equations = [
        Equation(Split(t), Serial(Split(t), Switch(t, t))),  # law 7, proved
        Equation(Switch(t, t), Id((I, I))),  # false: different graphs
        Equation(loop, loop),  # true, proved at the cap
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
    # the loop's determinism check holds one copy of its tower on one side
    # and two on the other, which stop at different caps: it is sampled
    assert [runs for _, runs in proved] == [0, 2, 0, 0, 2]
    assert [bool(v) for v, _ in proved] == [False, True, False, True, True]
    monkeypatch.setattr(hbd.harness, "Graph", _NoProofs)
    sampled = verdicts()
    assert [v for v, _ in sampled] == [v for v, _ in proved]
    assert [runs for _, runs in sampled] == [2] * 5
