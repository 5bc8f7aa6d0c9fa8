"""Variable-list algebra, the general switch, named compositions, and the
io-equivalence oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from hbd.axioms import _random_expr
from hbd.compiled import compile_term
from hbd.errors import CompositionError, TypeMismatchError
from hbd.exprs import Bin, ExprFun, Ref
from hbd.feedbackless import split_block
from hbd.frontend import document_io_list
from hbd.gen import random_diagram
from hbd.harness import io_equiv, translate_all
from hbd.io_diagrams import (
    IoDiagram,
    beside,
    equivalence_samples,
    fold_parallel,
    named_feedback,
    named_serial,
    switch_vars,
    values_close,
)
from hbd.semantics import BOT, eval_term, sample_inputs
from hbd.terms import (
    Atom,
    Id,
    Parallel,
    Route,
    Serial,
    Sink,
    Split,
    expand_routes,
    iter_subterms,
    mk_arb,
    print_term,
    rewrite_basic,
    term_size,
)
from hbd.types import BaseType, Var, types_of

from util import (
    fold_parallel_oracle,
    named_feedback_oracle,
    named_serial_oracle,
    inter,
    is_perm,
    minus,
    named_parallel,
    perm_variant,
    random_io_list,
    shared_input_list,
    union_ord,
    vars_between,
)

R, I, B = BaseType.REAL, BaseType.INT, BaseType.BOOL


def rv(*names):
    return tuple(Var(n, R) for n in names)


u, v, w, a, b, c, d, e = rv("u", "v", "w", "a", "b", "c", "d", "e")


_names = st.lists(st.sampled_from("abcdefgh"), max_size=6).map(
    lambda ns: tuple(Var(n, R) for n in ns)
)


class TestVarLists:
    def test_inter_keeps_first_order(self):
        assert inter((u, v, w), (w, u)) == (u, w)

    def test_minus(self):
        assert minus((u, v, w), (v,)) == (u, w)

    def test_union_ord(self):
        assert union_ord((a, b), (b, c)) == (a, b, c)
        assert union_ord((), (a,)) == (a,)

    def test_is_perm_multiplicity(self):
        assert is_perm((a, b, a), (b, a, a))
        assert not is_perm((a, b), (a, a))
        assert not is_perm((a,), (a, a))

    @given(_names, _names)
    def test_union_is_concat_of_difference(self, xs, ys):
        assert union_ord(xs, ys) == xs + minus(ys, xs)

    @given(_names, _names)
    def test_inter_and_minus_partition_x(self, xs, ys):
        kept = inter(xs, ys)
        dropped = minus(xs, ys)
        merged = []
        ki, di = 0, 0
        for x in xs:
            if ki < len(kept) and kept[ki] == x and x in set(ys):
                merged.append(kept[ki])
                ki += 1
            else:
                merged.append(dropped[di])
                di += 1
        assert tuple(merged) == xs

    @given(_names)
    def test_perm_reflexive(self, xs):
        assert is_perm(xs, xs)


def test_vars_between(running_example):
    add, delay, split = running_example
    assert [x.name for x in vars_between(add, delay)] == ["x"]
    assert vars_between(add, split) == ()
    assert vars_between(delay, delay) == ()


class TestSwitchVars:
    def test_paper_example(self):
        sw = switch_vars((u, v), (v, u, w, u))
        assert sw == Route((R, R), (R, R, R, R), (1, 0, None, 0))
        assert types_of((v, u, w, u)) == sw.out_types
        assert eval_term(sw, (1.0, 2.0)) == (2.0, 1.0, BOT, 1.0)

    def test_identity_case(self):
        assert switch_vars((u, v), (u, v)) == Id((R, R))

    def test_empty_target_is_sink(self):
        assert switch_vars((u, v), ()) == Sink((R, R))

    def test_semantics_first_match_wins(self):
        x2 = (Var("p", R), Var("q", I))
        sw = switch_vars(x2, (Var("q", I), Var("p", R)))
        assert eval_term(sw, (1.5, 7)) == (7, 1.5)

    def test_output_kinds(self):
        rng = random.Random(3)
        for _ in range(40):
            xs = tuple(
                Var(f"n{i}", rng.choice((R, I, B))) for i in range(rng.randint(0, 4))
            )
            ys = tuple(
                rng.choice(xs) if xs and rng.random() < 0.7 else Var(f"m{j}", rng.choice((R, I, B)))
                for j in range(rng.randint(0, 5))
            )
            sw = switch_vars(xs, ys)
            assert sw.typing == (types_of(xs), types_of(ys))


def _paper_route_one(x, u):
    # [x -> u]: the first x_i named u passes, every other input is sunk.
    if not x:
        return mk_arb(u.ty)
    head, rest = x[0], x[1:]
    if head == u:
        return Parallel(Id((head.ty,)), Sink(types_of(rest)))
    return Parallel(Sink((head.ty,)), _paper_route_one(rest, u))


def paper_switch(x, y):
    """The paper's general switch [x -> y], built from the constants."""
    if y == x:
        return Id(types_of(x))
    if not y:
        return Sink(types_of(x))
    if len(y) == 1:
        return _paper_route_one(x, y[0])
    return Serial(
        Split(types_of(x)), Parallel(_paper_route_one(x, y[0]), paper_switch(x, y[1:]))
    )


_KINDS = st.sampled_from((R, I, B))
# names that are never inputs, one of each kind
_MISSING = (Var("p", R), Var("q", I), Var("r", B))


@st.composite
def switch_lists(draw):
    """Duplicate-free x of mixed kinds; y reuses, repeats and misses names
    of x, and sometimes ends in all of x (the identity tail)."""
    names = draw(st.lists(st.sampled_from("abcdef"), unique=True, max_size=5))
    x = tuple(Var(n, draw(_KINDS)) for n in names)
    y = tuple(draw(st.lists(st.sampled_from(x + _MISSING), max_size=6)))
    if draw(st.booleans()):
        y += x
    return x, y


class TestExpandRoutes:
    @settings(max_examples=150)
    @given(switch_lists())
    def test_expansion_is_the_paper_switch(self, xy):
        x, y = xy
        sw = switch_vars(x, y)
        expanded = expand_routes(sw)
        assert expanded == paper_switch(x, y)
        assert not any(isinstance(t, Route) for t in iter_subterms(expanded))
        for row in equivalence_samples(types_of(x), 20):
            assert eval_term(sw, row) == eval_term(expanded, row)

    def test_translated_body_expands(self, running_example):
        body = named_feedback(fold_parallel(running_example)).body
        expanded = expand_routes(body)
        assert expanded.typing == body.typing
        assert not any(isinstance(t, Route) for t in iter_subterms(expanded))
        rows = equivalence_samples(body.in_types, 40)
        assert compile_term(expanded).run(rows) == compile_term(body).run(rows)


class TestNamedSerial:
    def test_running_example_interface_and_body(self, running_example):
        add, delay, _ = running_example
        ad = named_serial(add, delay)
        assert [x.name for x in ad.inputs] == ["z", "u", "s"]
        assert [x.name for x in ad.outputs] == ["y", "s'"]
        expected = Serial(Parallel(add.body, Id((R,))), delay.body)
        assert rewrite_basic(ad.body) == rewrite_basic(expected)

    def test_output_clash_rejected(self):
        a = IoDiagram((u,), (v, w), Atom("f", ExprFun((Var("u", R),), (Ref("u"), Ref("u")))))
        bdiag = IoDiagram((v,), (w,), Atom("g", ExprFun((Var("v", R),), (Ref("v"),))))
        with pytest.raises(CompositionError):
            named_serial(a, bdiag)  # w escapes a and is also an output of b

    @pytest.mark.parametrize("b_inputs", [("x",), ("w", "x")])
    def test_bad_operand_typing_raises(self, b_inputs):
        # a yields x as a Real, b reads x as an Int: with or without a Route
        # between them, and so with or without identity wiring dropped
        fa = ExprFun((Var("p", R),), (Ref("p"),))
        a_ = IoDiagram((Var("p", R),), (Var("x", R),), Atom("f", fa))
        ins = tuple(Var(n, I) for n in b_inputs)
        fb = ExprFun(ins, (Ref("x"),))
        b_ = IoDiagram(ins, (Var("q", I),), Atom("g", fb))
        with pytest.raises((TypeMismatchError, CompositionError)):
            named_serial(a_, b_)

    def test_disjoint_behaves_like_shared_input_parallel(self):
        rng = random.Random(5)
        checked = 0
        while checked < 15:
            x, y = random_io_list(rng, 2)
            if vars_between(x, y) or inter(x.outputs, y.outputs):
                continue
            ser = named_serial(x, y)
            par = named_parallel(x, y)
            res = io_equiv(ser, par, 60)
            assert res, (x, y, res.reason, res.counterexample)
            checked += 1

    def test_associativity_semantic(self):
        rng = random.Random(9)
        checked = 0
        while checked < 20:
            ds = random_io_list(rng, 3)
            x, y, z = ds
            if inter(minus(x.outputs, y.inputs), y.outputs):
                continue
            if inter(inter(x.outputs, y.inputs), z.inputs):
                continue
            try:
                lhs = named_serial(named_serial(x, y), z)
                rhs = named_serial(x, named_serial(y, z))
            except CompositionError:
                continue
            assert is_perm(lhs.inputs, rhs.inputs) and is_perm(lhs.outputs, rhs.outputs)
            assert io_equiv(lhs, rhs, 50)
            checked += 1


class TestNamedParallel:
    def test_shared_inputs_interface(self):
        # A reads (a,b,c), B reads (d,b,a): the composite reads (a,b,c,d)
        fa = ExprFun(tuple(Var(n, R) for n in "abc"), (Bin("+", Ref("a"), Ref("b")),))
        fb = ExprFun(tuple(Var(n, R) for n in "dba"), (Bin("+", Ref("d"), Ref("a")),))
        A = IoDiagram((a, b, c), (u,), Atom("A", fa))
        Bd = IoDiagram((d, b, a), (v,), Atom("B", fb))
        comp = named_parallel(A, Bd)
        assert [x.name for x in comp.inputs] == ["a", "b", "c", "d"]
        assert [x.name for x in comp.outputs] == ["u", "v"]

    def test_disjoint_inputs_concatenate(self):
        A = IoDiagram((a,), (u,), Atom("A", ExprFun((Var("a", R),), (Ref("a"),))))
        Bd = IoDiagram((b,), (v,), Atom("B", ExprFun((Var("b", R),), (Ref("b"),))))
        comp = named_parallel(A, Bd)
        assert comp.inputs == (a, b)

    def test_output_clash_rejected(self):
        A = IoDiagram((a,), (u,), Atom("A", ExprFun((Var("a", R),), (Ref("a"),))))
        B2 = IoDiagram((b,), (u,), Atom("B", ExprFun((Var("b", R),), (Ref("b"),))))
        with pytest.raises(CompositionError):
            named_parallel(A, B2)

    def test_associativity(self):
        rng = random.Random(11)
        checked = 0
        while checked < 20:
            ds = random_io_list(rng, 3)
            x, y, z = ds
            try:
                lhs = named_parallel(named_parallel(x, y), z)
                rhs = named_parallel(x, named_parallel(y, z))
            except CompositionError:
                continue
            assert lhs.inputs == rhs.inputs
            assert lhs.outputs == rhs.outputs
            if not (set(x.inputs) & set(y.inputs) or set(y.inputs) & set(z.inputs)):
                # with disjoint inputs both shapes normalize identically
                assert rewrite_basic(lhs.body) == rewrite_basic(rhs.body)
            assert io_equiv(lhs, rhs, 50)
            checked += 1


class TestFoldParallel:
    @staticmethod
    def assert_matches_oracle(ds):
        got, want = fold_parallel(ds), fold_parallel_oracle(ds)
        assert print_term(got.body) == print_term(want.body)
        assert [(x.name, x.ty) for x in got.inputs] == [(x.name, x.ty) for x in want.inputs]
        assert [(x.name, x.ty) for x in got.outputs] == [(x.name, x.ty) for x in want.outputs]

    def test_corpus_lists(self, corpus_diagrams):
        for _, ds, _ in corpus_diagrams:
            self.assert_matches_oracle(ds)

    def test_large_lists(self):
        for i in range(5):
            ds, _, _ = document_io_list(random_diagram(7 + i, 50, 50))
            self.assert_matches_oracle(ds)

    def test_shared_input_names(self, corpus_diagrams):
        for _, ds, _ in corpus_diagrams:
            self.assert_matches_oracle([sb for d in ds for sb in split_block(d)])
        rng = random.Random(41)
        routed = 0
        for _ in range(60):
            ds = shared_input_list(rng, rng.randint(1, 8))
            self.assert_matches_oracle(ds)
            routed += any(isinstance(t, Route) for t in iter_subterms(fold_parallel(ds).body))
        assert routed > 30

    def test_output_clash_names_the_same_outputs(self):
        rng = random.Random(43)
        for _ in range(40):
            ds = shared_input_list(rng, rng.randint(2, 6))
            at = rng.randint(1, len(ds))
            earlier = [x for d in ds[:at] for x in d.outputs]
            outs = rng.sample(earlier, rng.randint(1, min(3, len(earlier))))
            outs.append(Var("fresh", R))
            rng.shuffle(outs)
            bodies = tuple(_random_expr(rng, (), x.ty, 1) for x in outs)
            ds.insert(at, IoDiagram((), tuple(outs), Atom("clash", ExprFun((), bodies))))
            with pytest.raises(CompositionError) as want:
                fold_parallel_oracle(ds)
            with pytest.raises(CompositionError) as got:
                fold_parallel(ds)
            assert str(got.value) == str(want.value)

    def test_one_interface_check_per_fold(self, monkeypatch):
        ds = shared_input_list(random.Random(47), 8)
        checks = []
        post_init = IoDiagram.__post_init__
        monkeypatch.setattr(
            IoDiagram, "__post_init__", lambda self: checks.append(self) or post_init(self)
        )
        folded = fold_parallel(ds)
        assert checks == [folded]


def _pool_diagrams(rng: random.Random, n: int, names: int):
    """Atom diagrams over one small pool of typed names: any diagram may
    read or write any name, so lists share inputs and outputs, and a
    diagram may read its own outputs."""
    pool = [Var(f"n{i}", rng.choice((R, I, B))) for i in range(names)]
    out = []
    for k in range(n):
        ins = tuple(rng.sample(pool, rng.randint(0, min(4, names))))
        outs = tuple(rng.sample(pool, rng.randint(0, min(3, names))))
        params = tuple(Var(f"p{j}", x.ty) for j, x in enumerate(ins))
        bodies = tuple(_random_expr(rng, params, x.ty, 1) for x in outs)
        out.append(IoDiagram(ins, outs, Atom(f"D{k}", ExprFun(params, bodies))))
    return out


def _shape(d: IoDiagram):
    """The interface of ``d`` and its printed body."""
    return [(x.name, x.ty) for x in d.inputs], [(x.name, x.ty) for x in d.outputs], print_term(d.body)


def _outcome(compose, *args):
    """The shape of a composition, or its error."""
    try:
        return _shape(compose(*args))
    except (CompositionError, TypeMismatchError) as exc:
        return type(exc).__name__, str(exc)


class TestIndexedInterface:
    """Each io-diagram indexes its interface by name once; the compositions
    read that index and match the variable-list definitions of
    ``tests/util.py`` exactly."""

    def test_positions_follow_the_lists(self):
        fn = ExprFun((Var("p", R), Var("q", R)), (Ref("q"), Ref("p")))
        A = IoDiagram((v, u), (w, a), Atom("A", fn))
        assert A.in_pos == {"v": 0, "u": 1} and list(A.in_pos) == ["v", "u"]
        assert A.out_pos == {"w": 0, "a": 1} and list(A.out_pos) == ["w", "a"]
        assert A == IoDiagram((v, u), (w, a), Atom("A", fn))
        assert repr(A) == "IoDiagram((v,u) -> (w,a))"

    def test_duplicate_names_keep_their_messages(self):
        body = Id((R, R, R))
        with pytest.raises(TypeMismatchError) as raised:
            IoDiagram((u, v, u), (a, b, a), body)
        assert str(raised.value) == "duplicate input names: (u:Real, v:Real, u:Real)"
        with pytest.raises(TypeMismatchError) as raised:
            IoDiagram((u, v, w), (a, b, a), body)
        assert str(raised.value) == "duplicate output names: (a:Real, b:Real, a:Real)"
        with pytest.raises(TypeMismatchError) as raised:
            IoDiagram((u,), (a,), Id((I,)))
        assert str(raised.value) == "body typing (Int)->(Int) does not match interface (u:Real,)->(a:Real,)"

    def test_serial_clash_names_the_same_outputs(self):
        rng = random.Random(61)
        clashes = 0
        for _ in range(300):
            x, y = _pool_diagrams(rng, 2, rng.randint(2, 6))
            want = _outcome(named_serial_oracle, x, y)
            assert _outcome(named_serial, x, y) == want
            clashes += want[0] == "CompositionError"
        assert clashes > 30

    def test_parallel_clash_names_the_same_outputs(self):
        rng = random.Random(62)
        clashes = 0
        for _ in range(200):
            ds = _pool_diagrams(rng, rng.randint(2, 5), rng.randint(3, 8))
            want = _outcome(fold_parallel_oracle, ds)
            assert _outcome(fold_parallel, ds) == want
            clashes += want[0] == "CompositionError"
        assert clashes > 30

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_compositions_match_the_oracle(self, seed, io_distinct):
        rng = random.Random(seed)
        if io_distinct:
            ds = random_io_list(rng, rng.randint(1, 4), names=rng.randint(1, 8))
        else:
            ds = _pool_diagrams(rng, rng.randint(1, 4), rng.randint(1, 6))
        assert _outcome(fold_parallel, ds) == _outcome(fold_parallel_oracle, ds)
        for x in ds:
            assert _outcome(named_feedback, x) == _outcome(named_feedback_oracle, x)
            for y in ds:
                assert _outcome(named_serial, x, y) == _outcome(named_serial_oracle, x, y)

    def test_translations_match_the_oracle(self, corpus_diagrams, monkeypatch):
        """Every strategy translates the corpus and one 50-block document to
        the same terms when the translation loop and fbless compose with the
        variable-list definitions."""
        import hbd.feedbackless as feedbackless
        import hbd.translator as translator
        from hbd.harness import translate_all

        lists = [ds for _, ds, _ in corpus_diagrams]
        lists.append(document_io_list(random_diagram(9, 50, 50))[0])

        def shapes():
            return [
                [(r.label, r.failure, r.diagram and _shape(r.diagram)) for r in translate_all(ds, range(3))]
                for ds in lists
            ]

        got = shapes()
        for module in (translator, feedbackless):
            monkeypatch.setattr(module, "named_serial", named_serial_oracle)
            monkeypatch.setattr(module, "fold_parallel", fold_parallel_oracle)
        monkeypatch.setattr(translator, "named_feedback", named_feedback_oracle)
        assert got == shapes()
        assert all(len(runs) in (5, 6) and not any(r[1] for r in runs) for runs in got)


class TestBeside:
    def test_identities_merge_across_the_adjoining_edge(self):
        x = Atom("X", ExprFun((Var("p", R),), (Ref("p"),)))
        assert beside(Id((R,)), Id((I,))) == Id((R, I))
        assert beside(Id((R,)), Parallel(Id((I,)), x)) == Parallel(Id((R, I)), x)
        assert beside(Parallel(x, Id((R,))), Id((I,))) == Parallel(x, Id((R, I)))
        assert beside(Id(()), x) is x and beside(x, Id(())) is x

    def test_identities_off_the_adjoining_edge_stay(self):
        x = Atom("X", ExprFun((Var("p", R),), (Ref("p"),)))
        inner = Parallel(x, Id((I,)))
        assert beside(Id((R,)), inner) == Parallel(Id((R,)), inner)
        assert beside(Parallel(Id((R,)), x), Id((I,))) == Parallel(Parallel(Id((R,)), x), Id((I,)))


def test_translations_have_their_rewritten_size(corpus_reports):
    """The compositions build no plumbing that ``rewrite_basic`` removes:
    every translation of the corpus and of five 50-block documents, fbless
    included, already has the size of its rewritten form."""
    runs = [run for report in corpus_reports for run in report.runs]
    for i in range(5):
        runs += translate_all(document_io_list(random_diagram(7 + i, 50, 50))[0])
    assert sum(run.label == "fbless" for run in runs) == 35
    for run in runs:
        body = run.diagram.body
        assert term_size(body) == term_size(rewrite_basic(body)), run.label


class TestNamedFeedback:
    def test_no_shared_names_is_semantically_neutral(self):
        A = IoDiagram((a,), (u,), Atom("A", ExprFun((Var("a", R),), (Ref("a"),))))
        fb = named_feedback(A)
        assert fb.inputs == (a,) and fb.outputs == (u,)
        assert io_equiv(fb, A)

    def test_no_shared_names_returns_the_argument(self):
        A = IoDiagram((a,), (u,), Atom("A", ExprFun((Var("a", R),), (Ref("a"),))))
        assert named_feedback(A) is A

    def test_bad_fed_back_typing_raises(self):
        # u is read as an Int and yielded as a Real; the switches around the
        # body are both identities
        fn = ExprFun((Var("u", I), Var("a", R)), (Ref("a"),))
        A = IoDiagram((Var("u", I), a), (u,), Atom("A", fn))
        with pytest.raises(TypeMismatchError):
            named_feedback(A)

    def test_shared_names_removed_from_both_sides(self):
        # A with inputs (a,b,c,d,e) and outputs (u,e,a,v,d): feedback
        # removes a, e, d from both sides
        fn = ExprFun(
            tuple(Var(n, R) for n in "abcde"),
            tuple(Ref(n) for n in ("a", "b", "c", "d", "e")),
        )
        A = IoDiagram((a, b, c, d, e), (u, e, a, v, d), Atom("A", fn))
        fb = named_feedback(A)
        assert [x.name for x in fb.inputs] == ["b", "c"]
        assert [x.name for x in fb.outputs] == ["u", "v"]

    def test_fb_idempotent_semantically(self):
        rng = random.Random(13)
        for _ in range(15):
            (A,) = random_io_list(rng, 1, names=5)
            fb = named_feedback(A)
            assert io_equiv(named_feedback(fb), fb, 40)


class TestIoEquiv:
    @pytest.mark.parametrize(
        "a, b, close",
        [
            (float("nan"), float("nan"), True),  # NaN equals NaN
            (float("nan"), 1.0, False),
            (float("inf"), float("inf"), True),
            (float("inf"), 5.0, False),  # within REL_TOL of inf by arithmetic alone
            (float("inf"), -float("inf"), False),
            (1.0, 1.0 + 1e-12, True),
            (0.0, -0.0, True),
            (1, True, False),
            (BOT, BOT, True),
        ],
    )
    def test_values_close(self, a, b, close):
        assert values_close(a, b) is close and values_close(b, a) is close

    def test_reflexive(self, running_example):
        add, delay, split = running_example
        for d in running_example:
            assert io_equiv(d, d)

    def test_parallel_commutes(self):
        A = IoDiagram((a,), (u,), Atom("A", ExprFun((Var("a", R),), (Ref("a"),))))
        Bd = IoDiagram((b,), (v,), Atom("B", ExprFun((Var("b", R),), (Ref("b"),))))
        assert io_equiv(named_parallel(A, Bd), named_parallel(Bd, A))

    def test_different_interfaces_not_equivalent(self, running_example):
        add, delay, _ = running_example
        ad = named_serial(add, delay)
        da = named_serial(delay, add)
        assert not io_equiv(ad, da)

    def test_same_name_different_type_rejected(self):
        from hbd.types import Var as V

        A = IoDiagram(
            (V("a", R),), (V("u", R),), Atom("A", ExprFun((Var("a", R),), (Ref("a"),)))
        )
        B2 = IoDiagram(
            (V("a", I),), (V("u", I),), Atom("B", ExprFun((Var("a", I),), (Ref("a"),)))
        )
        res = io_equiv(A, B2)
        assert not res and "type" in res.reason

    def test_semantic_difference_detected(self):
        A = IoDiagram((a, b), (u,), Atom("A", ExprFun((Var("a", R), Var("b", R)), (Bin("+", Ref("a"), Ref("b")),))))
        B2 = IoDiagram((a, b), (u,), Atom("B", ExprFun((Var("a", R), Var("b", R)), (Bin("-", Ref("a"), Ref("b")),))))
        res = io_equiv(A, B2)
        assert not res
        assert res.counterexample is not None

    def test_matches_wrapped_term_formula(self):
        # the name-aligned comparison equals evaluating
        # [I(A)->I(B)] ;; D(B) ;; [O(B)->O(A)] sample by sample
        rng = random.Random(17)
        for _ in range(25):
            (A,) = random_io_list(rng, 1, names=5)
            B2 = perm_variant(rng, A)
            wrapped = Serial(
                switch_vars(A.inputs, B2.inputs),
                Serial(B2.body, switch_vars(B2.outputs, A.outputs)),
            )
            ca = compile_term(A.body)
            cw = compile_term(wrapped)
            rows = sample_inputs(types_of(A.inputs), 25, seed=19)
            assert ca.run(rows) == cw.run(rows)
            assert io_equiv(A, B2)

    def test_congruence_properties(self):
        rng = random.Random(23)
        for _ in range(10):
            (A,) = random_io_list(rng, 1, names=5)
            B2 = perm_variant(rng, A)
            C2 = perm_variant(rng, B2)
            samples = 40
            assert io_equiv(A, A, samples)
            assert io_equiv(B2, A, samples) and io_equiv(A, B2, samples)
            assert io_equiv(A, C2, samples)  # transitivity instance
            assert io_equiv(named_feedback(A), named_feedback(B2), samples)

    def test_parallel_permutation_invariance(self):
        rng = random.Random(29)
        checked = 0
        while checked < 10:
            ds = random_io_list(rng, 3)
            perm = ds[:]
            rng.shuffle(perm)
            try:
                lhs = named_parallel(named_parallel(ds[0], ds[1]), ds[2])
                rhs = named_parallel(named_parallel(perm[0], perm[1]), perm[2])
            except CompositionError:
                continue
            assert io_equiv(lhs, rhs, 40)
            checked += 1


def test_interface_validation():
    with pytest.raises(TypeMismatchError):
        IoDiagram((a, a), (u,), Atom("A", ExprFun((Var("a", R), Var("a2", R)), (Ref("a"),))))
    with pytest.raises(TypeMismatchError):
        IoDiagram((a,), (u,), Atom("A", ExprFun((Var("a", I),), (Ref("a"),))))


def test_equivalence_samples_exhaustive_bool():
    rows = equivalence_samples((B, B), 50)
    assert len(rows) == 9  # complete domain: no top-up needed
    assert (BOT, BOT) in rows and (True, False) in rows
    mixed = equivalence_samples((B, R), 50)
    assert len(mixed) == 50  # canonical grid first, random rows after
    assert mixed[:9] == list(
        __import__("itertools").product((BOT, True, False), (BOT, 0.0, 1.5))
    )
