"""Term AST: typing rules, constructors, rewriting, textual format."""

import pytest
from hypothesis import given, strategies as st

from hbd.errors import ParseError, TypeMismatchError
from hbd.exprs import Bin, ExprFun, Ref
from hbd.feedbackless import fbless_translate, split_block
from hbd.semantics import BOT, eval_term, sample_inputs
from hbd.terms import (
    Feedback,
    Id,
    Route,
    Serial,
    Sink,
    Split,
    Switch,
    collect_atoms,
    feedback_n,
    is_arb,
    mk_arb,
    mk_atom,
    mk_feedback,
    mk_parallel,
    mk_serial,
    parse_term,
    print_term,
    rewrite_basic,
    term_size,
    type_of,
)
from hbd.translator import FeedbackParallel, Incremental, RandomChoices, translate
from hbd.types import BaseType, Var

from util import feedbacks_outside_arb, print_term_oracle

R, I, B = BaseType.REAL, BaseType.INT, BaseType.BOOL

ADD = mk_atom("Add", ExprFun((Var("a", R), Var("b", R)), (Bin("+", Ref("a"), Ref("b")),)))


def test_constant_typings():
    assert type_of(Switch((R,), (I,))) == ((R, I), (I, R))
    assert type_of(Split((R,))) == ((R,), (R, R))
    assert type_of(Sink((R, B))) == ((R, B), ())
    assert type_of(Id((I,))) == ((I,), (I,))


def test_empty_typed_constants_are_permitted():
    from hbd.semantics import eval_term

    for t in (Split(()), Sink(()), Switch((), ())):
        assert type_of(t) == ((), ())
        assert eval_term(t, ()) == ()


def test_serial_typing_neutral_id():
    assert type_of(mk_serial(Id((R,)), Split((R,)))) == ((R,), (R, R))


def test_feedback_of_split_types_as_arb():
    assert type_of(Feedback(Split((R,)))) == ((), (R,))


def test_mk_serial_examples():
    t = mk_serial(Id((I,)), Id((I,)))
    assert type_of(t) == ((I,), (I,))
    t = mk_serial(Split((R,)), Switch((R,), (R,)))
    assert type_of(t) == ((R,), (R, R))
    with pytest.raises(TypeError):
        mk_serial(Id((I,)), Id((R,)))


def test_feedback_constructors():
    assert feedback_n(0, Id((R,))) == Id((R,))
    assert type_of(mk_feedback(Switch((R,), (R,)))) == ((R,), (R,))
    with pytest.raises(TypeError):
        mk_feedback(Id(()))
    with pytest.raises(TypeError):
        mk_feedback(mk_serial(Id((R,)), Sink((R,))))
    assert type_of(feedback_n(2, Switch((R, I), (R, I)))) == ((R, I), (R, I))
    from hbd.exprs import Lit

    bad = mk_atom(
        "bad2", ExprFun((Var("a", R), Var("b", I)), (Ref("a"), Lit(True)))
    )
    with pytest.raises(TypeError):
        feedback_n(2, bad)  # second wire pairs Int with Bool


def test_mk_arb():
    assert mk_arb(R) == Feedback(Split((R,)))
    assert type_of(mk_arb(B)) == ((), (B,))
    assert is_arb(mk_arb(I))
    assert not is_arb(Feedback(Split((R, I))))
    assert feedbacks_outside_arb(mk_serial(mk_arb(R), Id((R,)))) == 0
    assert feedbacks_outside_arb(mk_feedback(Switch((R,), (R,)))) == 1


def test_rewrite_identity_elimination():
    assert rewrite_basic(mk_serial(Id((R, R)), ADD)) == ADD
    assert rewrite_basic(mk_serial(ADD, Id((R,)))) == ADD


def test_rewrite_parallel_unit():
    assert rewrite_basic(mk_parallel(Id(()), ADD)) == ADD
    assert rewrite_basic(mk_parallel(ADD, Id(()))) == ADD


def test_rewrite_reassociates_right():
    a, b, c = Id((R,)), Split((I,)), Sink((B,))
    t = mk_parallel(mk_parallel(a, b), c)
    assert rewrite_basic(t) == mk_parallel(a, mk_parallel(b, c))
    s = mk_serial(mk_serial(Split((R,)), Switch((R,), (R,))), Sink((R, R)))
    assert rewrite_basic(s) == mk_serial(
        Split((R,)), mk_serial(Switch((R,), (R,)), Sink((R, R)))
    )


def test_rewrite_merges_adjacent_ids():
    t = mk_parallel(Id((R,)), Id((I, B)))
    assert rewrite_basic(t) == Id((R, I, B))
    t = mk_serial(mk_parallel(Id((R,)), Id((R,))), ADD)
    assert rewrite_basic(t) == ADD


def _random_terms():
    import random

    from hbd.axioms import random_term

    rng = random.Random(7)
    return [
        random_term(rng, tuple(rng.choice((R, I, B)) for _ in range(rng.randint(0, 3))), 2)
        for _ in range(60)
    ]


@pytest.mark.parametrize("term", _random_terms())
def test_rewrite_properties(term):
    out = rewrite_basic(term)
    assert type_of(out) == type_of(term)
    assert term_size(out) <= term_size(term)
    assert rewrite_basic(out) == out  # idempotent
    for row in sample_inputs(term.in_types, 12, seed=3):
        assert eval_term(out, row) == eval_term(term, row)


# One term of every kind, with empty type lists and unknown route outputs.
KIND_TERMS = [
    Id(()),
    Id((R, I)),
    Split((B,)),
    Sink(()),
    Switch((R,), (I, B)),
    ADD,
    mk_serial(mk_parallel(ADD, Id((R,))), mk_parallel(Id((R,)), Id((R,)))),
    mk_feedback(Switch((R,), (R,))),
    mk_arb(I),
    Route((R, I), (I, R), (1, None)),
    Route((R,), (R, R, R), (0, 0, 0)),
    Route((), (B,), (None,)),
    mk_serial(Route((R, R), (R,), (1,)), mk_parallel(Id((R,)), Route((), (R,), (None,)))),
]


def test_print_parse_round_trip():
    atoms = {"Add": ADD}
    for t in KIND_TERMS:
        text = print_term(t)
        assert parse_term(text, atoms) == t


def test_print_term_matches_the_recursive_oracle(corpus_diagrams):
    for t in KIND_TERMS:
        assert print_term(t) == print_term_oracle(t)
    strategies = (FeedbackParallel(), Incremental(), RandomChoices(0))
    for _, diagrams, _ in corpus_diagrams:
        bodies = [translate(diagrams, s).body for s in strategies]
        bodies.append(fbless_translate([sb for d in diagrams for sb in split_block(d)]).body)
        for body in bodies + [rewrite_basic(b) for b in bodies]:
            assert print_term(body) == print_term_oracle(body)


def test_print_term_needs_no_recursion_limit():
    depth = 50_000
    t, heads, tails = Id((R,)), [], []
    for i in range(depth):
        if i % 2:
            t = Feedback(t)
            heads.append("(feedback ")
            tails.append(")")
        else:
            t = Serial(t, Sink((R,)))
            heads.append("(serial ")
            tails.append(" (sink Real))")
    assert print_term(t) == "".join(reversed(heads)) + "(id Real)" + "".join(tails)


def test_print_term_refuses_a_non_term():
    with pytest.raises(TypeError, match="not a term"):
        print_term(")")
    with pytest.raises(TypeError, match="not a term"):
        print_term(Serial(ADD, " "))


def test_print_example_shape():
    t = mk_serial(mk_parallel(ADD, Id((R,))), Id((R, R)))
    assert print_term(t) == "(serial (par (atom Add) (id Real)) (id Real Real))"


def test_route_typing_and_text():
    r = Route((R, I), (I, R, B), (1, 0, None))
    assert type_of(r) == ((R, I), (I, R, B))
    assert print_term(r) == "(route (Real Int) (Int Real Bool) (1 0 _))"
    assert eval_term(r, (1.5, 2)) == (2, 1.5, BOT)
    for bad in (
        Route((R,), (I,), (0,)),  # kind clash
        Route((R,), (R,), (1,)),  # index out of range
        Route((R,), (R, R), (0,)),  # one index short
    ):
        with pytest.raises(TypeError):
            type_of(bad)
    with pytest.raises(ParseError):
        parse_term("(route (Real) (Real) (x))")
    with pytest.raises(TypeError):
        parse_term("(route (Real) (Int) (0))")


@pytest.mark.parametrize(
    "imap, error, message",
    [
        ((-1,), TypeMismatchError, "route index -1 cannot yield Real: Route(Real)(Real)[-1]"),
        ((1,), TypeMismatchError, "route index 1 cannot yield Real: Route(Real)(Real)[1]"),
        ((0, 5), TypeMismatchError, "route index 5 cannot yield Real: Route(Real)(Real,Real)[0 5]"),
        ((None, -1), TypeMismatchError, "route index -1 cannot yield Real: Route(Real)(Real,Real)[_ -1]"),
        ((2**80,), TypeMismatchError, f"route index {2**80} cannot yield Real: Route(Real)(Real)[{2**80}]"),
        (("0",), TypeError, "'<=' not supported between instances of 'int' and 'str'"),
        ((0.0,), TypeError, "tuple indices must be integers or slices, not float"),
    ],
)
def test_hand_built_route_bad_index_messages(imap, error, message):
    """The one-pass index check of a Route falls back to the index loop, so
    a bad index still raises the error that names it."""
    with pytest.raises(error) as raised:
        type_of(Route((R,), (R,) * len(imap), imap))
    assert str(raised.value) == message


def test_route_typing_accepts_what_the_loop_accepts():
    for imap, t2 in (((), ()), ((None,), (I,)), ((1, 1, 0), (I, I, R)), ((True,), (I,))):
        assert type_of(Route((R, I), t2, imap)) == ((R, I), t2)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_term("(serial (id Real)")
    with pytest.raises(ParseError):
        parse_term("(atom Unknown)")
    with pytest.raises(ParseError):
        parse_term("(id Real) trailing")


def test_collect_atoms():
    t = mk_serial(mk_parallel(ADD, Id((R,))), Id((R, R)))
    assert collect_atoms(t) == {"Add": ADD}


@given(st.integers(0, 3), st.integers(0, 3))
def test_typelist_concat_monoid(n, m):
    a = (R,) * n
    b = (I,) * m
    assert (a + b) + () == a + b == () + (a + b)


@given(st.sampled_from([R, I, B]))
def test_var_equality_is_by_name(k):
    assert Var("x", k) == Var("x", R)
    assert Var("x", k) != Var("y", k)
    assert hash(Var("x", k)) == hash(Var("x", R))


def test_type_error_messages_stay_small():
    """A type error names node kinds and types, never whole subterms, so its
    message does not grow with a term of over 3,000 nodes: four 100-block
    translations side by side."""
    from functools import reduce

    from hbd.frontend import flatten_or_recurse
    from hbd.gen import random_diagram
    from hbd.translator import Incremental

    bodies = [
        flatten_or_recurse(random_diagram(7 + i, 100, 100), "flatten", Incremental()).diagram.body
        for i in range(4)
    ]
    body = reduce(mk_parallel, bodies)
    assert term_size(body) > 3000
    drained = mk_serial(body, Sink(body.out_types))
    for build in (
        lambda: mk_serial(body, Id(())),
        lambda: mk_feedback(drained),
        lambda: feedback_n(1, drained),
    ):
        with pytest.raises(TypeMismatchError) as err:
            build()
        assert len(str(err.value)) < 2000
