"""Term AST: typing rules, constructors, rewriting, textual format."""

import copy
import gc
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from hbd.compiled import compile_term
from hbd.errors import ParseError, TypeMismatchError
from hbd.exprs import Bin, ExprFun, Ref
from hbd.feedbackless import fbless_translate, split_block
from hbd.semantics import BOT, eval_term, sample_inputs
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
    collect_atoms,
    feedback_n,
    iter_subterms,
    mk_arb,
    parse_term,
    print_term,
    rewrite_basic,
    term_size,
)
from hbd.translator import FeedbackParallel, Incremental, RandomChoices, translate
from hbd.types import BaseType, Var

from util import feedbacks_outside_arb, is_arb, print_term_oracle

R, I, B = BaseType.REAL, BaseType.INT, BaseType.BOOL

ADD = Atom("Add", ExprFun((Var("a", R), Var("b", R)), (Bin("+", Ref("a"), Ref("b")),)))


def test_constant_typings():
    assert Switch((R,), (I,)).typing == ((R, I), (I, R))
    assert Split((R,)).typing == ((R,), (R, R))
    assert Sink((R, B)).typing == ((R, B), ())
    assert Id((I,)).typing == ((I,), (I,))


def test_empty_typed_constants_are_permitted():
    from hbd.semantics import eval_term

    for t in (Split(()), Sink(()), Switch((), ())):
        assert t.typing == ((), ())
        assert eval_term(t, ()) == ()


def test_serial_typing_neutral_id():
    assert Serial(Id((R,)), Split((R,))).typing == ((R,), (R, R))


def test_feedback_of_split_types_as_arb():
    assert Feedback(Split((R,))).typing == ((), (R,))


def test_serial_examples():
    t = Serial(Id((I,)), Id((I,)))
    assert t.typing == ((I,), (I,))
    t = Serial(Split((R,)), Switch((R,), (R,)))
    assert t.typing == ((R,), (R, R))
    message = r"serial mismatch: Id yields \(Int\) but Id expects \(Real\)"
    with pytest.raises(TypeMismatchError, match=message):
        Serial(Id((I,)), Id((R,)))


def test_feedback_constructors():
    assert feedback_n(0, Id((R,))) == Id((R,))
    assert Feedback(Switch((R,), (R,))).typing == ((R,), (R,))
    with pytest.raises(TypeMismatchError):
        Feedback(Id(()))
    with pytest.raises(TypeMismatchError):
        Feedback(Serial(Id((R,)), Sink((R,))))
    assert feedback_n(2, Switch((R, I), (R, I))).typing == ((R, I), (R, I))
    with pytest.raises(ValueError):
        feedback_n(-1, Id((R,)))
    from hbd.exprs import Lit

    bad = Atom(
        "bad2", ExprFun((Var("a", R), Var("b", I)), (Ref("a"), Lit(True)))
    )
    # the second wire pairs Int with Bool; the second Feedback refuses it
    with pytest.raises(TypeMismatchError, match=r"Feedback body: \(Int\) -> \(Bool\)$"):
        feedback_n(2, bad)


def test_mk_arb():
    assert mk_arb(R) == Feedback(Split((R,)))
    assert mk_arb(B).typing == ((), (B,))
    assert is_arb(mk_arb(I))
    assert not is_arb(Feedback(Split((R, I))))
    assert feedbacks_outside_arb(Serial(mk_arb(R), Id((R,)))) == 0
    assert feedbacks_outside_arb(Feedback(Switch((R,), (R,)))) == 1


def test_rewrite_identity_elimination():
    assert rewrite_basic(Serial(Id((R, R)), ADD)) == ADD
    assert rewrite_basic(Serial(ADD, Id((R,)))) == ADD


def test_rewrite_parallel_unit():
    assert rewrite_basic(Parallel(Id(()), ADD)) == ADD
    assert rewrite_basic(Parallel(ADD, Id(()))) == ADD


def test_rewrite_reassociates_right():
    a, b, c = Id((R,)), Split((I,)), Sink((B,))
    t = Parallel(Parallel(a, b), c)
    assert rewrite_basic(t) == Parallel(a, Parallel(b, c))
    s = Serial(Serial(Split((R,)), Switch((R,), (R,))), Sink((R, R)))
    assert rewrite_basic(s) == Serial(
        Split((R,)), Serial(Switch((R,), (R,)), Sink((R, R)))
    )


def test_rewrite_merges_adjacent_ids():
    t = Parallel(Id((R,)), Id((I, B)))
    assert rewrite_basic(t) == Id((R, I, B))
    t = Serial(Parallel(Id((R,)), Id((R,))), ADD)
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
    assert out.typing == term.typing
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
    Serial(Parallel(ADD, Id((R,))), Parallel(Id((R,)), Id((R,)))),
    Feedback(Switch((R,), (R,))),
    mk_arb(I),
    Route((R, I), (I, R), (1, None)),
    Route((R,), (R, R, R), (0, 0, 0)),
    Route((), (B,), (None,)),
    Serial(Route((R, R), (R,), (1,)), Parallel(Id((R,)), Route((), (R,), (None,)))),
]


def test_nodes_keep_their_typing_in_a_slot():
    for t in KIND_TERMS:
        assert not hasattr(t, "__dict__")
        for twin in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert twin == t and twin.typing == t.typing


def test_types_compare_equal_after_pickle(corpus_diagrams):
    """A type read back from a pickle is an equal string, not the same
    object, so typing, evaluation and sampling compare types by value."""
    back = pickle.loads(pickle.dumps(Id((R,))))
    assert Feedback(Serial(back, Id((R,)))).typing == ((), ())
    for _, diagrams, _ in corpus_diagrams[:10]:
        term = translate(diagrams, FeedbackParallel()).body
        twin = pickle.loads(pickle.dumps(term))
        rows = sample_inputs(term.in_types, 50, 0)
        assert sample_inputs(twin.in_types, 50, 0) == rows
        # repr compares NaN outputs too
        for run in (lambda t: [eval_term(t, r) for r in rows], lambda t: compile_term(t).run(rows)):
            assert repr(run(twin)) == repr(run(term))


def test_typing_tuples_are_not_tracked_by_the_collector(corpus_diagrams):
    """Types are plain strings, so a collection untracks every typing tuple
    and later collections do not walk a term's typings."""
    for _, diagrams, _ in corpus_diagrams[:3]:
        term = translate(diagrams, FeedbackParallel()).body
        gc.collect()
        tracked = [t for t in iter_subterms(term) for side in t.typing if gc.is_tracked(side)]
        assert not tracked


def test_composite_reprs_show_kind_and_arity():
    assert repr(Serial(Id((R, R)), ADD)) == "Serial: 2 -> 1 wires"
    assert repr(Parallel(ADD, Id((R,)))) == "Parallel: 3 -> 2 wires"
    assert repr(Feedback(Switch((R,), (R,)))) == "Feedback: 1 -> 1 wires"


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
            t = Feedback(Parallel(Id((R,)), t))
            heads.append("(feedback (par (id Real) ")
            tails.append("))")
        else:
            t = Serial(t, Id((R,)))
            heads.append("(serial ")
            tails.append(" (id Real))")
    assert t.typing == ((R,), (R,))
    assert print_term(t) == "".join(reversed(heads)) + "(id Real)" + "".join(tails)


def test_a_deep_serial_chain_builds_types_and_prints():
    """Typing reads only the children's stored typings, so a chain far
    deeper than the recursion limit builds, and it types and prints; in a
    child process, because overrunning the C stack would kill this one."""
    script = (
        "import sys\n"
        "from hbd.terms import Id, Serial, print_term\n"
        "from hbd.types import BaseType\n"
        "R = BaseType.REAL\n"
        "t = Id((R,))\n"
        "for _ in range(50_000):\n"
        "    t = Serial(Id((R,)), t)\n"
        "assert t.typing == ((R,), (R,))\n"
        "print(len(print_term(t)))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{50_000 * len('(serial (id Real) )') + len('(id Real)')}\n"


def test_print_term_refuses_a_non_term():
    with pytest.raises(TypeError, match="not a term"):
        print_term(")")
    with pytest.raises(AttributeError):
        Serial(ADD, " ")


def test_print_example_shape():
    t = Serial(Parallel(ADD, Id((R,))), Id((R, R)))
    assert print_term(t) == "(serial (par (atom Add) (id Real)) (id Real Real))"


def test_route_typing_and_text():
    r = Route((R, I), (I, R, B), (1, 0, None))
    assert r.typing == ((R, I), (I, R, B))
    assert print_term(r) == "(route (Real Int) (Int Real Bool) (1 0 _))"
    assert eval_term(r, (1.5, 2)) == (2, 1.5, BOT)
    for t2, imap in (
        ((I,), (0,)),  # kind clash
        ((R,), (1,)),  # index out of range
        ((R, R), (0,)),  # one index short
    ):
        with pytest.raises(TypeMismatchError):
            Route((R,), t2, imap)
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
        Route((R,), (R,) * len(imap), imap)
    assert str(raised.value) == message


def test_route_typing_accepts_what_the_loop_accepts():
    for imap, t2 in (((), ()), ((None,), (I,)), ((1, 1, 0), (I, I, R)), ((True,), (I,))):
        assert Route((R, I), t2, imap).typing == ((R, I), t2)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_term("(serial (id Real)")
    with pytest.raises(ParseError):
        parse_term("(atom Unknown)")
    with pytest.raises(ParseError):
        parse_term("(id Real) trailing")


def test_collect_atoms():
    t = Serial(Parallel(ADD, Id((R,))), Id((R, R)))
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
    body = reduce(Parallel, bodies)
    assert term_size(body) > 3000
    assert len(repr(body)) < 200
    drained = Serial(body, Sink(body.out_types))
    for build in (
        lambda: Serial(body, Id(())),
        lambda: Feedback(drained),
        lambda: feedback_n(1, drained),
    ):
        with pytest.raises(TypeMismatchError) as err:
            build()
        assert len(str(err.value)) < 2000
