"""Block splitting, dependency analysis, internal serial composition, and
the feedback-free translation."""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from hbd import feedbackless
from hbd.compiled import Compiled
from hbd.errors import PreconditionError
from hbd.exprs import Bin, ExprFun, Ite, Lit, Ref
from hbd.feedbackless import (
    fbless_translate,
    find_cycle,
    internal_serial,
    internal_vars,
    loop_free,
    oi_rel,
    split_block,
    topological_order,
)
from hbd.harness import check_deterministic, io_equiv, run_determinacy
from hbd.io_diagrams import (
    IoDiagram,
    fold_parallel,
    named_feedback,
)
from hbd.frontend import FbLess, document_io_list, flatten_or_recurse, parse_doc
from hbd.gen import random_diagram, twin_chain
from hbd.terms import (
    Atom,
    Feedback,
    Id,
    Route,
    Serial,
    Sink,
    Split,
    Switch,
    iter_subterms,
    mk_arb,
    print_term,
    rewrite_basic,
    term_size,
)
from hbd.translator import FeedbackParallel, Incremental, topo_order
from hbd.semantics import BOT
from hbd.types import BaseType, Var

from util import (
    DIFF_DOC,
    FANOUT_DOC,
    INHERITED_DOC,
    SUB_DOC,
    TWINS_DOC,
    feedbacks_outside_arb,
    graph_reads,
    transitive_closure,
    fbless_translate_oracle,
    growing_tower,
    loop_free_oracle,
    named_parallel,
    random_io_list,
    random_order,
    shared_serials,
    topological_order_oracle,
)

R = BaseType.REAL
DIAGRAMS = Path(__file__).resolve().parent.parent / "diagrams"


def rvs(*names):
    return tuple(Var(n, R) for n in names)


def names(*vs) -> frozenset:
    """The names of ``vs``: internal variables are names."""
    return frozenset(v.name for v in vs)


def name_pairs(pairs) -> frozenset:
    """Pairs of variables as ``oi_rel`` gives them: pairs of names."""
    return frozenset((a.name, b.name) for a, b in pairs)


z, u, x, s, sp, y, v = rvs("z", "u", "x", "s", "s'", "y", "v")


def _atom1(name, src, dst, k):
    return IoDiagram(
        (src,), (dst,), Atom(name, ExprFun((Var(src.name, R),), (Bin("*", Lit(k), Ref(src.name)),)))
    )


class TestSplitBlock:
    def test_delay_splits_into_two_identities(self, running_example):
        _, delay, _ = running_example
        parts = split_block(delay)
        assert len(parts) == 2
        first, second = parts
        assert first.inputs == (s,) and first.outputs == (y,)
        assert first.body == Id((R,))
        assert second.inputs == (x,) and second.outputs == (sp,)
        assert second.body == Id((R,))

    def test_split_block_of_split(self, running_example):
        _, _, split = running_example
        parts = split_block(split)
        assert [(p.inputs, p.outputs) for p in parts] == [((y,), (z,)), ((y,), (v,))]
        assert all(p.body == Id((R,)) for p in parts)

    def test_single_output_block_unchanged(self, running_example):
        add, _, _ = running_example
        parts = split_block(add)
        assert len(parts) == 1
        assert parts[0] is add

    def test_generic_projection_fallback(self):
        # a non-atom body whose outputs leave z unread falls back to
        # S ;; [outs -> u_i] with every input
        both = IoDiagram((u, z), (x, y), Route((R, R), (R, R), (0, 0)))
        parts = split_block(both)
        assert [p.outputs for p in parts] == [(x,), (y,)]
        assert all(p.inputs == (u, z) for p in parts)
        assert io_equiv(fold_parallel(parts), both)

    def test_non_atom_body_is_sliced_per_output(self):
        # each output keeps the part of the body it reads, and its inputs
        a = IoDiagram((u,), (x,), Atom("A", ExprFun((Var("u", R),), (Ref("u"),))))
        b = IoDiagram((z,), (y,), Atom("B", ExprFun((Var("z", R),), (Ref("z"),))))
        both = named_parallel(a, b)
        parts = split_block(both)
        assert [(p.inputs, p.outputs) for p in parts] == [((u,), (x,)), ((z,), (y,))]
        assert [p.body for p in parts] == [a.body, b.body]
        assert io_equiv(fold_parallel(parts), both)

    def test_splitting_soundness(self, running_example):
        for diagram in running_example:
            parts = split_block(diagram)
            recombined = fold_parallel(parts)
            assert io_equiv(recombined, diagram), diagram


class TestAtomsReadByPosition:
    """Parameter k of an atom's function stands for input k, whatever the
    parameters are called."""

    def test_loop_through_atoms_with_local_parameter_names(self):
        p = Var("p", R)
        g = IoDiagram((u,), (y,), Atom("g", ExprFun((p,), (Bin("*", Lit(2.0), Ref("p")),))))
        h = IoDiagram((y,), (u,), Atom("h", ExprFun((p,), (Bin("+", Ref("p"), Lit(1.0)),))))
        blocks = [sb for d in (g, h) for sb in split_block(d)]
        assert [b.inputs for b in blocks] == [(u,), (y,)]
        assert not loop_free(blocks)
        assert find_cycle(blocks) == ["u", "y", "u"]
        report = run_determinacy([g, h], seeds=range(2), samples=20)
        assert [r.label for r in report.runs] == ["fbpar", "incr", "rand0", "rand1"]
        assert report.all_equivalent

    @pytest.mark.parametrize(
        "first", [Ref("q"), Bin("+", Ref("p"), Ref("q"))], ids=["ref", "expr"]
    )
    def test_two_output_atom_with_local_parameter_names(self, first):
        fn = ExprFun(rvs("p", "q"), (first, Bin("*", Lit(2.0), Ref("p"))))
        a = IoDiagram((u, x), (y, v), Atom("A", fn))
        one, two = split_block(a)
        assert one.inputs == ((x,) if first == Ref("q") else (u, x))
        assert two.inputs == (u,) and two.body.fn.params == rvs("p")
        # one naming rule for every cut atom: a pass-through output is an
        # identity, and a computed one is A[k] over the parameters it reads
        if first == Ref("q"):
            assert one.body == Id((R,))
        else:
            assert one.body.name == "A[0]" and one.body.fn.params == rvs("p", "q")
        assert two.body.name == "A[1]"
        assert io_equiv(fold_parallel([one, two]), a)

    def test_permuted_parameter_names_follow_positions(self):
        # parameter "x" stands for input u, and "u" for input x; a
        # single-output block is its own split and depends on every input,
        # the one it ignores included
        swapped = rvs("x", "u")
        single = IoDiagram((u, x), (y,), Atom("S", ExprFun(swapped, (Bin("*", Lit(2.0), Ref("x")),))))
        assert split_block(single) == [single]
        assert oi_rel([single]) == name_pairs({(y, u), (y, x)})
        fn = ExprFun(swapped, (Ref("x"), Bin("*", Lit(3.0), Ref("u"))))
        a = IoDiagram((u, x), (y, v), Atom("A", fn))
        one, two = split_block(a)
        assert one.inputs == (u,) and two.inputs == (x,)
        assert io_equiv(fold_parallel([one, two]), a)


class TestUnreadInputs:
    """An atom may ignore an input.  Its split blocks still read every
    input of the atom between them, so fbless keeps the interface the other
    strategies have, and a dependency through the ignored input counts."""

    def test_single_output_atom_keeps_its_ignored_input(self):
        """A(a, b) -> o reads only a, and B feeds o back into b: the
        relation over-approximates A's dependencies, so the loop through b
        is an algebraic loop and fbless is left out, as the paper's
        set(O) x set(I) says."""
        a, b, o = rvs("a", "b", "o")
        fn = ExprFun(rvs("p", "q"), (Bin("*", Lit(2.0), Ref("p")),))
        A = IoDiagram((a, b), (o,), Atom("A", fn))
        B = _atom1("B", o, b, 3.0)
        report = run_determinacy([A, B], seeds=range(2), samples=20)
        assert [r.label for r in report.runs] == ["fbpar", "incr", "rand0", "rand1"]
        assert all(cell.proved for row in report.matrix for cell in row)
        blocks = [p for d in (A, B) for p in split_block(d)]
        with pytest.raises(PreconditionError, match="algebraic loop: .* -> "):
            fbless_translate(blocks)

    def test_two_output_atom_with_an_unread_input(self):
        """Neither output of A reads c: A takes the generic projection, so
        each split block reads a and c, and fbless has A's interface."""
        a, c, o1, o2 = rvs("a", "c", "o1", "o2")
        fn = ExprFun(rvs("p", "q"), (Bin("*", Lit(2.0), Ref("p")), Bin("+", Ref("p"), Lit(1.0))))
        A = IoDiagram((a, c), (o1, o2), Atom("A", fn))
        parts = split_block(A)
        assert [(p.inputs, p.outputs) for p in parts] == [((a, c), (o1,)), ((a, c), (o2,))]
        report = run_determinacy([A], seeds=range(2), samples=20)
        assert [r.label for r in report.runs][-1] == "fbless"
        assert all(cell.proved for row in report.matrix for cell in row)


class TestSlicing:
    """A translated instance, or any other non-atom body, splits into one
    slice per output: the part of the body the output reads, over the
    inputs it reads."""

    def test_recursive_fbless_stays_within_twice_the_flat_size(self):
        doc = twin_chain(6)
        flat = term_size(flatten_or_recurse(doc, "flatten", FbLess()).diagram.body)
        rec = flatten_or_recurse(doc, "recursive", FbLess()).diagram
        assert flat == 129
        assert term_size(rec.body) <= 2 * flat
        assert feedbacks_outside_arb(rec.body) == 0

    def test_recursive_fbless_column_has_the_flatten_size(self):
        """In recursive mode the determinacy report's fbless term has the
        flatten-mode size: 2**(k+1) + 1 nodes on the k-level chain, and 9
        on instance_loop, with every cell proved."""
        docs = [(twin_chain(k), 2 ** (k + 1) + 1) for k in range(1, 6)]
        docs.append((parse_doc((DIAGRAMS / "instance_loop.hbd.json").read_bytes()), 9))
        for doc, size in docs:
            diagrams, _, _ = document_io_list(doc, "recursive")
            report = run_determinacy(diagrams, seeds=range(2), samples=20)
            assert (report.runs[-1].label, report.runs[-1].size) == ("fbless", size)
            assert all(cell.proved for row in report.matrix for cell in row)

    def test_slices_read_exactly_what_their_output_reads(self):
        """On every recursive-mode item of the shipped, fixture and chain
        documents, under three strategies, a slice takes the inputs its
        output's symbolic graph reaches, and the slices recombine to the
        item."""
        texts = [p.read_text() for p in sorted(DIAGRAMS.glob("*.hbd.json"))]
        texts += [json.dumps(d) for d in (SUB_DOC, DIFF_DOC, TWINS_DOC, FANOUT_DOC, INHERITED_DOC)]
        docs = [parse_doc(t) for t in texts] + [twin_chain(3)]
        sliced = 0
        for doc in docs:
            for method in (Incremental(), FeedbackParallel(), FbLess()):
                for d in document_io_list(doc, "recursive", method)[0]:
                    if isinstance(d.body, Atom) or len(d.outputs) == 1:
                        continue
                    parts = split_block(d)
                    reads = graph_reads(d.body)
                    for p, want in zip(parts, reads):
                        assert [d.in_pos[v.name] for v in p.inputs] == want
                    assert io_equiv(fold_parallel(parts), d).proved
                    sliced += 1
        assert sliced >= 30

    def test_instance_delay_breaks_the_loop(self):
        """instance_loop's loop runs through the instance's UnitDelay: its
        output slice reads only the state, so fbless sees no loop."""
        doc = parse_doc((DIAGRAMS / "instance_loop.hbd.json").read_bytes())
        for method in (Incremental(), FbLess()):
            diagrams, _, _ = document_io_list(doc, "recursive", method)
            blocks = [b for d in diagrams for b in split_block(d)]
            assert loop_free(blocks)
            report = run_determinacy(diagrams, seeds=range(2), samples=20)
            assert report.runs[-1].label == "fbless" and not report.not_run
            assert all(cell.proved for row in report.matrix for cell in row)

    def test_wiring_constants_slice_to_their_sources(self):
        """An unknown Route output reads nothing; a Switch or Split output
        reads the one input it carries."""
        d = IoDiagram((u, z), (x, y, v), Route((R, R), (R, R, R), (1, None, 0)))
        parts = split_block(d)
        assert [(p.inputs, p.outputs) for p in parts] == [((z,), (x,)), ((), (y,)), ((u,), (v,))]
        assert parts[1].body == Route((), (R,), (None,))
        assert io_equiv(fold_parallel(parts), d).proved
        swap = IoDiagram((u, z), (x, y), Serial(Switch((R,), (R,)), Id((R, R))))
        split = IoDiagram((u,), (x, y), Split((R,)))
        for d, reads in ((swap, [(z,), (u,)]), (split, [(u,), (u,)])):
            parts = split_block(d)
            assert [p.inputs for p in parts] == reads
            assert all(p.body == Id((R,)) for p in parts)
            assert io_equiv(fold_parallel(parts), d).proved

    def test_a_feedback_tower_is_sliced_in_one_walk(self, monkeypatch):
        """Each of 40 nested feedbacks reads its guess, and one output of the
        tower is cut away: the slice visits each level once."""
        depth = 40
        params = tuple(Var(f"p{i}", R) for i in range(depth + 2))
        total = Ref("p0")
        for p in params[1:]:
            total = Bin("+", total, Ref(p.name))
        fn = ExprFun(params, (total,) * (depth + 1) + (Ref(params[-1].name),))
        body = Atom("F", fn)
        for _ in range(depth):
            body = Feedback(body)
        d = IoDiagram((u, z), (x, y), body)
        calls = 0
        real = feedbackless._slice

        def counted(*args):
            nonlocal calls
            calls += 1
            assert calls <= 4 * depth, "the slice walks a level more than once"
            return real(*args)

        monkeypatch.setattr(feedbackless, "_slice", counted)
        first, second = split_block(d)
        assert first.inputs == (u, z) and second.inputs == (z,)
        assert calls <= 2 * (depth + 1)
        atoms = [t for t in iter_subterms(first.body) if isinstance(t, Atom)]
        assert [len(a.fn.bodies) for a in atoms] == [depth + 1]


class TestCheckDeterministic:
    def test_library_blocks(self, running_example):
        for diagram in running_example:
            assert check_deterministic(diagram)

    def test_closure_under_feedback_observed(self, running_example, corpus_diagrams):
        # whether determinism survives the feedback operator is open in the
        # underlying theory; we record the sampled observation, nothing
        # downstream assumes it
        fb = named_feedback(fold_parallel(list(running_example)))
        assert check_deterministic(fb, samples=80)
        for _, diagrams, _ in corpus_diagrams[:3]:
            assert check_deterministic(named_feedback(fold_parallel(diagrams)), samples=30)

    def test_identity(self):
        d = IoDiagram((u,), (v,), Id((R,)))
        assert check_deterministic(d)

    def test_arb_output_is_deterministic(self):
        # both copies of an unknown output are the same unknown
        d = IoDiagram((), (v,), mk_arb(R))
        assert check_deterministic(d)


    def test_decided_by_graphs_without_sampling(self, running_example, compiled_runs):
        for diagram in running_example:
            assert check_deterministic(diagram)
        assert compiled_runs == []

    def test_sampled_difference_is_found(self, compiled_runs, monkeypatch):
        """x = ite(c, u, x) never repeats as a graph.  One side holds one copy
        of its tower and the other two, and their solves stop at caps of
        their own widths on different graphs, so both sides are sampled; a
        block that gives another output on its second run (faked by
        replacing that run's outputs with bot) is found out."""
        body = growing_tower(Ite(Ref("c"), Ref("u"), Ref("x")))
        d = IoDiagram((u, Var("c", BaseType.BOOL)), (v,), body)
        assert check_deterministic(d)
        assert len(compiled_runs) == 2
        run = Compiled.run

        def second_differs(compiled, rows, stats=None, validate=True):
            outs = run(compiled, rows, stats, validate)  # counted by the fixture
            return outs if len(compiled_runs) % 2 else [(BOT,) * len(o) for o in outs]

        monkeypatch.setattr(Compiled, "run", second_differs)
        assert not check_deterministic(d)


class TestDependencyAnalysis:
    def test_unsplit_running_example_not_loop_free(self, running_example):
        add, delay, split = running_example
        rel = oi_rel([add, delay, split])
        expected = {
            (x, u), (x, z), (y, x), (y, s), (sp, x), (sp, s), (z, y), (v, y),
        }
        assert rel == name_pairs(expected)
        closure = transitive_closure(rel)
        assert (z.name, z.name) in closure
        assert not loop_free([add, delay, split])

    def test_split_running_example_loop_free(self, running_example):
        add, delay, split = running_example
        blocks = [p for d in running_example for p in split_block(d)]
        rel = oi_rel(blocks)
        assert rel == name_pairs({(x, u), (x, z), (y, s), (sp, x), (z, y), (v, y)})
        assert loop_free(blocks)
        assert find_cycle(blocks) is None

    def test_cycle_witness(self, running_example):
        add, delay, split = running_example
        cycle = find_cycle([add, delay, split])
        assert cycle is not None
        assert cycle[0] == cycle[-1]
        # every step of the witness is a dependency pair
        rel = oi_rel([add, delay, split])
        pairs = set(rel)
        for frm, to in zip(cycle, cycle[1:]):
            assert (frm, to) in pairs

    def test_empty_deps_loop_free(self):
        assert loop_free([IoDiagram((), (v,), mk_arb(R))])

    def test_witness_of_a_long_chain_off_a_short_cycle(self):
        """A 2,000-name chain whose end reads a 2-cycle: the walk enters
        each name once, and the witness is the cycle, from its smallest
        name."""
        chain = rvs(*(f"c{i}" for i in range(2000)), "z1")
        items = [IoDiagram((b,), (a,), Id((R,))) for a, b in zip(chain, chain[1:])]
        z1, z2 = rvs("z1", "z2")
        items += [IoDiagram((z1,), (z2,), Id((R,))), IoDiagram((z2,), (z1,), Id((R,)))]
        assert find_cycle(items) == ["z1", "z2", "z1"]
        assert not loop_free(items)

    @given(st.integers(0, 2**32 - 1))
    def test_witness_is_a_cycle_from_its_smallest_name(self, seed):
        """On io lists with loops and self-loops, loop_free agrees with the
        closure oracle, and a witness is a cycle of oi_rel that starts at
        its smallest name."""
        rng = random.Random(seed)
        items = random_io_list(rng, rng.randint(1, 5), names=rng.randint(1, 8))
        _assert_witness(items)

    def test_witnesses_cover_self_loops_and_longer_cycles(self):
        """The io lists that the property above draws from include
        loop-free lists, self-loops and longer cycles."""
        lengths = set()
        for seed in range(200):
            rng = random.Random(seed)
            items = random_io_list(rng, rng.randint(1, 5), names=rng.randint(1, 8))
            cycle = _assert_witness(items)
            lengths.add(min(len(cycle), 3) if cycle else 0)
        assert lengths == {0, 2, 3}


    def test_loop_free_matches_the_closure_oracle(self, corpus_diagrams):
        lists = []
        for _, diagrams, _ in corpus_diagrams:
            lists += [diagrams, [p for d in diagrams for p in split_block(d)]]
        rng = random.Random(14)
        lists += [_random_relation_blocks(rng) for _ in range(200)]
        verdicts = set()
        for items in lists:
            verdicts.add(_assert_witness(items) is None)
        assert verdicts == {True, False}


def _assert_witness(items):
    """``find_cycle(items)``, checked against the closure oracle: None
    exactly when the items are loop-free, and otherwise a cycle of
    ``oi_rel`` with no repeated name, from its smallest name."""
    cycle = find_cycle(items)
    assert loop_free(items) == loop_free_oracle(items) == (cycle is None)
    if cycle is not None:
        assert cycle[0] == cycle[-1] == min(cycle)
        assert len(set(cycle)) == len(cycle) - 1
        assert set(zip(cycle, cycle[1:])) <= oi_rel(items)
    return cycle


def _random_relation_blocks(rng):
    """Split blocks over a small name pool with random inputs, so that
    cycles and self-loops occur."""
    pool = rvs(*(f"w{i}" for i in range(rng.randint(1, 8))))
    blocks = []
    for out in rng.sample(pool, rng.randint(1, len(pool))):
        ins = tuple(w for w in pool if rng.random() < 0.2)
        body = Atom(f"F{out.name}", ExprFun(ins, (Lit(0.0),)))
        blocks.append(IoDiagram(ins, (out,), body))
    return blocks


class TestInternalVars:
    def test_split_running_example(self, running_example):
        blocks = [p for d in running_example for p in split_block(d)]
        assert internal_vars(blocks) == names(x, y, z)

    def test_disjoint_blocks(self):
        a = IoDiagram((u,), (x,), Id((R,)))
        b = IoDiagram((z,), (y,), Id((R,)))
        assert internal_vars([a, b]) == set()

    def test_fanout_chain(self):
        assert internal_vars(_fanout_chain_blocks()) == {"a", "b", "c", "d"}


def _fanout_chain_blocks():
    """A -> B -> Split -> (C, D), already split into single outputs."""
    a, b, c, d, uu, vv, ww = rvs("a", "b", "c", "d", "u", "v", "w")
    A = _atom1("A", uu, a, 2.0)
    B = _atom1("B", a, b, 3.0)
    C = _atom1("C", c, vv, -1.0)
    D = _atom1("D", d, ww, 5.0)
    split1 = IoDiagram((b,), (c,), Id((R,)))
    split2 = IoDiagram((b,), (d,), Id((R,)))
    return [A, B, split1, split2, C, D]


def test_topological_orders_are_pinned(running_example):
    """fbless's elimination order and incr's diagram order share one sort:
    the smallest-index node with no remaining predecessor goes next, and in
    a cycle the smallest-index remaining node does."""
    blocks = list(reversed(_fanout_chain_blocks()))
    assert topological_order(blocks) == ["a", "b", "d", "c"]
    # A -> B -> (split1 -> C, split2 -> D), listed in reverse dependency order
    D, C, split2, split1, B, A = blocks
    assert topo_order([D, C, split2, split1, B, A]) == [A, B, split2, D, split1, C]
    add, delay, split = running_example
    assert topo_order([delay, split, add]) == [delay, split, add]


class TestInternalSerial:
    def test_fires_when_output_consumed(self):
        out = internal_serial(_atom1("A", u, x, 2.0), _atom1("B", x, y, 3.0))
        assert out.inputs == (u,) and out.outputs == (y,)

    def test_skips_when_not_consumed(self):
        a = _atom1("A", u, x, 2.0)
        b = _atom1("B", z, y, 3.0)
        assert internal_serial(a, b) is b

    def test_producer_order_commutes(self):
        a1, b1, c1, u1 = rvs("a1", "b1", "c1", "u1")
        A = _atom1("A", u1, a1, 2.0)
        B = _atom1("B", a1, b1, 3.0)
        fn = ExprFun((Var("a1", R), Var("b1", R)), (Bin("+", Ref("a1"), Ref("b1")),))
        C = IoDiagram((a1, b1), (c1,), Atom("C", fn))
        lhs = internal_serial(internal_serial(A, B), internal_serial(A, C))
        rhs = internal_serial(internal_serial(B, A), internal_serial(B, C))
        assert io_equiv(lhs, rhs, 60)

    def test_producer_order_commutes_sampled(self, corpus_diagrams):
        rng = random.Random(41)
        checked = 0
        for _, diagrams, _ in corpus_diagrams[:6]:
            blocks = [p for d in diagrams for p in split_block(d)]
            if len(blocks) < 3 or not loop_free(blocks):
                continue
            for _ in range(4):
                A, B, C = rng.sample(blocks, 3)
                lhs = internal_serial(internal_serial(A, B), internal_serial(A, C))
                rhs = internal_serial(internal_serial(B, A), internal_serial(B, C))
                assert io_equiv(lhs, rhs, 40)
                checked += 1
        assert checked >= 10


class TestFblessTranslate:
    def test_running_example_golden(self, running_example):
        """Eliminating x, then y, then z leaves
        ((s,u), (s',v), [s,u -> s,u,s] ;; (Add || Id))."""
        from hbd.io_diagrams import switch_vars
        from hbd.terms import Parallel, Serial

        add, delay, split = running_example
        blocks = [p for d in running_example for p in split_block(d)]
        out = fbless_translate(blocks, ("x", "y", "z"))
        assert out.inputs == (s, u)
        assert out.outputs == (sp, v)
        expected = Serial(
            switch_vars((s, u), (s, u, s)), Parallel(add.body, Id((R,)))
        )
        assert rewrite_basic(out.body) == rewrite_basic(expected)
        assert feedbacks_outside_arb(out.body) == 0

    def test_elimination_step_removes_one_internal(self, running_example):
        blocks = [p for d in running_example for p in split_block(d)]
        internal = internal_vars(blocks)
        producer = next(b for b in blocks if b.outputs == (x,))
        stepped = [internal_serial(producer, b) for b in blocks if b is not producer]
        assert loop_free(stepped)
        assert internal_vars(stepped) == internal - {x.name}

    def test_matches_named_feedback_of_fold(self, running_example):
        blocks = [p for d in running_example for p in split_block(d)]
        out = fbless_translate(blocks)
        ref = named_feedback(fold_parallel(blocks))
        assert io_equiv(out, ref)

    def test_no_internal_vars_folds_directly(self):
        out = fbless_translate([_atom1("A", u, x, 2.0), _atom1("B", z, y, 3.0)])
        assert out.inputs == (u, z) and out.outputs == (x, y)

    def test_rejects_algebraic_loop(self, running_example):
        add, delay, split = running_example
        blocks = [add, IoDiagram((x,), (z,), Id((R,)))]
        with pytest.raises(PreconditionError) as err:
            fbless_translate(blocks)
        assert "->" in str(err.value)  # cycle witness path

    def test_rejects_duplicate_outputs(self):
        a = _atom1("A", u, x, 2.0)
        b = _atom1("B", z, x, 3.0)
        with pytest.raises(PreconditionError):
            fbless_translate([a, b])

    def test_rejects_a_block_without_exactly_one_output(self, running_example):
        _, delay, _ = running_example
        for block in (delay, IoDiagram((u,), (), Sink((R,)))):
            with pytest.raises(PreconditionError, match="one output"):
                fbless_translate([block])

    def test_given_order_must_cover_internals(self, running_example):
        blocks = [p for d in running_example for p in split_block(d)]
        with pytest.raises(PreconditionError):
            fbless_translate(blocks, ("x", "y"))
        with pytest.raises(PreconditionError):
            fbless_translate(blocks, ("x", "y", "z", "v"))

    def test_order_must_be_a_permutation_of_the_internals(self, running_example):
        """A repeated, an unknown and a missing name are each refused."""
        blocks = [p for d in running_example for p in split_block(d)]
        for order in (["x", "y", "z", "x"], ["x", "y", "v"], ["x", "z"]):
            with pytest.raises(PreconditionError, match="not a permutation"):
                fbless_translate(blocks, order)

    def test_order_independence(self, running_example):
        blocks = [p for d in running_example for p in split_block(d)]
        results = [
            fbless_translate(blocks, ("x", "y", "z")),
            fbless_translate(blocks, ("z", "y", "x")),
            fbless_translate(blocks),
            fbless_translate(blocks, random_order(blocks, 0)),
            fbless_translate(blocks, random_order(blocks, 99)),
        ]
        for other in results[1:]:
            assert io_equiv(results[0], other)

    def test_matches_the_elimination_oracle(self, corpus_diagrams):
        """The indexed loop gives the text the rescan of every block gives,
        under each elimination order."""
        lists = [diagrams for _, diagrams, _ in corpus_diagrams]
        lists += [document_io_list(random_diagram(7 + i, 50, 50))[0] for i in range(3)]
        for diagrams in lists:
            blocks = [p for d in diagrams for p in split_block(d)]
            names = sorted(internal_vars(blocks))
            orders = [(None, topological_order_oracle(blocks)), (names, names)]
            orders += [(random_order(blocks, seed),) * 2 for seed in range(3)]
            for order, oracle_order in orders:
                got = fbless_translate(blocks, order)
                want = fbless_translate_oracle(blocks, oracle_order)
                assert print_term(got.body) == print_term(want.body), order
                assert (got.inputs, got.outputs) == (want.inputs, want.outputs)

    def test_every_internal_serial_call_composes(self, monkeypatch):
        """Eliminating a variable visits only the blocks that read it, so
        the work is linear in the compositions made."""
        calls = []
        compose = feedbackless.internal_serial

        def counted(a, b):
            result = compose(a, b)
            calls.append(result is not b)
            return result

        monkeypatch.setattr(feedbackless, "internal_serial", counted)
        diagrams, _, _ = document_io_list(random_diagram(7, 200, 200))
        fbless_translate([p for d in diagrams for p in split_block(d)])
        assert calls and all(calls), (len(calls), sum(calls))

    def test_feedback_freedom_on_corpus(self, corpus_diagrams):
        checked = 0
        for _, diagrams, _ in corpus_diagrams[:8]:
            blocks = [p for d in diagrams for p in split_block(d)]
            if not loop_free(blocks):
                continue
            out = fbless_translate(blocks)
            assert feedbacks_outside_arb(out.body) == 0
            checked += 1
        assert checked >= 5


class TestSharing:
    def test_upstream_first_order_shares_the_common_prefix(self):
        # reuse on the raw body: rewriting rebuilds the chains and erases
        # the construction history it measures
        blocks = _fanout_chain_blocks()
        shared = fbless_translate(blocks, ("c", "d", "a", "b"))
        repeats = shared_serials(shared.body)
        assert repeats, "A;;B region must be built once and reused"
        names = {a.name for t in repeats for a in _atoms_of(t)}
        assert {"A", "B"} <= names
        assert "C" not in names and "D" not in names

    def test_downstream_first_order_duplicates_work(self):
        blocks = _fanout_chain_blocks()
        dup = fbless_translate(blocks, ("c", "d", "b", "a"))
        assert not shared_serials(dup.body)

    def test_topological_order_matches_the_sharing_order(self):
        # upstream variables first: a before b, so the default order also
        # reuses the composed producer
        blocks = _fanout_chain_blocks()
        assert shared_serials(fbless_translate(blocks).body)

    def test_orders_still_equivalent(self):
        blocks = _fanout_chain_blocks()
        a = fbless_translate(blocks, ("c", "d", "a", "b"))
        b = fbless_translate(blocks, ("c", "d", "b", "a"))
        assert io_equiv(a, b)


def _atoms_of(term):
    from hbd.terms import Atom, iter_subterms

    return [t for t in iter_subterms(term) if isinstance(t, Atom)]


def test_scale_script_runs():
    script = Path(__file__).resolve().parent.parent / "scripts" / "scale.py"
    proc = subprocess.run(
        [sys.executable, str(script), "20"], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    header, *rows, check_header, check, sim_header, fbpar, incr = lines[:-7]
    nested_header, *nested = lines[-7:]
    assert header == [
        "blocks", "strategy", "seconds", "print", "term_size", "route_width", "kept_MB"
    ]
    names = ("frontend", "fbpar", "incr", "fbless")
    assert [row[:2] for row in rows] == [["20", name] for name in names]
    assert all(len(row) == len(header) for row in rows)
    assert rows[0][3:] == ["-", "-", "-", "-"]
    assert all(float(row[6]) > 0 for row in rows[1:])
    assert check_header == [
        "blocks", "check", "seconds", "proved", "cells", "joint", "gc_s", "peak_MB"
    ]
    assert check[:2] == ["20", "check"] and check[3:5] == ["529", "529"]
    width, passes = map(int, check[5].split("x"))
    assert width >= 1 and 1 <= passes <= width + 1
    assert float(check[6]) >= 0 and float(check[7]) > 0
    assert sim_header == ["blocks", "simulate", "compile", "loop", "steps/s"]
    assert [fbpar[:2], incr[:2]] == [["20", "fbpar"], ["20", "incr"]]
    assert all(len(row) == len(sim_header) for row in (fbpar, incr))
    assert nested_header == ["levels", "nested", "flat_size", "flat_s", "rec_size", "rec_s"]
    assert [row[:2] for row in nested] == [[str(k), "nested"] for k in range(1, 7)]
    flat_sizes = [int(row[2]) for row in nested]
    assert flat_sizes == [2 ** (k + 1) + 1 for k in range(1, 7)]
    assert all(int(row[4]) <= 2 * int(row[2]) for row in nested)
    assert all(float(row[4]) > 0 for row in (fbpar, incr))
