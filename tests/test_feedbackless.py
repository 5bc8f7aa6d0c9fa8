"""Block splitting, dependency analysis, internal serial composition, and
the feedback-free translation."""

import random
import subprocess
import sys
from pathlib import Path

import pytest

from hbd import feedbackless
from hbd.compiled import Compiled
from hbd.errors import PreconditionError
from hbd.exprs import Bin, ExprFun, Ite, Lit, Ref
from hbd.feedbackless import (
    GivenOrder,
    RandomOrder,
    SplitBlock,
    Topological,
    check_deterministic,
    count_shared_compositions,
    fbless_translate,
    find_cycle,
    internal_serial,
    internal_vars,
    loop_free,
    oi_rel,
    ok_fbless,
    split_block,
    transitive_closure,
)
from hbd.harness import io_equiv
from hbd.io_diagrams import (
    EquivConfig,
    IoDiagram,
    fold_parallel,
    named_feedback,
)
from hbd.frontend import document_io_list
from hbd.gen import random_diagram
from hbd.terms import Id, feedbacks_outside_arb, mk_arb, mk_atom, print_term, rewrite_basic
from hbd.translator import topo_order
from hbd.semantics import BOT
from hbd.types import BaseType, Var

from util import (
    TopologicalOracle,
    fbless_translate_oracle,
    growing_tower,
    loop_free_oracle,
)

R = BaseType.REAL


def rvs(*names):
    return tuple(Var(n, R) for n in names)


z, u, x, s, sp, y, v = rvs("z", "u", "x", "s", "s'", "y", "v")


def _atom1(name, src, dst, k):
    return IoDiagram(
        (src,), (dst,), mk_atom(name, ExprFun((Var(src.name, R),), (Bin("*", Lit(k), Ref(src.name)),)))
    )


class TestSplitBlock:
    def test_delay_splits_into_two_identities(self, running_example):
        _, delay, _ = running_example
        parts = split_block(delay)
        assert len(parts) == 2
        first, second = parts
        assert first.base.inputs == (s,) and first.base.outputs == (y,)
        assert first.base.body == Id((R,))
        assert second.base.inputs == (x,) and second.base.outputs == (sp,)
        assert second.base.body == Id((R,))
        assert first.deps == {s} and second.deps == {x}

    def test_split_block_of_split(self, running_example):
        _, _, split = running_example
        parts = split_block(split)
        assert [(p.base.inputs, p.base.outputs) for p in parts] == [((y,), (z,)), ((y,), (v,))]
        assert all(p.base.body == Id((R,)) for p in parts)

    def test_single_output_block_unchanged(self, running_example):
        add, _, _ = running_example
        parts = split_block(add)
        assert len(parts) == 1
        assert parts[0].base is add
        assert parts[0].deps == {z, u}

    def test_generic_projection_fallback(self):
        # a non-atom body falls back to S ;; [outs -> u_i] with full deps
        from hbd.io_diagrams import named_parallel

        a = IoDiagram((u,), (x,), mk_atom("A", ExprFun((Var("u", R),), (Ref("u"),))))
        b = IoDiagram((z,), (y,), mk_atom("B", ExprFun((Var("z", R),), (Ref("z"),))))
        both = named_parallel(a, b)
        parts = split_block(both)
        assert [p.base.outputs for p in parts] == [(x,), (y,)]
        assert all(p.deps == {u, z} for p in parts)
        assert io_equiv(fold_parallel([p.base for p in parts]), both)

    def test_splitting_soundness(self, running_example):
        for diagram in running_example:
            parts = split_block(diagram)
            recombined = fold_parallel([p.base for p in parts])
            assert io_equiv(recombined, diagram), diagram


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

    def test_undecided_difference_is_found_by_sampling(self, compiled_runs, monkeypatch):
        """x = ite(c, u, x) leaves both sides' graphs undecided, so both are
        sampled; a block that gives another output on its second run (faked
        by replacing that run's outputs with bot) is found out."""
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
        assert rel == frozenset(expected)
        closure = transitive_closure(rel)
        assert (z, z) in closure
        assert not loop_free([add, delay, split])

    def test_split_running_example_loop_free(self, running_example):
        add, delay, split = running_example
        blocks = [p for d in running_example for p in split_block(d)]
        rel = oi_rel(blocks)
        assert rel == frozenset({(x, u), (x, z), (y, s), (sp, x), (z, y), (v, y)})
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
        blk = SplitBlock(IoDiagram((), (v,), mk_arb(R)), frozenset())
        assert loop_free([blk])


    def test_loop_free_matches_the_closure_oracle(self, corpus_diagrams):
        lists = []
        for _, diagrams, _ in corpus_diagrams:
            lists += [diagrams, [p for d in diagrams for p in split_block(d)]]
        rng = random.Random(14)
        lists += [_random_relation_blocks(rng) for _ in range(200)]
        verdicts = set()
        for items in lists:
            verdict = loop_free(items)
            assert verdict == loop_free_oracle(items)
            verdicts.add(verdict)
        assert verdicts == {True, False}


def _random_relation_blocks(rng):
    """Split blocks over a small name pool with random dependencies, so
    that cycles and self-loops occur."""
    pool = rvs(*(f"w{i}" for i in range(rng.randint(1, 8))))
    blocks = []
    for out in rng.sample(pool, rng.randint(1, len(pool))):
        ins = tuple(w for w in pool if rng.random() < 0.3)
        deps = frozenset(w for w in ins if rng.random() < 0.6)
        body = mk_atom(f"F{out.name}", ExprFun(ins, (Lit(0.0),)))
        blocks.append(SplitBlock(IoDiagram(ins, (out,), body), deps))
    return blocks


class TestInternalVars:
    def test_split_running_example(self, running_example):
        blocks = [p for d in running_example for p in split_block(d)]
        assert internal_vars(blocks) == {x, y, z}

    def test_disjoint_blocks(self):
        a = SplitBlock(IoDiagram((u,), (x,), Id((R,))), frozenset((u,)))
        b = SplitBlock(IoDiagram((z,), (y,), Id((R,))), frozenset((z,)))
        assert internal_vars([a, b]) == set()

    def test_fanout_chain(self):
        assert internal_vars(_fanout_chain_blocks()) == set(rvs("a", "b", "c", "d"))


def _fanout_chain_blocks():
    """A -> B -> Split -> (C, D), already split into single outputs."""
    a, b, c, d, uu, vv, ww = rvs("a", "b", "c", "d", "u", "v", "w")
    A = _atom1("A", uu, a, 2.0)
    B = _atom1("B", a, b, 3.0)
    C = _atom1("C", c, vv, -1.0)
    D = _atom1("D", d, ww, 5.0)
    split1 = SplitBlock(IoDiagram((b,), (c,), Id((R,))), frozenset((b,)))
    split2 = SplitBlock(IoDiagram((b,), (d,), Id((R,))), frozenset((b,)))
    return [
        SplitBlock(A, frozenset((uu,))),
        SplitBlock(B, frozenset((a,))),
        split1,
        split2,
        SplitBlock(C, frozenset((c,))),
        SplitBlock(D, frozenset((d,))),
    ]


def test_topological_orders_are_pinned(running_example):
    """fbless's elimination order and incr's diagram order share one sort:
    the smallest-index node with no remaining predecessor goes next, and in
    a cycle the smallest-index remaining node does."""
    blocks = list(reversed(_fanout_chain_blocks()))
    assert [v.name for v in Topological().order(blocks)] == ["a", "b", "d", "c"]
    # A -> B -> (split1 -> C, split2 -> D), listed in reverse dependency order
    D, C, split2, split1, B, A = (b.base for b in blocks)
    assert topo_order([D, C, split2, split1, B, A]) == [A, B, split2, D, split1, C]
    add, delay, split = running_example
    assert topo_order([delay, split, add]) == [delay, split, add]


class TestInternalSerial:
    def test_fires_when_output_consumed(self):
        a = SplitBlock(_atom1("A", u, x, 2.0), frozenset((u,)))
        b = SplitBlock(_atom1("B", x, y, 3.0), frozenset((x,)))
        out = internal_serial(a, b)
        assert out.base.inputs == (u,) and out.base.outputs == (y,)
        assert out.deps == {u}

    def test_skips_when_not_consumed(self):
        a = SplitBlock(_atom1("A", u, x, 2.0), frozenset((u,)))
        b = SplitBlock(_atom1("B", z, y, 3.0), frozenset((z,)))
        assert internal_serial(a, b) is b

    def test_producer_order_commutes(self):
        a1, b1, c1, u1 = rvs("a1", "b1", "c1", "u1")
        A = SplitBlock(_atom1("A", u1, a1, 2.0), frozenset((u1,)))
        B = SplitBlock(_atom1("B", a1, b1, 3.0), frozenset((a1,)))
        fn = ExprFun((Var("a1", R), Var("b1", R)), (Bin("+", Ref("a1"), Ref("b1")),))
        C = SplitBlock(IoDiagram((a1, b1), (c1,), mk_atom("C", fn)), frozenset((a1, b1)))
        lhs = internal_serial(internal_serial(A, B), internal_serial(A, C))
        rhs = internal_serial(internal_serial(B, A), internal_serial(B, C))
        assert io_equiv(lhs.base, rhs.base, EquivConfig(samples=60, exhaustive_limit=16))

    def test_producer_order_commutes_sampled(self, corpus_diagrams):
        rng = random.Random(41)
        checked = 0
        for _, diagrams, _ in corpus_diagrams[:6]:
            blocks = [p for d in diagrams for p in split_block(d)]
            if len(blocks) < 3 or not ok_fbless(blocks):
                continue
            for _ in range(4):
                A, B, C = rng.sample(blocks, 3)
                lhs = internal_serial(internal_serial(A, B), internal_serial(A, C))
                rhs = internal_serial(internal_serial(B, A), internal_serial(B, C))
                assert io_equiv(lhs.base, rhs.base, EquivConfig(samples=40))
                checked += 1
        assert checked >= 10


class TestFblessTranslate:
    def test_running_example_golden(self, running_example):
        """Eliminating x, then y, then z leaves
        ((s,u), (s',v), [s,u -> s,u,s] ;; (Add || Id))."""
        from hbd.io_diagrams import switch_vars
        from hbd.terms import mk_parallel, mk_serial

        add, delay, split = running_example
        blocks = [p for d in running_example for p in split_block(d)]
        out = fbless_translate(blocks, GivenOrder(("x", "y", "z")))
        assert out.inputs == (s, u)
        assert out.outputs == (sp, v)
        expected = mk_serial(
            switch_vars((s, u), (s, u, s)), mk_parallel(add.body, Id((R,)))
        )
        assert rewrite_basic(out.body) == rewrite_basic(expected)
        assert feedbacks_outside_arb(out.body) == 0

    def test_elimination_step_removes_one_internal(self, running_example):
        blocks = [p for d in running_example for p in split_block(d)]
        internal = internal_vars(blocks)
        producer = next(b for b in blocks if b.output == x)
        stepped = [internal_serial(producer, b) for b in blocks if b is not producer]
        assert ok_fbless(stepped)
        assert internal_vars(stepped) == internal - {x}

    def test_matches_named_feedback_of_fold(self, running_example):
        blocks = [p for d in running_example for p in split_block(d)]
        out = fbless_translate(blocks)
        ref = named_feedback(fold_parallel([b.base for b in blocks]))
        assert io_equiv(out, ref)

    def test_no_internal_vars_folds_directly(self):
        a = SplitBlock(_atom1("A", u, x, 2.0), frozenset((u,)))
        b = SplitBlock(_atom1("B", z, y, 3.0), frozenset((z,)))
        out = fbless_translate([a, b])
        assert out.inputs == (u, z) and out.outputs == (x, y)

    def test_rejects_algebraic_loop(self, running_example):
        add, delay, split = running_example
        blocks = [
            SplitBlock(add, frozenset((z, u))),  # unsplit-style over-approximation
            SplitBlock(
                IoDiagram((x,), (z,), Id((R,))), frozenset((x,))
            ),
        ]
        with pytest.raises(PreconditionError) as err:
            fbless_translate(blocks)
        assert "->" in str(err.value)  # cycle witness path

    def test_rejects_duplicate_outputs(self):
        a = SplitBlock(_atom1("A", u, x, 2.0), frozenset((u,)))
        b = SplitBlock(_atom1("B", z, x, 3.0), frozenset((z,)))
        with pytest.raises(PreconditionError):
            fbless_translate([a, b])

    def test_given_order_must_cover_internals(self, running_example):
        blocks = [p for d in running_example for p in split_block(d)]
        with pytest.raises(PreconditionError):
            fbless_translate(blocks, GivenOrder(("x", "y")))
        with pytest.raises(PreconditionError):
            fbless_translate(blocks, GivenOrder(("x", "y", "z", "v")))

    def test_order_independence(self, running_example):
        blocks = [p for d in running_example for p in split_block(d)]
        results = [
            fbless_translate(blocks, GivenOrder(("x", "y", "z"))),
            fbless_translate(blocks, GivenOrder(("z", "y", "x"))),
            fbless_translate(blocks, Topological()),
            fbless_translate(blocks, RandomOrder(0)),
            fbless_translate(blocks, RandomOrder(99)),
        ]
        for other in results[1:]:
            assert io_equiv(results[0], other)

    def test_matches_the_elimination_oracle(self, corpus_diagrams):
        """The indexed loop gives the text the rescan of every block gives,
        under each order policy."""
        lists = [diagrams for _, diagrams, _ in corpus_diagrams]
        lists += [document_io_list(random_diagram(7 + i, 50, 50))[0] for i in range(3)]
        for diagrams in lists:
            blocks = [p for d in diagrams for p in split_block(d)]
            names = sorted(v.name for v in internal_vars(blocks))
            policies = [(Topological(), TopologicalOracle()), (GivenOrder(names),) * 2]
            policies += [(RandomOrder(seed),) * 2 for seed in range(3)]
            for policy, oracle_policy in policies:
                got = fbless_translate(blocks, policy)
                want = fbless_translate_oracle(blocks, oracle_policy)
                assert print_term(got.body) == print_term(want.body), policy
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
            if not ok_fbless(blocks):
                continue
            out = fbless_translate(blocks)
            assert feedbacks_outside_arb(out.body) == 0
            checked += 1
        assert checked >= 5


class TestSharing:
    def test_upstream_first_order_shares_the_common_prefix(self):
        # census on the raw body: rewriting reassociates the chains and
        # erases the construction history the metric measures
        blocks = _fanout_chain_blocks()
        shared = fbless_translate(blocks, GivenOrder(("c", "d", "a", "b")))
        stats = count_shared_compositions(shared.body)
        repeats = [t for t, n in stats.repeated.items() if n >= 2]
        assert repeats, "A;;B region must be built once and reused"
        names = {a.name for t in repeats for a in _atoms_of(t)}
        assert {"A", "B"} <= names
        assert "C" not in names and "D" not in names

    def test_downstream_first_order_duplicates_work(self):
        blocks = _fanout_chain_blocks()
        dup = fbless_translate(blocks, GivenOrder(("c", "d", "b", "a")))
        stats = count_shared_compositions(dup.body)
        assert not stats.repeated

    def test_topological_order_matches_the_sharing_order(self):
        # upstream variables first: a before b, so the default policy also
        # reuses the composed producer
        blocks = _fanout_chain_blocks()
        out = fbless_translate(blocks, Topological())
        stats = count_shared_compositions(out.body)
        assert stats.repeated

    def test_identity_has_no_repeats(self):
        assert count_shared_compositions(Id((R,))).repeated == {}

    def test_orders_still_equivalent(self):
        blocks = _fanout_chain_blocks()
        a = fbless_translate(blocks, GivenOrder(("c", "d", "a", "b")))
        b = fbless_translate(blocks, GivenOrder(("c", "d", "b", "a")))
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
    header, *rows, check_header, check, sim_header, fbpar, incr = lines
    assert header == ["blocks", "strategy", "seconds", "print", "term_size", "route_width"]
    names = ("frontend", "fbpar", "incr", "fbless")
    assert [row[:2] for row in rows] == [["20", name] for name in names]
    assert all(len(row) == len(header) for row in rows)
    assert rows[0][3:] == ["-", "-", "-"]
    assert check_header == ["blocks", "check", "seconds", "proved", "cells", "joint"]
    assert check[:2] == ["20", "check"] and check[3:5] == ["529", "529"]
    width, passes = map(int, check[5].split("x"))
    assert width >= 1 and 1 <= passes <= width + 1
    assert sim_header == ["blocks", "simulate", "compile", "loop", "steps/s"]
    assert [fbpar[:2], incr[:2]] == [["20", "fbpar"], ["20", "incr"]]
    assert all(len(row) == len(sim_header) for row in (fbpar, incr))
    assert all(float(row[4]) > 0 for row in (fbpar, incr))


def test_sharing_orders_script_runs():
    script = Path(__file__).resolve().parent.parent / "scripts" / "sharing_orders.py"
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "all orders io-equivalent: yes" in proc.stdout.splitlines()
