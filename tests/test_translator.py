"""Translation loop, strategies, topological ordering, and the golden terms
for the summation example."""

import random

import pytest

from hbd.errors import PreconditionError
from hbd.harness import io_equiv
from hbd.io_diagrams import IoDiagram, fold_parallel, named_feedback, switch_vars
from hbd.terms import (
    Feedback,
    Id,
    Parallel,
    Serial,
    feedback_n,
    rewrite_basic,
    term_size,
)
from hbd.translator import (
    FeedbackParallel,
    Incremental,
    RandomChoices,
    check_io_distinct,
    stable_topo_order,
    topo_order,
    translate,
)
from hbd.types import BaseType, Var

from util import feedbacks_outside_arb, random_io_list, stable_topo_order_oracle, topo_order_oracle

R = BaseType.REAL


def rvs(*names):
    return tuple(Var(n, R) for n in names)


z, u, x, s, sp, y, v = rvs("z", "u", "x", "s", "s'", "y", "v")


def test_check_io_distinct(running_example):
    add, delay, split = running_example
    assert check_io_distinct([add, delay, split])
    assert not check_io_distinct([add, add])
    assert check_io_distinct([])


def test_topo_order_of_cycle_keeps_original_order(running_example):
    add, delay, split = running_example
    # Add -> Delay -> Split -> Add is fully cyclic
    assert topo_order([add, delay, split]) == [add, delay, split]
    assert topo_order([split, add, delay]) == [split, add, delay]


def test_topo_order_chain(running_example):
    add, delay, _ = running_example
    # Add feeds Delay via x; given reversed, the chain comes back in order
    assert topo_order([delay, add]) == [add, delay]


def test_topo_order_stability_of_independent_blocks():
    rng = random.Random(3)
    ds = random_io_list(rng, 3, names=0)  # no shared wires at all
    assert topo_order(ds) == ds


def test_stable_topo_order_matches_the_quadratic_oracle():
    """The heap sort picks what a rescan of all remaining nodes picks, on
    random successor graphs with cycles and self-edges."""
    rng = random.Random(14)
    for _ in range(300):
        n = rng.randint(0, 14)
        density = rng.choice((0.05, 0.15, 0.4))
        succs = [{j for j in range(n) if rng.random() < density} for _ in range(n)]
        assert stable_topo_order(succs) == stable_topo_order_oracle(succs), succs


def test_topo_order_matches_the_quadratic_oracle(corpus_diagrams):
    rng = random.Random(14)
    lists = [diagrams for _, diagrams, _ in corpus_diagrams]
    lists += [random_io_list(rng, rng.randint(1, 9), names=12) for _ in range(50)]
    for ds in lists:
        for order in (ds, list(reversed(ds))):
            assert topo_order(order) == topo_order_oracle(order)


def test_singleton_translates_to_named_feedback(running_example):
    add, _, _ = running_example
    for strat in (FeedbackParallel(), Incremental(), RandomChoices(5)):
        out = translate([add], strat)
        ref = named_feedback(add)
        assert out.inputs == ref.inputs and out.outputs == ref.outputs
        assert rewrite_basic(out.body) == rewrite_basic(ref.body)


def test_precondition_errors(running_example):
    add, delay, split = running_example
    with pytest.raises(PreconditionError):
        translate([], Incremental())
    with pytest.raises(PreconditionError):
        translate([add, add], Incremental())


def test_incremental_golden_term(running_example):
    """The summation example under the incremental strategy: a single
    feedback around Add||Id ;; Delay ;; Split-side plumbing, with interface
    ((u,s),(s',v)); io-equivalent to the displayed form
    ((u,s),(v,s'), feedback(Add||Id ;; Delay ;; Split||Id))."""
    add, delay, split = running_example
    out = translate([add, delay, split], Incremental())
    assert out.inputs == (u, s)
    assert out.outputs == (sp, v)

    da, dd, dsp = add.body, delay.body, split.body
    expected = Feedback(
        Serial(
            Parallel(da, Id((R,))),
            Serial(
                dd,
                Serial(
                    switch_vars((y, sp), (sp, y)),
                    Serial(
                        Parallel(Id((R,)), dsp),
                        switch_vars((sp, z, v), (z, sp, v)),
                    ),
                ),
            ),
        )
    )
    assert rewrite_basic(out.body) == rewrite_basic(expected)
    assert feedbacks_outside_arb(rewrite_basic(out.body)) == 1

    displayed = IoDiagram(
        (u, s),
        (v, sp),
        Feedback(Serial(Parallel(da, Id((R,))), Serial(dd, Parallel(dsp, Id((R,)))))),
    )
    assert io_equiv(out, displayed)


def test_feedback_parallel_golden_term(running_example):
    """Feedback-parallel on the summation example: three feedbacks around
    switch ;; Add||Delay||Split ;; switch; io-equivalent to the displayed
    feedback^3([z,x,y,u,s -> z,u,x,s,y] ;; ... ;; [x,y,s',z,v -> z,x,y,v,s'])."""
    add, delay, split = running_example
    out = translate([add, delay, split], FeedbackParallel())
    assert out.inputs == (u, s)
    assert out.outputs == (sp, v)

    da, dd, dsp = add.body, delay.body, split.body
    par3 = Parallel(da, Parallel(dd, dsp))
    expected = feedback_n(
        3,
        Serial(
            switch_vars((x, y, z, u, s), (z, u, x, s, y)),
            Serial(par3, switch_vars((x, y, sp, z, v), (x, y, z, sp, v))),
        ),
    )
    assert rewrite_basic(out.body) == rewrite_basic(expected)
    assert feedbacks_outside_arb(rewrite_basic(out.body)) == 3

    displayed = IoDiagram(
        (u, s),
        (v, sp),
        feedback_n(
            3,
            Serial(
                switch_vars((z, x, y, u, s), (z, u, x, s, y)),
                Serial(par3, switch_vars((x, y, sp, z, v), (z, x, y, v, sp))),
            ),
        ),
    )
    assert io_equiv(out, displayed)


def test_random_choices_deterministic_per_seed(running_example):
    add, delay, split = running_example
    for seed in (0, 1, 17):
        a = translate([add, delay, split], RandomChoices(seed))
        b = translate([add, delay, split], RandomChoices(seed))
        assert a.inputs == b.inputs and a.outputs == b.outputs
        assert a.body == b.body


def test_strategies_pairwise_equivalent(running_example):
    add, delay, split = running_example
    ds = [add, delay, split]
    results = [
        translate(ds, FeedbackParallel()),
        translate(ds, Incremental()),
    ] + [translate(ds, RandomChoices(seed)) for seed in range(8)]
    samples = 120
    for i, ri in enumerate(results):
        for rj in results[i + 1 :]:
            assert io_equiv(ri, rj, samples)


def test_steps_keep_loop_invariant(running_example):
    """Every working list a strategy yields is io-distinct, and FB of its
    parallel fold has the output graphs of FB of the starting list's fold,
    so the two are equivalent on every input, not only on the samples."""
    ds = list(running_example)
    reference = named_feedback(fold_parallel(ds))
    samples = 40
    strategies = [FeedbackParallel(), Incremental()] + [RandomChoices(s) for s in range(4)]
    for strategy in strategies:
        steps = list(strategy.steps(ds))
        assert steps and len(steps[-1]) == 1, strategy
        for step in steps:
            assert check_io_distinct(step), strategy
            cell = io_equiv(named_feedback(fold_parallel(step)), reference, samples)
            assert cell and cell.proved, strategy


def test_translate_random_lists():
    rng = random.Random(31)
    checked = 0
    while checked < 8:
        ds = random_io_list(rng, 4, names=7)
        if not check_io_distinct(ds) or not ds:
            continue
        a = translate(ds, FeedbackParallel())
        b = translate(ds, Incremental())
        c = translate(ds, RandomChoices(checked))
        samples = 60
        assert io_equiv(a, b, samples)
        assert io_equiv(a, c, samples)
        checked += 1


def test_translations_have_no_identity_plumbing(corpus_diagrams):
    """The named compositions emit no serial Id and no Id(()) unit, so
    ``rewrite_basic`` finds nothing to remove in a translation."""
    strategies = [FeedbackParallel(), Incremental()] + [RandomChoices(s) for s in range(20)]
    for _, diagrams, _ in corpus_diagrams[:5]:
        for strategy in strategies:
            body = translate(diagrams, strategy).body
            assert term_size(body) == term_size(rewrite_basic(body)), strategy
