"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  The corpus fixtures are session-scoped, so the expensive
translations and matrices are computed once and shared.
"""

import json
import pathlib
import random

import pytest

from hbd.axioms import run_axiom_suite
from hbd.feedbackless import (
    fbless_translate,
    internal_vars,
    loop_free,
    oi_rel,
    split_block,
)
from hbd.frontend import FbLess, flatten_or_recurse, parse_doc
from hbd.harness import io_equiv, run_determinacy
from hbd.io_diagrams import (
    fold_parallel,
    named_feedback,
    named_serial,
    switch_vars,
)
from hbd.semantics import EvalStats, eval_term, sample_inputs
from hbd.sim import simulate_direct, simulate_translated, traces_match
from hbd.terms import (
    Feedback,
    Id,
    Parallel,
    Serial,
    feedback_n,
    rewrite_basic,
)
from hbd.translator import FeedbackParallel, Incremental, RandomChoices, translate
from hbd.types import BaseType, Var

from util import (
    DIFF_DOC,
    FANOUT_DOC,
    SUB_DOC,
    TWINS_DOC,
    check_monotone,
    feedbacks_outside_arb,
    random_order,
    transitive_closure,
)

R = BaseType.REAL
NESTED = pathlib.Path(__file__).resolve().parent.parent / "diagrams" / "nested.hbd.json"


def rvs(*names):
    return tuple(Var(n, R) for n in names)


z, u, x, s, sp, y, v = rvs("z", "u", "x", "s", "s'", "y", "v")


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" - {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_axiom_suite():
    """All 16 axioms hold on >=100 instantiations x >=100 samples each."""
    outcomes = run_axiom_suite(instances=100, samples=100, seed=0)
    bad = [o for o in outcomes if not o.ok]
    total = sum(o.instances for o in outcomes)
    _report(
        "criterion 1: axiom suite (16 axioms, >=100 instances, >=100 samples)",
        not bad,
        f"{total} instances checked"
        + ("" if not bad else f"; failing: {[o.name for o in bad]}"),
    )


def test_criterion_2_determinacy(corpus_docs, corpus_reports, running_example):
    """fbpar, incr and 20 random seeds pairwise equivalent on the corpus
    plus the running example, 200 oracle samples per pair; every corpus
    cell is proved by equal output graphs."""
    sizes = [len(doc.blocks) for doc in corpus_docs]
    assert len(corpus_docs) >= 30
    assert min(sizes) >= 5 and max(sizes) <= 12
    stateful = sum(
        any(b.kind == "UnitDelay" for b in doc.blocks) for doc in corpus_docs
    )
    assert 0 < stateful < len(corpus_docs), "corpus must mix stateful/stateless"

    def has_fanout(doc):
        sources = [w.src for w in doc.wires] + [e.source for e in doc.outputs]
        return len(sources) != len(set(sources)) or any(
            len(e.targets) > 1 for e in doc.inputs
        )

    fanout = sum(map(has_fanout, corpus_docs))
    assert 0 < fanout < len(corpus_docs), "corpus must mix fan-out/no fan-out"

    failures = []
    for i, report in enumerate(corpus_reports):
        assert len(report.runs) >= 22  # fbpar + incr + 20 seeds (+ fbless)
        assert report.samples_used >= 200
        if not report.all_equivalent:
            failures.append(i)
        elif not all(cell.proved for row in report.matrix for cell in row):
            failures.append(f"{i} (sampled, not proved)")
    example_report = run_determinacy(
        list(running_example), seeds=range(20), samples=200
    )
    if not example_report.all_equivalent:
        failures.append("running-example")
    _report(
        "criterion 2: determinacy matrices all true (30 diagrams + running example)",
        not failures,
        f"failing diagrams: {failures}" if failures else "22+ strategies pairwise",
    )


def test_criterion_3_feedbackless_equivalence(corpus_diagrams, corpus_reports):
    """fbless equals every other strategy and emits no feedback outside Arb."""
    checked = 0
    problems = []
    for (norm, diagrams, _), report in zip(corpus_diagrams, corpus_reports):
        labels = [r.label for r in report.runs]
        if "fbless" not in labels:
            continue
        checked += 1
        idx = labels.index("fbless")
        if not all(bool(c) for c in report.matrix[idx]):
            problems.append((norm.name, "matrix row"))
        fbless_run = report.runs[idx]
        if feedbacks_outside_arb(fbless_run.diagram.body) != 0:
            problems.append((norm.name, "feedback node in fbless result"))
    _report(
        "criterion 3: fbless strategy-equivalence and feedback-freedom",
        checked >= 20 and not problems,
        f"{checked} loop-free diagrams checked" + (f"; {problems}" if problems else ""),
    )


def test_criterion_4_golden_terms(running_example):
    """The summation example reproduces the three reference terms,
    structurally up to rewrite_basic; the prettified display forms are
    anchored via io-equivalence, which absorbs interface permutation."""
    add, delay, split = running_example
    ds = [add, delay, split]
    da, dd, dsp = add.body, delay.body, split.body
    problems = []

    inc = translate(ds, Incremental())
    inc_expected = Feedback(
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
    if rewrite_basic(inc.body) != rewrite_basic(inc_expected):
        problems.append("incr structural")
    inc_displayed = Feedback(
        Serial(Parallel(da, Id((R,))), Serial(dd, Parallel(dsp, Id((R,)))))
    )
    from hbd.io_diagrams import IoDiagram

    if not io_equiv(inc, IoDiagram((u, s), (v, sp), inc_displayed)):
        problems.append("incr vs displayed term")
    if feedbacks_outside_arb(rewrite_basic(inc.body)) != 1:
        problems.append("incr feedback count")

    fbp = translate(ds, FeedbackParallel())
    par3 = Parallel(da, Parallel(dd, dsp))
    fbp_expected = feedback_n(
        3,
        Serial(
            switch_vars((x, y, z, u, s), (z, u, x, s, y)),
            Serial(par3, switch_vars((x, y, sp, z, v), (x, y, z, sp, v))),
        ),
    )
    if rewrite_basic(fbp.body) != rewrite_basic(fbp_expected):
        problems.append("fbpar structural")
    fbp_displayed = IoDiagram(
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
    if not io_equiv(fbp, fbp_displayed):
        problems.append("fbpar vs displayed feedback^3 term")
    if feedbacks_outside_arb(rewrite_basic(fbp.body)) != 3:
        problems.append("fbpar feedback count")

    blocks = [p for d in ds for p in split_block(d)]
    fbl = fbless_translate(blocks, ("x", "y", "z"))
    fbl_expected = Serial(
        switch_vars((s, u), (s, u, s)), Parallel(da, Id((R,)))
    )
    if rewrite_basic(fbl.body) != rewrite_basic(fbl_expected):
        problems.append("fbless structural vs displayed [s,u -> s,u,s] ;; (Add||Id)")
    if fbl.inputs != (s, u) or fbl.outputs != (sp, v):
        problems.append("fbless interface")

    _report("criterion 4: golden terms for incr, fbpar, fbless", not problems, str(problems))


def _name_pairs(pairs) -> frozenset:
    """The dependency relation of ``pairs`` of variables, as ``oi_rel``
    gives it: pairs of names."""
    return frozenset((a.name, b.name) for a, b in pairs)


def test_criterion_5_loop_analysis(running_example):
    """Unsplit list has (z,z) in the closure; the split list is loop free,
    with the dependency sets matching the published relations exactly."""
    add, delay, split = running_example
    unsplit_rel = oi_rel([add, delay, split])
    expected_unsplit = _name_pairs(
        {(x, u), (x, z), (y, x), (y, s), (sp, x), (sp, s), (z, y), (v, y)}
    )
    blocks = [p for d in (add, delay, split) for p in split_block(d)]
    split_rel = oi_rel(blocks)
    expected_split = _name_pairs({(x, u), (x, z), (y, s), (sp, x), (z, y), (v, y)})
    ok = (
        unsplit_rel == expected_unsplit
        and (z.name, z.name) in transitive_closure(unsplit_rel)
        and not loop_free([add, delay, split])
        and split_rel == expected_split
        and loop_free(blocks)
    )
    _report("criterion 5: loop analysis matches the published relations", ok)


def test_criterion_6_simulation_oracle(sum_doc, corpus_diagrams, corpus_reports):
    """Summation trace is (0,1,3,6); translated simulation equals the
    direct interpreter on 50-step random sequences over the corpus, and on
    the nested documents in both modes.  The direct interpreter runs on the
    parsed document and on the translation's normalized one."""
    result = flatten_or_recurse(sum_doc, "flatten", Incremental())
    trace = simulate_translated(
        result.diagram, result.state_table, [{"u": float(k)} for k in (1, 2, 3, 4)]
    )
    problems = []
    if trace.column("v") != [0.0, 1.0, 3.0, 6.0]:
        problems.append(f"summation trace {trace.column('v')}")

    rng = random.Random(99)
    for i, ((norm, diagrams, state_table), report) in enumerate(
        zip(corpus_diagrams, corpus_reports)
    ):
        in_names = [e.name for e in norm.inputs]
        types = {e.name: e.ty for e in norm.inputs}
        rows = [
            {
                n: (
                    rng.random() < 0.5
                    if types[n] == BaseType.BOOL
                    else float(rng.randint(-5, 5))
                )
                for n in in_names
            }
            for _ in range(50)
        ]
        by_label = {r.label: r.diagram for r in report.runs}
        direct = simulate_direct(norm, rows)
        for label in ("incr", "fbpar", "fbless"):
            if label not in by_label:
                continue
            translated = simulate_translated(by_label[label], state_table, rows)
            if not traces_match(translated, direct, names=[e.name for e in norm.outputs]):
                problems.append((norm.name, label))
                break

    nested = [parse_doc(json.dumps(d)) for d in (SUB_DOC, DIFF_DOC, TWINS_DOC, FANOUT_DOC)]
    nested.append(parse_doc(NESTED.read_bytes()))
    methods = {
        "fbpar": FeedbackParallel(),
        "incr": Incremental(),
        "rand5": RandomChoices(5),
        "fbless": FbLess(),
    }
    for doc in nested:
        rows = [{e.name: float(rng.randint(-5, 5)) for e in doc.inputs} for _ in range(50)]
        declared = [e.name for e in doc.outputs]  # the translations add next-state outputs
        direct = simulate_direct(doc, rows)
        for mode in ("flatten", "recursive"):
            for label, method in methods.items():
                result = flatten_or_recurse(doc, mode, method)
                translated = simulate_translated(result.diagram, result.state_table, rows)
                for oracle in (direct, simulate_direct(result.doc, rows)):
                    if not traces_match(translated, oracle, names=declared):
                        problems.append((doc.name, mode, label))
    covered = "30 diagrams x 3 strategies; 5 nested documents x 2 modes x 4 strategies"
    _report(
        "criterion 6: simulation equals the direct interpreter (50-step runs)",
        not problems,
        str(problems) if problems else covered,
    )


def test_criterion_7_feedback_of_parallel_and_serial(corpus_diagrams):
    """FB(A|||B) ~ FB(FB(A);;;FB(B)) and FB(FB(A)) ~ FB(A) on >=50 pairs."""
    pairs = []
    for _, diagrams, _ in corpus_diagrams:
        for a, b in zip(diagrams, diagrams[1:]):
            pairs.append((a, b))
            if len(pairs) >= 55:
                break
        if len(pairs) >= 55:
            break
    assert len(pairs) >= 50
    samples = 80
    failures = 0
    for a, b in pairs:
        lhs = named_feedback(fold_parallel([a, b]))
        rhs = named_feedback(named_serial(named_feedback(a), named_feedback(b)))
        if not io_equiv(lhs, rhs, samples):
            failures += 1
        fba = named_feedback(a)
        if not io_equiv(named_feedback(fba), fba, samples):
            failures += 1
    _report(
        "criterion 7: FB(A|||B) ~ FB(FB(A);;;FB(B)) and FB idempotence on 55 pairs",
        failures == 0,
        f"{failures} failing pairs" if failures else "",
    )


def test_criterion_8_order_independence(corpus_diagrams, corpus_reports):
    """Permuting the block list changes no verdict for any strategy; fbless
    elimination orders agree pairwise."""
    rng = random.Random(4242)
    problems = []
    for (norm, diagrams, _), report in zip(corpus_diagrams, corpus_reports):
        permuted = diagrams[:]
        rng.shuffle(permuted)
        reference = report.runs[0].diagram  # fbpar on the original order
        samples = 100
        methods = [("fbpar", FeedbackParallel()), ("incr", Incremental())] + [
            (f"rand{k}", RandomChoices(k)) for k in (0, 3, 7, 11, 19)
        ]
        for label, method in methods:
            out = translate(permuted, method)
            if not io_equiv(out, reference, samples):
                problems.append((norm.name, label))
        blocks = [p for d in permuted for p in split_block(d)]
        if loop_free(blocks):
            order = sorted(internal_vars(blocks))
            rng.shuffle(order)
            orders = [None, random_order(blocks, 1), random_order(blocks, 7), order]
            results = [fbless_translate(blocks, o) for o in orders]
            for other in results[1:]:
                if not io_equiv(results[0], other, samples):
                    problems.append((norm.name, "fbless orders"))
                    break
            if not io_equiv(results[0], reference, samples):
                problems.append((norm.name, "fbless vs reference"))
    _report(
        "criterion 8: order independence (block order and fbless orders)",
        not problems,
        str(problems[:3]) if problems else "30 diagrams",
    )


def test_criterion_9_monotonicity_and_kleene(
    corpus_reports, running_example, sum_doc
):
    """Every library block and translated term is monotone on 500 ordered
    pairs; every feedback evaluation converges within 2 Kleene iterations
    (w+1 for a joint tower over w wires).  The matrices' census holds one
    joint solve per term, so the bound per tower is checked on the
    reference evaluator's census: one sample row per corpus term."""
    from hbd.frontend import LIBRARY, block_spec
    from hbd.terms import Atom

    problems = []
    defaults = {"Gain": {"k": 2.0}, "Constant": {"value": 1.5}}
    for kind in LIBRARY:
        spec = block_spec(kind, defaults.get(kind, {}))
        if not check_monotone(Atom(kind, spec.fn), 500, seed=1).ok:
            problems.append(f"library block {kind}")

    for i, report in enumerate(corpus_reports):
        for run in report.runs:
            if run.label in ("fbpar", "incr", "fbless"):
                if not check_monotone(run.diagram.body, 500, seed=i).ok:
                    problems.append(f"corpus {i} {run.label}")

    example_stats = EvalStats()
    ds = list(running_example)
    strategies = [FeedbackParallel(), Incremental()] + [
        RandomChoices(k) for k in range(20)
    ]
    for strat in strategies:
        out = translate(ds, strat)
        if not check_monotone(out.body, 500, seed=3).ok:
            problems.append(f"running example {strat}")

    # Kleene iteration bound over everything the matrices evaluated, on
    # samples or symbolically, and over each tower of every corpus term
    towers = 0
    for i, report in enumerate(corpus_reports):
        census = EvalStats()
        for run in report.runs:
            body = run.diagram.body
            eval_term(body, sample_inputs(body.in_types, 1, seed=i)[0], stats=census)
        towers += len(census.feedback_runs)
        runs = report.stats.feedback_runs + report.stats.symbolic_runs + census.feedback_runs
        for width, iters in runs:
            bound = 2 if width == 1 else width + 1
            if iters > bound:
                problems.append(f"corpus {i}: tower {width} took {iters} iterations")
                break
    if towers < 5000:
        problems.append(f"only {towers} towers in the corpus census")
    _report(
        "criterion 9: monotonicity (500 pairs) and Kleene convergence bounds",
        not problems,
        str(problems[:3]) if problems else "library + corpus terms + 22 example terms",
    )
