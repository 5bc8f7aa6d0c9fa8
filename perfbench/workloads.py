"""The benchmark's three workloads and the hbd calls each one times.

A workload builds its inputs from the seed and lists its ops in pass order.
``run`` is the timed call; it stores what it produces in ``out`` as it goes,
so a failing op still leaves its partial products for counting.  ``check``
compares an op's output with an independent reference and ``counts``
reduces it to exact counts; both run outside the timed region.

The documents are fixed at their seed of record.  Different generated
corpora differ in cost by tens of percent (a pass over
``gen.corpus(30, base_seed=s)`` took 22.9 s to 33.6 s for s in 2024, 1, 2 on
a 2-vCPU x86 VM), far more than any bound a regression gate can use, so the
seed draws what varies around the documents instead: the random strategies
(``corpus``), the simulated input sequences (``sim``) and the reference
inputs (``large``).
"""

from __future__ import annotations

import importlib
import random
import sys
import types
from dataclasses import dataclass

CORPUS_SEED = 2024  # gen.corpus(30, base_seed=2024) is the tier-1 corpus
LARGE_SEED = 7  # random_diagram(7, n, n) are the ROADMAP measurements
# Documents per size: random_diagram(LARGE_SEED + i, n, n) for i < count.
# Five at 50 blocks put the median op among like ops; one at 100 blocks
# already takes about 16 s.
LARGE_DOCS = {50: 5, 100: 1}
STRATEGIES = ("fbpar", "incr", "fbless")
RANDOM_STRATEGIES = 20
CHECK_SAMPLES = 200
REFERENCE_ROWS = 4
SIM_STEPS = 200  # long enough that evaluation is over nine tenths of an op
# Two steps check the state threading; one step of the incr term at 100
# blocks took 2-3 s on a 2-vCPU x86 VM under Python 3.11.
LARGE_REF_STEPS = 2
RECOUNT_OPS = 3

_MODULES = (
    "compiled",
    "frontend",
    "gen",
    "harness",
    "semantics",
    "sim",
    "terms",
    "translator",
    "types",
)


class Mismatch(Exception):
    """An op's output disagrees with its reference."""


@dataclass(frozen=True)
class Op:
    key: str
    work: int  # units of work_per_s the op completes
    arg: object


def load_hbd():
    """Import hbd afresh, dropping any earlier import, and return its modules."""
    for name in [m for m in sys.modules if m == "hbd" or m.startswith("hbd.")]:
        del sys.modules[name]
    api = types.SimpleNamespace(
        **{name: importlib.import_module(f"hbd.{name}") for name in _MODULES}
    )
    # The benchmark's own bindings of the two recursive emitters, as the CLI
    # has its own: the traced run wraps these without wrapping each
    # recursive call inside hbd.terms.
    api.rewrite_basic = api.terms.rewrite_basic
    api.print_term = api.terms.print_term
    return api


def method(api, strategy: str):
    if strategy == "fbpar":
        return api.translator.FeedbackParallel()
    if strategy == "incr":
        return api.translator.Incremental()
    if strategy == "fbless":
        return api.frontend.FbLess()
    raise ValueError(f"unknown strategy {strategy!r}")


def input_rows(api, rng: random.Random, doc, steps: int):
    """``steps`` rows of concrete external inputs for ``doc``."""
    kinds = api.types.BaseType
    rows = []
    for _ in range(steps):
        row = {}
        for e in doc.inputs:
            if e.ty is kinds.BOOL:
                row[e.name] = rng.random() < 0.5
            elif e.ty is kinds.INT:
                row[e.name] = rng.randint(-5, 5)
            else:
                row[e.name] = float(rng.randint(-5, 5))
        rows.append(row)
    return rows


def term_depth(api, term) -> int:
    """Nesting depth of a term, counted without recursion."""
    t = api.terms
    depth = 0
    stack = [(term, 1)]
    while stack:
        sub, d = stack.pop()
        depth = max(depth, d)
        if isinstance(sub, t.Serial):
            stack += ((sub.first, d + 1), (sub.second, d + 1))
        elif isinstance(sub, t.Parallel):
            stack += ((sub.left, d + 1), (sub.right, d + 1))
        elif isinstance(sub, t.Feedback):
            stack.append((sub.body, d + 1))
    return depth


def _shape_counts(api, family: str, term, emitted=None) -> dict:
    """Nodes by strategy family and atoms of a translation (via
    terms.iter_subterms), and the depth of the term the op emits: the
    rewritten term that `hbd translate` prints, else the translation."""
    nodes = atoms = 0
    for sub in api.terms.iter_subterms(term):
        nodes += 1
        atoms += isinstance(sub, api.terms.Atom)
    depth = term_depth(api, term if emitted is None else emitted)
    return {f"nodes.{family}": nodes, "atoms": atoms, "depth": depth}


def add_counts(total: dict, part: dict) -> None:
    """Add one op's counts to a total: depths by maximum, the rest by sum."""
    for k, v in part.items():
        total[k] = max(total.get(k, 0), v) if k == "depth" else total.get(k, 0) + v


def _check_trace(api, got, want, doc) -> None:
    names = [e.name for e in doc.outputs]
    if not api.sim.traces_match(got, want, names=names):
        raise Mismatch("simulation differs from the direct interpreter")


class Corpus:
    """`hbd check`: one document through document_io_list and run_determinacy."""

    name = "corpus"
    throughput = "docs_per_s"

    def __init__(self, api, seed: int):
        self.api = api
        self.seed = seed
        self.docs = api.gen.corpus(30, base_seed=CORPUS_SEED)
        start = RANDOM_STRATEGIES * seed  # seed 0 gives rand0-19, as `hbd check`
        self.rand_seeds = range(start, start + RANDOM_STRATEGIES)
        smallest = sorted(self.docs, key=lambda d: (len(d.blocks), d.name))
        self.recount_keys = {d.name for d in smallest[:RECOUNT_OPS]}

    def ops(self):
        return [Op(doc.name, 1, doc) for doc in self.docs]

    def run(self, op: Op, out: dict) -> None:
        diagrams, _, _ = self.api.frontend.document_io_list(op.arg)
        out["report"] = self.api.harness.run_determinacy(
            diagrams, seeds=self.rand_seeds, samples=CHECK_SAMPLES
        )

    def check(self, op: Op, out: dict) -> None:
        report = out["report"]
        if not report.all_equivalent:
            raise Mismatch("strategies disagree:\n" + report.render())
        fbpar = report.runs[0]
        body = fbpar.diagram.body
        rows = self.api.semantics.sample_inputs(body.in_types, REFERENCE_ROWS, self.seed)
        got = self.api.compiled.compile_term(body).run(rows)
        want = [self.api.semantics.eval_term(body, row) for row in rows]
        if got != want:
            raise Mismatch(f"{fbpar.label}: compiled {got} != reference {want}")

    def counts(self, op: Op, out: dict) -> dict:
        report = out.get("report")
        if report is None:
            return {}
        total: dict = {}
        for run in report.runs:
            family = "rand" if run.label.startswith("rand") else run.label
            add_counts(total, _shape_counts(self.api, family, run.diagram.body))
        n = len(report.runs)
        total["harness.cells"] = n * (n - 1) // 2
        runs = report.stats.feedback_runs
        total["compiled.fixpoints"] = len(runs)
        total["compiled.kleene_iters"] = sum(it for _, it in runs)
        return total


class Large:
    """`hbd translate`: flatten_or_recurse, rewrite_basic, print_term."""

    name = "large"
    throughput = "blocks_per_s"

    def __init__(self, api, seed: int):
        self.api = api
        rng = random.Random(f"large/{seed}")
        self.docs = {}  # key -> (document, reference input rows)
        for n, count in LARGE_DOCS.items():
            for i in range(count):
                doc = api.gen.random_diagram(LARGE_SEED + i, n, n)
                self.docs[f"{n}:{doc.name}"] = (doc, input_rows(api, rng, doc, LARGE_REF_STEPS))
        self.direct = {}
        first = next(iter(self.docs))
        self.recount_keys = {f"{first}:{s}" for s in STRATEGIES}

    def ops(self):
        return [
            Op(f"{key}:{s}", len(doc.blocks), (key, s))
            for key, (doc, _) in self.docs.items()
            for s in STRATEGIES
        ]

    def run(self, op: Op, out: dict) -> None:
        key, strategy = op.arg
        api = self.api
        out["result"] = api.frontend.flatten_or_recurse(
            self.docs[key][0], "flatten", method(api, strategy)
        )
        out["body"] = api.rewrite_basic(out["result"].diagram.body)
        out["text"] = api.print_term(out["body"])

    def check(self, op: Op, out: dict) -> None:
        key, _ = op.arg
        rows = self.docs[key][1]
        result = out["result"]
        got = self.api.sim.simulate_translated(result.diagram, result.state_table, rows)
        if key not in self.direct:
            self.direct[key] = self.api.sim.simulate_direct(result.doc, rows)
        _check_trace(self.api, got, self.direct[key], result.doc)

    def counts(self, op: Op, out: dict) -> dict:
        _, strategy = op.arg
        if "result" not in out:
            return {}
        return _shape_counts(self.api, strategy, out["result"].diagram.body, out.get("body"))


class Sim:
    """`hbd simulate`: flatten_or_recurse, then simulate_translated."""

    name = "sim"
    throughput = "steps_per_s"

    def __init__(self, api, seed: int):
        self.api = api
        corpus = api.gen.corpus(30, base_seed=CORPUS_SEED)
        self.docs = {
            d.name: d for d in corpus if any(b.kind == "UnitDelay" for b in d.blocks)
        }
        self.rows = {
            name: input_rows(api, random.Random(f"sim/{seed}/{name}"), doc, SIM_STEPS)
            for name, doc in self.docs.items()
        }
        self.direct = {}
        smallest = sorted(self.docs.values(), key=lambda d: (len(d.blocks), d.name))
        self.recount_keys = {
            f"{d.name}:{s}" for d in smallest[:RECOUNT_OPS] for s in STRATEGIES
        }

    def ops(self):
        return [
            Op(f"{name}:{s}", SIM_STEPS, (name, s)) for name in self.docs for s in STRATEGIES
        ]

    def run(self, op: Op, out: dict) -> None:
        name, strategy = op.arg
        api = self.api
        out["result"] = api.frontend.flatten_or_recurse(
            self.docs[name], "flatten", method(api, strategy)
        )
        result = out["result"]
        out["trace"] = api.sim.simulate_translated(
            result.diagram, result.state_table, self.rows[name]
        )

    def check(self, op: Op, out: dict) -> None:
        name, _ = op.arg
        result = out["result"]
        if name not in self.direct:
            self.direct[name] = self.api.sim.simulate_direct(result.doc, self.rows[name])
        _check_trace(self.api, out["trace"], self.direct[name], result.doc)

    def counts(self, op: Op, out: dict) -> dict:
        _, strategy = op.arg
        if "result" not in out:
            return {}
        return _shape_counts(self.api, strategy, out["result"].diagram.body)


WORKLOADS = {w.name: w for w in (Corpus, Large, Sim)}


def warm_up(api) -> None:
    """One small document through check, translate and simulate (translated
    and direct), so every layer has run once before the first timed op."""
    doc = api.gen.random_diagram(1, 5, 5)
    diagrams, _, _ = api.frontend.document_io_list(doc)
    api.harness.run_determinacy(diagrams, seeds=range(1), samples=20)
    result = api.frontend.flatten_or_recurse(doc, "flatten", method(api, "incr"))
    api.print_term(api.rewrite_basic(result.diagram.body))
    rows = input_rows(api, random.Random("warm-up"), result.doc, 3)
    api.sim.simulate_translated(result.diagram, result.state_table, rows)
    api.sim.simulate_direct(result.doc, rows)
