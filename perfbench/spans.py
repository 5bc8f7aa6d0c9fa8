"""Span recorder for the traced run.

``Tracer.install`` wraps public hbd entry points at the bindings their
callers use (``hbd.harness.compile_term`` rather than
``hbd.compiled.compile_term``), so each call is attributed to the layer it
enters wherever it is made from.  Every call records one span (name, start,
end, parent, op) in memory, plus a few counts at the same boundary.  An
untraced run installs nothing.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import time


def _calls(name):
    return lambda tracer, result: tracer.count(name)


def _blocks(tracer, doc):
    tracer.count("frontend.blocks", len(doc.blocks))


def _samples(tracer, rows):
    tracer.count("io_diagrams.samples", len(rows))


def _cells(tracer, report):
    n = len(report.runs)
    tracer.count("harness.cells", n * (n - 1) // 2)


def _steps(tracer, trace):
    tracer.count("sim.steps", len(trace.steps))


def _chars(tracer, text):
    tracer.count("terms.chars", len(text))


# (span name, owner of the binding, attribute, count taken from the result).
# An owner is an hbd module of the benchmark's namespace, or "api" for the
# benchmark's own bindings.
BINDINGS = (
    ("frontend", "frontend", "document_io_list", None),
    ("frontend", "frontend", "flatten_or_recurse", None),
    ("frontend", "frontend", "normalize", _blocks),
    ("frontend", "frontend", "to_io_diagrams", None),
    ("frontend", "sim", "normalize", None),
    ("translator", "harness", "translate", _calls("translator.calls")),
    ("translator", "frontend", "translate", _calls("translator.calls")),
    ("feedbackless", "harness", "split_block", None),
    ("feedbackless", "harness", "loop_free", None),
    ("feedbackless", "harness", "fbless_translate", None),
    ("feedbackless", "frontend", "split_block", None),
    ("feedbackless", "frontend", "fbless_translate", None),
    ("compiled.compile", "harness", "compile_term", None),
    ("compiled.compile", "sim", "compile_term", None),
    ("io_diagrams.samples", "harness", "equivalence_samples", _samples),
    ("harness", "harness", "equivalence_matrix", _cells),
    ("sim.translated", "sim", "simulate_translated", _steps),
    ("sim.direct", "sim", "simulate_direct", None),
    ("terms.rewrite", "api", "rewrite_basic", None),
    ("terms.print", "api", "print_term", _chars),
)

# Layer time metrics: metric name -> span name whose self time it sums.
TIMES = {
    "frontend.s": "frontend",
    "translator.s": "translator",
    "feedbackless.s": "feedbackless",
    "terms.rewrite.s": "terms.rewrite",
    "terms.print.s": "terms.print",
    "compiled.compile.s": "compiled.compile",
    "compiled.run.s": "compiled.run",
    "io_diagrams.samples.s": "io_diagrams.samples",
    "harness.s": "harness",
    "sim.translated.s": "sim.translated",
    "sim.direct.s": "sim.direct",
}

COUNTS = (
    "frontend.blocks",
    "translator.calls",
    "terms.chars",
    "compiled.run.calls",
    "compiled.rows",
    "compiled.fixpoints",
    "compiled.kleene_iters",
    "io_diagrams.samples",
    "harness.cells",
    "sim.steps",
)


class Tracer:
    def __init__(self, api):
        self.api = api
        self.spans = []  # [name, start, end, parent index or None, op]
        self.stack = []
        self.op = None
        self.counts = collections.defaultdict(collections.Counter)  # op -> counts
        self.census = collections.Counter()  # (tower width, Kleene iterations) -> runs
        self._patched = []

    # -- spans and counts ------------------------------------------------------

    def open(self, name: str) -> None:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self.stack.append(len(self.spans) - 1)

    def close(self) -> None:
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def count(self, name: str, k: int = 1) -> None:
        self.counts[self.op][name] += k

    @contextlib.contextmanager
    def root(self, kind: str, key: str):
        """The root span of one op, reference check or warm-up; its id tags
        every span and count recorded inside it."""
        self.op = f"{kind}:{key}"
        self.open(kind)
        try:
            yield
        finally:
            self.close()
            self.op = None

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if count is not None:
                count(self, result)
            return result

        return traced

    def _wrap_run(self, run):
        """Compiled.run (and run_one, which calls it): hands on the caller's
        EvalStats, or supplies one, and adds what it recorded to the census."""
        EvalStats = self.api.semantics.EvalStats

        @functools.wraps(run)
        def traced(compiled, rows, stats=None, validate=True):
            rows = list(rows)
            stats = EvalStats() if stats is None else stats
            before = len(stats.feedback_runs)
            self.open("compiled.run")
            try:
                return run(compiled, rows, stats=stats, validate=validate)
            finally:
                self.close()
                new = stats.feedback_runs[before:]
                self.count("compiled.run.calls")
                self.count("compiled.rows", len(rows))
                self.count("compiled.fixpoints", len(new))
                self.count("compiled.kleene_iters", sum(it for _, it in new))
                self.census.update(new)

        return traced

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for name, owner, attr, count in BINDINGS:
            target = self.api if owner == "api" else getattr(self.api, owner)
            self._patch(target, attr, self._wrap(name, getattr(target, attr), count))
        compiled = self.api.compiled.Compiled
        self._patch(compiled, "run", self._wrap_run(compiled.run))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    # -- reduction -------------------------------------------------------------

    def self_times(self):
        """Each span's duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, covered)]

    def layer_metrics(self) -> dict:
        busy = collections.Counter()
        for span, t in zip(self.spans, self.self_times()):
            busy[span[0]] += t
        totals = collections.Counter()
        for per_op in self.counts.values():
            totals.update(per_op)
        out = {metric: busy[span] for metric, span in TIMES.items()}
        out.update({name: totals[name] for name in COUNTS})
        out["compiled.kleene_iters.max"] = max((it for _, it in self.census), default=0)
        return out

    def op_shares(self) -> dict:
        """Self time per span name inside timed ops, as a share of op time."""
        busy = collections.Counter()
        for span, t in zip(self.spans, self.self_times()):
            if span[4] and span[4].startswith("op:"):
                busy[span[0]] += t
        total = sum(s[2] - s[1] for s in self.spans if s[0] == "op")
        return {name: t / total for name, t in busy.most_common()} if total else {}

    def dump(self) -> dict:
        t0 = self.spans[0][1] if self.spans else 0.0
        census = collections.defaultdict(dict)
        for (width, iters), runs in sorted(self.census.items()):
            census[width][iters] = runs
        return {
            "spans": [
                [name, start - t0, end - t0, parent, op]
                for name, start, end, parent, op in self.spans
            ],
            "counts": {op: dict(c) for op, c in self.counts.items()},
            "census": {"tower width -> Kleene iterations -> runs": census},
        }
