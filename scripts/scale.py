#!/usr/bin/env python3
"""Translation cost at scale.

For each size n given on the command line (default 250, 500 and 1,000),
build the io-diagram list of ``gen.random_diagram(7, n, n)`` and translate
it under fbpar, incr and fbless.  The ``frontend`` row gives the seconds
``document_io_list`` takes (normalizing included).  Each strategy row gives
the translate time, the ``print_term`` time of the term, the term size,
the route width (the sum of ``len(imap)`` over the term's ``Route``
nodes) and the MB the term keeps.  A wide Route is one node, so the route
width shows interface plumbing that the term size hides.  The kept MB are
``sys.getsizeof`` summed over the term's nodes and the tuples they hold
(the typing pair and both its sides, ``t``, ``t2`` and ``imap``), each
object counted once.  The translate time covers the translation of the
io-diagram list (for fbless, splitting its blocks too).

A second table gives one ``check`` row per size: the seconds
``equivalence_matrix`` takes over the 23 strategies of ``translate_all``
(200 samples per pair), the cells proved by equal output graphs out of all
cells, the largest joint solve, (total tower width, passes), of a term, the
seconds the cyclic garbage collector ran during ``translate_all`` and the
matrix together (timed through ``gc.callbacks``), and the peak resident
set of the process so far in MB (``ru_maxrss``), earlier sizes included.

A third table gives one ``simulate`` row per size and strategy, on the fbpar
and incr translations over 200 seeded input steps: the seconds
``compile_term`` takes on the term, the seconds of the step loop
(``simulate_compiled``), and the steps per second of the loop alone.

A fourth table gives one ``nested`` row per k = 1..6 on
``gen.twin_chain(k)``, k levels of two instances of the level below: the
fbless term size and the seconds ``flatten_or_recurse`` takes (expanding the
document included), in flatten and in recursive mode.

    python scripts/scale.py [N ...]
"""

import argparse
import gc
import pathlib
import random
import resource
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from hbd.compiled import compile_term
from hbd.feedbackless import fbless_translate, split_block
from hbd.frontend import FbLess, document_io_list, flatten_or_recurse
from hbd.gen import random_diagram, twin_chain
from hbd.harness import equivalence_matrix, translate_all
from hbd.sim import simulate_compiled
from hbd.terms import Route, iter_subterms, print_term, term_size
from hbd.translator import FeedbackParallel, Incremental, translate
from hbd.types import BaseType

STRATEGIES = {
    "fbpar": lambda ds: translate(ds, FeedbackParallel()),
    "incr": lambda ds: translate(ds, Incremental()),
    "fbless": lambda ds: fbless_translate([sb for d in ds for sb in split_block(d)]),
}
SIMULATED = ("fbpar", "incr")
STEPS = 200
LEVELS = range(1, 7)


def shape(term) -> tuple:
    """(term size, route width, kept bytes) of ``term``."""
    size = width = kept = 0
    seen = set()
    for sub in iter_subterms(term):
        size += 1
        if isinstance(sub, Route):
            width += len(sub.imap)
        fields = (getattr(sub, name, None) for name in ("t", "t2", "imap"))
        for obj in (sub, sub.typing, *sub.typing, *fields):
            if obj is not None and id(obj) not in seen:
                seen.add(id(obj))
                kept += sys.getsizeof(obj)
    return size, width, kept


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sizes", nargs="*", type=int, default=[250, 500, 1000])
    args = parser.parse_args(argv)
    print(
        f"{'blocks':>6} {'strategy':<8} {'seconds':>8} {'print':>8}"
        f" {'term_size':>10} {'route_width':>12} {'kept_MB':>8}"
    )
    checks, sims = [], []
    for n in args.sizes:
        doc = random_diagram(7, n, n)
        t0 = time.perf_counter()
        diagrams, state_table, doc = document_io_list(doc)
        seconds = time.perf_counter() - t0
        print(f"{n:>6} {'frontend':<8} {seconds:>8.3f} {'-':>8} {'-':>10} {'-':>12} {'-':>8}")
        for name, run in STRATEGIES.items():
            t0 = time.perf_counter()
            result = run(diagrams)
            seconds = time.perf_counter() - t0
            t0 = time.perf_counter()
            print_term(result.body)
            printing = time.perf_counter() - t0
            size, width, kept = shape(result.body)
            print(
                f"{n:>6} {name:<8} {seconds:>8.3f} {printing:>8.3f} {size:>10} {width:>12}"
                f" {kept / 2**20:>8.3f}"
            )
            if name in SIMULATED:
                sims.append((n, name, simulate(result, state_table, doc)))
        checks.append((n, check(diagrams)))
    print(
        f"{'blocks':>6} {'check':<8} {'seconds':>8} {'proved':>8} {'cells':>6} {'joint':>10}"
        f" {'gc_s':>8} {'peak_MB':>8}"
    )
    for n, (seconds, proved, cells, (width, passes), gc_seconds, peak) in checks:
        joint = f"{width}x{passes}"
        print(
            f"{n:>6} {'check':<8} {seconds:>8.3f} {proved:>8} {cells:>6} {joint:>10}"
            f" {gc_seconds:>8.3f} {peak:>8.0f}"
        )
    print(f"{'blocks':>6} {'simulate':<8} {'compile':>8} {'loop':>8} {'steps/s':>10}")
    for n, name, (compiling, loop) in sims:
        print(f"{n:>6} {name:<8} {compiling:>8.3f} {loop:>8.3f} {STEPS / loop:>10.0f}")
    print(
        f"{'levels':>6} {'nested':<8} {'flat_size':>10} {'flat_s':>8}"
        f" {'rec_size':>10} {'rec_s':>8}"
    )
    for k in LEVELS:
        doc = twin_chain(k)
        cells = []
        for mode in ("flatten", "recursive"):
            t0 = time.perf_counter()
            result = flatten_or_recurse(doc, mode, FbLess())
            seconds = time.perf_counter() - t0
            cells.append(f"{term_size(result.diagram.body):>10} {seconds:>8.3f}")
        print(f"{k:>6} {'nested':<8} {' '.join(cells)}")
    return 0


class GcClock:
    """A ``gc.callbacks`` entry that sums the seconds collections take."""

    def __init__(self):
        self.seconds = 0.0
        self._start = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start


def check(diagrams) -> tuple:
    """(seconds, proved cells, cells, largest joint solve, GC seconds, peak
    MB) of the determinacy matrix over ``translate_all``'s strategies."""
    clock = GcClock()
    gc.callbacks.append(clock)
    try:
        runs = translate_all(diagrams)
        t0 = time.perf_counter()
        report = equivalence_matrix(runs, 200)
        seconds = time.perf_counter() - t0
    finally:
        gc.callbacks.remove(clock)
    cells = [cell for row in report.matrix for cell in row]
    joint = max(report.stats.symbolic_runs, default=(0, 0))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KB on Linux
    return seconds, sum(cell.proved for cell in cells), len(cells), joint, clock.seconds, peak


def simulate(diagram, state_table, doc) -> tuple:
    """(compile seconds, step-loop seconds) of simulating ``diagram`` on
    ``STEPS`` input rows drawn from a seed: Bools, Ints in [-5, 5] and Reals
    on that grid."""
    rng = random.Random(f"scale/{doc.name}")
    draw = {
        BaseType.BOOL: lambda: rng.random() < 0.5,
        BaseType.INT: lambda: rng.randint(-5, 5),
        BaseType.REAL: lambda: float(rng.randint(-5, 5)),
    }
    rows = [{e.name: draw[e.ty]() for e in doc.inputs} for _ in range(STEPS)]
    t0 = time.perf_counter()
    compiled = compile_term(diagram.body)
    t1 = time.perf_counter()
    simulate_compiled(compiled, diagram, state_table, rows)
    return t1 - t0, time.perf_counter() - t1


if __name__ == "__main__":
    sys.exit(main())
