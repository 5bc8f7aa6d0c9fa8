#!/usr/bin/env python3
"""Translation cost at scale.

For each size n given on the command line (default 250, 500 and 1,000),
build the io-diagram list of ``gen.random_diagram(7, n, n)`` and translate
it under fbpar, incr and fbless.  The ``frontend`` row gives the seconds
``document_io_list`` takes (normalizing included).  Each strategy row gives
the translate time, the ``print_term`` time of the term, the term size and
the route width: the sum of ``len(imap)`` over the term's ``Route`` nodes.
A wide Route is one node, so the route width shows interface plumbing that
the term size hides.  The translate time covers the translation of the
io-diagram list (for fbless, splitting its blocks too).

A second table gives one ``check`` row per size: the seconds
``equivalence_matrix`` takes over the 23 strategies of ``translate_all``
(200 samples per pair), the cells proved by equal output graphs out of all
cells, and the largest joint solve, (total tower width, passes), of a term.

A third table gives one ``simulate`` row per size and strategy, on the fbpar
and incr translations over 200 seeded input steps: the seconds
``compile_term`` takes on the term, the seconds of the step loop
(``simulate_compiled``), and the steps per second of the loop alone.

    python scripts/scale.py [N ...]
"""

import argparse
import pathlib
import random
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from hbd.compiled import compile_term
from hbd.feedbackless import fbless_translate, split_block
from hbd.frontend import document_io_list
from hbd.gen import random_diagram
from hbd.harness import equivalence_matrix, translate_all
from hbd.io_diagrams import EquivConfig
from hbd.sim import simulate_compiled
from hbd.terms import Route, iter_subterms, print_term
from hbd.translator import FeedbackParallel, Incremental, translate
from hbd.types import BaseType

STRATEGIES = {
    "fbpar": lambda ds: translate(ds, FeedbackParallel()),
    "incr": lambda ds: translate(ds, Incremental()),
    "fbless": lambda ds: fbless_translate([sb for d in ds for sb in split_block(d)]),
}
SIMULATED = ("fbpar", "incr")
STEPS = 200


def shape(term) -> tuple:
    """(term size, route width) of ``term``."""
    size = width = 0
    for sub in iter_subterms(term):
        size += 1
        if isinstance(sub, Route):
            width += len(sub.imap)
    return size, width


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sizes", nargs="*", type=int, default=[250, 500, 1000])
    args = parser.parse_args(argv)
    print(
        f"{'blocks':>6} {'strategy':<8} {'seconds':>8} {'print':>8}"
        f" {'term_size':>10} {'route_width':>12}"
    )
    checks, sims = [], []
    for n in args.sizes:
        doc = random_diagram(7, n, n)
        t0 = time.perf_counter()
        diagrams, state_table, doc = document_io_list(doc)
        seconds = time.perf_counter() - t0
        print(f"{n:>6} {'frontend':<8} {seconds:>8.3f} {'-':>8} {'-':>10} {'-':>12}")
        for name, run in STRATEGIES.items():
            t0 = time.perf_counter()
            result = run(diagrams)
            seconds = time.perf_counter() - t0
            t0 = time.perf_counter()
            print_term(result.body)
            printing = time.perf_counter() - t0
            size, width = shape(result.body)
            print(f"{n:>6} {name:<8} {seconds:>8.3f} {printing:>8.3f} {size:>10} {width:>12}")
            if name in SIMULATED:
                sims.append((n, name, simulate(result, state_table, doc)))
        checks.append((n, check(diagrams)))
    print(f"{'blocks':>6} {'check':<8} {'seconds':>8} {'proved':>8} {'cells':>6} {'joint':>10}")
    for n, (seconds, proved, cells, (width, passes)) in checks:
        joint = f"{width}x{passes}"
        print(f"{n:>6} {'check':<8} {seconds:>8.3f} {proved:>8} {cells:>6} {joint:>10}")
    print(f"{'blocks':>6} {'simulate':<8} {'compile':>8} {'loop':>8} {'steps/s':>10}")
    for n, name, (compiling, loop) in sims:
        print(f"{n:>6} {name:<8} {compiling:>8.3f} {loop:>8.3f} {STEPS / loop:>10.0f}")
    return 0


def check(diagrams) -> tuple:
    """(seconds, proved cells, cells, largest joint solve) of the
    determinacy matrix over ``translate_all``'s strategies."""
    runs = translate_all(diagrams)
    t0 = time.perf_counter()
    report = equivalence_matrix(runs, EquivConfig(samples=200))
    seconds = time.perf_counter() - t0
    cells = [cell for row in report.matrix for cell in row]
    joint = max(report.stats.symbolic_runs, default=(0, 0))
    return seconds, sum(cell.proved for cell in cells), len(cells), joint


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
