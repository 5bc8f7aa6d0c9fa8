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

    python scripts/scale.py [N ...]
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from hbd.feedbackless import fbless_translate, split_block
from hbd.frontend import document_io_list
from hbd.gen import random_diagram
from hbd.terms import Route, iter_subterms, print_term
from hbd.translator import FeedbackParallel, Incremental, translate

STRATEGIES = {
    "fbpar": lambda ds: translate(ds, FeedbackParallel()),
    "incr": lambda ds: translate(ds, Incremental()),
    "fbless": lambda ds: fbless_translate([sb for d in ds for sb in split_block(d)]),
}


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
    for n in args.sizes:
        doc = random_diagram(7, n, n)
        t0 = time.perf_counter()
        diagrams, _, _ = document_io_list(doc)
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
