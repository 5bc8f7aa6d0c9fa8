"""Command-line interface.

    hbd translate FILE [--strategy fbpar|incr|fbless|random] [--seed N]
                       [--mode flatten|recursive] [--emit term|dot]
    hbd check FILE [--seeds N] [--samples M] [--mode ...]
    hbd simulate FILE --inputs CSV [--steps N] [--strategy ...]
    hbd axioms [--instances N] [--samples M] [--seed N]
    hbd print FILE

Exit codes, mapped from the error types in ``main`` alone: 0 success; 1 an
equivalence or axiom counterexample, an axiom instance that fails with a
reason, or a FAIL cell of ``check`` (a strategy whose translation failed is
one); 2 parse, schema, type, subsystem-cycle or file errors; 3
"precondition failed", with the reason (a document with no blocks, or a
feedbackless algebraic loop with its witness).  A malformed option value,
such as a negative count, or a malformed ``HBD_SEED`` is rejected by the
argument parser, also with exit code 2.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys

from .axioms import run_axiom_suite
from .errors import CycleError, ParseError, PreconditionError, SchemaError, TypeMismatchError
from .frontend import (
    DiagramDoc,
    FbLess,
    document_io_list,
    dot_doc,
    dump_doc,
    flatten_or_recurse,
    parse_doc,
)
from .harness import run_determinacy
from .semantics import BOT
from .sim import simulate_translated
from .terms import print_term, rewrite_basic, term_size
from .translator import FeedbackParallel, Incremental, RandomChoices
from .types import BaseType


def _method(name: str, seed: int):
    if name == "fbpar":
        return FeedbackParallel()
    if name == "incr":
        return Incremental()
    if name == "random":
        return RandomChoices(seed)
    if name == "fbless":
        return FbLess()
    raise ValueError(f"unknown strategy {name!r}")


def _at_least(least: int):
    """An argparse type: an int no smaller than ``least``."""

    def count(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"{value} is less than {least}")
        return value

    return count


def _load(path: str) -> DiagramDoc:
    with open(path, "rb") as handle:
        return parse_doc(handle.read())


def cmd_translate(args) -> int:
    doc = _load(args.file)
    result = flatten_or_recurse(doc, args.mode, _method(args.strategy, args.seed))
    if args.emit == "dot":
        print(dot_doc(result.doc))
        return 0
    d = result.diagram
    body = rewrite_basic(d.body)
    print("inputs:  " + " ".join(f"{v.name}:{v.ty}" for v in d.inputs))
    print("outputs: " + " ".join(f"{v.name}:{v.ty}" for v in d.outputs))
    print(f"size:    {term_size(body)}")
    print("term:    " + print_term(body))
    return 0


def cmd_check(args) -> int:
    diagrams, _, _ = document_io_list(_load(args.file), args.mode)
    report = run_determinacy(diagrams, seeds=range(args.seeds), samples=args.samples)
    print(report.render())
    return 0 if report.all_equivalent else 1


def _parse_cell(text: str, ty: BaseType):
    text = text.strip()
    if text == "bot":
        return BOT
    if ty == BaseType.BOOL:
        if text.lower() in ("true", "1"):
            return True
        if text.lower() in ("false", "0"):
            return False
        raise SchemaError(f"not a Bool literal: {text!r}")
    if ty == BaseType.INT:
        try:
            return int(text)
        except ValueError:
            raise SchemaError(f"not an Int literal: {text!r}") from None
    try:
        value = float(text)
    except ValueError:
        raise SchemaError(f"not a Real literal: {text!r}") from None
    if not math.isfinite(value):
        raise SchemaError(f"not a finite Real literal: {text!r}")
    return value


def _read_csv(path: str, doc: DiagramDoc, steps):
    types = {e.name: e.ty for e in doc.inputs}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise SchemaError("empty csv") from None
        if len(set(header)) != len(header):
            raise SchemaError(f"csv header names an input twice: {header}")
        unknown = set(header) - set(types)
        missing = set(types) - set(header)
        if unknown or missing:
            raise SchemaError(
                f"csv header mismatch: unknown {sorted(unknown)}, missing {sorted(missing)}"
            )
        rows = []
        for raw in reader:
            if len(raw) != len(header):
                raise SchemaError(f"csv row arity {len(raw)} != header {len(header)}")
            rows.append(
                {name: _parse_cell(cell, types[name]) for name, cell in zip(header, raw)}
            )
    if steps is not None:
        rows = rows[:steps]
    return rows


def cmd_simulate(args) -> int:
    doc = _load(args.file)
    result = flatten_or_recurse(doc, "flatten", _method(args.strategy, args.seed))
    rows = _read_csv(args.inputs, result.doc, args.steps)
    trace = simulate_translated(result.diagram, result.state_table, rows)
    in_names = [e.name for e in result.doc.inputs]
    out_names = [e.name for e in result.doc.outputs]
    print(",".join(["step"] + in_names + out_names + [f"{s}@pre" for s in trace.state_names]))
    pick_in = [trace.input_names.index(n) for n in in_names]
    pick_out = [trace.output_names.index(n) for n in out_names]
    for i, (ext, out, state) in enumerate(zip(trace.inputs, trace.outputs, trace.states)):
        cells = (
            [str(i)]
            + [_show(ext[k]) for k in pick_in]
            + [_show(out[k]) for k in pick_out]
            + [_show(v) for v in state]
        )
        print(",".join(cells))
    return 0


def _show(value) -> str:
    if value is BOT:
        return "bot"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def cmd_axioms(args) -> int:
    outcomes = run_axiom_suite(
        instances=args.instances, samples=args.samples, seed=args.seed
    )
    failed = 0
    for outcome in outcomes:
        status = "pass" if outcome.ok else "FAIL"
        print(f"axiom {outcome.name:<35} [{outcome.instances:4d} instances] {status}")
        if not outcome.ok:
            failed += 1
            failure = outcome.failures[0]
            if isinstance(failure, str):
                print(f"  failed: {failure}")
            else:
                row, lo, ro = failure
                print(f"  counterexample: input={row} lhs={lo} rhs={ro}")
    print(f"{len(outcomes) - failed}/{len(outcomes)} axioms pass")
    return 0 if failed == 0 else 1


def cmd_print(args) -> int:
    print(dump_doc(_load(args.file)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hbd", description="block diagram to algebra-term translator"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seed = os.environ.get("HBD_SEED", "0")  # parsed by type=int, like --seed

    p = sub.add_parser("translate", help="translate a diagram and print the term")
    p.add_argument("file")
    p.add_argument(
        "--strategy", choices=("fbpar", "incr", "fbless", "random"), default="incr"
    )
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--mode", choices=("flatten", "recursive"), default="flatten")
    p.add_argument("--emit", choices=("term", "dot"), default="term")
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("check", help="determinacy harness: all strategies, pairwise")
    p.add_argument("file")
    p.add_argument("--seeds", type=_at_least(0), default=20)
    p.add_argument("--samples", type=_at_least(1), default=200)
    p.add_argument("--mode", choices=("flatten", "recursive"), default="flatten")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("simulate", help="step the diagram on csv inputs")
    p.add_argument("file")
    p.add_argument("--inputs", required=True, help="csv with one column per input")
    p.add_argument("--steps", type=_at_least(0), default=None)
    p.add_argument(
        "--strategy", choices=("fbpar", "incr", "fbless", "random"), default="incr"
    )
    p.add_argument("--seed", type=int, default=seed)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("axioms", help="run the algebra law suite")
    p.add_argument("--instances", type=_at_least(0), default=100)
    p.add_argument("--samples", type=_at_least(1), default=100)
    p.add_argument("--seed", type=int, default=seed)
    p.set_defaults(fn=cmd_axioms)

    p = sub.add_parser("print", help="dump the normalized document")
    p.add_argument("file")
    p.set_defaults(fn=cmd_print)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, SchemaError, TypeMismatchError, CycleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
