#!/usr/bin/env python3
"""hbd benchmark: the `hbd check`, `hbd translate` and `hbd simulate` paths.

    python3 perfbench/run.py --workload corpus|large|sim --seed N
                             [--seconds S] [--trace 0|1]

Run it from the repository root; hbd is imported from ``src/``.  One
process, one thread, a closed loop of one op at a time.  The run repeats
whole passes over the workload's ops until the timed ops have taken
``--seconds``, so every run measures the same mix of ops.  Outside the timed
region, each op's output is checked against an independent reference (first
pass) and reduced to exact counts, which must repeat in every pass and in a
child process run under another PYTHONHASHSEED.

It prints every metric by name and unit, then one JSON line with the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
A traced run adds one pass with a span around every call into hbd's public
entry points and writes the spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import math
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Optional

import spans
import workloads as wl

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 7
RECOUNT_TIMEOUT_S = 120


@dataclass
class Record:
    key: str
    seconds: float
    work: int
    failure: Optional[str] = None  # "ExceptionType: message"
    wrong: bool = False  # the output disagreed with its reference


class Run:
    """The ops one process ran: passes of records, and the counts of each op."""

    def __init__(self, workload):
        self.workload = workload
        self.passes = []
        self.counts = {}  # op key -> counts, merged over every time it ran
        self.problems = []  # counts that did not repeat

    def run_pass(self, check: bool, tracer=None, keys=None):
        root = tracer.root if tracer else lambda kind, key: contextlib.nullcontext()
        records = []
        for op in self.workload.ops():
            if keys is not None and op.key not in keys:
                continue
            out = {}
            with root("op", op.key):
                t0 = time.perf_counter()
                try:
                    self.workload.run(op, out)
                    failure = None
                except Exception as exc:  # a failing op is recorded, not fatal
                    failure = f"{type(exc).__name__}: {str(exc)[:300]}"
                seconds = time.perf_counter() - t0
            rec = Record(op.key, seconds, op.work, failure)
            if check and failure is None:
                with root("ref", op.key):
                    try:
                        self.workload.check(op, out)
                    except Exception as exc:  # a reference mismatch or crash
                        rec.failure = f"wrong output: {type(exc).__name__}: {str(exc)[:300]}"
                        rec.wrong = True
            counts = self.workload.counts(op, out)
            if tracer:
                counts.update(tracer.counts[f"op:{op.key}"])
            seen = self.counts.setdefault(op.key, {})
            for name, value in counts.items():
                if seen.setdefault(name, value) != value:
                    self.problems.append(f"{op.key}: {name} was {seen[name]}, now {value}")
            records.append(rec)
        return records

    def measure(self, seconds: float) -> None:
        """Whole passes, as many as fit in ``seconds`` of op time, at least one."""
        op_time = 0.0
        while not self.passes or op_time * (1 + 1 / len(self.passes)) <= seconds:
            records = self.run_pass(check=not self.passes)
            self.passes.append(records)
            op_time += sum(r.seconds for r in records)


def _set_up(name: str, seed: int):
    t0 = time.perf_counter()
    api = wl.load_hbd()
    workload = wl.WORKLOADS[name](api, seed)
    wl.warm_up(api)
    return api, workload, time.perf_counter() - t0


def _recount_in_child(args, run: Run):
    """Counts of the workload's recount ops under another PYTHONHASHSEED must
    equal this process's counts."""
    other = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--recount",
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED=other),
            capture_output=True, text=True, timeout=RECOUNT_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return [f"recount under PYTHONHASHSEED={other} timed out"]
    if proc.returncode != 0:
        return [f"recount under PYTHONHASHSEED={other} failed: {proc.stderr[-400:]}"]
    theirs = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    for key in sorted(run.workload.recount_keys):
        for name, value in run.counts.get(key, {}).items():
            other_value = theirs.get(key, {}).get(name)
            if other_value != value:
                problems.append(
                    f"{key}: {name} = {value}, but {other_value} under PYTHONHASHSEED={other}"
                )
    return problems


def _recount(args) -> int:
    api = wl.load_hbd()
    workload = wl.WORKLOADS[args.workload](api, args.seed)
    tracer = spans.Tracer(api)  # for the census; its timings are not used
    tracer.install()
    run = Run(workload)
    run.run_pass(check=False, tracer=tracer, keys=workload.recount_keys)
    print(json.dumps(run.counts))
    return 0


def _tail(latencies):
    """The highest percentile with at least ten ops beyond it, if that lies
    above the median."""
    pct = math.floor(100 * (1 - 10 / len(latencies)))
    if pct <= 50:
        return None
    return pct, latencies[math.ceil(pct / 100 * len(latencies)) - 1]


def _op_seconds(passes):
    """Each op's time: its median over the passes."""
    return [statistics.median(p[i].seconds for p in passes) for i in range(len(passes[0]))]


def _end_to_end(run: Run, setup_times) -> dict:
    """Latency and throughput of one pass, each op timed by its median over
    the run's passes."""
    first = run.passes[0]
    seconds = _op_seconds(run.passes)
    latencies = sorted(t for t, r in zip(seconds, first) if r.failure is None)
    return {
        "setup_s": statistics.median(setup_times),
        "op_s.p50": statistics.median(latencies),
        "work_per_s": sum(r.work for r in first if r.failure is None) / sum(seconds),
        "term_nodes": sum(
            v for r in first for k, v in run.counts[r.key].items() if k.startswith("nodes.")
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, latencies


def _per_layer(tracer, run: Run, traced) -> dict:
    out = tracer.layer_metrics()
    shape: dict = {}
    for r in traced:
        wl.add_counts(shape, run.counts[r.key])
    nodes = 0
    for family in ("fbpar", "incr", "rand", "fbless"):
        out[f"terms.nodes.{family}"] = shape.get(f"nodes.{family}", 0)
        nodes += out[f"terms.nodes.{family}"]
    out["terms.atom_ratio"] = shape.get("atoms", 0) / nodes if nodes else 0.0
    out["terms.depth.max"] = shape.get("depth", 0)
    out["trace.overhead_ratio"] = sum(r.seconds for r in traced) / sum(_op_seconds(run.passes)) - 1
    return out


def _declared(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _result(metrics: dict, units: dict) -> dict:
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("corpus", "large", "sim"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--recount", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "hbd" / "__init__.py").is_file():
        print(f"error: no hbd sources at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.recount:
        return _recount(args)

    setup_times = []
    for _ in range(SETUP_REPS):
        api, workload, seconds = _set_up(args.workload, args.seed)
        setup_times.append(seconds)

    run = Run(workload)
    run.measure(args.seconds)
    e2e, latencies = _end_to_end(run, setup_times)

    records = [r for p in run.passes for r in p]
    if args.trace:
        tracer = spans.Tracer(api)
        tracer.install()
        try:
            with tracer.root("warmup", "tour"):
                wl.warm_up(api)
            traced = run.run_pass(check=True, tracer=tracer)
        finally:
            tracer.uninstall()
        records += traced

    run.problems += _recount_in_child(args, run)

    failures = [r for r in records if r.failure]
    ops_per_pass = len(workload.ops())
    print(
        f"hbd benchmark: workload {args.workload}, seed {args.seed}, "
        f"{len(run.passes)} untraced pass(es) of {ops_per_pass} ops"
    )
    print(f"  setup_s       {e2e['setup_s']:.4f} s      median of {SETUP_REPS} set-ups")
    print(f"  op_s.p50      {e2e['op_s.p50']:.4f} s      {len(latencies)} completed ops")
    tail = _tail(latencies)
    if tail:
        print(f"  op_s.tail     {tail[1]:.4f} s      p{tail[0]} of {len(latencies)} completed ops")
    else:
        print(f"  op_s.tail     none: {len(latencies)} completed ops have no tail above p50")
    print(f"  work_per_s    {e2e['work_per_s']:.4f} 1/s    ({workload.throughput})")
    print(f"  term_nodes    {e2e['term_nodes']} count  (one pass)")
    print(f"  peak_rss_mb   {e2e['peak_rss_mb']:.1f} MB")
    print(f"  failed_ratio  {len(failures)}/{len(records)} = {len(failures) / len(records):.4f}")
    for (key, failure), n in collections.Counter((r.key, r.failure) for r in failures).items():
        print(f"  failed op {key} (x{n}): {failure.splitlines()[0]}")
    for problem in run.problems:
        print(f"  not deterministic: {problem}")

    if args.trace:
        layer = _per_layer(tracer, run, traced)
        metrics = _result(layer, _declared("per_layer"))
        for name, m in metrics.items():
            print(f"  {name:<27} {m['value']:.6g} {m['unit']}")
        shares = tracer.op_shares()
        print("  share of traced op time: " + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{args.workload}-seed{args.seed}.trace.json"
        dump = tracer.dump()
        dump.update(
            workload=args.workload,
            seed=args.seed,
            op_shares=shares,
            op_counts=run.counts,
            failures=[{"op": r.key, "error": r.failure} for r in failures],
        )
        path.write_text(json.dumps(dump))
        print(f"  spans written to {path.relative_to(ROOT)}")
    else:
        metrics = _result(e2e, _declared("end_to_end"))

    correct = not run.problems and not any(r.wrong for r in records)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(records),
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
