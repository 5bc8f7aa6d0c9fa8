"""Alternating parent/change pairs of ``perfbench/run.py``, summarized.

    python3 scripts/bench.py PARENT_REF [--pairs 10] [--seconds 20] [--seed 0]
        [--workloads corpus,large,sim] [--change TEXT] [--out BENCH_N.json]

Run it from the repository root.  The parent is ``git archive PARENT_REF``
unpacked into a temporary directory, which is removed at the end; the
change is the working tree.  For each workload, pair k runs
``perfbench/run.py --workload W --seed S --seconds T`` once on each side,
one process at a time: parent first in odd pairs, change first in even
pairs, so that a drift of the host's speed falls on both sides alike.

The output (stdout, or ``--out``) has the shape of the ``BENCH_*.json``
files: for each workload and each end-to-end metric of ``BENCHMARK.json``,
the quartiles of both sides and, where the sides differ, in how many pairs
the change was better; then every run's result line.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _export(ref: str, into: pathlib.Path) -> str:
    """Unpack the tree of ``ref`` into ``into``; its abbreviated hash."""
    sha = subprocess.run(
        ["git", "rev-parse", "--short", ref], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {sha} failed")
    return sha


def _run(tree: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one benchmark run in ``tree``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd + ["--seconds", str(seconds)], cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": round(q1, 6), "median": round(median, 6), "q3": round(q3, 6)}


def summarize(runs, metrics) -> dict:
    """Per workload and metric: both sides' quartiles, and the pairs in
    which the change was better when the two sides ever differ."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        pairs = sorted({r["pair"] for r in mine})
        side = {(r["side"], r["pair"]): r["result"] for r in mine}
        out = {}
        for m in metrics:
            name = m["name"]
            value = {k: res["metrics"][name]["value"] for k, res in side.items()}
            entry = {s: _quartiles([value[s, p] for p in pairs]) for s in ("parent", "change")}
            diffs = [(value["change", p], value["parent", p]) for p in pairs]
            if any(c != p for c, p in diffs):
                lower = m["better"] == "lower"
                better = sum((c < p) if lower else (c > p) for c, p in diffs)
                entry["change_better_pairs"] = f"{better}/{len(pairs)}"
            out[name] = entry
        for key in ("failed", "attempted"):
            out[key] = {s: sum(side[s, p][key] for p in pairs) for s in ("parent", "change")}
        out["correct"] = {s: all(side[s, p]["correct"] for p in pairs) for s in ("parent", "change")}
        summary[workload] = out
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git ref of the parent commit")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workloads", default="corpus,large,sim")
    parser.add_argument("--change", default="", help="one line saying what the change does")
    parser.add_argument("--out", help="write the JSON here instead of stdout")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",")
    parent_dir = pathlib.Path(tempfile.mkdtemp(prefix="hbd-bench-parent-"))
    try:
        sha = _export(args.parent, parent_dir)
        trees = {"parent": parent_dir, "change": ROOT}
        runs = []
        for workload in workloads:
            for pair in range(1, args.pairs + 1):
                order = ("parent", "change") if pair % 2 else ("change", "parent")
                for side in order:
                    result = _run(trees[side], workload, args.seed, args.seconds)
                    runs.append(
                        {"side": side, "workload": workload, "seed": args.seed, "pair": pair, "result": result}
                    )
                    work = result["metrics"]["work_per_s"]["value"]
                    print(f"{workload} pair {pair} {side}: work_per_s {work:.1f}", file=sys.stderr)
    finally:
        shutil.rmtree(parent_dir, ignore_errors=True)

    command = f"python3 perfbench/run.py --workload W --seed {args.seed} --seconds {args.seconds:g}"
    record = {
        "change": args.change,
        "parent": sha,
        "machine": f"{platform.machine()}, Python {platform.python_version()}, one benchmark process at a time",
        "benchmark": {
            "command": command,
            "pairs": f"{args.pairs} per workload, parent first in odd pairs, change first in even pairs",
            "summary": summarize(runs, spec["end_to_end"]),
            "runs": runs,
        },
    }
    text = json.dumps(record, indent=1)
    if args.out:
        pathlib.Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
