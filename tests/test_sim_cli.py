"""Step simulation (translated term vs direct interpreter) and the CLI."""

import contextlib
import copy
import csv
import functools
import io
import json
import operator
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from hbd import cli
from hbd.cli import main
from hbd.errors import CycleError, ParseError, PreconditionError, SchemaError, TypeMismatchError
from hbd.frontend import flatten_or_recurse, normalize, parse_doc
from hbd.gen import loop_diagram, random_diagram
from hbd.harness import io_equiv
from hbd.semantics import BOT
from hbd.sim import simulate_direct, simulate_translated, traces_match
from hbd.terms import print_term, rewrite_basic
from hbd.types import BaseType
from hbd.translator import FeedbackParallel, Incremental, RandomChoices
from hbd.frontend import FbLess

from util import LATCH, simulate_translated_oracle


def test_summation_trace(sum_doc):
    result = flatten_or_recurse(sum_doc, "flatten", Incremental())
    rows = [{"u": float(k)} for k in (1, 2, 3, 4)]
    trace = simulate_translated(result.diagram, result.state_table, rows)
    assert trace.column("v") == [0.0, 1.0, 3.0, 6.0]


def test_zero_steps_gives_empty_trace(sum_doc):
    result = flatten_or_recurse(sum_doc, "flatten", Incremental())
    trace = simulate_translated(result.diagram, result.state_table, [])
    assert trace.steps == []


def test_trace_strategy_independent(sum_doc):
    rows = [{"u": float(k)} for k in (5, -1, 2)]
    traces = []
    for method in (Incremental(), FeedbackParallel(), FbLess()):
        result = flatten_or_recurse(sum_doc, "flatten", method)
        traces.append(simulate_translated(result.diagram, result.state_table, rows))
    assert traces_match(traces[0], traces[1], names=["v"])
    assert traces_match(traces[0], traces[2], names=["v"])


def test_translated_matches_direct_interpreter(sum_doc):
    rows = [{"u": float(k)} for k in (1, 2, 3, 4, 5)]
    result = flatten_or_recurse(sum_doc, "flatten", Incremental())
    translated = simulate_translated(result.diagram, result.state_table, rows)
    direct = simulate_direct(normalize(sum_doc), rows)
    assert traces_match(translated, direct)
    assert [s.state_after for s in translated.steps] == [
        s.state_after for s in direct.steps
    ]


def test_hundred_block_fbpar_translates_and_simulates():
    """At 100 blocks the fbpar term used to exceed the recursion limit in
    rewrite_basic/print_term; with one node per switch it translates, prints
    and simulates like the direct interpreter."""
    doc = random_diagram(7, 100, 100)
    result = flatten_or_recurse(doc, "flatten", FeedbackParallel())
    text = print_term(rewrite_basic(result.diagram.body))
    assert text.startswith("(")
    value = {BaseType.BOOL: lambda k: k % 2 == 0, BaseType.INT: int, BaseType.REAL: float}
    rows = [{e.name: value[e.ty](k) for e in result.doc.inputs} for k in (1, 2)]
    translated = simulate_translated(result.diagram, result.state_table, rows)
    assert traces_match(translated, simulate_direct(result.doc, rows))


def test_nan_wire_settles_in_both_simulators():
    """u fans out to two Gain(k=1e300) blocks that feed a Sub: at u = 1e10
    both products overflow to inf and y is NaN.  NaN equals NaN in the
    direct interpreter's settle test too, so both simulators give NaN."""
    from hbd.frontend import parse_doc

    doc = parse_doc(json.dumps({
        "version": 1,
        "name": "nan",
        "inputs": [{"name": "u", "type": "Real", "to": ["G1.a", "G2.a"]}],
        "outputs": [{"name": "y", "type": "Real", "from": "D.out"}],
        "blocks": [
            {"id": "G1", "kind": "Gain", "params": {"k": 1e300}},
            {"id": "G2", "kind": "Gain", "params": {"k": 1e300}},
            {"id": "D", "kind": "Sub"},
        ],
        "wires": [{"from": "G1.out", "to": "D.a"}, {"from": "G2.out", "to": "D.b"}],
    }))
    rows = [{"u": 1e10}, {"u": 1.0}]
    result = flatten_or_recurse(doc, "flatten", Incremental())
    translated = simulate_translated(result.diagram, result.state_table, rows)
    direct = simulate_direct(result.doc, rows)
    for trace in (translated, direct):
        y = trace.column("y")
        assert y[0] != y[0] and y[1] == 0.0
    assert traces_match(translated, direct)


def test_state_threading_invariant(sum_doc):
    rows = [{"u": float(k)} for k in (2, 4, 8)]
    result = flatten_or_recurse(sum_doc, "flatten", Incremental())
    trace = simulate_translated(result.diagram, result.state_table, rows)
    for prev, nxt in zip(trace.steps, trace.steps[1:]):
        assert prev.state_after == nxt.state_before


def test_algebraic_loop_yields_unknowns_consistently():
    doc = loop_diagram()
    rows = [{"u": 1.0}, {"u": 2.0}]
    res = flatten_or_recurse(doc, "flatten", Incremental())
    translated = simulate_translated(res.diagram, res.state_table, rows)
    direct = simulate_direct(normalize(doc), rows)
    assert translated.column("y") == [BOT, BOT]
    assert traces_match(translated, direct)


def test_latch_is_checked_and_simulated(tmp_path, capsys):
    """A switch whose output feeds its own else input passes u while c is
    true and is unknown otherwise.  Its tower grows one graph node per
    iteration, so every solve stops at its cap: fbpar, rand0 and rand2 feed
    back two wires and incr and rand1 one, and the two groups stop at caps
    one pass apart on different graphs.  `hbd check` proves the pairs within
    a group and samples the six between them, with no fbless column since
    the latch is an algebraic loop, and each strategy simulates like the
    direct interpreter."""
    path = tmp_path / "latch.hbd.json"
    path.write_text(json.dumps(LATCH))
    assert main(["check", str(path), "--seeds", "3"]) == 0
    out = capsys.readouterr().out
    assert "pairs: 9 proved (equal output graphs), 6 sampled, 0 failed" in out
    assert "fbless" not in out
    doc = parse_doc(json.dumps(LATCH))
    rows = [{"c": c, "u": float(k)} for k, c in enumerate((True, False, True, False, False))]
    direct = simulate_direct(doc, rows)
    assert direct.column("y") == [0.0, BOT, 2.0, BOT, BOT]
    for method in (FeedbackParallel(), Incremental(), RandomChoices(0)):
        result = flatten_or_recurse(doc, "flatten", method)
        translated = simulate_translated(result.diagram, result.state_table, rows)
        assert translated.column("y") == direct.column("y"), method


# -- CLI ----------------------------------------------------------------------

def test_cli_simulate_latch(tmp_path, capsys):
    """`hbd simulate` runs the latch, whose tower stops at the cap, as
    straight-line code: u while c is true, bot otherwise."""
    path, inputs = tmp_path / "latch.hbd.json", tmp_path / "in.csv"
    path.write_text(json.dumps(LATCH))
    inputs.write_text("c,u\ntrue,1.5\nfalse,2.0\n")
    assert main(["simulate", str(path), "--inputs", str(inputs)]) == 0
    assert capsys.readouterr().out.splitlines() == ["step,c,u,y", "0,true,1.5,1.5", "1,false,2.0,bot"]


def test_cli_translate_incr(sum_path, capsys):
    assert main(["translate", sum_path, "--strategy", "incr"]) == 0
    out = capsys.readouterr().out
    assert "inputs:" in out and "(atom Add)" in out and "(feedback" in out


def test_cli_translate_fbless_has_no_feedback(sum_path, capsys):
    assert main(["translate", sum_path, "--strategy", "fbless"]) == 0
    out = capsys.readouterr().out
    assert "(feedback" not in out
    assert "(atom Add)" in out


def test_cli_translate_modes_and_dot(sum_path, capsys):
    assert main(["translate", sum_path, "--mode", "recursive"]) == 0
    capsys.readouterr()
    assert main(["translate", sum_path, "--emit", "dot"]) == 0
    assert "digraph" in capsys.readouterr().out


def test_cli_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.hbd.json"
    bad.write_text("{broken")
    assert main(["translate", str(bad)]) == 2
    missing = tmp_path / "missing.hbd.json"
    assert main(["translate", str(missing)]) == 2
    assert main(["print", str(missing)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


NESTED = pathlib.Path(__file__).resolve().parent.parent / "diagrams" / "nested.hbd.json"


def _fields(node, path=()):
    """The key or index path of every value in a JSON tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _fields(child, path + (key,))


def test_cli_malformed_document_exits_with_a_reason(tmp_path, monkeypatch, capsys):
    """Each field of the nested example replaced by a value of another JSON
    type or an unknown type name: every run reports and exits, none raises."""
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)  # building it dominates a run
    base = json.loads(NESTED.read_text())
    path = tmp_path / "doc.hbd.json"
    for field in _fields(base):
        for value in (5, "x", None, [], {}, [5], True, 1.5, "Float"):
            doc = copy.deepcopy(base)
            functools.reduce(operator.getitem, field[:-1], doc)[field[-1]] = value
            path.write_text(json.dumps(doc))
            for command in ("translate", "print"):
                assert main([command, str(path)]) in (0, 2, 3), (field, value, command)


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "FILE", "--inputs", "CSV", "--steps", "-1"],
        ["axioms", "--samples", "-1"],
        ["axioms", "--samples", "0"],
        ["axioms", "--instances", "-2"],
        ["check", "FILE", "--seeds", "-1"],
    ],
)
def test_cli_rejects_negative_counts(argv, sum_path, tmp_path, capsys):
    csv_path = tmp_path / "in.csv"
    csv_path.write_text("u\n1\n2\n")
    argv = [{"FILE": sum_path, "CSV": str(csv_path)}.get(a, a) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "is less than" in capsys.readouterr().err


def test_cli_dot_edges_agree_across_modes(capsys):
    edges = []
    for mode in ("flatten", "recursive"):
        assert main(["translate", str(NESTED), "--emit", "dot", "--mode", mode]) == 0
        edges.append(set(re.findall(r'"([^"]+)" -> "([^"]+)"', capsys.readouterr().out)))
    assert edges[0] == edges[1] == {("in:u", "S1"), ("S1", "out:y")}


def test_cli_fbless_loop_exit_3(tmp_path, capsys):
    from hbd.gen import loop_diagram, random_diagram

    doc = loop_diagram()
    path = tmp_path / "loop.hbd.json"
    path.write_text(json.dumps(_doc_to_json(doc)))
    assert main(["translate", str(path), "--strategy", "fbless"]) == 3
    err = capsys.readouterr().err
    assert "->" in err  # cycle witness


def test_cli_check(sum_path, capsys):
    assert main(["check", sum_path, "--seeds", "3", "--samples", "40"]) == 0
    out = capsys.readouterr().out
    assert "fbpar" in out and "fbless" in out and "FAIL" not in out


def test_cli_simulate(sum_path, tmp_path, capsys):
    csv_path = tmp_path / "inputs.csv"
    csv_path.write_text("u\n1\n2\n3\n4\n")
    assert main(["simulate", sum_path, "--inputs", str(csv_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "step,u,v,s1@pre"
    assert [line.split(",")[2] for line in out[1:]] == ["0.0", "1.0", "3.0", "6.0"]


def test_cli_simulate_with_bot_token(sum_path, tmp_path, capsys):
    csv_path = tmp_path / "inputs.csv"
    csv_path.write_text("u\nbot\n1\n")
    assert main(["simulate", sum_path, "--inputs", str(csv_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    # v = s is still known on step 0; the unknown input poisons the next state
    assert out[1].split(",")[2] == "0.0"
    assert out[2].split(",")[3] == "bot"


def test_cli_simulate_csv_mismatch_exit_2(sum_path, tmp_path, capsys):
    csv_path = tmp_path / "inputs.csv"
    # an unknown column; u twice, where one column would silently win
    for text in ("wrong\n1\n", "u,u\n1,2\n3,4\n"):
        csv_path.write_text(text)
        assert main(["simulate", sum_path, "--inputs", str(csv_path)]) == 2, text
        assert "csv header" in capsys.readouterr().err


def test_cli_simulate_non_finite_cell_exit_2(sum_path, tmp_path, capsys):
    csv_path = tmp_path / "inputs.csv"
    for cell in ("nan", "inf", "-Infinity", "1e400"):
        csv_path.write_text(f"u\n1\n{cell}\n")
        assert main(["simulate", sum_path, "--inputs", str(csv_path)]) == 2, cell
        assert "finite" in capsys.readouterr().err


def test_cli_simulate_fbless_strategy(sum_path, tmp_path, capsys):
    csv_path = tmp_path / "inputs.csv"
    csv_path.write_text("u\n1\n2\n3\n4\n")
    assert main(["simulate", sum_path, "--inputs", str(csv_path), "--strategy", "fbless"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(",")[2] for line in out[1:]] == ["0.0", "1.0", "3.0", "6.0"]


def test_cli_simulate_steps_limit(sum_path, tmp_path, capsys):
    csv_path = tmp_path / "inputs.csv"
    csv_path.write_text("u\n1\n2\n3\n")
    assert main(["simulate", sum_path, "--inputs", str(csv_path), "--steps", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3


DIAGRAMS = pathlib.Path(__file__).resolve().parent.parent / "diagrams"


def _oracle_csv(path, csv_path, strategy, seed):
    """The exit code and stdout ``hbd simulate`` should give, built from
    the ``StepRow``s of the row-wise oracle."""
    try:
        result = flatten_or_recurse(cli._load(path), "flatten", cli._method(strategy, seed))
    except PreconditionError:
        return 3, ""
    rows = cli._read_csv(csv_path, result.doc, None)
    trace = simulate_translated_oracle(result.diagram, result.state_table, rows)
    in_names = [e.name for e in result.doc.inputs]
    out_names = [e.name for e in result.doc.outputs]
    state_names = [e.state.name for e in result.state_table]
    lines = [",".join(["step"] + in_names + out_names + [f"{s}@pre" for s in state_names])]
    for i, step in enumerate(trace.steps):
        cells = (
            [str(i)]
            + [cli._show(step.inputs[n]) for n in in_names]
            + [cli._show(step.outputs[n]) for n in out_names]
            + [cli._show(step.state_before[s]) for s in state_names]
        )
        lines.append(",".join(cells))
    return 0, "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("strategy", ["fbpar", "incr", "fbless", "random"])
@pytest.mark.parametrize("name", ["sum", "loop", "nested"])
def test_cli_simulate_prints_the_oracle_csv(name, strategy, tmp_path, capsys):
    """`hbd simulate` prints, byte for byte, the CSV of the oracle's rows,
    bot, -0.0 and 1e300 cells included."""
    path = str(DIAGRAMS / f"{name}.hbd.json")
    csv_path = tmp_path / "inputs.csv"
    csv_path.write_text("u\n1\nbot\n-0.0\n1e300\n-2.5\n1e300\n0\n")
    argv = ["simulate", path, "--inputs", str(csv_path), "--strategy", strategy, "--seed", "3"]
    code = main(argv)
    assert (code, capsys.readouterr().out) == _oracle_csv(path, str(csv_path), strategy, 3)
    assert code == (3 if (name, strategy) == ("loop", "fbless") else 0)


def test_cli_axioms_quick(capsys):
    assert main(["axioms", "--instances", "2", "--samples", "10"]) == 0
    out = capsys.readouterr().out
    assert "16/16 axioms pass" in out


def test_cli_print(sum_path, capsys):
    """Each atom body prints over its block's wire names."""
    assert main(["print", sum_path]) == 0
    assert capsys.readouterr().out == (
        "diagram summation\n"
        "inputs:  u:Real\n"
        "outputs: v:Real\n"
        "block Add: Add\n"
        "  (w3, u) -> (w1)  =  [w3, u ~> (w3 + u)]\n"
        "block Delay: UnitDelay [init=0.0]\n"
        "  (w1, s1) -> (w2, s1')  =  [w1, s1 ~> s1, w1]\n"
        "block Split: SplitBlk\n"
        "  (w2) -> (w3, v)  =  [w2 ~> w2, w2]\n"
        "state s1/s1' of Delay, init 0.0\n"
    )


def test_cli_print_nested_diagram(capsys):
    assert main(["print", str(DIAGRAMS / "nested.hbd.json")]) == 0
    assert capsys.readouterr().out == (
        "diagram nested-summation\n"
        "inputs:  u:Real\n"
        "outputs: y:Real\n"
        "block S1: Accumulator\n"
        "  (u) -> (y)  =  subsystem Accumulator\n"
    )


def test_cli_print_shows_unary_and_conditional_bodies(tmp_path, capsys):
    doc = {
        "version": 1,
        "name": "switch",
        "inputs": [
            {"name": "c", "type": "Bool", "to": "N.a"},
            {"name": "u", "type": "Real", "to": "S.t"},
            {"name": "v", "type": "Real", "to": "S.e"},
        ],
        "outputs": [{"name": "y", "type": "Real", "from": "S.out"}],
        "blocks": [{"id": "N", "kind": "LogicalNot"}, {"id": "S", "kind": "SwitchBlk"}],
        "wires": [{"from": "N.out", "to": "S.c"}],
    }
    path = tmp_path / "switch.hbd.json"
    path.write_text(json.dumps(doc))
    assert main(["print", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "  (c) -> (w1)  =  [c ~> (not c)]" in lines
    assert "  (w1, u, v) -> (y)  =  [w1, u, v ~> (if w1 then u else v)]" in lines


def test_cli_simulate_int_input(tmp_path, capsys):
    """Int cells parse and print as ints, big ones exactly; a cell that is
    not an Int literal exits 2."""
    doc = {
        "version": 1,
        "name": "int-gain",
        "inputs": [{"name": "u", "type": "Int", "to": "G.a"}],
        "outputs": [{"name": "y", "type": "Int", "from": "G.out"}],
        "blocks": [{"id": "G", "kind": "Gain", "params": {"k": 3, "type": "Int"}}],
        "wires": [],
    }
    path, csv_path = tmp_path / "int.hbd.json", tmp_path / "inputs.csv"
    path.write_text(json.dumps(doc))
    csv_path.write_text(f"u\n2\n-7\n{2**80}\n")
    assert main(["simulate", str(path), "--inputs", str(csv_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "step,u,y", "0,2,6", "1,-7,-21", f"2,{2**80},{3 * 2**80}"
    ]
    csv_path.write_text("u\n1\n1.5\n")
    assert main(["simulate", str(path), "--inputs", str(csv_path)]) == 2
    assert "not an Int literal: '1.5'" in capsys.readouterr().err


_CLI_DIGEST = """
import contextlib, hashlib, io, re, sys
from hbd.cli import main
digest, commands = hashlib.sha256(), 0
for name in ("sum", "nested", "loop"):
    path = f"{sys.argv[1]}/{name}.hbd.json"
    runs = [["print", path]]
    for mode in ("flatten", "recursive"):
        runs.append(["check", path, "--seeds", "3", "--mode", mode])
        for strategy in ("fbpar", "incr", "fbless", "random"):
            runs.append(["translate", path, "--strategy", strategy, "--mode", mode])
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        text = re.sub(r" +[0-9.]+ ms", "", out.getvalue())  # wall time per strategy
        digest.update(repr((argv, text, err.getvalue(), code)).encode())
        commands += bool(text)
print(commands, digest.hexdigest())
"""


def test_cli_output_does_not_depend_on_hash_seed():
    """``print``, ``check`` and ``translate`` on the shipped diagrams give
    the same stdout, stderr and exit code in processes whose str hashing
    differs."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    outs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", _CLI_DIGEST, str(DIAGRAMS)],
            env=env, capture_output=True, text=True, check=True,
        )
        outs.append(proc.stdout)
    assert outs[0].split()[0] == "31"  # 33 commands; fbless on the loop prints nothing
    assert outs[0] == outs[1]


def test_cli_check_permuted_file_block_order(sum_doc, tmp_path, capsys):
    # listing the blocks in a different order changes no verdict
    data = _doc_to_json(sum_doc)
    data["blocks"] = list(reversed(data["blocks"]))
    path = tmp_path / "sum_reversed.hbd.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path), "--seeds", "3", "--samples", "60"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_cli_check_single_block(tmp_path, capsys):
    doc = {
        "version": 1,
        "name": "one",
        "inputs": [{"name": "u", "type": "Real", "to": "G.a"}],
        "outputs": [{"name": "y", "type": "Real", "from": "G.out"}],
        "blocks": [{"id": "G", "kind": "Gain", "params": {"k": 2.0}}],
        "wires": [],
    }
    path = tmp_path / "one.hbd.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), "--seeds", "2", "--samples", "20"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_cli_check_document_without_blocks_exit_3(tmp_path, capsys):
    # exit 1 would claim a counterexample; there is nothing to check
    doc = {"version": 1, "name": "empty", "inputs": [], "outputs": [], "blocks": [], "wires": []}
    path = tmp_path / "empty.hbd.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 3
    assert "no diagrams to check" in capsys.readouterr().err
    assert main(["translate", str(path)]) == 3  # the default strategy, incr
    err = capsys.readouterr().err
    assert "no blocks to translate" in err and "feedbackless" not in err


def test_cli_shipped_nested_diagram(capsys):
    import pathlib

    path = str(pathlib.Path(__file__).resolve().parent.parent / "diagrams" / "nested.hbd.json")
    assert main(["translate", path, "--mode", "recursive"]) == 0
    capsys.readouterr()
    assert main(["check", path, "--seeds", "2", "--samples", "40"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    # the recursive list (subsystems as atoms) passes the harness too
    assert main(["check", path, "--mode", "recursive", "--seeds", "2", "--samples", "40"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_cli_shipped_loop_diagram(capsys):
    import pathlib

    path = str(pathlib.Path(__file__).resolve().parent.parent / "diagrams" / "loop.hbd.json")
    assert main(["translate", path, "--strategy", "fbless"]) == 3
    err = capsys.readouterr().err
    assert "feedbackless" in err and "w1 -> w3 -> w2 -> w1" in err  # the witness
    # the feedback-based strategies still translate it (outputs are unknown)
    assert main(["translate", path, "--strategy", "incr"]) == 0
    assert main(["check", path, "--seeds", "3", "--samples", "40"]) == 0


def test_shipped_instance_loop_diagram(capsys):
    """The loop through an instance's UnitDelay is no algebraic loop: in
    flatten mode fbless translates it, is proved equal to incr, and
    simulates 50 steps as the direct interpreter does.  In recursive mode
    the translated instance is one block whose output reads its input, so
    fbless sees a loop there and the check has no fbless column: the
    documented limitation of recursive mode."""
    path = DIAGRAMS / "instance_loop.hbd.json"
    doc = parse_doc(path.read_bytes())
    fbless = flatten_or_recurse(doc, "flatten", FbLess())
    incr = flatten_or_recurse(doc, "flatten", Incremental())
    assert io_equiv(fbless.diagram, incr.diagram).proved
    rows = [{"u": float((7 * k) % 11 - 5)} for k in range(50)]
    translated = simulate_translated(fbless.diagram, fbless.state_table, rows)
    direct = simulate_direct(doc, rows)
    assert traces_match(translated, direct)
    assert [s.state_after for s in translated.steps] == [s.state_after for s in direct.steps]

    argv = ["translate", str(path), "--strategy", "fbless", "--mode", "recursive"]
    assert main(argv) == 3
    assert "algebraic loop: w1 -> w3 -> w2 -> w1" in capsys.readouterr().err
    assert main(["check", str(path), "--seeds", "2", "--samples", "40", "--mode", "recursive"]) == 0
    out = capsys.readouterr().out
    assert "fbless" not in out and "FAIL" not in out


def test_cli_entry_point_subprocess(sum_path):
    import os

    import hbd

    # the child finds hbd where this process did, installed or not
    src = str(pathlib.Path(hbd.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "hbd.cli", "print", sum_path],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert "summation" in proc.stdout


def test_too_deeply_nested_document_exits_2(tmp_path):
    """Subsystems nested as deep as the recursion limit are a parse error,
    not a traceback."""
    import os

    import hbd

    depth = sys.getrecursionlimit()  # as raised by hbd.terms
    text = "".join(
        ['{"version": 1, "subsystems": {"S": '] * depth + ['{"version": 1}'] + ["}}"] * depth
    )
    path = tmp_path / "deep.hbd.json"
    path.write_text(text)
    src = str(pathlib.Path(hbd.__file__).resolve().parents[1])
    env_path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "hbd.cli", "translate", str(path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=env_path),
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr[-500:]
    assert proc.stderr == "error: document nests too deeply\n"


def _doc_to_json(doc):
    return {
        "version": 1,
        "name": doc.name,
        "inputs": [
            {"name": e.name, "type": e.ty, "to": [str(t) for t in e.targets]}
            for e in doc.inputs
        ],
        "outputs": [
            {"name": e.name, "type": e.ty, "from": str(e.source)}
            for e in doc.outputs
        ],
        "blocks": [
            {"id": b.id, "kind": b.kind, "params": dict(b.params)} for b in doc.blocks
        ],
        "wires": [{"from": str(w.src), "to": str(w.dst)} for w in doc.wires],
    }


# -- front door ---------------------------------------------------------------

FRONT_DOORS = sorted((pathlib.Path(__file__).resolve().parent.parent / "diagrams").glob("*.hbd.json"))
# Leaves a mutation puts in place of a node: JSON scalars and the names,
# kinds, types and ports the shipped documents use.
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.just(2**80),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.sampled_from(
        ["", "u", "y", "p", "Add", "UnitDelay", "SwitchBlk", "Accumulator", "Real", "Int",
         "Bool", "Add.a", "Add.out", "S1.q", "Dly.y", "G.out", "nope.x", "x.y.z"]
    ),
    st.just([]),
    st.just({}),
)


def _paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


@st.composite
def mutated_documents(draw):
    """One of the shipped documents after one to three random edits: a node
    replaced by a leaf or by a copy of another node, deleted or doubled; at
    times the JSON text is cut short too."""
    doc = json.loads(draw(st.sampled_from(FRONT_DOORS)).read_text())
    for _ in range(draw(st.integers(1, 3))):
        paths = [p for p in _paths(doc) if p]
        if not paths:
            break
        where = draw(st.sampled_from(paths))
        parent, key = _at(doc, where[:-1]), where[-1]
        edit = draw(st.sampled_from(("leaf", "copy", "delete", "double")))
        if edit == "leaf":
            parent[key] = draw(LEAVES)
        elif edit == "copy":
            parent[key] = copy.deepcopy(_at(doc, draw(st.sampled_from(paths))))
        elif edit == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key] = [parent[key], copy.deepcopy(parent[key])]
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


def _csv_for(text: str) -> str:
    """Three rows over the inputs of the parsed document: plain values, the
    other sign and bot; one Real column when it does not parse."""
    try:
        doc = parse_doc(text)
    except (ParseError, SchemaError, TypeMismatchError, CycleError):
        return "u\n1.0\n"
    cells = {
        BaseType.REAL: ("1.5", "-0.0", "bot"),
        BaseType.INT: ("2", "-3", "bot"),
        BaseType.BOOL: ("true", "false", "bot"),
    }
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow([e.name for e in doc.inputs])
    for k in range(3):
        writer.writerow([cells[e.ty][k] for e in doc.inputs])
    return out.getvalue()


@settings(max_examples=60)
@given(mutated_documents())
def test_front_door_mutated_documents_exit_cleanly(text):
    """Every command on a mutated shipped document exits 0, 2 (a parse,
    schema or type error) or 3 (a failed precondition) and raises nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        doc_path = pathlib.Path(tmp) / "doc.hbd.json"
        doc_path.write_text(text)
        csv_path = pathlib.Path(tmp) / "inputs.csv"
        csv_path.write_text(_csv_for(text))
        doc, inputs = str(doc_path), str(csv_path)
        for argv in (
            ["check", doc, "--seeds", "1", "--samples", "10"],
            ["translate", doc, "--strategy", "fbpar"],
            ["translate", doc, "--strategy", "fbless", "--mode", "recursive"],
            ["print", doc],
            ["simulate", doc, "--inputs", inputs],
            ["simulate", doc, "--inputs", inputs, "--strategy", "fbless"],
        ):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ) as err:
                code = main(argv)
            assert code in (0, 2, 3), (argv[0], code, err.getvalue(), text)
