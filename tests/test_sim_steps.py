"""The step loop of ``simulate_translated``: its refusals and messages, the
rows it accepts, and its traces against the one-``Compiled.run``-per-step
oracle and the direct interpreter."""

import dataclasses
import enum
import json
import pathlib
import random

import pytest

from hbd.errors import SchemaError, TypeMismatchError
from hbd.frontend import FbLess, flatten_or_recurse, parse_doc
from hbd.gen import random_diagram
from hbd.semantics import BOT
from hbd.sim import SimTrace, simulate_direct, simulate_translated, traces_match
from hbd.translator import FeedbackParallel, Incremental, RandomChoices
from hbd.types import BaseType, Var

from util import (
    DIFF_DOC,
    FANOUT_DOC,
    LATCH,
    SUB_DOC,
    TWINS_DOC,
    simulate_translated_oracle,
)

NESTED = pathlib.Path(__file__).resolve().parent.parent / "diagrams" / "nested.hbd.json"
METHODS = {
    "fbpar": FeedbackParallel(),
    "incr": Incremental(),
    "rand5": RandomChoices(5),
    "fbless": FbLess(),
}

# One input of each kind: v accumulates u through a UnitDelay while c holds
# and passes u otherwise, and m is 3 * n.
MIXED = {
    "version": 1,
    "name": "mixed",
    "inputs": [
        {"name": "u", "type": "Real", "to": ["Add.b", "S.e"]},
        {"name": "n", "type": "Int", "to": "G.a"},
        {"name": "c", "type": "Bool", "to": "S.c"},
    ],
    "outputs": [
        {"name": "v", "type": "Real", "from": "S.out"},
        {"name": "m", "type": "Int", "from": "G.out"},
    ],
    "blocks": [
        {"id": "Add", "kind": "Add"},
        {"id": "D", "kind": "UnitDelay", "params": {"init": 0.0}},
        {"id": "G", "kind": "Gain", "params": {"k": 3, "type": "Int"}},
        {"id": "S", "kind": "SwitchBlk"},
    ],
    "wires": [
        {"from": "Add.out", "to": "D.x"},
        {"from": "D.y", "to": "Add.a"},
        {"from": "D.y", "to": "S.t"},
    ],
}

CONSTANT = {
    "version": 1,
    "name": "constant",
    "inputs": [],
    "outputs": [{"name": "y", "type": "Real", "from": "D.y"}],
    "blocks": [
        {"id": "K", "kind": "Constant", "params": {"value": 2.5}},
        {"id": "Add", "kind": "Add"},
        {"id": "D", "kind": "UnitDelay", "params": {"init": 0.0}},
    ],
    "wires": [
        {"from": "K.out", "to": "Add.b"},
        {"from": "Add.out", "to": "D.x"},
        {"from": "D.y", "to": "Add.a"},
    ],
}

GOOD = {"u": 1.0, "n": 2, "c": True}


class Level(enum.IntEnum):
    HIGH = 4


def outcome(simulate, *args):
    """The steps of a run by ``repr`` (so kind, NaN and the sign of zero
    count), or the type and message of what it raised."""
    try:
        return repr(simulate(*args).steps)
    except Exception as exc:  # noqa: BLE001 -- the outcome is compared
        return type(exc), str(exc)


def translations(doc, modes=("flatten",), methods=METHODS):
    for mode in modes:
        for label, method in methods.items():
            yield (mode, label), flatten_or_recurse(doc, mode, method)


@pytest.fixture(scope="module")
def mixed():
    return parse_doc(json.dumps(MIXED))


REFUSALS = [
    ({"u": 1.0, "c": True}, SchemaError, "step 1: missing inputs ['n']"),
    ({"c": True}, SchemaError, "step 1: missing inputs ['n', 'u']"),
    ({**GOOD, "u": 1}, TypeMismatchError, "step 1: input u expects Real, got 1"),
    ({**GOOD, "u": True}, TypeMismatchError, "step 1: input u expects Real, got True"),
    ({**GOOD, "n": True}, TypeMismatchError, "step 1: input n expects Int, got True"),
    ({**GOOD, "n": 2.0}, TypeMismatchError, "step 1: input n expects Int, got 2.0"),
    ({**GOOD, "c": 1}, TypeMismatchError, "step 1: input c expects Bool, got 1"),
    ({**GOOD, "u": "1.0"}, TypeMismatchError, "not a value: '1.0'"),
]


@pytest.mark.parametrize("bad, error, message", REFUSALS)
def test_refusals_keep_type_and_message(mixed, bad, error, message):
    """A bad row at step 1, after a good one: every translation, the oracle
    and the direct interpreter raise the same error before the step runs."""
    rows = [GOOD, bad, GOOD]
    for key, result in translations(mixed):
        for simulate in (simulate_translated, simulate_translated_oracle):
            with pytest.raises(error) as exc:
                simulate(result.diagram, result.state_table, rows)
            assert str(exc.value) == message, (key, simulate.__name__)
    with pytest.raises(error) as exc:
        simulate_direct(mixed, rows)
    assert str(exc.value) == message


def test_direct_refuses_a_wrong_kind_before_any_block_fires(mixed):
    """The direct interpreter checks every external input per step, with
    the translated simulator's message, before the block that reads it can
    refuse it with a message of its own and no step number."""
    rows = [GOOD, {**GOOD, "n": 2.5}]
    result = flatten_or_recurse(mixed, "flatten", Incremental())
    errors = []
    for run in (
        lambda: simulate_translated(result.diagram, result.state_table, rows),
        lambda: simulate_direct(mixed, rows),
        lambda: simulate_direct(result.doc, rows),
    ):
        with pytest.raises(TypeMismatchError) as exc:
            run()
        errors.append(str(exc.value))
    assert errors == ["step 1: input n expects Int, got 2.5"] * 3


def test_lost_next_state_variable_is_refused(mixed):
    result = flatten_or_recurse(mixed, "flatten", Incremental())
    (entry,) = result.state_table
    lost = [dataclasses.replace(entry, next_state=Var("gone", entry.next_state.ty))]
    for simulate in (simulate_translated, simulate_translated_oracle):
        with pytest.raises(SchemaError, match="^translated diagram lost next-state variable gone$"):
            simulate(result.diagram, lost, [GOOD])


def test_what_must_pass(mixed):
    """Bot and NaN inputs, an IntEnum for an Int input, zero steps and rows
    handed over as a generator all run, like the oracle and the direct
    interpreter."""
    nan = float("nan")
    rows = [
        GOOD,
        {"u": BOT, "n": BOT, "c": BOT},
        {"u": nan, "n": Level.HIGH, "c": False},
        {"u": -0.0, "n": 2**80, "c": True},
        {"u": float("inf"), "n": -7, "c": True},
    ]
    for key, result in translations(mixed):
        args = (result.diagram, result.state_table)
        trace = simulate_translated(*args, rows)
        assert repr(trace.steps) == repr(simulate_translated_oracle(*args, rows).steps), key
        assert traces_match(trace, simulate_direct(mixed, rows)), key
        assert trace.column("m") == [6, BOT, 12, 3 * 2**80, -21]
        assert trace.steps[2].inputs["n"] is Level.HIGH
        v = trace.column("v")
        assert v[1] is BOT and v[2] != v[2], key
        again = simulate_translated(*args, (dict(row) for row in rows))
        assert repr(again.steps) == repr(trace.steps), key
        assert simulate_translated(*args, []).steps == []
        assert simulate_translated(*args, iter(())).steps == []


def test_document_without_external_inputs():
    doc = parse_doc(json.dumps(CONSTANT))
    rows = [{}, {"extra": 1}, {}]
    for key, result in translations(doc):
        trace = simulate_translated(result.diagram, result.state_table, rows)
        assert trace.column("y") == [0.0, 2.5, 5.0], key
        assert [s.inputs for s in trace.steps] == [{}, {}, {}]
        want = simulate_translated_oracle(result.diagram, result.state_table, rows)
        assert repr(trace.steps) == repr(want.steps), key
    assert simulate_direct(doc, rows).column("y") == [0.0, 2.5, 5.0]


def _traces(doc, rows):
    """The direct interpreter's trace and every translation's trace of
    ``doc`` on ``rows``."""
    yield "direct", simulate_direct(doc, rows)
    for key, result in translations(doc):
        yield key, simulate_translated(result.diagram, result.state_table, rows)


@pytest.mark.parametrize("spec", [MIXED, CONSTANT, SUB_DOC], ids=lambda d: d["name"])
@pytest.mark.parametrize("steps", [0, 1, 4])
def test_columns_agree_with_the_materialised_steps(spec, steps):
    """``len``, ``column`` and the input, output and state tuples of both
    simulators read, by ``repr``, what their ``StepRow``s hold; each state
    is stored once, the initial one first."""
    doc = parse_doc(json.dumps(spec))
    rows = _rows(random.Random(f"columns/{spec['name']}"), doc, steps)
    for key, trace in _traces(doc, rows):
        materialised = trace.steps
        assert trace.steps is materialised, key  # built once
        assert len(trace) == len(materialised) == steps, key
        assert len(trace.states) == steps + 1, key
        for name in trace.output_names:
            assert repr(trace.column(name)) == repr([s.outputs[name] for s in materialised]), key
        pairs = (
            (trace.input_names, trace.inputs, [s.inputs for s in materialised]),
            (trace.output_names, trace.outputs, [s.outputs for s in materialised]),
            (trace.state_names, trace.states[:-1], [s.state_before for s in materialised]),
            (trace.state_names, trace.states[1:], [s.state_after for s in materialised]),
        )
        for names, tuples, dicts in pairs:
            assert repr([dict(zip(names, t)) for t in tuples]) == repr(dicts), key
        assert [len(t) for t in trace.states] == [len(trace.state_names)] * (steps + 1), key


def test_column_of_an_unknown_output_raises(mixed):
    for key, trace in _traces(mixed, [GOOD]):
        with pytest.raises(KeyError, match="no output 'w'"):
            trace.column("w")
        assert trace.column("m") == [6], key


def _one_step(output_names, outputs):
    trace = SimTrace(("u",), output_names, (), ())
    trace.inputs.append((1.0,))
    trace.outputs.append(outputs)
    trace.states.append(())
    return trace


def test_traces_sharing_no_output_name_do_not_match():
    y, z = _one_step(("y",), (1.0,)), _one_step(("z",), (1.0,))
    assert not traces_match(y, z)
    assert not traces_match(y, _one_step((), ()))
    assert traces_match(_one_step((), ()), _one_step((), ()))
    assert traces_match(y, _one_step(("z", "y"), (0.0, 1.0)))
    assert not traces_match(y, _one_step(("z", "y"), (0.0, 2.0)))
    assert traces_match(y, z, names=[])
    with pytest.raises(KeyError, match="no output 'y'"):
        traces_match(y, z, names=["y"])


def _rows(rng, doc, steps):
    """Rows over ``doc``'s inputs that mix in bot, NaN, infinities and both
    zeros."""
    pools = {
        BaseType.REAL: (0.0, -0.0, 1.5, -2.0, 3.0, float("nan"), float("inf"), BOT),
        BaseType.INT: (0, 1, -3, 2**80, BOT),
        BaseType.BOOL: (True, False, BOT),
    }
    return [{e.name: rng.choice(pools[e.ty]) for e in doc.inputs} for _ in range(steps)]


def _cases(corpus_docs):
    """(name, document, modes, methods) of the oracle comparison."""
    delayed = [d for d in corpus_docs if any(b.kind == "UnitDelay" for b in d.blocks)]
    assert len(delayed) == 28
    for doc in delayed:
        yield doc.name, doc, ("flatten",), METHODS
    for spec in (SUB_DOC, TWINS_DOC, FANOUT_DOC, DIFF_DOC):
        yield spec["name"], parse_doc(json.dumps(spec)), ("flatten", "recursive"), METHODS
    yield "nested", parse_doc(NESTED.read_bytes()), ("flatten", "recursive"), METHODS
    latch = {k: v for k, v in METHODS.items() if k != "fbless"}  # an algebraic loop
    yield "latch", parse_doc(json.dumps(LATCH)), ("flatten",), latch
    fbpar = {"fbpar": METHODS["fbpar"]}
    yield "random-100", random_diagram(7, 100, 100), ("flatten",), fbpar


def test_steps_equal_the_oracle_by_repr(corpus_docs):
    """Every translation of every case steps exactly like the loop of one
    ``Compiled.run`` call per step, on rows that mix in bot, NaN and both
    zeros; the latch's towers among them stop at the cap."""
    rng = random.Random(19)
    checked = 0
    for name, doc, modes, methods in _cases(corpus_docs):
        rows = _rows(rng, doc, 30)
        for key, result in translations(doc, modes, methods):
            args = (result.diagram, result.state_table, rows)
            got = outcome(simulate_translated, *args)
            assert isinstance(got, str), (name, key, got)
            assert got == outcome(simulate_translated_oracle, *args), (name, key)
            checked += 1
    assert checked == 28 * 4 + 5 * 2 * 4 + 3 + 1


def test_bot_survives_pickling_and_copying(mixed):
    """``BOT`` is compared by identity, so a pickled or deep-copied trace
    must give back ``BOT`` itself in its unknown cells."""
    import copy
    import pickle

    assert pickle.loads(pickle.dumps(BOT)) is BOT
    assert copy.deepcopy(BOT) is BOT
    result = flatten_or_recurse(mixed, "flatten", Incremental())
    rows = [{"u": BOT, "c": True, "n": 2}, {"u": 1.0, "c": False, "n": BOT}]
    trace = simulate_translated(result.diagram, result.state_table, rows)
    assert any(v is BOT for out in trace.outputs for v in out)
    for back in (pickle.loads(pickle.dumps(trace)), copy.deepcopy(trace)):
        assert back.outputs == trace.outputs  # a cell equals BOT only if it is BOT
