"""Step simulation of diagrams.

Two executions of the same document are provided:

* ``simulate_translated`` runs the algebra term produced by a translation,
  threading state variables between steps per the state table: the term is
  compiled once, and each step is one call of its ``Compiled.row``
  (``simulate_compiled`` is that step loop on an already compiled term).
* ``simulate_direct`` executes the atom io-diagrams of
  ``document_io_list`` (in ``flatten`` mode, so every subsystem instance is
  expanded) by fixpoint iteration over wire assignments: each atom's
  expression function fires on its named inputs, and no composed term is
  built or evaluated.  It shares only the value domain and expression
  evaluation with the algebra evaluator and serves as the independent
  oracle for simulation results, nested documents included.

Both check every external input of a step, before the step runs, with the
same messages: ``SchemaError`` for a missing input and ``TypeMismatchError``
for a value of the wrong kind.

Both return a ``SimTrace`` recorded by column: its input, output and state
names once, then per step the tuples the loop already holds (external
inputs, outputs, next state).  The state list starts with the initial
state, so each state is stored once.  ``SimTrace.steps`` builds the
``StepRow`` dicts on first read; ``column``, ``len`` and ``traces_match``
read the tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Optional

from .compiled import Compiled, compile_term
from .errors import FixpointDivergence, SchemaError, TypeMismatchError
from .frontend import DiagramDoc, document_io_list
# Not called here.  perfbench/spans.py wraps ``sim.normalize`` on every
# benchmark run, so the run fails if this name is missing.
from .frontend import normalize  # noqa: F401
from .io_diagrams import IoDiagram, values_close
from .semantics import BOT, DEFAULT_CONFIG, EvalConfig, eval_expr, same_value, value_kind
from .types import BaseType


@dataclass
class StepRow:
    inputs: dict
    outputs: dict
    state_before: dict
    state_after: dict


class SimTrace:
    """A run of a simulator, by column.

    ``inputs[k]`` and ``outputs[k]`` are the tuples of step k over
    ``input_names`` and ``output_names``; ``states[k]`` and ``states[k+1]``
    are the state before and after step k, over ``state_names``."""

    def __init__(self, input_names, output_names, state_names, initial):
        self.input_names = tuple(input_names)
        self.output_names = tuple(output_names)
        self.state_names = tuple(state_names)
        self.inputs = []
        self.outputs = []
        self.states = [tuple(initial)]

    def __len__(self) -> int:
        return len(self.outputs)

    @cached_property
    def steps(self) -> list:
        """One ``StepRow`` per step, built on first read."""
        ins, outs, states = self.input_names, self.output_names, self.state_names
        return [
            StepRow(
                inputs=dict(zip(ins, i)),
                outputs=dict(zip(outs, o)),
                state_before=dict(zip(states, before)),
                state_after=dict(zip(states, after)),
            )
            for i, o, before, after in zip(
                self.inputs, self.outputs, self.states, self.states[1:]
            )
        ]

    def column(self, name: str) -> list:
        if name not in self.output_names:
            raise KeyError(f"trace has no output {name!r}")
        i = self.output_names.index(name)
        return [out[i] for out in self.outputs]


def _check_row(row: dict, expected_names: set, where: str):
    missing = expected_names - row.keys()
    if missing:
        raise SchemaError(f"{where}: missing inputs {sorted(missing)}")


def simulate_translated(
    diagram: IoDiagram,
    state_table,
    rows,
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> SimTrace:
    """Run the translated io-diagram for one row of external inputs per step:
    ``compile_term`` once, then ``simulate_compiled``."""
    return simulate_compiled(compile_term(diagram.body, cfg), diagram, state_table, rows)


def simulate_compiled(compiled: Compiled, diagram: IoDiagram, state_table, rows) -> SimTrace:
    """The step loop of ``simulate_translated`` on ``compiled``, the
    compiled body of ``diagram``.

    What is the same on every step is worked out once: the getters of the
    external inputs, of the diagram's inputs and of the next state, and the
    Python types the external inputs should have.  A step calls
    ``Compiled.row`` once, and runs ``_typed`` on its inputs only when a
    value is not of its expected type."""
    row_fn = compiled.row
    out_names = [v.name for v in diagram.outputs]
    out_pos = {name: i for i, name in enumerate(out_names)}
    for e in state_table:
        if e.next_state.name not in out_pos:
            raise SchemaError(
                f"translated diagram lost next-state variable {e.next_state.name}"
            )
    # Each diagram input reads a position of state + ext: the state, a tuple
    # over state_names, then the external inputs in diagram-input order.
    state_names = [e.state.name for e in state_table]
    state_pos = {name: i for i, name in enumerate(state_names)}
    ext_in = [v for v in diagram.inputs if v.name not in state_pos]
    ext_in_names = [v.name for v in ext_in]
    ext_names = set(ext_in_names)
    pos = {name: i for i, name in enumerate(state_names + ext_in_names)}
    read_ext = _getter(ext_in_names)
    gather = _getter([pos[v.name] for v in diagram.inputs])
    next_state = _getter([out_pos[e.next_state.name] for e in state_table])
    expected = tuple(_PY_TYPES[v.ty] for v in ext_in)

    state = tuple(e.init for e in state_table)
    trace = SimTrace(ext_in_names, out_names, state_names, state)
    add_ext, add_out, add_state = trace.inputs.append, trace.outputs.append, trace.states.append
    for step, row in enumerate(rows):
        if not row.keys() >= ext_names:
            _check_row(row, ext_names, f"step {step}")
        ext = read_ext(row)
        if tuple(map(type, ext)) != expected:
            for v, value in zip(ext_in, ext):
                _typed(value, v, step)
        # _typed checked the external inputs; the state holds typed outputs
        out = row_fn(None, *gather(state + ext))
        state = next_state(out)
        add_ext(ext)
        add_out(out)
        add_state(state)
    return trace


_PY_TYPES = {BaseType.BOOL: bool, BaseType.INT: int, BaseType.REAL: float}


def _getter(keys):
    """``itemgetter`` over ``keys`` that always returns a tuple."""
    if not keys:
        return lambda _: ()
    if len(keys) == 1:
        (key,) = keys
        return lambda x: (x[key],)
    return itemgetter(*keys)


def _typed(value, var, step):
    kind = value_kind(value)
    if kind is not None and kind is not var.ty:
        raise TypeMismatchError(
            f"step {step}: input {var.name} expects {var.ty}, got {value!r}"
        )
    return value


def simulate_direct(
    doc: DiagramDoc, rows, cfg: EvalConfig = DEFAULT_CONFIG
) -> SimTrace:
    """Execute the wire graph directly: per step, iterate block firings from
    all-unknown wires to the least fixpoint.  The state runs over the whole
    state table, the instances' states included."""
    diagrams, state_table, doc = document_io_list(doc)
    blocks = [(d.inputs, d.outputs, d.body.fn) for d in diagrams]
    all_vars = {v.name for ins, outs, _ in blocks for v in ins + outs}
    for e in doc.inputs:
        all_vars.add(e.name)
    for e in doc.outputs:
        all_vars.add(e.name)
    ext_in_names = [e.name for e in doc.inputs]
    ext_names = set(ext_in_names)
    out_names = [e.name for e in doc.outputs]
    state_names = [e.state.name for e in state_table]

    state = tuple(e.init for e in state_table)
    trace = SimTrace(ext_in_names, out_names, state_names, state)
    for step, row in enumerate(rows):
        _check_row(row, ext_names, f"step {step}")
        env = {name: BOT for name in all_vars}
        env.update(zip(state_names, state))
        for e in doc.inputs:
            env[e.name] = _typed(row[e.name], e, step)
        cap = len(all_vars) + cfg.max_fix_iters
        for _ in range(cap):
            changed = False
            for ins, outs, fn in blocks:
                args = tuple(env[v.name] for v in ins)
                result = eval_expr(fn, args, cfg)
                for v, val in zip(outs, result):
                    old = env[v.name]
                    if not same_value(old, val) or (old is BOT) != (val is BOT):
                        env[v.name] = val
                        changed = True
            if not changed:
                break
        else:
            raise FixpointDivergence("direct interpreter did not stabilize")
        state = tuple(env[e.next_state.name] for e in state_table)
        trace.inputs.append(tuple(row[name] for name in ext_in_names))
        trace.outputs.append(tuple(env[name] for name in out_names))
        trace.states.append(state)
    return trace


def traces_match(a: SimTrace, b: SimTrace, names: Optional[list] = None) -> bool:
    """Compare two traces on the given output names (all shared names by
    default).  Traces that record outputs but share none of their names do
    not match."""
    if len(a) != len(b):
        return False
    if names is None:
        names = sorted(set(a.output_names) & set(b.output_names))
        if not names and (a.output_names or b.output_names):
            return False
    return all(
        values_close(x, y) for k in names for x, y in zip(a.column(k), b.column(k))
    )
