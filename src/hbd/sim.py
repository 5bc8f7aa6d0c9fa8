"""Step simulation of diagrams.

Two executions of the same document are provided:

* ``simulate_translated`` runs the algebra term produced by a translation,
  threading state variables between steps per the state table.
* ``simulate_direct`` executes the blocks' io-diagrams (``to_io_diagrams``)
  by fixpoint iteration over wire assignments: each atom's expression
  function fires on its named inputs, and no composed term is built or
  evaluated.  It shares only the value domain and expression evaluation
  with the algebra evaluator and serves as the independent oracle for
  simulation results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .compiled import compile_term
from .errors import FixpointDivergence, SchemaError, TypeMismatchError
from .frontend import DiagramDoc, normalize, to_io_diagrams
from .io_diagrams import IoDiagram, values_close
from .semantics import BOT, DEFAULT_CONFIG, EvalConfig, eval_expr, value_kind


@dataclass
class StepRow:
    inputs: dict
    outputs: dict
    state_before: dict
    state_after: dict


@dataclass
class SimTrace:
    steps: list = field(default_factory=list)

    def column(self, name: str):
        return [s.outputs.get(name) for s in self.steps]


def initial_state(state_table) -> dict:
    return {e.state.name: e.init for e in state_table}


def _check_row(row: dict, expected_names, where: str):
    missing = set(expected_names) - set(row)
    if missing:
        raise SchemaError(f"{where}: missing inputs {sorted(missing)}")


def simulate_translated(
    diagram: IoDiagram,
    state_table,
    rows,
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> SimTrace:
    """Run the translated io-diagram for one row of external inputs per step."""
    state_names = {e.state.name for e in state_table}
    next_of = {e.next_state.name: e.state.name for e in state_table}
    ext_in = [v for v in diagram.inputs if v.name not in state_names]
    compiled = compile_term(diagram.body, cfg)
    out_index = {v.name: i for i, v in enumerate(diagram.outputs)}
    for e in state_table:
        if e.next_state.name not in out_index:
            raise SchemaError(
                f"translated diagram lost next-state variable {e.next_state.name}"
            )

    state = initial_state(state_table)
    trace = SimTrace()
    for step, row in enumerate(rows):
        _check_row(row, (v.name for v in ext_in), f"step {step}")
        values = []
        for v in diagram.inputs:
            if v.name in state:
                values.append(state[v.name])
            else:
                values.append(_typed(row[v.name], v, step))
        out = compiled.run_one(tuple(values))
        outputs = {v.name: out[i] for i, v in enumerate(diagram.outputs)}
        new_state = {
            next_of[e.next_state.name]: outputs[e.next_state.name]
            for e in state_table
        }
        trace.steps.append(
            StepRow(
                inputs={v.name: val for v, val in zip(diagram.inputs, values) if v.name not in state},
                outputs=outputs,
                state_before=dict(state),
                state_after=dict(new_state),
            )
        )
        state = new_state
    return trace


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
    all-unknown wires to the least fixpoint."""
    doc = normalize(doc)
    diagrams, _ = to_io_diagrams(doc)
    blocks = [(d.inputs, d.outputs, d.body.fn) for d in diagrams]
    all_vars = {v.name for ins, outs, _ in blocks for v in ins + outs}
    for e in doc.inputs:
        all_vars.add(e.name)
    for e in doc.outputs:
        all_vars.add(e.name)
    ext_in_names = [e.name for e in doc.inputs]

    state = initial_state(doc.state_table)
    trace = SimTrace()
    for step, row in enumerate(rows):
        _check_row(row, ext_in_names, f"step {step}")
        env = {name: BOT for name in all_vars}
        env.update(state)
        for name in ext_in_names:
            env[name] = row[name]
        cap = len(all_vars) + cfg.max_fix_iters
        for _ in range(cap):
            changed = False
            for ins, outs, fn in blocks:
                args = tuple(env[v.name] for v in ins)
                result = eval_expr(fn, args, cfg)
                for v, val in zip(outs, result):
                    if env[v.name] != val or (env[v.name] is BOT) != (val is BOT):
                        env[v.name] = val
                        changed = True
            if not changed:
                break
        else:
            raise FixpointDivergence("direct interpreter did not stabilize")
        outputs = {e.name: env[e.name] for e in doc.outputs}
        new_state = {
            e.state.name: env[e.next_state.name] for e in doc.state_table
        }
        trace.steps.append(
            StepRow(
                inputs={name: row[name] for name in ext_in_names},
                outputs=outputs,
                state_before=dict(state),
                state_after=dict(new_state),
            )
        )
        state = new_state
    return trace


def traces_match(a: SimTrace, b: SimTrace, names: Optional[list] = None) -> bool:
    """Compare two traces on the given output names (all shared names by default)."""
    if len(a.steps) != len(b.steps):
        return False
    for sa, sb in zip(a.steps, b.steps):
        keys = names if names is not None else sorted(set(sa.outputs) & set(sb.outputs))
        for k in keys:
            if not values_close(sa.outputs[k], sb.outputs[k]):
                return False
    return True
