"""Step simulation of diagrams.

Two executions of the same document are provided:

* ``simulate_translated`` runs the algebra term produced by a translation,
  threading state variables between steps per the state table.
* ``simulate_direct`` executes the atom io-diagrams of
  ``document_io_list`` (in ``flatten`` mode, so every subsystem instance is
  expanded) by fixpoint iteration over wire assignments: each atom's
  expression function fires on its named inputs, and no composed term is
  built or evaluated.  It shares only the value domain and expression
  evaluation with the algebra evaluator and serves as the independent
  oracle for simulation results, nested documents included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .compiled import compile_term
from .errors import FixpointDivergence, SchemaError, TypeMismatchError
from .frontend import DiagramDoc, document_io_list
# Not called here.  perfbench/spans.py wraps ``sim.normalize`` on every
# benchmark run, so the run fails if this name is missing.
from .frontend import normalize  # noqa: F401
from .io_diagrams import IoDiagram, values_close
from .semantics import BOT, DEFAULT_CONFIG, EvalConfig, eval_expr, same_value, value_kind


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
    """Run the translated io-diagram for one row of external inputs per step."""
    compiled = compile_term(diagram.body, cfg)
    out_names = [v.name for v in diagram.outputs]
    out_pos = {name: i for i, name in enumerate(out_names)}
    for e in state_table:
        if e.next_state.name not in out_pos:
            raise SchemaError(
                f"translated diagram lost next-state variable {e.next_state.name}"
            )
    # The state is a tuple over state_names; each diagram input reads either
    # a position of it or an external input of the row.
    state_names = [e.state.name for e in state_table]
    state_pos = {name: i for i, name in enumerate(state_names)}
    sources = [(state_pos.get(v.name), v) for v in diagram.inputs]
    ext_in = [v for pos, v in sources if pos is None]
    ext_names = {v.name for v in ext_in}
    next_pos = [out_pos[e.next_state.name] for e in state_table]

    state = tuple(e.init for e in state_table)
    trace = SimTrace()
    for step, row in enumerate(rows):
        _check_row(row, ext_names, f"step {step}")
        values = [
            _typed(row[v.name], v, step) if pos is None else state[pos] for pos, v in sources
        ]
        # _typed checked the external inputs; the state holds typed outputs
        (out,) = compiled.run([values], validate=False)
        new_state = tuple(out[i] for i in next_pos)
        trace.steps.append(
            StepRow(
                inputs={v.name: row[v.name] for v in ext_in},
                outputs=dict(zip(out_names, out)),
                state_before=dict(zip(state_names, state)),
                state_after=dict(zip(state_names, new_state)),
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

    state = initial_state(state_table)
    trace = SimTrace()
    for step, row in enumerate(rows):
        _check_row(row, ext_names, f"step {step}")
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
                    old = env[v.name]
                    if not same_value(old, val) or (old is BOT) != (val is BOT):
                        env[v.name] = val
                        changed = True
            if not changed:
                break
        else:
            raise FixpointDivergence("direct interpreter did not stabilize")
        outputs = {e.name: env[e.name] for e in doc.outputs}
        new_state = {
            e.state.name: env[e.next_state.name] for e in state_table
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
