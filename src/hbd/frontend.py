"""Diagram ingestion: the ``.hbd.json`` document model, validation,
normalization (fan-out splitting, wire naming, state-variable introduction),
the block library, and translation entry points for whole documents.

Schema (version 1):

    { "version": 1, "name": str,
      "inputs":  [{"name": str, "type": "Real|Int|Bool", "to": port | [port...]}],
      "outputs": [{"name": str, "type": ..., "from": port}],
      "blocks":  [{"id": str, "kind": str, "params": {...}}],
      "wires":   [{"from": "Blk.port", "to": "Blk.port"}],
      "subsystems": {name: document} }

Unknown fields and values of the wrong JSON type are rejected.  A block id
may not contain ``/``, which separates the instance path of an expanded
subsystem block (``S1/Sum``).  Every wire has one source and one target;
fan-out is expressed by several wires sharing a source and is normalized
into chains of binary split blocks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

from .errors import (
    CycleError,
    DanglingPortError,
    ParseError,
    PreconditionError,
    SchemaError,
    TypeMismatchError,
)
from .exprs import Bin, ExprFun, Ite, Lit, Ref, Un, fmt_expr, lit_kind
from .feedbackless import fbless_translate, split_block
from .io_diagrams import IoDiagram
from .terms import Atom
from .translator import Incremental, translate
from .types import BaseType, Var, base_type


# -- block library -------------------------------------------------------------

@dataclass(frozen=True)
class BlockSpec:
    """A library block: its function, the names of its output ports and the
    initial values of its states.  ``fn`` takes the input ports and then the
    states, and gives the outputs and then the next states; a state's type
    is the kind of its initial value.  ``in_ports`` and ``out_ports``
    ((name, BaseType), ...) are read from ``fn`` when the spec is built."""

    kind: str
    fn: ExprFun
    out_names: tuple
    inits: tuple = ()
    in_ports: tuple = field(init=False, repr=False, compare=False)
    out_ports: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ins = self.fn.params[: len(self.fn.params) - len(self.inits)]
        object.__setattr__(self, "in_ports", tuple((p.name, p.ty) for p in ins))
        object.__setattr__(self, "out_ports", tuple(zip(self.out_names, self.fn.out_kinds)))


def _num_type(params) -> BaseType:
    t = base_type(params.get("type", "Real"))
    if t == BaseType.BOOL:
        raise SchemaError("numeric block cannot have type Bool")
    return t


def _coerce(value, ty: Optional[BaseType] = None):
    """A block parameter as a finite literal, of type ``ty`` when given."""
    if ty == BaseType.REAL and isinstance(value, int) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            raise SchemaError(f"parameter {value!r} is not a finite number") from None
    if ty is not None and lit_kind(value) != ty:
        raise SchemaError(f"parameter {value!r} does not have type {ty}")
    if isinstance(value, float) and not math.isfinite(value):
        raise SchemaError(f"parameter {value!r} is not a finite number")
    return value


def _binop_spec(kind: str, op: str, operand: Optional[BaseType] = None):
    """A block ``out = a op b`` over operands of type ``operand``, or of the
    numeric type its parameters give."""

    def make(params):
        t = operand or _num_type(params)
        fn = ExprFun((Var("a", t), Var("b", t)), (Bin(op, Ref("a"), Ref("b")),))
        return BlockSpec(kind, fn, ("out",))

    return make


def _make_gain(params):
    t = _num_type(params)
    if "k" not in params:
        raise SchemaError("Gain requires parameter k")
    k = _coerce(params["k"], t)
    return BlockSpec("Gain", ExprFun((Var("a", t),), (Bin("*", Lit(k), Ref("a")),)), ("out",))


def _make_constant(params):
    if "value" not in params:
        raise SchemaError("Constant requires parameter value")
    ty = base_type(params["type"]) if "type" in params else None
    value = _coerce(params["value"], ty)
    return BlockSpec("Constant", ExprFun((), (Lit(value),)), ("out",))


def _make_delay(params):
    ty = base_type(params["type"]) if "type" in params else None
    init = _coerce(params.get("init", 0.0), ty)
    t = lit_kind(init)
    fn = ExprFun((Var("x", t), Var("s", t)), (Ref("s"), Ref("x")))
    return BlockSpec("UnitDelay", fn, ("y",), (init,))


def _make_splitblk(params):
    t = base_type(params.get("type", "Real"))
    return BlockSpec("SplitBlk", ExprFun((Var("x", t),), (Ref("x"), Ref("x"))), ("out1", "out2"))


def _make_identity(params):
    t = base_type(params.get("type", "Real"))
    return BlockSpec("Identity", ExprFun((Var("x", t),), (Ref("x"),)), ("out",))


def _make_not(params):
    fn = ExprFun((Var("a", BaseType.BOOL),), (Un("not", Ref("a")),))
    return BlockSpec("LogicalNot", fn, ("out",))


def _make_switchblk(params):
    t = base_type(params.get("type", "Real"))
    fn = ExprFun(
        (Var("c", BaseType.BOOL), Var("t", t), Var("e", t)),
        (Ite(Ref("c"), Ref("t"), Ref("e")),),
    )
    return BlockSpec("SwitchBlk", fn, ("out",))


LIBRARY = {
    "Add": _binop_spec("Add", "+"),
    "Sub": _binop_spec("Sub", "-"),
    "Min": _binop_spec("Min", "min"),
    "Max": _binop_spec("Max", "max"),
    "Div": _binop_spec("Div", "/"),
    "Mul": _binop_spec("Mul", "*"),
    "Relational": _binop_spec("Relational", "<"),
    "LogicalAnd": _binop_spec("LogicalAnd", "and", BaseType.BOOL),
    "LogicalOr": _binop_spec("LogicalOr", "or", BaseType.BOOL),
    "LogicalNot": _make_not,
    "Gain": _make_gain,
    "Constant": _make_constant,
    "UnitDelay": _make_delay,
    "SplitBlk": _make_splitblk,
    "Identity": _make_identity,
    "SwitchBlk": _make_switchblk,
}


def block_spec(kind: str, params: dict) -> BlockSpec:
    if kind not in LIBRARY:
        raise SchemaError(f"unknown block kind {kind!r}")
    return LIBRARY[kind](params or {})


# -- document model ------------------------------------------------------------

class PortRef(NamedTuple):
    block: str
    port: str

    def __str__(self):
        return f"{self.block}.{self.port}"


@dataclass(frozen=True)
class BlockInst:
    id: str
    kind: str
    params: tuple = ()  # sorted ((key, value), ...), hashable

    @property
    def params_dict(self) -> dict:
        return dict(self.params)


@dataclass(frozen=True)
class WireDecl:
    src: PortRef
    dst: PortRef


@dataclass(frozen=True)
class ExtIn:
    name: str
    ty: BaseType
    targets: tuple  # (PortRef, ...)


@dataclass(frozen=True)
class ExtOut:
    name: str
    ty: BaseType
    source: PortRef


@dataclass(frozen=True)
class StateEntry:
    block_id: str
    state: Var
    next_state: Var
    init: object


@dataclass
class DiagramDoc:
    name: str
    inputs: list
    outputs: list
    blocks: list
    wires: list
    subsystems: dict = field(default_factory=dict)
    # set by check_tree() once the whole tree passes, and extended by
    # normalize() with the split blocks:
    specs: Optional[dict] = None  # block id -> BlockSpec, None for an instance
    # set by normalize():
    interfaces: Optional[dict] = None  # block id -> (input Vars, output Vars)
    state_table: Optional[list] = None  # [StateEntry]

    @property
    def normalized(self) -> bool:
        return self.interfaces is not None


class _NameGen:
    """Fresh wire, state and split-block names for one document tree."""

    def __init__(self, doc: DiagramDoc):
        self.reserved = {e.name for e in doc.inputs} | {e.name for e in doc.outputs}
        # a normalized document has named its wires and states already
        for ins, outs in (doc.interfaces or {}).values():
            self.reserved.update(v.name for v in ins + outs)
        self.block_ids = set()  # of every document in the tree, which split ids skip
        todo, seen = [doc], set()
        while todo:
            d = todo.pop()
            if id(d) not in seen:
                seen.add(id(d))
                self.block_ids.update(b.id for b in d.blocks)
                todo.extend(d.subsystems.values())
        self.wire_n = 0
        self.state_n = 0
        self.split_n = 0

    def wire(self) -> str:
        while True:
            self.wire_n += 1
            name = f"w{self.wire_n}"
            if name not in self.reserved:
                self.reserved.add(name)
                return name

    def split(self) -> str:
        while True:
            self.split_n += 1
            name = f"__split{self.split_n}"
            if name not in self.block_ids:
                return name

    def state(self):
        while True:
            self.state_n += 1
            cur, nxt = f"s{self.state_n}", f"s{self.state_n}'"
            if cur not in self.reserved and nxt not in self.reserved:
                self.reserved.update((cur, nxt))
                return cur, nxt


def _parse_port(text, where: str) -> PortRef:
    if not isinstance(text, str) or text.count(".") != 1:
        raise SchemaError(f"{where}: port reference must look like 'Block.port', got {text!r}")
    blk, port = text.split(".")
    if not blk or not port:
        raise SchemaError(f"{where}: malformed port reference {text!r}")
    return PortRef(blk, port)


_JSON_NAMES = {
    dict: "an object",
    list: "a list",
    str: "a string",
    int: "an integer",
    (str, list): "a string or a list",
}


def _record(raw, where: str, required: dict, optional: dict = {}) -> None:
    """``raw`` checked as a JSON object whose fields map to the given types:
    no unknown field, no required one missing, each value of its type.  No
    field is a bool, and a bool is no integer, though Python makes it one."""
    if not isinstance(raw, dict):
        raise SchemaError(f"{where} must be an object, got {raw!r}")
    fields = {**required, **optional}
    unknown = set(raw) - set(fields)
    if unknown:
        raise SchemaError(f"{where}: unknown fields {sorted(unknown)}")
    if not set(required) <= set(raw):
        raise SchemaError(f"{where}: {', '.join(required)} are required")
    for key, value in raw.items():
        if not isinstance(value, fields[key]) or isinstance(value, bool):
            raise SchemaError(f"{where}.{key} must be {_JSON_NAMES[fields[key]]}, got {value!r}")


def parse_doc(data) -> DiagramDoc:
    """Parse bytes, text or an already-loaded JSON object into a document
    tree checked by ``check_tree``.  A document nested too deeply for the
    recursive walks is a ParseError."""
    try:
        doc = _parse_raw(data)
        check_tree(doc)
    except RecursionError:
        raise ParseError("document nests too deeply") from None
    return doc


def _parse_raw(data) -> DiagramDoc:
    if isinstance(data, (bytes, str)):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("document must be a JSON object")
    _record(data, "document", {}, {
        "version": int, "name": str, "inputs": list, "outputs": list,
        "blocks": list, "wires": list, "subsystems": dict,
    })
    if data.get("version") != 1:
        raise SchemaError(f"unsupported version {data.get('version')!r}")
    name = data.get("name", "diagram")

    subsystems = {key: _parse_raw(sub) for key, sub in data.get("subsystems", {}).items()}

    blocks = []
    seen_ids = set()
    for i, raw in enumerate(data.get("blocks", [])):
        _record(raw, f"blocks[{i}]", {"id": str, "kind": str}, {"params": dict})
        if raw["id"] in seen_ids:
            raise SchemaError(f"duplicate block id {raw['id']!r}")
        if "/" in raw["id"]:
            raise SchemaError(f"block id {raw['id']!r}: '/' separates instance paths")
        seen_ids.add(raw["id"])
        params = tuple(sorted(raw.get("params", {}).items()))
        blocks.append(BlockInst(raw["id"], raw["kind"], params))

    wires = []
    for i, raw in enumerate(data.get("wires", [])):
        _record(raw, f"wires[{i}]", {"from": str, "to": str})
        wires.append(
            WireDecl(
                _parse_port(raw["from"], f"wires[{i}].from"),
                _parse_port(raw["to"], f"wires[{i}].to"),
            )
        )

    inputs = []
    for i, raw in enumerate(data.get("inputs", [])):
        _record(raw, f"inputs[{i}]", {"name": str, "type": str, "to": (str, list)})
        to = raw["to"] if isinstance(raw["to"], list) else [raw["to"]]
        if not to:
            raise SchemaError(f"inputs[{i}]: input {raw['name']!r} is not connected")
        targets = tuple(_parse_port(t, f"inputs[{i}].to") for t in to)
        inputs.append(ExtIn(raw["name"], base_type(raw["type"]), targets))

    outputs = []
    for i, raw in enumerate(data.get("outputs", [])):
        _record(raw, f"outputs[{i}]", {"name": str, "type": str, "from": str})
        outputs.append(
            ExtOut(
                raw["name"],
                base_type(raw["type"]),
                _parse_port(raw["from"], f"outputs[{i}].from"),
            )
        )

    return DiagramDoc(name, inputs, outputs, blocks, wires, subsystems)


def check_tree(doc: DiagramDoc) -> None:
    """Check a document tree: resolve its subsystem tables, look for cyclic
    instantiation, then validate its documents in preorder.  The documents
    keep their spec maps only once all pass, so ``doc.specs is None`` means
    the tree is not checked.

    A table ends as its document's own entries plus the inherited kinds its
    blocks instantiate, looked up in one stack of definitions per kind (own
    entries win).  An entry already innermost for its kind is an inherited
    one, so a table resolved twice names the same documents."""
    scope, docs, seen = {}, [], set()

    def resolve(d: DiagramDoc) -> None:
        if id(d) in seen:
            return
        seen.add(id(d))
        docs.append(d)
        own = [(k, s) for k, s in d.subsystems.items() if (scope.get(k) or [None])[-1] is not s]
        for kind, sub in own:
            scope.setdefault(kind, []).append(sub)
        used = {
            b.kind: scope[b.kind][-1]
            for b in d.blocks
            if b.kind not in d.subsystems and scope.get(b.kind)
        }
        d.subsystems = {**d.subsystems, **used}
        for _, sub in own:
            resolve(sub)
        for kind, _ in own:
            scope[kind].pop()

    resolve(doc)
    check_subsystem_cycles(doc)
    specs = [validate_doc(d) for d in docs]
    for d, spec_map in zip(docs, specs):
        d.specs = spec_map


def check_subsystem_cycles(doc: DiagramDoc, _kinds=None, _path=None, _done=None) -> None:
    """Raise CycleError when a subsystem (transitively) instantiates itself.

    The walk follows each instance to the document its kind names in the
    instantiating document's table, so a subsystem may define its own
    subsystem of the same name.  ``_path`` holds the ids of the documents
    instantiated on the way from the root and ``_kinds`` their kinds, and
    ``_done`` the ids of the documents searched, so each is searched once."""
    if _done is None:
        _kinds, _path, _done = [], set(), set()
    for blk in doc.blocks:
        sub = doc.subsystems.get(blk.kind)
        if sub is None or id(sub) in _done:
            continue
        _kinds.append(blk.kind)
        if id(sub) in _path:
            raise CycleError(f"cyclic subsystem instantiation: {' -> '.join(_kinds)}")
        _path.add(id(sub))
        check_subsystem_cycles(sub, _kinds, _path, _done)
        _path.discard(id(sub))
        _kinds.pop()
    _done.add(id(doc))


def _port_tables(doc: DiagramDoc, specs: dict):
    """Per block: in-port and out-port name -> type maps."""
    ins, outs = {}, {}
    for blk in doc.blocks:
        spec = specs[blk.id]
        if spec is None:
            sub = doc.subsystems[blk.kind]
            ins[blk.id] = {e.name: e.ty for e in sub.inputs}
            outs[blk.id] = {e.name: e.ty for e in sub.outputs}
        else:
            ins[blk.id] = dict(spec.in_ports)
            outs[blk.id] = dict(spec.out_ports)
    return ins, outs


def validate_doc(doc: DiagramDoc) -> dict:
    """Check a document's ports, types and drivers against its block specs,
    and return the specs (block id -> BlockSpec, None for a subsystem
    instance).  A map set before the call, as the random generator sets one,
    is checked against, not rebuilt."""
    specs = doc.specs
    if specs is None:
        specs = {
            blk.id: None if blk.kind in doc.subsystems else block_spec(blk.kind, blk.params_dict)
            for blk in doc.blocks
        }
    ins, outs = _port_tables(doc, specs)

    def in_type(ref: PortRef, where: str) -> BaseType:
        if ref.block not in ins or ref.port not in ins[ref.block]:
            raise DanglingPortError(f"{where}: no input port {ref}")
        return ins[ref.block][ref.port]

    def out_type(ref: PortRef, where: str) -> BaseType:
        if ref.block not in outs or ref.port not in outs[ref.block]:
            raise DanglingPortError(f"{where}: no output port {ref}")
        return outs[ref.block][ref.port]

    ext_names = [e.name for e in doc.inputs] + [e.name for e in doc.outputs]
    if len(set(ext_names)) != len(ext_names):
        raise SchemaError(f"external port names must be distinct: {ext_names}")

    drivers: dict = {}

    def claim(dst: PortRef, src_desc: str):
        if dst in drivers:
            raise SchemaError(
                f"port {dst} has two sources: {drivers[dst]} and {src_desc}"
            )
        drivers[dst] = src_desc

    for w in doc.wires:
        ts = out_type(w.src, "wire")
        td = in_type(w.dst, "wire")
        if ts != td:
            raise TypeMismatchError(f"wire {w.src} -> {w.dst}: {ts} vs {td}")
        claim(w.dst, str(w.src))
    for e in doc.inputs:
        for t in e.targets:
            td = in_type(t, f"input {e.name}")
            if td != e.ty:
                raise TypeMismatchError(f"input {e.name}: {e.ty} vs port {t}: {td}")
            claim(t, f"input {e.name}")
    for e in doc.outputs:
        ts = out_type(e.source, f"output {e.name}")
        if ts != e.ty:
            raise TypeMismatchError(f"output {e.name}: {e.ty} vs port {e.source}: {ts}")

    for blk in doc.blocks:
        for port in ins[blk.id]:
            ref = PortRef(blk.id, port)
            if ref not in drivers:
                raise DanglingPortError(f"input port {ref} is not connected")
    return specs


def normalize(doc: DiagramDoc, names: Optional[_NameGen] = None) -> DiagramDoc:
    """Insert split blocks for fan-out, name every wire, and introduce
    state-variable pairs for stateful blocks.  Idempotent.

    Every block, split blocks and subsystem instances included, gets its
    interface in ``interfaces``: input and output Vars, ports first in their
    declared order and the state pair last.  ``specs`` is the map validation
    built, plus one split spec per wire type; a tree not checked yet is
    checked first (``check_tree``)."""
    if doc.normalized:
        return doc
    if doc.specs is None:
        check_tree(doc)
    specs = dict(doc.specs)
    ins_t, outs_t = _port_tables(doc, specs)
    if names is None:
        names = _NameGen(doc)

    # driver -> consumers, in document order (wires first, then outputs)
    consumers: dict = {}
    for w in doc.wires:
        consumers.setdefault(w.src, []).append(("port", w.dst))
    for e in doc.outputs:
        consumers.setdefault(e.source, []).append(("ext", e))

    blocks = list(doc.blocks)
    port_var: dict = {}  # PortRef -> Var; a block's in- and out-port names differ
    interfaces: dict = {}
    split_specs: dict = {}  # wire type -> the SplitBlk spec

    def consumer_var(cons) -> Var:
        kind, payload = cons
        if kind == "ext":
            return Var(payload.name, payload.ty)
        var = Var(names.wire(), ins_t[payload.block][payload.port])
        port_var[payload] = var
        return var

    def spread(src_var: Var, ty: BaseType, conss) -> None:
        """Wire one driver value to its consumers through a binary split chain."""
        current = src_var
        remaining = list(conss)
        while len(remaining) > 1:
            sid = names.split()
            blocks.append(BlockInst(sid, "SplitBlk", (("type", ty),)))
            if ty not in split_specs:
                split_specs[ty] = block_spec("SplitBlk", {"type": ty})
            specs[sid] = split_specs[ty]
            left = consumer_var(remaining[0])
            if len(remaining) == 2:
                right = consumer_var(remaining[1])
                remaining = []
            else:
                right = Var(names.wire(), ty)
                remaining = remaining[1:]
            interfaces[sid] = ((current,), (left, right))
            current = right
        if remaining:  # one port: a lone external output is named before
            port_var[remaining[0][1]] = src_var

    # name outputs of blocks and route them
    for blk in doc.blocks:
        for port, ty in outs_t[blk.id].items():
            ref = PortRef(blk.id, port)
            conss = consumers.get(ref, [])
            if len(conss) == 1 and conss[0][0] == "ext":
                port_var[ref] = Var(conss[0][1].name, ty)
            else:
                port_var[ref] = var = Var(names.wire(), ty)
                spread(var, ty, conss)
    # external inputs
    for e in doc.inputs:
        spread(Var(e.name, e.ty), e.ty, [("port", t) for t in e.targets])

    # interfaces and state pairs
    state_table = []
    for blk in doc.blocks:
        ins = tuple(port_var[PortRef(blk.id, p)] for p in ins_t[blk.id])
        outs = tuple(port_var[PortRef(blk.id, p)] for p in outs_t[blk.id])
        spec = specs[blk.id]
        for init in spec.inits if spec is not None else ():
            cur, nxt = names.state()
            ty = lit_kind(init)
            entry = StateEntry(blk.id, Var(cur, ty), Var(nxt, ty), init)
            state_table.append(entry)
            ins += (entry.state,)
            outs += (entry.next_state,)
        interfaces[blk.id] = (ins, outs)

    return DiagramDoc(
        doc.name,
        doc.inputs,
        doc.outputs,
        blocks,
        doc.wires,
        doc.subsystems,
        interfaces=interfaces,
        specs=specs,
        state_table=state_table,
    )


def _atom_diagram(doc: DiagramDoc, blk: BlockInst) -> IoDiagram:
    """A normalized library block as an atom io-diagram over its wire names.
    The atom keeps its spec's function as it is: parameter k stands for
    input wire k."""
    ins, outs = doc.interfaces[blk.id]
    return IoDiagram(ins, outs, Atom(blk.id, doc.specs[blk.id].fn))


# -- hierarchy -----------------------------------------------------------------

def _prefixed(sub: DiagramDoc, prefix: str, ins, outs) -> DiagramDoc:
    """The subsystem as one instance sees it: ``prefix`` before every block
    id it declares or refers to, and its external names replaced by the
    instance's port variables ``ins`` and ``outs`` (in declared order).
    Every instance re-keys its subsystem's one spec map."""

    def ref(port: PortRef) -> PortRef:
        return PortRef(prefix + port.block, port.port)

    return DiagramDoc(
        sub.name,
        [ExtIn(v.name, e.ty, tuple(map(ref, e.targets))) for e, v in zip(sub.inputs, ins)],
        [ExtOut(v.name, e.ty, ref(e.source)) for e, v in zip(sub.outputs, outs)],
        [replace(b, id=prefix + b.id) for b in sub.blocks],
        [WireDecl(ref(w.src), ref(w.dst)) for w in sub.wires],
        sub.subsystems,
        specs={prefix + bid: spec for bid, spec in sub.specs.items()},
    )


# -- document-level translation --------------------------------------------------

@dataclass(frozen=True)
class FbLess:
    """Strategy marker selecting the feedbackless translation, in topological order."""


@dataclass
class TranslationResult:
    diagram: IoDiagram
    state_table: list
    doc: DiagramDoc  # the normalized top-level document; instances stay blocks


def _translate_list(diagrams, method) -> IoDiagram:
    if isinstance(method, FbLess):
        blocks = [sb for d in diagrams for sb in split_block(d)]
        return fbless_translate(blocks)
    return translate(diagrams, method)


def document_io_list(
    doc: DiagramDoc,
    mode: str = "flatten",
    method: object = Incremental(),
):
    """The io-distinct diagram list a document translates from: one atom
    io-diagram per library block, over fresh wire names.

    A subsystem instance ``S1`` expands into its subsystem's own list, with
    every block id under the instance path (``S1/Sum``) and the subsystem's
    external names replaced by the instance's port variables.  ``flatten``
    splices that list in; ``recursive`` first translates it with ``method``
    into one io-diagram.  A tree not checked yet is checked first
    (``check_tree``).  Returns (diagrams, state table of every instance and
    the document itself, normalized document).
    """
    if mode not in ("flatten", "recursive"):
        raise ValueError(f"unknown mode {mode!r}")
    return _io_list(doc, mode, method, _NameGen(doc))


def _io_list(doc: DiagramDoc, mode: str, method, names: _NameGen):
    """``document_io_list`` under the name generator the whole tree shares."""
    norm = normalize(doc, names)
    diagrams = []
    state_table = []
    for blk in norm.blocks:
        if blk.kind not in norm.subsystems:
            diagrams.append(_atom_diagram(norm, blk))
            continue
        instance = _prefixed(norm.subsystems[blk.kind], f"{blk.id}/", *norm.interfaces[blk.id])
        inner, inner_states, _ = _io_list(instance, mode, method, names)
        if mode == "recursive" and inner:
            inner = [_translate_list(inner, method)]
        diagrams.extend(inner)
        state_table.extend(inner_states)
    state_table.extend(norm.state_table)
    return diagrams, state_table, norm


def to_io_diagrams(doc: DiagramDoc):
    """``document_io_list`` in ``flatten`` mode, without the normalized
    document: (diagrams, state table)."""
    diagrams, state_table, _ = document_io_list(doc)
    return diagrams, state_table


def flatten_or_recurse(
    doc: DiagramDoc,
    mode: str = "flatten",
    method: object = Incremental(),
) -> TranslationResult:
    """Translate a whole document; the two modes yield io-equivalent results."""
    diagrams, state_table, norm = document_io_list(doc, mode, method)
    if not diagrams:
        raise PreconditionError("document has no blocks to translate")
    return TranslationResult(_translate_list(diagrams, method), state_table, norm)


# -- rendering -----------------------------------------------------------------

def dump_doc(doc: DiagramDoc) -> str:
    doc = normalize(doc)
    lines = [f"diagram {doc.name}"]
    lines.append("inputs:  " + ", ".join(f"{e.name}:{e.ty}" for e in doc.inputs))
    lines.append("outputs: " + ", ".join(f"{e.name}:{e.ty}" for e in doc.outputs))
    for blk in doc.blocks:
        params = ", ".join(f"{k}={v!r}" for k, v in blk.params)
        lines.append(f"block {blk.id}: {blk.kind}" + (f" [{params}]" if params else ""))
        ins, outs = doc.interfaces[blk.id]
        if blk.kind in doc.subsystems:
            body = f"subsystem {blk.kind}"
        else:
            fn = doc.specs[blk.id].fn
            wires = {p.name: v.name for p, v in zip(fn.params, ins)}
            shown = (fmt_expr(b, wires) for b in fn.bodies)
            body = f"[{', '.join(v.name for v in ins)} ~> {', '.join(shown)}]"
        lines.append(
            f"  ({', '.join(v.name for v in ins)}) -> ({', '.join(v.name for v in outs)})"
            f"  =  {body}"
        )
    for e in doc.state_table:
        lines.append(
            f"state {e.state.name}/{e.next_state.name} of {e.block_id}, init {e.init!r}"
        )
    return "\n".join(lines)


def dot_doc(doc: DiagramDoc) -> str:
    doc = normalize(doc)
    lines = [f'digraph "{doc.name}" {{', "  rankdir=LR;"]
    for e in doc.inputs:
        lines.append(f'  "in:{e.name}" [shape=plaintext label="{e.name}"];')
    for e in doc.outputs:
        lines.append(f'  "out:{e.name}" [shape=plaintext label="{e.name}"];')
    for blk in doc.blocks:
        lines.append(f'  "{blk.id}" [shape=box label="{blk.id}\\n{blk.kind}"];')
    producer = {v.name: b for b, (_, outs) in doc.interfaces.items() for v in outs}
    ext_in = {e.name for e in doc.inputs}
    for blk in doc.blocks:
        for v in doc.interfaces[blk.id][0]:
            if v.name in producer:
                lines.append(f'  "{producer[v.name]}" -> "{blk.id}" [label="{v.name}"];')
            elif v.name in ext_in:
                lines.append(f'  "in:{v.name}" -> "{blk.id}";')
    for e in doc.outputs:
        lines.append(f'  "{producer[e.name]}" -> "out:{e.name}";')
    lines.append("}")
    return "\n".join(lines)
