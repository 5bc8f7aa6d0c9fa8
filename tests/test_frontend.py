"""Document parsing, validation, normalization and hierarchy handling."""

import json
import math
import re
from pathlib import Path

import pytest

from hbd import exprs, frontend
from hbd.errors import (
    CycleError,
    DanglingPortError,
    SchemaError,
    TypeMismatchError,
)
from hbd.frontend import (
    FbLess,
    dot_doc,
    document_io_list,
    dump_doc,
    flatten_or_recurse,
    normalize,
    parse_doc,
    to_io_diagrams,
)
from hbd.gen import random_diagram
from hbd.harness import io_equiv
from hbd.terms import Atom, collect_atoms, parse_term, print_term, rewrite_basic
from hbd.translator import Incremental
from hbd.types import BaseType

from util import DIFF_DOC, FANOUT_DOC, INHERITED_DOC, SUB_DOC, TWINS_DOC

R = BaseType.REAL


def _chain_level(name, blocks, subsystems=None) -> dict:
    """A document that wires u through ``blocks`` in series to y.  Each block
    is a gain (ports a and out) or an instance of a document this helper
    built (ports u and y)."""
    ports = [("a", "out") if b["kind"] == "Gain" else ("u", "y") for b in blocks]
    wires = [
        {"from": f"{a['id']}.{pa[1]}", "to": f"{b['id']}.{pb[0]}"}
        for a, pa, b, pb in zip(blocks, ports, blocks[1:], ports[1:])
    ]
    doc = {
        "version": 1,
        "name": name,
        "inputs": [{"name": "u", "type": "Real", "to": f"{blocks[0]['id']}.{ports[0][0]}"}],
        "outputs": [{"name": "y", "type": "Real", "from": f"{blocks[-1]['id']}.{ports[-1][1]}"}],
        "blocks": blocks,
        "wires": wires,
    }
    if subsystems:
        doc["subsystems"] = subsystems
    return doc


def _built(raw) -> frontend.DiagramDoc:
    """The JSON document ``raw`` built directly from ``DiagramDoc`` objects,
    unchecked: each subsystem table holds its document's own entries."""
    from hbd.frontend import BlockInst, DiagramDoc, ExtIn, ExtOut, PortRef, WireDecl

    def port(text):
        return PortRef(*text.split("."))

    def targets(to):
        return tuple(map(port, to if isinstance(to, list) else [to]))

    return DiagramDoc(
        raw["name"],
        [ExtIn(e["name"], e["type"], targets(e["to"])) for e in raw["inputs"]],
        [ExtOut(e["name"], e["type"], port(e["from"])) for e in raw["outputs"]],
        [BlockInst(b["id"], b["kind"], tuple(sorted(b.get("params", {}).items())))
         for b in raw["blocks"]],
        [WireDecl(port(w["from"]), port(w["to"])) for w in raw.get("wires", [])],
        {kind: _built(sub) for kind, sub in raw.get("subsystems", {}).items()},
    )


def _doc(**overrides):
    base = {
        "version": 1,
        "name": "t",
        "inputs": [{"name": "u", "type": "Real", "to": "G.a"}],
        "outputs": [{"name": "y", "type": "Real", "from": "G.out"}],
        "blocks": [{"id": "G", "kind": "Gain", "params": {"k": 2.0}}],
        "wires": [],
    }
    base.update(overrides)
    return base


class TestParse:
    def test_sum_example_counts(self, sum_doc):
        assert len(sum_doc.blocks) == 3
        assert len(sum_doc.wires) == 3
        assert len(sum_doc.inputs) == 1
        assert len(sum_doc.outputs) == 1

    def test_unknown_fields_rejected(self):
        with pytest.raises(SchemaError):
            parse_doc(json.dumps(_doc(extra=1)))
        with pytest.raises(SchemaError):
            parse_doc(json.dumps(_doc(blocks=[{"id": "G", "kind": "Gain", "x": 1}])))

    def test_version_required(self):
        for version in (2, True):  # true is no integer, though True == 1
            with pytest.raises(SchemaError):
                parse_doc(json.dumps(_doc(version=version)))

    def test_two_sources_for_one_port(self):
        doc = _doc(
            blocks=[
                {"id": "G", "kind": "Gain", "params": {"k": 2.0}},
                {"id": "C", "kind": "Constant", "params": {"value": 1.0}},
            ],
            wires=[{"from": "C.out", "to": "G.a"}],
        )
        with pytest.raises(SchemaError, match="two sources"):
            parse_doc(json.dumps(doc))

    def test_dangling_port(self):
        with pytest.raises(DanglingPortError):
            parse_doc(json.dumps(_doc(wires=[{"from": "G.nope", "to": "G.a"}])))

    def test_unconnected_input_port(self):
        doc = _doc(inputs=[])
        with pytest.raises(DanglingPortError, match="not connected"):
            parse_doc(json.dumps(doc))

    def test_wire_type_mismatch(self):
        doc = _doc(
            blocks=[
                {"id": "G", "kind": "Gain", "params": {"k": 2.0}},
                {"id": "N", "kind": "LogicalNot"},
            ],
            outputs=[
                {"name": "y", "type": "Real", "from": "G.out"},
                {"name": "q", "type": "Bool", "from": "N.out"},
            ],
            wires=[{"from": "G.out", "to": "N.a"}],
        )
        with pytest.raises(TypeMismatchError):
            parse_doc(json.dumps(doc))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"inputs": [{"name": "u", "type": "Float", "to": "G.a"}]},
            {"blocks": [{"id": "G", "kind": "Gain", "params": {"k": 2.0, "type": [5]}}]},
            {"blocks": ["G"]},
            {"wires": [5]},
            {"subsystems": []},
            {"outputs": [{"name": ["y"], "type": "Real", "from": "G.out"}]},
            {"blocks": [{"id": 5, "kind": "Gain", "params": {"k": 2.0}}]},
            {"wires": None},
        ],
    )
    def test_mistyped_fields_are_schema_errors(self, overrides):
        with pytest.raises(SchemaError):
            parse_doc(json.dumps(_doc(**overrides)))

    def test_empty_diagram_is_valid(self):
        doc = parse_doc(json.dumps({"version": 1, "name": "empty"}))
        assert doc.blocks == [] and doc.wires == []

    def test_bad_json(self):
        from hbd.errors import ParseError

        with pytest.raises(ParseError):
            parse_doc(b"{not json")


class TestNormalize:
    def test_idempotent(self, sum_doc):
        once = normalize(sum_doc)
        assert normalize(once) is once

    def test_running_example_wire_names(self, sum_doc):
        norm = normalize(sum_doc)
        ds, table = to_io_diagrams(norm)
        names = [
            ([v.name for v in d.inputs], [v.name for v in d.outputs]) for d in ds
        ]
        assert names == [
            (["w3", "u"], ["w1"]),
            (["w1", "s1"], ["w2", "s1'"]),
            (["w2"], ["w3", "v"]),
        ]
        assert len(table) == 1
        assert table[0].init == 0.0

    def test_three_way_fanout_makes_two_splits(self):
        doc = parse_doc(
            json.dumps(
                {
                    "version": 1,
                    "name": "fan",
                    "inputs": [{"name": "u", "type": "Real", "to": "G.a"}],
                    "outputs": [
                        {"name": "y1", "type": "Real", "from": "A.out"},
                        {"name": "y2", "type": "Real", "from": "B.out"},
                        {"name": "y3", "type": "Real", "from": "C.out"},
                    ],
                    "blocks": [
                        {"id": "G", "kind": "Gain", "params": {"k": 2.0}},
                        {"id": "A", "kind": "Gain", "params": {"k": 1.0}},
                        {"id": "B", "kind": "Gain", "params": {"k": 1.0}},
                        {"id": "C", "kind": "Gain", "params": {"k": 1.0}},
                    ],
                    "wires": [
                        {"from": "G.out", "to": "A.a"},
                        {"from": "G.out", "to": "B.a"},
                        {"from": "G.out", "to": "C.a"},
                    ],
                }
            )
        )
        norm = normalize(doc)
        splits = [b for b in norm.blocks if b.kind == "SplitBlk"]
        assert len(splits) == 2

    def test_split_ids_skip_user_block_ids(self):
        """A user block named like a generated split block keeps its own
        interface: the document translates and simulates as it does with
        the block renamed."""
        from hbd.sim import simulate_translated

        def doc(gid):
            return parse_doc(json.dumps(_doc(
                inputs=[{"name": "u", "type": "Real", "to": [f"{gid}.a", "G.a"]}],
                outputs=[
                    {"name": "y", "type": "Real", "from": "G.out"},
                    {"name": "z", "type": "Real", "from": f"{gid}.out"},
                ],
                blocks=[
                    {"id": gid, "kind": "Gain", "params": {"k": 3.0}},
                    {"id": "G", "kind": "Gain", "params": {"k": 2.0}},
                ],
            )))

        clash, plain = doc("__split1"), doc("H")
        norm = normalize(clash)
        assert [b.id for b in norm.blocks].count("__split1") == 1
        rows = [{"u": 1.0}, {"u": -2.5}]
        traces = []
        for d in (clash, plain):
            res = flatten_or_recurse(d)
            traces.append(simulate_translated(res.diagram, res.state_table, rows))
        assert traces[0].column("y") == traces[1].column("y") == [2.0, -5.0]
        assert traces[0].column("z") == traces[1].column("z") == [3.0, -7.5]

    def test_unvalidated_documents_are_validated_on_first_use(self):
        """Hand-built documents, never parsed, raise the frontend's own
        errors: an undriven port dangles, and a Bool input on an Add is a
        type mismatch.  A tree never checked is checked whole on first use,
        its subsystems with it."""
        from hbd.frontend import BlockInst, DiagramDoc, ExtIn, ExtOut, PortRef

        def add_doc(*inputs):
            return DiagramDoc(
                "add", list(inputs), [ExtOut("y", R, PortRef("A", "out"))], [BlockInst("A", "Add")], []
            )

        def instance_of(inner):
            inputs = [ExtIn(f"x{e.name}", R, (PortRef("S", e.name),)) for e in inner.inputs]
            outputs = [ExtOut("z", R, PortRef("S", "y"))]
            return DiagramDoc("outer", inputs, outputs, [BlockInst("S", "Inner")], [], {"Inner": inner})

        a, b = ExtIn("u", R, (PortRef("A", "a"),)), ExtIn("v", R, (PortRef("A", "b"),))
        for expand in (normalize, document_io_list, to_io_diagrams):
            with pytest.raises(DanglingPortError, match=r"A\.b"):
                expand(add_doc(a))
        with pytest.raises(TypeMismatchError):
            normalize(add_doc(ExtIn("u", BaseType.BOOL, (PortRef("A", "a"),)), b))

        with pytest.raises(DanglingPortError, match=r"A\.b"):
            document_io_list(instance_of(add_doc(a)))
        inner = add_doc(a, b)
        diagrams, _, _ = document_io_list(instance_of(inner))
        assert [d.body.name for d in diagrams] == ["S/A"]
        assert inner.specs["A"].kind == "Add"

    def test_stateless_doc_has_empty_state_table(self):
        doc = parse_doc(json.dumps(_doc()))
        assert normalize(doc).state_table == []

    def test_io_distinct_by_construction(self, sum_doc, corpus_diagrams):
        from hbd.translator import check_io_distinct

        ds, _ = to_io_diagrams(normalize(sum_doc))
        assert check_io_distinct(ds)
        for _, diagrams, _ in corpus_diagrams:
            assert check_io_distinct(diagrams)


class TestToIoDiagrams:
    def test_running_example_triples(self, sum_doc):
        ds, _ = to_io_diagrams(normalize(sum_doc))
        assert [d.body.name for d in ds] == ["Add", "Delay", "Split"]
        assert all(isinstance(d.body, Atom) for d in ds)
        add, delay, split = ds
        # Add = ((z,u), x, [z,u -> z+u]) up to wire renaming
        assert len(add.inputs) == 2 and len(add.outputs) == 1
        assert delay.inputs[0] == add.outputs[0]  # x
        assert split.inputs[0] == delay.outputs[0]  # y
        assert add.inputs[0] == split.outputs[0]  # z

    def test_each_spec_built_once(self, monkeypatch):
        """Validation builds each block's spec, the generator hands over the
        ones it built for wiring, and twin instances share their
        subsystem's; expanding a document then builds one split spec per
        wire type and nothing else."""
        specs, top, depth = [], [], []
        analyse = exprs._analyse

        def counted(kind, make):
            def build(params):
                specs.append(kind)
                return make(params)

            return build

        for kind, make in list(frontend.LIBRARY.items()):
            monkeypatch.setitem(frontend.LIBRARY, kind, counted(kind, make))
        doc = random_diagram(7, 100, 100)
        assert len(specs) == len(doc.blocks)
        specs.clear()

        def outermost_analyse(e, env, reads):
            if not depth:
                top.append(e)
            depth.append(e)
            try:
                return analyse(e, env, reads)
            finally:
                depth.pop()

        monkeypatch.setattr(exprs, "_analyse", outermost_analyse)
        diagrams, _, norm = document_io_list(doc)
        splits = [b for b in norm.blocks if b.kind == "SplitBlk"]
        split_types = {dict(b.params)["type"] for b in splits}
        assert len(splits) > len(split_types)
        assert specs == ["SplitBlk"] * len(split_types)
        assert len(top) <= sum(len(d.body.fn.bodies) for d in diagrams)

        specs.clear()
        twins = parse_doc(json.dumps(TWINS_DOC))  # no fan-out, so no split spec
        for mode in ("flatten", "recursive"):
            document_io_list(twins, mode)
        assert sorted(specs) == ["Add", "Add", "SplitBlk", "UnitDelay"]  # outer Sum; Inner's Sum, Spl, Dly

    def test_atoms_keep_their_spec_functions(self, monkeypatch):
        """Expanding a normalized document builds no function: each atom
        takes its block spec's function as it is, so twin instances, and
        split blocks of one wire type, share one function object."""
        doc = normalize(random_diagram(7, 100, 100))
        twins = parse_doc(json.dumps(TWINS_DOC))
        document_io_list(twins)  # validates the subsystem on first use
        twins = normalize(twins)
        built = []
        post_init = exprs.ExprFun.__post_init__

        def counted(fn, *args):
            built.append(fn)
            post_init(fn, *args)

        monkeypatch.setattr(exprs.ExprFun, "__post_init__", counted)
        diagrams, _, _ = document_io_list(doc)
        flat, _, _ = document_io_list(twins)
        document_io_list(twins, "recursive")
        assert built == []

        assert all(d.body.fn is doc.specs[d.body.name].fn for d in diagrams)
        splits = [d.body.fn for d in diagrams if d.body.name.startswith("__split")]
        split_types = {fn.in_kinds for fn in splits}
        assert len(splits) > len(split_types)
        assert len({id(fn) for fn in splits}) == len(split_types)

        atoms = {d.body.name: d.body.fn for d in flat}
        inner = TWINS_DOC["subsystems"]["Inner"]["blocks"]
        for blk in (b["id"] for b in inner):
            assert atoms[f"S1/{blk}"] is atoms[f"S2/{blk}"]
            assert atoms[f"S1/{blk}"] is twins.subsystems["Inner"].specs[blk].fn

    def test_constant_has_empty_inputs(self):
        doc = parse_doc(
            json.dumps(
                {
                    "version": 1,
                    "name": "c",
                    "outputs": [{"name": "y", "type": "Real", "from": "C.out"}],
                    "blocks": [{"id": "C", "kind": "Constant", "params": {"value": 4.0}}],
                }
            )
        )
        ds, _ = to_io_diagrams(normalize(doc))
        assert ds[0].inputs == ()

    def test_split_blocks_have_exact_deps(self, sum_doc):
        from hbd.feedbackless import loop_free, split_block

        ds, _ = to_io_diagrams(normalize(sum_doc))
        blocks = [sb for d in ds for sb in split_block(d)]
        assert len(blocks) == 5  # Add, Delay1, Delay2, Split1, Split2
        assert loop_free(blocks)
        deps_sizes = sorted(len(b.deps) for b in blocks)
        assert deps_sizes == [1, 1, 1, 1, 2]  # only Add reads two inputs


class TestHierarchy:
    def test_flatten_inlines_blocks(self):
        doc = parse_doc(json.dumps(SUB_DOC))
        diagrams, _, norm = document_io_list(doc, "flatten")
        assert sorted(d.body.name for d in diagrams) == ["S1/Dly", "S1/Spl", "S1/Sum"]
        assert [b.id for b in norm.blocks] == ["S1"]  # the document keeps its instance

    def test_modes_agree(self, sum_doc):
        doc = parse_doc(json.dumps(SUB_DOC))
        flat = flatten_or_recurse(doc, "flatten", Incremental())
        rec = flatten_or_recurse(doc, "recursive", Incremental())
        assert io_equiv(flat.diagram, rec.diagram)
        # and both compute the same function as the unwrapped document
        # (interfaces agree positionally up to renaming)
        from hbd.compiled import compile_term
        from hbd.semantics import sample_inputs
        from hbd.types import types_of

        plain = flatten_or_recurse(sum_doc, "flatten", Incremental())
        assert types_of(flat.diagram.inputs) == types_of(plain.diagram.inputs)
        assert types_of(flat.diagram.outputs) == types_of(plain.diagram.outputs)
        rows = sample_inputs(types_of(plain.diagram.inputs), 40, seed=8)
        assert compile_term(flat.diagram.body).run(rows) == compile_term(
            plain.diagram.body
        ).run(rows)

    def test_no_subsystems_identical_modes(self, sum_doc):
        a = flatten_or_recurse(sum_doc, "flatten", Incremental())
        b = flatten_or_recurse(sum_doc, "recursive", Incremental())
        assert a.diagram.inputs == b.diagram.inputs
        assert a.diagram.outputs == b.diagram.outputs
        assert rewrite_basic(a.diagram.body) == rewrite_basic(b.diagram.body)

    def test_slash_in_block_id_rejected(self):
        """An outer block ``S1/Sum`` next to the instance ``S1`` holding a
        ``Sum`` would give two atoms one name."""
        doc = dict(SUB_DOC)
        doc["inputs"] = [{"name": "u", "type": "Real", "to": ["S1.p", "S1/Sum.a"]}]
        doc["outputs"] = SUB_DOC["outputs"] + [{"name": "z", "type": "Real", "from": "S1/Sum.out"}]
        doc["blocks"] = SUB_DOC["blocks"] + [{"id": "S1/Sum", "kind": "Gain", "params": {"k": 2.0}}]
        with pytest.raises(SchemaError, match="instance paths"):
            parse_doc(json.dumps(doc))

    def test_self_reference_is_a_cycle(self):
        doc = dict(SUB_DOC)
        doc["subsystems"] = {
            "Inner": {
                "version": 1,
                "name": "inner",
                "inputs": [{"name": "p", "type": "Real", "to": "Me.p"}],
                "outputs": [{"name": "q", "type": "Real", "from": "Me.q"}],
                "blocks": [{"id": "Me", "kind": "Inner"}],
                "wires": [],
            }
        }
        with pytest.raises(CycleError):
            parse_doc(json.dumps(doc))

    def test_subsystem_may_define_its_own_subsystem_of_the_same_name(
        self, tmp_path, capsys
    ):
        """Inside ``S``, the kind ``S`` names ``S``'s own entry, a gain: no
        cycle, and every strategy agrees in either mode."""
        gain = _chain_level("gain", [{"id": "G", "kind": "Gain", "params": {"k": 2.0}}])
        inner = _chain_level("outer-s", [{"id": "A", "kind": "S"}], {"S": gain})
        doc = _chain_level("top", [{"id": "A", "kind": "S"}], {"S": inner})
        parse_doc(json.dumps(doc))
        path = tmp_path / "shadowed.hbd.json"
        path.write_text(json.dumps(doc))
        from hbd.cli import main

        for mode in ("flatten", "recursive"):
            assert main(["check", str(path), "--seeds", "2", "--mode", mode]) == 0
            assert "FAIL" not in capsys.readouterr().out

    def test_shared_subsystems_are_searched_once(self, monkeypatch):
        """Twelve levels of two instances each: the cycle check visits each
        of the 13 documents once, not each of the 8,191 instance paths."""
        doc = _chain_level("gain", [{"id": "G", "kind": "Gain", "params": {"k": 2.0}}])
        for level in range(12):
            blocks = [{"id": "A", "kind": "L"}, {"id": "B", "kind": "L"}]
            doc = _chain_level(f"level{level}", blocks, {"L": doc})
        calls = []
        check = frontend.check_subsystem_cycles

        def counted(sub, *rest):
            calls.append(id(sub))
            return check(sub, *rest)

        monkeypatch.setattr(frontend, "check_subsystem_cycles", counted)
        parsed = parse_doc(json.dumps(doc))
        assert len(calls) == len(set(calls)) == 13
        calls.clear()
        frontend.check_subsystem_cycles(parsed)
        assert len(calls) == len(set(calls)) == 13
        calls.clear()
        normalize(parsed)  # a checked tree is not searched again
        assert calls == []

    def test_tree_built_in_code_expands_and_checks_as_parsed(self):
        """A tree of ``DiagramDoc`` objects whose inner subsystems instantiate
        a kind defined only at the top gives, in both modes, the io list,
        state table and determinacy verdicts of the parsed tree, and prints
        as it does."""
        from hbd.harness import run_determinacy

        text = json.dumps(INHERITED_DOC)
        for mode in ("flatten", "recursive"):
            parsed = document_io_list(parse_doc(text), mode)
            built = document_io_list(_built(INHERITED_DOC), mode)
            assert [(d.inputs, d.outputs, d.body) for d in built[0]] == [
                (d.inputs, d.outputs, d.body) for d in parsed[0]
            ]
            assert built[1] == parsed[1] and len(parsed[1]) == 4  # one delay per instance of G
            verdicts = [
                [[c.proved for c in row] for row in run_determinacy(ds, seeds=range(2)).matrix]
                for ds in (parsed[0], built[0])
            ]
            assert verdicts[0] == verdicts[1] == [[True] * 5] * 5
        flat = document_io_list(_built(INHERITED_DOC))[0]
        assert "M/I/G2/K" in [d.body.name for d in flat]
        assert dump_doc(_built(INHERITED_DOC)) == dump_doc(parse_doc(text))

    def test_tree_built_in_code_fails_as_parsed(self):
        """Faulty variants of that tree raise the same error, built or
        parsed, and again on a second try, when the tables are resolved
        already: a cycle through an inherited kind before any fault of
        validation, and of two faulty documents the one first in preorder of
        the definition tree."""
        import copy

        def variant(*faults):
            doc = copy.deepcopy(INHERITED_DOC)
            for fault in faults:
                fault(doc)
            return doc

        def cycle(doc):  # G -> Mid -> Inner -> G
            doc["subsystems"]["G"]["blocks"][0] = {"id": "K", "kind": "Mid"}

        def bad_inner(doc):
            inner = doc["subsystems"]["Mid"]["subsystems"]["Inner"]
            inner["wires"].append({"from": "G1.b", "to": "A.x"})

        def bad_late(doc):  # defined after Mid, at the top
            gain = {"id": "G", "kind": "Gain", "params": {}}
            doc["subsystems"]["Late"] = _chain_level("late", [gain])

        def no_g(doc):
            del doc["subsystems"]["G"]

        def g_after_mid_names_inner(doc):  # Inner is in scope below Mid only
            g = doc["subsystems"].pop("G")
            g["blocks"][0] = {"id": "K", "kind": "Inner"}
            doc["subsystems"]["G"] = g

        cases = [
            (variant(cycle, bad_inner), CycleError, "instantiation: Mid -> Inner -> G -> Mid$"),
            (variant(bad_inner, bad_late), DanglingPortError, r"no input port A\.x$"),
            (variant(bad_late), SchemaError, "Gain requires parameter k"),
            (variant(no_g), SchemaError, "unknown block kind 'G'"),
            (variant(g_after_mid_names_inner), SchemaError, "unknown block kind 'Inner'"),
        ]
        for raw, error, message in cases:
            with pytest.raises(error, match=message) as parsed:
                parse_doc(json.dumps(raw))
            built = _built(raw)
            for _ in range(2):
                with pytest.raises(error) as caught:
                    document_io_list(built)
                assert str(caught.value) == str(parsed.value)
                unchecked = built.specs is None
                assert unchecked

    def test_tables_hold_own_entries_and_the_kinds_their_blocks_use(self):
        """After ``parse_doc`` a document's table holds its own entries and
        the inherited kinds its blocks instantiate.  So at 300 sibling
        subsystems, and on a 300-level chain with a kind per level whose
        deepest level instantiates a kind defined at the top, the entries of
        all tables add up to at most the documents plus the instance blocks
        (copies of every ancestor's table made them 90,300 and 45,753)."""
        def gain():
            return _chain_level("gain", [{"id": "G", "kind": "Gain", "params": {"k": 2.0}}])

        blocks = [{"id": f"B{i}", "kind": f"S{i}"} for i in range(300)]
        siblings = _chain_level("top", blocks, {f"S{i}": gain() for i in range(300)})
        chain = _chain_level("leaf", [{"id": "A", "kind": "Top"}])
        for level in range(300):
            kind = f"L{level}"
            chain = _chain_level(f"level{level}", [{"id": "A", "kind": kind}], {kind: chain})
        chain["subsystems"]["Top"] = gain()
        for raw in (siblings, chain):
            todo = [(parse_doc(json.dumps(raw)), raw)]
            entries = docs = instances = 0
            while todo:
                doc, raw = todo.pop()
                own = raw.get("subsystems", {})
                kinds, allowed = set(doc.subsystems), set(own) | {b["kind"] for b in raw["blocks"]}
                assert kinds <= allowed, raw["name"]
                entries += len(doc.subsystems)
                docs += 1
                instances += sum(b.kind in doc.subsystems for b in doc.blocks)
                todo.extend((doc.subsystems[kind], sub) for kind, sub in own.items())
            assert entries <= docs + instances

    def test_two_instances_get_independent_state(self):
        doc = parse_doc(json.dumps(TWINS_DOC))
        for mode in ("flatten", "recursive"):
            res = flatten_or_recurse(doc, mode, Incremental())
            assert len(res.state_table) == 2
            names = {e.state.name for e in res.state_table}
            assert len(names) == 2  # each instance has its own accumulator state
        flat = flatten_or_recurse(doc, "flatten", Incremental())
        rec = flatten_or_recurse(doc, "recursive", Incremental())
        assert io_equiv(flat.diagram, rec.diagram)
        # the two accumulators really accumulate independently
        from hbd.sim import simulate_translated

        rows = [{"u1": 1.0, "u2": 10.0}, {"u1": 2.0, "u2": 20.0}, {"u1": 3.0, "u2": 30.0}]
        trace = simulate_translated(flat.diagram, flat.state_table, rows)
        assert trace.column("y") == [0.0, 11.0, 33.0]

    def test_twin_instances_name_atoms_by_path(self):
        """Two instances of one subsystem next to an outer ``Sum``: both modes
        name the same atoms, and every term round-trips through its text."""
        doc = parse_doc(json.dumps(TWINS_DOC))
        names = {}
        for label, method in (("incr", Incremental()), ("fbless", FbLess())):
            for mode in ("flatten", "recursive"):
                body = flatten_or_recurse(doc, mode, method).diagram.body
                atoms = collect_atoms(body)
                assert parse_term(print_term(body), atoms) == body
                names[label, mode] = sorted(atoms)
            assert names[label, "flatten"] == names[label, "recursive"]
        assert names["incr", "flatten"] == [
            "S1/Dly", "S1/Spl", "S1/Sum", "S2/Dly", "S2/Spl", "S2/Sum", "Sum"
        ]

    def test_fan_out_on_both_sides_of_an_instance(self):
        """``G.out`` feeds the instance and ``H``; inside, ``p`` feeds ``A``
        and ``B``.  At u = 1: G = 2, A + B = 6 + 10, H = 20."""
        from hbd.compiled import compile_term

        doc = parse_doc(json.dumps(FANOUT_DOC))
        for method in (Incremental(), FbLess()):
            flat = flatten_or_recurse(doc, "flatten", method)
            rec = flatten_or_recurse(doc, "recursive", method)
            assert io_equiv(flat.diagram, rec.diagram)
            for d in (flat.diagram, rec.diagram):
                out = compile_term(d.body).run([(1.0,)])[0]
                assert dict(zip((v.name for v in d.outputs), out)) == {"y": 16.0, "z": 20.0}

    def test_normalized_document_with_instances(self):
        """Expanding a document normalized beforehand: the instances' wires
        do not reuse the wire names its interfaces already bind."""
        doc = parse_doc(json.dumps(FANOUT_DOC))
        for mode in ("flatten", "recursive"):
            again = flatten_or_recurse(normalize(doc), mode, Incremental())
            assert io_equiv(again.diagram, flatten_or_recurse(doc, mode, Incremental()).diagram)

    def test_modes_agree_on_reversed_instance_ports(self):
        from hbd.compiled import compile_term

        doc = parse_doc(json.dumps(DIFF_DOC))
        assert normalize(doc).interfaces["S1"][0][0].name == "y"  # declared order: p, q
        flat = flatten_or_recurse(doc, "flatten", Incremental())
        rec = flatten_or_recurse(doc, "recursive", Incremental())
        assert io_equiv(flat.diagram, rec.diagram)
        d = rec.diagram
        env = {"x": 1.0, "y": 10.0}  # q = 2x = 2, p = y = 10
        out = compile_term(d.body).run([tuple(env[v.name] for v in d.inputs)])[0]
        assert dict(zip((v.name for v in d.outputs), out)) == {"o1": 6.0, "o2": 8.0}

    def test_recursive_mode_with_fbless(self):
        doc = parse_doc(json.dumps(SUB_DOC))
        rec = flatten_or_recurse(doc, "recursive", FbLess())
        flat = flatten_or_recurse(doc, "flatten", FbLess())
        from util import feedbacks_outside_arb

        assert feedbacks_outside_arb(rec.diagram.body) == 0
        assert feedbacks_outside_arb(flat.diagram.body) == 0
        assert io_equiv(rec.diagram, flat.diagram)


class TestRendering:
    def test_dump_mentions_blocks_and_state(self, sum_doc):
        text = dump_doc(sum_doc)
        assert "Add" in text and "UnitDelay" in text and "state s1/s1'" in text

    def test_dot_shape(self, sum_doc):
        text = dot_doc(sum_doc)
        assert text.startswith("digraph") and '"Add" -> "Delay"' in text

    @pytest.mark.parametrize(
        "name, edges",
        [
            ("sum", {"Add->Delay [w1]", "Delay->Split [w2]", "Split->Add [w3]",
                     "in:u->Add", "Split->out:v"}),
            ("loop", {"G->A [w1]", "A->__split1 [w2]", "__split1->G [w3]",
                      "in:u->A", "__split1->out:y"}),
            ("nested", {"in:u->S1", "S1->out:y"}),
        ],
    )
    def test_dot_edge_set(self, name, edges):
        path = Path(__file__).resolve().parent.parent / "diagrams" / f"{name}.hbd.json"
        text = dot_doc(parse_doc(path.read_bytes()))
        found = [
            f"{src}->{dst}" + (f" [{label}]" if label else "")
            for src, dst, label in re.findall(
                r'"([^"]+)" -> "([^"]+)"(?: \[label="([^"]+)"\])?;', text
            )
        ]
        assert len(found) == len(set(found))
        assert set(found) == edges

    def test_dump_shows_a_subsystem_instance(self):
        text = dump_doc(parse_doc(json.dumps(DIFF_DOC)))
        assert "block S1: Diff" in text
        assert "  (y, w1) -> (o2, o1)  =  subsystem Diff" in text

    def test_dump_shows_bodies_over_wire_names(self):
        sub = parse_doc(json.dumps(DIFF_DOC["subsystems"]["Diff"]))
        assert dump_doc(sub) == "\n".join(
            [
                "diagram diff",
                "inputs:  p:Real, q:Real",
                "outputs: d:Real, e:Real",
                "block Sub: Sub",
                "  (p, w1) -> (d)  =  [p, w1 ~> (p - w1)]",
                "block K: Gain [k=3.0]",
                "  (w2) -> (e)  =  [w2 ~> (3.0 * w2)]",
                "block __split1: SplitBlk [type='Real']",
                "  (q) -> (w1, w2)  =  [q ~> q, q]",
            ]
        )
        assert dump_doc(parse_doc(json.dumps(DIFF_DOC))) == "\n".join(
            [
                "diagram outer-diff",
                "inputs:  x:Real, y:Real",
                "outputs: o1:Real, o2:Real",
                "block G: Gain [k=2.0]",
                "  (x) -> (w1)  =  [x ~> (2.0 * x)]",
                "block S1: Diff",
                "  (y, w1) -> (o2, o1)  =  subsystem Diff",
            ]
        )

    def test_dump_maps_parameters_to_wires_at_once(self):
        # Add's parameters are a and b; here wire b drives a and wire a drives b
        doc = _doc(
            inputs=[
                {"name": "b", "type": "Real", "to": "A.a"},
                {"name": "a", "type": "Real", "to": "A.b"},
            ],
            outputs=[{"name": "y", "type": "Real", "from": "A.out"}],
            blocks=[{"id": "A", "kind": "Add"}],
            wires=[],
        )
        assert "  (b, a) -> (y)  =  [b, a ~> (b + a)]" in dump_doc(parse_doc(json.dumps(doc)))


class TestLibrary:
    def test_gain_requires_k(self):
        with pytest.raises(SchemaError):
            parse_doc(json.dumps(_doc(blocks=[{"id": "G", "kind": "Gain"}])))

    @pytest.mark.parametrize(
        "kind, key, literal",
        [("Gain", "k", "NaN"), ("Constant", "value", "-Infinity"), ("UnitDelay", "init", "1e400")],
    )
    def test_non_finite_parameter_in_json_text(self, kind, key, literal):
        doc = _doc(blocks=[{"id": "G", "kind": kind, "params": {key: 7.5}}])
        with pytest.raises(SchemaError, match="finite"):
            parse_doc(json.dumps(doc).replace("7.5", literal))

    def test_non_finite_parameter_in_loaded_dict(self):
        for kind, params in [
            ("Gain", {"k": math.nan}),
            ("Gain", {"k": 10**400}),  # too large for a Real
            ("Constant", {"value": math.inf}),
            ("UnitDelay", {"init": -math.inf, "type": "Real"}),
        ]:
            doc = _doc(blocks=[{"id": "G", "kind": kind, "params": params}])
            with pytest.raises(SchemaError, match="finite"):
                parse_doc(doc)

    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            parse_doc(json.dumps(_doc(blocks=[{"id": "G", "kind": "Nope"}])))

    def test_every_block_kind_instantiates_and_is_monotone(self):
        from hbd.frontend import LIBRARY, block_spec
        from util import check_monotone
        from hbd.terms import Atom

        defaults = {
            "Gain": {"k": 2.0},
            "Constant": {"value": 1.5},
        }
        for kind in LIBRARY:
            spec = block_spec(kind, defaults.get(kind, {}))
            atom = Atom(kind, spec.fn)
            report = check_monotone(atom, 250, seed=5)
            assert report.ok, (kind, report.counterexamples[:1])

    def test_block_ports_match_the_library_table(self):
        """Every library kind under each type: the ports read from the
        spec's function are the table's, its states are the initial values
        with their kinds, and a type the kind has no block of is refused."""
        from hbd.exprs import lit_kind
        from hbd.frontend import LIBRARY, block_spec
        from util import KINDS, library_ports

        for kind in LIBRARY:
            for t in KINDS:
                entry = library_ports(kind, t)
                if entry is None:
                    with pytest.raises(SchemaError, match="Bool"):
                        block_spec(kind, {"type": t})
                    continue
                params, ins, outs, inits = entry
                spec = block_spec(kind, {**params, "type": t})
                assert (spec.in_ports, spec.out_ports, spec.inits) == (ins, outs, inits), (kind, t)
                states = tuple(map(lit_kind, inits))
                assert spec.fn.in_kinds == tuple(ty for _, ty in ins) + states
                assert spec.fn.out_kinds == tuple(ty for _, ty in outs) + states

    def test_int_typed_blocks(self):
        doc = {
            "version": 1,
            "name": "ints",
            "inputs": [{"name": "u", "type": "Int", "to": "A.a"}],
            "outputs": [{"name": "y", "type": "Int", "from": "A.out"}],
            "blocks": [{"id": "A", "kind": "Gain", "params": {"k": 3, "type": "Int"}}],
            "wires": [],
        }
        ds, _ = to_io_diagrams(normalize(parse_doc(json.dumps(doc))))
        from hbd.semantics import eval_term

        assert eval_term(ds[0].body, (4,)) == (12,)
