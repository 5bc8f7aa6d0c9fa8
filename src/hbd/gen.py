"""Random diagram generator for the property and acceptance suites.

Generated documents are always valid: block inputs are wired to earlier
blocks' outputs of the same type, to unit-delay outputs anywhere (closing
cycles only through state, so the split block list stays algebraic-loop
free), or to fresh external inputs.  Unconsumed outputs become declared
outputs.  ``loop_diagram`` builds a small document with a genuine algebraic
loop for rejection tests, and ``twin_chain`` a deeply nested hierarchy.
"""

from __future__ import annotations

import random

from .frontend import (
    BlockInst,
    DiagramDoc,
    ExtIn,
    ExtOut,
    PortRef,
    WireDecl,
    block_spec,
    check_tree,
)
from .types import BaseType

_STATELESS = ("Add", "Sub", "Gain", "Min", "Max", "Identity")


def random_diagram(
    seed: int,
    min_blocks: int = 5,
    max_blocks: int = 12,
) -> DiagramDoc:
    rng = random.Random(seed)
    n = rng.randint(min_blocks, max_blocks)
    blocks = []
    specs = []
    for i in range(n):
        roll = rng.random()
        if roll < 0.22:
            kind, params = "UnitDelay", {"init": float(rng.randint(-2, 2))}
        elif roll < 0.32:
            kind, params = "Constant", {"value": float(rng.randint(-3, 3))}
        elif roll < 0.42:
            kind, params = "Gain", {"k": float(rng.choice((-2, -1, 2, 3)))}
        elif roll < 0.50:
            kind, params = "Relational", {}
        elif roll < 0.56:
            kind, params = "SwitchBlk", {}
        else:
            kind, params = rng.choice(_STATELESS), {}
            if kind == "Gain":
                params = {"k": 2.0}
        bid = f"b{i}"
        blocks.append(BlockInst(bid, kind, tuple(sorted(params.items()))))
        specs.append(block_spec(kind, params))

    delay_idx = [i for i, s in enumerate(specs) if s.kind == "UnitDelay"]
    wires = []
    ext_inputs = []
    consumed = set()
    ext_n = 0

    def source_for(i: int, ty: BaseType):
        nonlocal ext_n
        candidates = []
        for j in range(i):
            for pname, pty in specs[j].out_ports:
                if pty == ty:
                    candidates.append(PortRef(blocks[j].id, pname))
        for j in delay_idx:
            if j >= i:
                for pname, pty in specs[j].out_ports:
                    if pty == ty:
                        candidates.append(PortRef(blocks[j].id, pname))
        if candidates and rng.random() > 0.3:
            return rng.choice(candidates)
        ext_n += 1
        return None

    for i, (blk, spec) in enumerate(zip(blocks, specs)):
        for pname, pty in spec.in_ports:
            dst = PortRef(blk.id, pname)
            src = source_for(i, pty)
            if src is None:
                ext_inputs.append(ExtIn(f"in{ext_n}", pty, (dst,)))
            else:
                wires.append(WireDecl(src, dst))
                consumed.add(src)

    ext_outputs = []
    out_n = 0
    for blk, spec in zip(blocks, specs):
        for pname, pty in spec.out_ports:
            ref = PortRef(blk.id, pname)
            if ref not in consumed:
                out_n += 1
                ext_outputs.append(ExtOut(f"out{out_n}", pty, ref))
    if not ext_outputs:
        blk, spec = blocks[-1], specs[-1]
        pname, pty = spec.out_ports[0]
        out_n += 1
        ext_outputs.append(ExtOut(f"out{out_n}", pty, PortRef(blk.id, pname)))

    doc = DiagramDoc(
        f"random{seed}", ext_inputs, ext_outputs, blocks, wires, {},
        specs={blk.id: spec for blk, spec in zip(blocks, specs)},
    )
    check_tree(doc)  # checks against the specs built for wiring
    return doc


def loop_diagram() -> DiagramDoc:
    """Gain -> Add -> Gain: an instantaneous cycle with no delay in it."""
    blocks = [
        BlockInst("G", "Gain", (("k", 2.0),)),
        BlockInst("A", "Add", ()),
    ]
    wires = [
        WireDecl(PortRef("A", "out"), PortRef("G", "a")),
        WireDecl(PortRef("G", "out"), PortRef("A", "a")),
    ]
    inputs = [ExtIn("u", BaseType.REAL, (PortRef("A", "b"),))]
    outputs = [ExtOut("y", BaseType.REAL, PortRef("A", "out"))]
    doc = DiagramDoc("algebraic-loop", inputs, outputs, blocks, wires, {})
    check_tree(doc)
    return doc


def twin_chain(k: int) -> DiagramDoc:
    """``k`` levels of subsystems, each two instances of the level below
    wired in series from ``u`` to ``y``; the leaf is a Gain then a
    UnitDelay.  The flattened document has 2**k leaves."""
    leaf = DiagramDoc(
        "leaf",
        [ExtIn("u", BaseType.REAL, (PortRef("G", "a"),))],
        [ExtOut("y", BaseType.REAL, PortRef("D", "y"))],
        [BlockInst("G", "Gain", (("k", 0.5),)), BlockInst("D", "UnitDelay", (("init", 0.0),))],
        [WireDecl(PortRef("G", "out"), PortRef("D", "x"))],
    )
    doc = leaf
    for level in range(1, k + 1):
        below = f"L{level - 1}"
        doc = DiagramDoc(
            f"level{level}",
            [ExtIn("u", BaseType.REAL, (PortRef("A", "u"),))],
            [ExtOut("y", BaseType.REAL, PortRef("B", "y"))],
            [BlockInst("A", below), BlockInst("B", below)],
            [WireDecl(PortRef("A", "y"), PortRef("B", "u"))],
            {below: doc},
        )
    check_tree(doc)
    return doc


def corpus(count: int = 30, base_seed: int = 2024):
    """The standing test corpus: ``count`` random diagrams of 5-12 blocks."""
    return [random_diagram(base_seed + i) for i in range(count)]
