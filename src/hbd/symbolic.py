"""Symbolic evaluator: the outputs of a term as hash-consed expression
graphs, and those graphs as straight-line Python.

A term is evaluated once with its inputs as symbols.  Every value is a node
of one ``Graph``: an int naming a key ``(op, *operand nodes)`` that the graph
stores once, so equal expressions are one node and a term's outputs form a
DAG.

The term is first flattened into one program over slots: one instruction
per operation of every atom occurrence, in evaluation order.  An atom's
operations are the op trees its function built once, when it was made
(``ExprFun.trees``, which already write ``/`` of Ints as ``//``), so a
graph keeps no state per expression.  Wiring (identity, split, sink,
switch, route, and serial and parallel composition) only says which slot
feeds which, so it is resolved while flattening and costs nothing
afterwards.  Each feedback occurrence owns a guess slot that
its body reads and names the slot its body feeds back.  All towers of the
term are then solved together: each pass writes the current guesses (bot at
first), runs the program once, and reads the fed-back slots, until they
repeat.  This simultaneous least fixpoint equals the nested least fixpoints
of the towers for monotone bodies, by Bekić's lemma (H. Bekić, "Definable
operations in general algebras, and the theory of automata and flowcharts",
1969), on which ``semantics.kleene`` already relies for a tower of directly
nested feedbacks.  A tower nested in another is so solved once per term,
not once per iteration of the towers around it.

Each node rule is the matching scalar rule of ``semantics``, applied only
where an operand is bot or a literal; every other operation stays a node
that the scalar rule decides per input.  So the nodes of pass k, evaluated
at an input, give what k Kleene iterations from bot give there, and two
terms with the same output nodes compute the same function on every input:
the proof step of ``harness.term_cells``, the one oracle.

Every term is decided: the solve stops when the fed-back nodes repeat, or
at the latest after ``MAX_FIX_ITERS + w - 1`` passes, for w the total width
of the term's towers (the cap of ``eval_term`` for a single tower), and
returns that pass's outputs.  Stopping at the cap is sound by the height
bound of chaotic iteration (P. Cousot and R. Cousot, "Abstract
interpretation", POPL 1977): every atom is monotone, and over flat domains
each pass that changes the fed-back values at an input turns at least one
of the w wires from bot to a value, which it then keeps.  So at every
input the values that pass w feeds back are the least fixpoint, and every
later pass, reading them as its guesses, gives the outputs at the
fixpoint.  The cap is at least w + 1, as ``MAX_FIX_ITERS >= 2``.  A graph
that still changes at the cap (x = ite(c, u, x) nests one more ite per
pass) only restates the settled values at every input.  There are no loop
nodes.  (The concrete settle test reads 0.0 == -0.0 and may stop a tower an
iteration earlier; that changes at most the sign of a zero, which
``values_close`` ignores.)

``Graph.function`` emits the nodes that a term's outputs reach as one
Python function with one assignment per node, each the scalar rule of its
operation written inline.
"""

from __future__ import annotations

from typing import Optional

from .errors import TypeMismatchError
from .semantics import BOT as BOT_VALUE, MAX_FIX_ITERS, EvalStats
from .terms import Atom, Feedback, Id, Parallel, Route, Serial, Sink, Split, Switch, Term

BOT = 0  # the node of the unknown value in every graph

# The Python of each operation over its operand names, without the bot tests
# (``Graph._code``): the scalar rules of ``semantics`` written inline.
_RULES = {
    "neg": "-{0}",
    "not": "not {0}",
    "+": "{0} + {1}",
    "-": "{0} - {1}",
    "*": "{0} * {1}",
    "/": "{0} / {1}",
    "//": "{0} // {1}",
    # min(x, y) and max(x, y) keep x unless y wins
    "min": "{1} if {1} < {0} else {0}",
    "max": "{1} if {1} > {0} else {0}",
    "<": "{0} < {1}",
    "<=": "{0} <= {1}",
    "==": "{0} == {1}",
    "and": "{0} and {1}",
    "or": "{0} or {1}",
}


def _name(node: int) -> str:
    return "BOT" if node == BOT else f"v{node}"


def _operands(key: tuple) -> tuple:
    return () if key[0] in ("bot", "in", "lit") else key[1:]


class Graph:
    """Hash-consed expression nodes shared by every term evaluated in it.

    ``keys[n]`` is node ``n``'s key: ``("bot",)``, ``("in", i)`` for input
    symbol ``i``, ``("lit", type, repr, value)`` for a literal,
    ``(op, *operand nodes)`` with ``op`` one of ``neg not + - * / // min max
    < <= == and or ite`` (``//`` is division of Ints, which floors).
    Each call of ``outputs`` flattens its term and solves all of the
    term's feedback towers in one joint Kleene iteration; terms evaluated
    in one graph share its nodes, not their solves.
    """

    def __init__(self):
        self.keys = [("bot",)]
        self._ids = {("bot",): BOT}

    def node(self, key: tuple) -> int:
        n = self._ids.get(key)
        if n is None:
            n = self._ids[key] = len(self.keys)
            self.keys.append(key)
        return n

    def symbol(self, i: int) -> int:
        return self.node(("in", i))

    def lit(self, value) -> int:
        # The kind and the sign of zero are part of the identity, though
        # Python has 1 == True == 1.0 and 0.0 == -0.0: the repr tells them apart.
        return self.node(("lit", type(value), repr(value), value))

    def apply(self, op: str, *args: int) -> int:
        """The node of ``op`` on operand nodes, by the scalar rules."""
        keys = self.keys
        if op == "ite":
            c = args[0]
            if c == BOT:
                return BOT
            if keys[c][0] == "lit":
                return args[1] if keys[c][3] else args[2]
        elif BOT in args:
            return BOT
        return self.node((op,) + args)

    def outputs(self, term: Term, inputs, stats: Optional[EvalStats] = None):
        """The output nodes of ``term`` given its input nodes, from the pass
        where its fed-back nodes repeat or else from the pass at the cap.  A
        term with towers records one entry in ``stats.symbolic_runs``: (the
        total width of its towers, the passes of their joint solve)."""
        values, program, guesses, fed, outs = self._flatten(term, tuple(inputs))
        apply = self.apply
        width = len(guesses)
        cap = MAX_FIX_ITERS + width - 1
        xs = (BOT,) * width
        passes = 0
        while True:
            for slot, x in zip(guesses, xs):
                values[slot] = x
            for op, args, res in program:
                values[res] = apply(op, *[values[i] for i in args])
            passes += 1
            new = tuple(values[i] for i in fed)
            if new == xs or passes >= cap:
                break
            xs = new
        if width and stats is not None:
            stats.symbolic_runs.append((width, passes))
        return tuple(values[i] for i in outs)

    def function(self, inputs, outputs):
        """(``row``, its source): the nodes ``outputs`` as one Python function
        ``row(*values of inputs)`` returning their tuple of values.

        Each node that ``outputs`` reach is one assignment, in node order, so
        its operands come first.  A literal is a global bound to its value."""
        keys = self.keys
        live, todo = set(outputs), list(outputs)
        while todo:
            for m in _operands(keys[todo.pop()]):
                if m not in live:
                    live.add(m)
                    todo.append(m)
        env = {"BOT": BOT_VALUE}
        lines = ["def row(" + ", ".join(f"v{n}" for n in inputs) + "):"]
        for n in sorted(live):
            key = keys[n]
            if key[0] == "lit":
                env[f"v{n}"] = key[3]
            elif key[0] not in ("bot", "in"):
                lines.append(f"    v{n} = {self._code(key)}")
        lines.append("    return (" + "".join(f"{_name(n)}, " for n in outputs) + ")")
        text = "\n".join(lines) + "\n"
        exec(compile(text, "<hbd row>", "exec"), env)
        return env["row"], text

    def _code(self, key: tuple) -> str:
        """The scalar rule of an operation node, over its operand names; a
        literal operand is never bot, so it needs no bot test."""
        op, args = key[0], key[1:]
        names = [_name(a) for a in args]
        if op == "ite":  # the condition is neither bot nor a literal here
            c, t, e = names
            return f"BOT if {c} is BOT else {t} if {c} else {e}"
        guards = [f"{v} is BOT" for v, a in zip(names, args) if self.keys[a][0] != "lit"]
        if op in ("/", "//"):  # bot on a zero divisor
            guards.append(f"{names[1]} == 0")
        code = _RULES[op].format(*names)
        return f"BOT if {' or '.join(guards)} else {code}" if guards else code

    def _flatten(self, term: Term, inputs: tuple):
        """``term`` as one flat program over slots: (values, program,
        guesses, fed, outs).  ``values`` holds one node per slot: slot 0
        holds BOT, the unknown value that a ``Route`` gives for None, then
        come the input nodes.  ``program`` lists one instruction
        (op, operand slots, result slot) per operation of every atom
        occurrence, in evaluation order.  Each ``Feedback`` occurrence owns
        one guess slot in ``guesses``, which its body reads as its first
        input, and ``fed`` names the slot its body feeds back.  Wiring,
        and an atom body that is an argument or a literal, is resolved here
        into slots, so it costs nothing when the program runs."""
        values = [BOT, *inputs]
        program, guesses, fed = [], [], []

        def slot(tree, ins):
            """The slot of an atom body's op tree, its arguments in ``ins``."""
            op = tree[0]
            if op == "arg":
                return ins[tree[1]]
            if op == "lit":
                values.append(self.lit(tree[1]))
            else:
                args = tuple(slot(t, ins) for t in tree[1:])
                values.append(BOT)
                program.append((op, args, len(values) - 1))
            return len(values) - 1

        def flat(term, ins):
            cls = type(term)
            if cls is Serial:
                return flat(term.second, flat(term.first, ins))
            if cls is Parallel:
                n = len(term.left.in_types)
                return flat(term.left, ins[:n]) + flat(term.right, ins[n:])
            if cls is Route:
                return tuple(BOT if i is None else ins[i] for i in term.imap)
            if cls is Atom:
                return tuple(slot(t, ins) for t in term.fn.trees)
            if cls is Id:
                return ins
            if cls is Split:
                return ins + ins
            if cls is Sink:
                return ()
            if cls is Switch:
                n = len(term.t)
                return ins[n:] + ins[:n]
            if cls is Feedback:
                k, guess = len(guesses), len(values)
                guesses.append(guess)
                fed.append(None)  # the body may hold towers of its own
                values.append(BOT)
                outs = flat(term.body, (guess,) + ins)
                fed[k] = outs[0]
                return outs[1:]
            raise TypeMismatchError(f"not a term: {term!r}")

        outs = flat(term, tuple(range(1, 1 + len(inputs))))
        return values, program, guesses, fed, outs
