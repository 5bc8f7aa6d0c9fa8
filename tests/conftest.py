import pathlib

import pytest
from hypothesis import settings

from hbd.compiled import Compiled
from hbd.exprs import Bin, ExprFun, Ref
from hbd.frontend import normalize, parse_doc, to_io_diagrams
from hbd.io_diagrams import IoDiagram
from hbd.terms import Atom
from hbd.types import BaseType, Var

R = BaseType.REAL

DIAGRAMS = pathlib.Path(__file__).resolve().parent.parent / "diagrams"

# Every property test draws the same examples on every run, with no example
# database and no deadline, so a failure reproduces from the code alone.
settings.register_profile("reproducible", derandomize=True, database=None, deadline=None)
settings.load_profile("reproducible")


def rv(*names):
    return tuple(Var(n, R) for n in names)


@pytest.fixture(scope="session")
def running_example():
    """The summation example as hand-built io-diagrams:
    Add = ((z,u), x, [z,u -> z+u]); Delay = ((x,s), (y,s'), [x,s -> s,x]);
    Split = (y, (z,v), [y -> y,y])."""
    z, u, x, s, sp, y, v = rv("z", "u", "x", "s", "s'", "y", "v")
    add = IoDiagram(
        (z, u),
        (x,),
        Atom("Add", ExprFun((Var("z", R), Var("u", R)), (Bin("+", Ref("z"), Ref("u")),))),
    )
    delay = IoDiagram(
        (x, s),
        (y, sp),
        Atom("Delay", ExprFun((Var("x", R), Var("s", R)), (Ref("s"), Ref("x")))),
    )
    split = IoDiagram(
        (y,),
        (z, v),
        Atom("Split", ExprFun((Var("y", R),), (Ref("y"), Ref("y")))),
    )
    return add, delay, split


@pytest.fixture(scope="session")
def sum_doc():
    return parse_doc((DIAGRAMS / "sum.hbd.json").read_bytes())


@pytest.fixture(scope="session")
def sum_path():
    return str(DIAGRAMS / "sum.hbd.json")


@pytest.fixture(scope="session")
def corpus_docs():
    from hbd.gen import corpus

    return corpus(30)


@pytest.fixture(scope="session")
def corpus_diagrams(corpus_docs):
    out = []
    for doc in corpus_docs:
        norm = normalize(doc)
        diagrams, state_table = to_io_diagrams(norm)
        out.append((norm, diagrams, state_table))
    return out


@pytest.fixture(scope="session")
def corpus_reports(corpus_diagrams):
    """Determinacy matrices for the whole corpus: fbpar, incr, 20 seeds and
    fbless, 200 shared samples per pair.  Computed once per session."""
    from hbd.harness import run_determinacy

    return [
        run_determinacy(diagrams, seeds=range(20), samples=200)
        for (_, diagrams, _) in corpus_diagrams
    ]


@pytest.fixture
def compiled_runs(monkeypatch):
    """One entry per ``Compiled.run`` call while the test runs."""
    runs = []
    run = Compiled.run
    monkeypatch.setattr(Compiled, "run", lambda *a, **k: runs.append(1) or run(*a, **k))
    return runs
