"""The nondeterministic translation loop and its choice-resolution strategies.

Starting from an io-distinct list of io-diagrams, the loop repeatedly
replaces a group of elements by a composition until one remains, then
applies a final named feedback:

  (a) replace k > 1 elements B1..Bk by FB(B1 ||| ... ||| Bk)
  (b) replace a pair A, B by FB(FB(A) ;;; FB(B))

Every resolution of the choices yields io-equivalent results.  A strategy
is a step generator: ``steps(ds)`` yields the working list after each
replacement.  The shipped ones are all-at-once parallel (a with k = n),
incremental pairwise serial (b on the first two of a topologically sorted
list), and a seeded random mix.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Sequence

from .errors import PreconditionError
from .io_diagrams import IoDiagram, fold_parallel, named_feedback, named_serial


@dataclass(frozen=True)
class FeedbackParallel:
    def steps(self, ds):
        if len(ds) > 1:
            yield [_group_step(ds)]


@dataclass(frozen=True)
class Incremental:
    def steps(self, ds):
        ds = topo_order(ds)
        while len(ds) > 1:
            ds = [_pair_step(ds[0], ds[1])] + ds[2:]
            yield ds


@dataclass(frozen=True)
class RandomChoices:
    seed: int

    def steps(self, ds):
        rng = random.Random(self.seed)
        while len(ds) > 1:
            if rng.random() < 0.5:
                i, j = rng.sample(range(len(ds)), 2)
                rest = [d for k, d in enumerate(ds) if k not in (i, j)]
                ds = [_pair_step(ds[i], ds[j])] + rest
            else:
                k = rng.randint(2, len(ds))
                picked = rng.sample(range(len(ds)), k)
                rng.shuffle(picked)
                taken = set(picked)
                rest = [d for idx, d in enumerate(ds) if idx not in taken]
                ds = [_group_step([ds[i] for i in picked])] + rest
            yield ds


def check_io_distinct(ds: Sequence[IoDiagram]) -> bool:
    """No input name occurs twice across the list, nor any output name.
    Each io-diagram's own lists are duplicate-free, so this is pairwise
    disjointness of input names and of output names."""
    ins = [v.name for d in ds for v in d.inputs]
    outs = [v.name for d in ds for v in d.outputs]
    return len(set(ins)) == len(ins) and len(set(outs)) == len(outs)


def topo_order(ds: Sequence[IoDiagram]):
    """Stable topological order of the wire dependency graph.

    Edges point from the diagram producing a variable to the one consuming
    it, found through one name -> readers index, so building them is linear
    in the interface sizes.  Members of a cycle keep their original
    relative order.
    """
    readers: dict = {}
    for j, d in enumerate(ds):
        for v in d.inputs:
            readers.setdefault(v.name, []).append(j)
    succs = [
        {j for v in d.outputs for j in readers.get(v.name, ()) if j != i}
        for i, d in enumerate(ds)
    ]
    return [ds[i] for i in stable_topo_order(succs)]


def stable_topo_order(succs) -> list:
    """Node indices 0..n-1 in a stable topological order of the graph whose
    successor sets are ``succs``.  The smallest-index node without a
    remaining predecessor goes next; when every remaining node has one (a
    cycle), the smallest-index remaining node does.  A heap holds the ready
    nodes and a low-water mark finds the smallest remaining one, so the
    sort takes O((n + e) log n) for e edges."""
    n = len(succs)
    indeg = [0] * n
    for i in range(n):
        for j in succs[i]:
            indeg[j] += 1
    ready = [i for i in range(n) if indeg[i] == 0]
    done = [False] * n
    low = 0  # every node below ``low`` is done
    order = []
    while len(order) < n:
        if ready:
            pick = heapq.heappop(ready)
        else:
            while done[low]:
                low += 1
            pick = low
        done[pick] = True
        order.append(pick)
        for j in succs[pick]:
            if not done[j]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    heapq.heappush(ready, j)
    return order


def _pair_step(a: IoDiagram, b: IoDiagram) -> IoDiagram:
    return named_feedback(named_serial(named_feedback(a), named_feedback(b)))


def _group_step(group) -> IoDiagram:
    return named_feedback(fold_parallel(group))


def translate(diagrams: Sequence[IoDiagram], strategy) -> IoDiagram:
    """Run the translation loop under ``strategy`` and return one io-diagram."""
    ds = list(diagrams)
    if not ds:
        raise PreconditionError("translate needs a nonempty list of io-diagrams")
    if not check_io_distinct(ds):
        raise PreconditionError("input list is not io-distinct")
    for ds in strategy.steps(ds):
        pass
    return named_feedback(ds[0])
