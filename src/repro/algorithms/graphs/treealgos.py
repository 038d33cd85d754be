"""Tree computations via Euler tour + list ranking (Table 1, Group C).

The classical applications of the Euler-tour technique: node depths, preorder
numbers, and subtree sizes all reduce to ranking the Euler tour with suitable
arc weights.  Lowest common ancestors reduce further to range-minimum queries
over the depth sequence of the tour (see
:class:`~repro.algorithms.graphs.rmq.CGMBatchedRMQ`).

Each driver composes two or three CGM algorithms; since every constituent has
``lambda = O(log p)`` (list ranking) or ``lambda = O(1)`` (tour construction,
RMQ), the compositions inherit the Group C complexity row.  Drivers accept a
``run`` callable so the same code executes on the in-memory reference runner
(default) or through either EM simulation engine::

    run = lambda alg, v: simulate(alg, machine, v)[0]   # EM execution
    depths = tree_depths(edges, root, v, run=run)
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from ...bsp.runner import run_reference
from .eulertour import CGMEulerTourSuccessor
from .listranking import CGMListRanking

__all__ = [
    "euler_tour_positions",
    "tree_depths",
    "preorder_numbers",
    "subtree_sizes",
]

Runner = Callable[[Any, int], list]


def _default_run(alg, v):
    return run_reference(alg, v)[0]


def _tour_successors(
    edges: Sequence[tuple[int, int]], root: int, v: int, run: Runner
) -> list[int]:
    """Euler-tour successor array over arc ids (tail maps to itself)."""
    narcs = 2 * len(edges)
    succ = [0] * narcs
    for part in run(CGMEulerTourSuccessor(edges, root, v), v):
        for arc, nxt in part:
            succ[arc] = nxt
    return succ


def _ranks(
    succ: list[int], v: int, run: Runner, values: Sequence | None = None
) -> list:
    ranks = [0] * len(succ)
    for part in run(CGMListRanking(succ, v, values=values), v):
        for node, r in part:
            ranks[node] = r
    return ranks


def euler_tour_positions(
    edges: Sequence[tuple[int, int]], root: int, v: int, run: Runner = _default_run
) -> list[int]:
    """Position (0-based) of every arc in the Euler tour.

    ``positions[arc]`` is the arc's index along the tour starting at the
    root's first departure.
    """
    succ = _tour_successors(edges, root, v, run)
    ranks = _ranks(succ, v, run)  # unit weights: distance to tail
    narcs = len(succ)
    return [narcs - 1 - r for r in ranks]


def _prefix_inclusive(
    succ: list[int], weights: list, ranks: list
) -> list:
    """Prefix sums (inclusive) over the tour from suffix-sum ranks.

    ``rank(e)`` covers arcs ``e..tail`` excluding the tail's own weight, so
    ``prefix_incl(e) = S - rank(e) + w(e)`` with ``S = rank(head)``; the tail
    arc gets ``S + w(tail)``.
    """
    narcs = len(succ)
    tail = next(e for e in range(narcs) if succ[e] == e)
    heads = set(range(narcs)) - set(s for e, s in enumerate(succ) if s != e)
    head = heads.pop() if heads else tail
    S = ranks[head]
    out = [0] * narcs
    for e in range(narcs):
        out[e] = S + weights[e] if e == tail else S - ranks[e] + weights[e]
    return out


def tree_depths(
    edges: Sequence[tuple[int, int]], root: int, v: int, run: Runner = _default_run
) -> dict[int, int]:
    """Depth of every node (root = 0) via tour weights +1 (down) / -1 (up)."""
    succ = _tour_successors(edges, root, v, run)
    weights = [1 if arc % 2 == 0 else -1 for arc in range(len(succ))]
    ranks = _ranks(succ, v, run, values=weights)
    prefix = _prefix_inclusive(succ, weights, ranks)
    depths = {root: 0}
    for k, (_p, child) in enumerate(edges):
        depths[child] = prefix[2 * k]  # the down arc into `child`
    return depths


def preorder_numbers(
    edges: Sequence[tuple[int, int]], root: int, v: int, run: Runner = _default_run
) -> dict[int, int]:
    """Preorder number of every node (root = 0), via down-arc counting."""
    succ = _tour_successors(edges, root, v, run)
    weights = [1 if arc % 2 == 0 else 0 for arc in range(len(succ))]
    ranks = _ranks(succ, v, run, values=weights)
    prefix = _prefix_inclusive(succ, weights, ranks)
    order = {root: 0}
    for k, (_p, child) in enumerate(edges):
        order[child] = prefix[2 * k]
    return order


def subtree_sizes(
    edges: Sequence[tuple[int, int]], root: int, v: int, run: Runner = _default_run
) -> dict[int, int]:
    """Number of nodes in every node's subtree (the root's is ``n``)."""
    positions = euler_tour_positions(edges, root, v, run)
    nnodes = len(edges) + 1
    sizes = {root: nnodes}
    for k, (_p, child) in enumerate(edges):
        down, up = positions[2 * k], positions[2 * k + 1]
        sizes[child] = (up - down + 1) // 2
    return sizes
