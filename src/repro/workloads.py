"""Reproducible workload generators for every experiment in EXPERIMENTS.md.

All generators take an explicit ``seed`` and return plain Python structures
(the record granularity of the simulation); NumPy is used internally for
speed where convenient.
"""

from __future__ import annotations

import random

import numpy as np

__all__ = [
    "uniform_keys",
    "random_permutation",
    "reversing_permutation",
    "bit_reversal_permutation",
    "matrix_entries",
    "random_segments",
    "random_points",
    "random_rectangles",
    "random_linked_list",
    "random_tree_edges",
    "random_expression_tree",
    "random_graph_edges",
    "random_forest_edges",
]


def uniform_keys(n: int, seed: int = 0, lo: int = 0, hi: int = 1 << 30) -> list[int]:
    """``n`` uniform random integer keys (duplicates possible)."""
    rng = np.random.default_rng(seed)
    return rng.integers(lo, hi, size=n).tolist()


def random_permutation(n: int, seed: int = 0) -> list[int]:
    """A uniform random permutation ``pi`` of ``0..n-1`` (``pi[i]`` = target of ``i``)."""
    rng = np.random.default_rng(seed)
    return rng.permutation(n).tolist()


def reversing_permutation(n: int) -> list[int]:
    """The permutation mapping ``i -> n-1-i`` (an adversarial, structured case)."""
    return list(range(n - 1, -1, -1))


def bit_reversal_permutation(log_n: int) -> list[int]:
    """Bit-reversal permutation of ``2**log_n`` items — the classical worst
    case for naive (unblocked) external permutation."""
    n = 1 << log_n
    return [int(format(i, f"0{log_n}b")[::-1], 2) for i in range(n)]


def matrix_entries(r: int, c: int, seed: int = 0) -> list[int]:
    """Row-major entries of an ``r x c`` matrix with distinct values."""
    rng = np.random.default_rng(seed)
    return rng.permutation(r * c).tolist()


def random_segments(
    n: int, seed: int = 0, span: float = 1000.0, nonintersecting: bool = True
) -> list[tuple[float, float, float, float]]:
    """``n`` segments ``(x1, y1, x2, y2)`` with ``x1 < x2``.

    With ``nonintersecting=True`` the segments are horizontal slices at
    distinct heights (guaranteed non-crossing), the input class required by
    the lower-envelope algorithm of Table 1.
    """
    rng = random.Random(seed)
    segs = []
    if nonintersecting:
        heights = rng.sample(range(1, 100 * n + 1), n)
        for h in heights:
            x1 = rng.uniform(0, span * 0.8)
            x2 = x1 + rng.uniform(span * 0.05, span * 0.2)
            segs.append((x1, float(h), x2, float(h)))
    else:
        for _ in range(n):
            x1, x2 = sorted((rng.uniform(0, span), rng.uniform(0, span)))
            if x1 == x2:
                x2 += 1e-6
            segs.append((x1, rng.uniform(0, span), x2, rng.uniform(0, span)))
    return segs


def random_points(
    n: int, seed: int = 0, dims: int = 2, span: float = 1000.0
) -> list[tuple[float, ...]]:
    """``n`` random points in ``dims`` dimensions with distinct coordinates."""
    rng = np.random.default_rng(seed)
    # Distinct coordinates per axis avoid degenerate ties in geometry code.
    cols = [rng.permutation(n * 4)[:n] * (span / (n * 4)) for _ in range(dims)]
    return [tuple(float(cols[d][i]) for d in range(dims)) for i in range(n)]


def random_rectangles(
    n: int, seed: int = 0, span: float = 1000.0
) -> list[tuple[float, float, float, float]]:
    """``n`` axis-parallel rectangles ``(x1, y1, x2, y2)``, ``x1<x2, y1<y2``."""
    rng = random.Random(seed)
    rects = []
    for _ in range(n):
        x1 = rng.uniform(0, span * 0.9)
        y1 = rng.uniform(0, span * 0.9)
        rects.append(
            (x1, y1, x1 + rng.uniform(1.0, span * 0.1), y1 + rng.uniform(1.0, span * 0.1))
        )
    return rects


def random_linked_list(n: int, seed: int = 0) -> list[int]:
    """``succ`` array of a random singly linked list over nodes ``0..n-1``.

    Returns ``succ`` with ``succ[tail] == tail`` (self-loop marks the tail).
    The list visits all ``n`` nodes in a random order.
    """
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    succ = [0] * n
    for a, b in zip(order, order[1:]):
        succ[a] = b
    succ[order[-1]] = order[-1]
    return succ


def random_tree_edges(n: int, seed: int = 0) -> list[tuple[int, int]]:
    """Edges (parent, child) of a random rooted tree on ``0..n-1`` rooted at 0."""
    rng = random.Random(seed)
    edges = []
    for child in range(1, n):
        edges.append((rng.randrange(child), child))
    return edges


def random_expression_tree(
    n_leaves: int, seed: int = 0
) -> tuple[list[tuple[int, int]], dict[int, str], dict[int, int]]:
    """A random binary expression tree.

    Returns ``(edges, ops, leaf_values)`` where internal nodes carry an
    operator in ``{+, *}`` and leaves carry small integers.  Node 0 is the
    root; nodes are ``0..2*n_leaves-2``.
    """
    rng = random.Random(seed)
    # Build a random full binary tree top-down.
    nodes = [0]
    next_id = 1
    leaves = []
    internal = []
    frontier = [0]
    while len(leaves) + len(frontier) < n_leaves:
        idx = rng.randrange(len(frontier))
        node = frontier.pop(idx)
        internal.append(node)
        left, right = next_id, next_id + 1
        next_id += 2
        nodes.extend([left, right])
        frontier.extend([left, right])
    leaves.extend(frontier)
    edges = []
    ops = {}
    child_count: dict[int, int] = {}
    # Reconstruct parent edges from the generation order.
    # (Regenerate deterministically: easier to track during construction.)
    rng = random.Random(seed)
    frontier = [0]
    next_id = 1
    edges = []
    while next_id < 2 * n_leaves - 1:
        idx = rng.randrange(len(frontier))
        node = frontier.pop(idx)
        left, right = next_id, next_id + 1
        next_id += 2
        edges.append((node, left))
        edges.append((node, right))
        ops[node] = rng.choice("+*")
        frontier.extend([left, right])
    leaf_values = {leaf: rng.randrange(1, 4) for leaf in frontier}
    return edges, ops, leaf_values


def random_graph_edges(
    n: int, m: int, seed: int = 0, connected: bool = False
) -> list[tuple[int, int]]:
    """``m`` distinct undirected edges over ``n`` vertices (no self-loops).

    With ``connected=True`` a random spanning tree is included first.
    """
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()
    if connected:
        order = list(range(n))
        rng.shuffle(order)
        for a, b in zip(order, order[1:]):
            edges.add((min(a, b), max(a, b)))
    while len(edges) < m:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def random_forest_edges(
    n: int, ncomponents: int, seed: int = 0
) -> tuple[list[tuple[int, int]], list[int]]:
    """A forest of ``ncomponents`` random trees over ``n`` vertices.

    Returns ``(edges, component_of)`` for ground truth in connectivity tests.
    """
    rng = random.Random(seed)
    verts = list(range(n))
    rng.shuffle(verts)
    # Split the shuffled vertices into ncomponents non-empty parts.
    cuts = sorted(rng.sample(range(1, n), ncomponents - 1)) if ncomponents > 1 else []
    parts = []
    prev = 0
    for c in cuts + [n]:
        parts.append(verts[prev:c])
        prev = c
    edges = []
    component_of = [0] * n
    for ci, part in enumerate(parts):
        for vtx in part:
            component_of[vtx] = ci
        for i in range(1, len(part)):
            edges.append((part[rng.randrange(i)], part[i]))
    rng.shuffle(edges)
    return edges, component_of
