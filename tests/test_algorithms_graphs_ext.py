"""Tests for the extended Group C rows: RMQ, batched LCA, expression trees."""

import random

import pytest

from repro import workloads
from repro.algorithms.graphs import (
    CGMBatchedRMQ,
    CGMExpressionEval,
    batched_lca,
)
from repro.bsp.runner import run_reference
from repro.core.simulator import simulate
from repro.params import MachineParams

MACHINE = MachineParams(p=1, M=1 << 16, D=2, B=32, b=32)


def collect(outputs):
    got = {}
    for part in outputs:
        got.update(dict(part))
    return got


class TestBatchedRMQ:
    @pytest.mark.parametrize("n,q,v", [(16, 8, 4), (100, 40, 4), (64, 64, 8)])
    def test_matches_oracle(self, n, q, v):
        rng = random.Random(n * 31 + q)
        values = [rng.randrange(1000) for _ in range(n)]
        queries = []
        for _ in range(q):
            lo = rng.randrange(n)
            hi = rng.randrange(lo, n)
            queries.append((lo, hi))
        out, _ = run_reference(CGMBatchedRMQ(values, queries, v), v)
        got = collect(out)
        for qi, (lo, hi) in enumerate(queries):
            want = min(range(lo, hi + 1), key=lambda i: (values[i], i))
            assert got[qi] == want

    def test_single_element_ranges(self):
        values = list(range(20, 0, -1))
        queries = [(i, i) for i in range(20)]
        out, _ = run_reference(CGMBatchedRMQ(values, queries, 4), 4)
        got = collect(out)
        assert got == {i: i for i in range(20)}

    def test_full_range(self):
        values = [5, 3, 8, 3, 9, 1, 7, 2]
        out, _ = run_reference(CGMBatchedRMQ(values, [(0, 7)], 4), 4)
        assert collect(out) == {0: 5}

    def test_ties_resolve_to_smallest_position(self):
        values = [2, 1, 1, 1, 2, 2, 2, 2]
        out, _ = run_reference(CGMBatchedRMQ(values, [(0, 7), (2, 7)], 4), 4)
        got = collect(out)
        assert got[0] == 1 and got[1] == 2

    def test_within_one_segment(self):
        values = list(range(32))
        out, _ = run_reference(CGMBatchedRMQ(values, [(1, 3), (9, 10)], 4), 4)
        got = collect(out)
        assert got == {0: 1, 1: 9}

    def test_rejects_bad_query(self):
        with pytest.raises(ValueError):
            CGMBatchedRMQ([1, 2], [(0, 5)], 2)

    def test_constant_supersteps(self):
        rng = random.Random(1)
        values = [rng.random() for _ in range(64)]
        _, ledger = run_reference(
            CGMBatchedRMQ(values, [(0, 63), (5, 20)], 4), 4
        )
        assert ledger.num_supersteps == 5

    def test_em_sequential_matches(self):
        rng = random.Random(9)
        values = [rng.randrange(100) for _ in range(64)]
        queries = [(rng.randrange(32), 32 + rng.randrange(32)) for _ in range(16)]
        out, _ = simulate(CGMBatchedRMQ(values, queries, 4), MACHINE, v=4)
        got = collect(out)
        for qi, (lo, hi) in enumerate(queries):
            want = min(range(lo, hi + 1), key=lambda i: (values[i], i))
            assert got[qi] == want


def brute_lca(edges, root, u, v_):
    parent = {c: p for p, c in edges}

    def ancestors(x):
        chain = [x]
        while x in parent:
            x = parent[x]
            chain.append(x)
        return chain

    au = ancestors(u)
    av = set(ancestors(v_))
    for x in au:
        if x in av:
            return x
    raise AssertionError("no common ancestor")  # pragma: no cover


class TestBatchedLCA:
    @pytest.mark.parametrize("n,v", [(8, 4), (30, 4), (64, 8)])
    def test_matches_oracle(self, n, v):
        edges = workloads.random_tree_edges(n, seed=n + 5)
        rng = random.Random(n)
        queries = [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)]
        answers = batched_lca(edges, 0, queries, v)
        for (a, b), got in zip(queries, answers):
            assert got == brute_lca(edges, 0, a, b)

    def test_self_queries(self):
        edges = workloads.random_tree_edges(16, seed=3)
        answers = batched_lca(edges, 0, [(i, i) for i in range(16)], 4)
        assert answers == list(range(16))

    def test_ancestor_queries(self):
        # Path tree: LCA(a, b) = min(a, b).
        n = 16
        edges = [(i, i + 1) for i in range(n - 1)]
        rng = random.Random(0)
        queries = [(rng.randrange(n), rng.randrange(n)) for _ in range(20)]
        answers = batched_lca(edges, 0, queries, 4)
        assert answers == [min(a, b) for a, b in queries]

    def test_star_tree(self):
        n = 17
        edges = [(0, i) for i in range(1, n)]
        answers = batched_lca(edges, 0, [(1, 2), (5, 5), (0, 9)], 4)
        assert answers == [0, 5, 0]

    def test_single_node(self):
        assert batched_lca([], 0, [(0, 0)], 2) == [0]

    def test_through_em_engine(self):
        n, v = 24, 4
        edges = workloads.random_tree_edges(n, seed=8)
        rng = random.Random(2)
        queries = [(rng.randrange(n), rng.randrange(n)) for _ in range(12)]
        run = lambda alg, vv: simulate(alg, MACHINE, v=vv, seed=1)[0]
        answers = batched_lca(edges, 0, queries, v, run=run)
        for (a, b), got in zip(queries, answers):
            assert got == brute_lca(edges, 0, a, b)


def brute_eval(edges, ops, leaf_values, root=0):
    children = {}
    for p, c in edges:
        children.setdefault(p, []).append(c)

    def rec(node):
        if node in leaf_values:
            return leaf_values[node]
        vals = [rec(c) for c in children[node]]
        out = vals[0]
        for x in vals[1:]:
            out = out + x if ops[node] == "+" else out * x
        return out

    return rec(root)


class TestExpressionEval:
    @pytest.mark.parametrize("nleaves,v", [(2, 2), (8, 4), (40, 4), (64, 8)])
    def test_matches_oracle(self, nleaves, v):
        edges, ops, leaves = workloads.random_expression_tree(nleaves, seed=nleaves)
        want = brute_eval(edges, ops, leaves)
        out, _ = run_reference(CGMExpressionEval(edges, ops, leaves, v), v)
        assert all(o == [want] for o in out)

    def test_single_leaf(self):
        out, _ = run_reference(CGMExpressionEval([], {}, {0: 42}, 2), 2)
        assert out[0] == [42]

    def test_pure_sum_tree(self):
        # Balanced all-+ tree: value = sum of leaves.
        edges, ops, leaves = workloads.random_expression_tree(16, seed=2)
        ops = {k: "+" for k in ops}
        out, _ = run_reference(CGMExpressionEval(edges, ops, leaves, 4), 4)
        assert out[0] == [sum(leaves.values())]

    def test_caterpillar_tree(self):
        # Deep left-leaning tree exercises the compression path.
        nleaves = 24
        edges, ops, leaves = [], {}, {}
        nxt = 1
        node = 0
        for depth in range(nleaves - 1):
            left, right = nxt, nxt + 1
            nxt += 2
            edges.append((node, left))
            edges.append((node, right))
            ops[node] = "+"
            leaves[right] = 1
            node = left
        leaves[node] = 1
        want = brute_eval(edges, ops, leaves)
        out, ledger = run_reference(CGMExpressionEval(edges, ops, leaves, 4), 4)
        assert out[0] == [want] == [nleaves]
        # Compression keeps rounds well below the tree depth.
        assert ledger.num_supersteps < nleaves

    def test_mixed_ops(self):
        #        *
        #      /   \
        #     +     +
        #    / \   / \
        #   2   3 4   5   -> (2+3) * (4+5) = 45
        edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]
        ops = {0: "*", 1: "+", 2: "+"}
        leaves = {3: 2, 4: 3, 5: 4, 6: 5}
        out, _ = run_reference(CGMExpressionEval(edges, ops, leaves, 4), 4)
        assert out[0] == [45]

    def test_rejects_bad_op(self):
        with pytest.raises(ValueError):
            CGMExpressionEval([(0, 1), (0, 2)], {0: "-"}, {1: 1, 2: 2}, 2)

    def test_em_sequential_matches(self):
        edges, ops, leaves = workloads.random_expression_tree(32, seed=6)
        want = brute_eval(edges, ops, leaves)
        out, report = simulate(
            CGMExpressionEval(edges, ops, leaves, 4), MACHINE, v=4, k=1, seed=4
        )
        assert out[0] == [want]
        assert report.io_ops > 0

    def test_em_parallel_matches(self):
        edges, ops, leaves = workloads.random_expression_tree(24, seed=7)
        want = brute_eval(edges, ops, leaves)
        machine = MachineParams(p=2, M=1 << 16, D=2, B=32, b=32)
        out, _ = simulate(
            CGMExpressionEval(edges, ops, leaves, 4), machine, v=4, k=2, seed=4
        )
        assert out[0] == [want]
