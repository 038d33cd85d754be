"""Tests for Group C CGM graph algorithms."""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import workloads
from repro.algorithms.graphs import (
    CGMConnectedComponents,
    CGMEulerTourSuccessor,
    CGMListRanking,
    CGMSpanningForest,
    euler_tour_positions,
    preorder_numbers,
    subtree_sizes,
    tree_depths,
)
from repro.algorithms.graphs.listranking import _prio, _prio_arr
from repro.bsp.runner import run_reference
from repro.core.simulator import simulate
from repro.params import MachineParams

MACHINE = MachineParams(p=1, M=1 << 16, D=2, B=32, b=32)


def true_ranks(succ, values=None):
    """The pointer walk: follow ``succ`` from each node, summing weights."""

    def walk(i):
        r = 0
        while succ[i] != i:
            r += 1 if values is None else values[i]
            i = succ[i]
        return r

    return [walk(i) for i in range(len(succ))]


def ranks_from(outputs, n):
    out = [None] * n
    for part in outputs:
        for node, r in part:
            out[node] = r
    return out


class WatchedListRanking(CGMListRanking):
    """List ranking that logs ``(round, s, pred(s), succ(s))`` for every node
    it removes, as the round saw them."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.left = []

    def _leaving(self, st, rnd):
        out = super()._leaving(st, rnd)
        lo = st["lo"]
        self.left.extend((rnd, lo + li, st["pred"][li], st["succ"][li]) for li in out)
        return out


class TestListRanking:
    @pytest.mark.parametrize("n,v", [(1, 1), (2, 2), (16, 4), (100, 4), (64, 8)])
    def test_distances(self, n, v):
        succ = workloads.random_linked_list(n, seed=n * 7 + v)
        out, _ = run_reference(CGMListRanking(succ, v), v)
        assert ranks_from(out, n) == true_ranks(succ)

    def test_identity_chain(self):
        # 0 -> 1 -> 2 -> ... -> n-1 (tail)
        n, v = 32, 4
        succ = list(range(1, n)) + [n - 1]
        out, _ = run_reference(CGMListRanking(succ, v), v)
        assert ranks_from(out, n) == [n - 1 - i for i in range(n)]

    def test_weighted_suffix_sums(self):
        n, v = 24, 4
        succ = list(range(1, n)) + [n - 1]
        values = [i + 1 for i in range(n)]  # weight of edge out of node i
        out, _ = run_reference(CGMListRanking(succ, v, values=values), v)
        ranks = ranks_from(out, n)
        # rank(i) = sum of values[i..n-2] (the tail's weight is ignored).
        for i in range(n):
            assert ranks[i] == sum(values[i : n - 1])

    def test_rejects_multiple_tails(self):
        with pytest.raises(ValueError):
            CGMListRanking([0, 1], 2)  # two self-loops

    def test_lambda_logarithmic(self):
        """R = 5 contraction rounds take 256 nodes below the gather threshold
        of 64, and each round costs one superstep each way: 2R + 4 = 14.
        That is less than half the 31 that random mate paid at two
        supersteps a round each way, and far fewer than the O(log n)
        pointer-jumping steps a PRAM simulation would need *with a sort
        each*."""
        n, v = 256, 8
        succ = workloads.random_linked_list(n, seed=3)
        _, ledger = run_reference(CGMListRanking(succ, v), v)
        assert ledger.num_supersteps == 14

    @pytest.mark.parametrize("records", ["object", "vector"])
    def test_short_list_skips_contraction(self, records):
        # n <= gather_threshold: gather, solve, apply -- no round can help.
        n, v = 64, 4
        succ = workloads.random_linked_list(n, seed=1)
        alg = CGMListRanking(succ, v)
        assert n <= alg.gather_threshold
        out, report = simulate(alg, MACHINE, v=v, seed=1, records=records)
        assert ranks_from(out, n) == true_ranks(succ)
        assert report.num_supersteps == 3

    @pytest.mark.parametrize("records", ["object", "vector"])
    @given(
        n=st.integers(1, 600),
        v=st.integers(1, 16),
        seed=st.integers(0, 1 << 16),
        wseed=st.none() | st.integers(0, 1 << 16),
    )
    @example(n=3, v=16, seed=1, wseed=7)
    @example(n=65, v=16, seed=2, wseed=None)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_ranks_equal_the_pointer_walk(self, records, n, v, seed, wseed):
        succ = workloads.random_linked_list(n, seed=seed)
        values = None
        if wseed is not None:  # weights include 0 and negatives
            rng = random.Random(wseed)
            values = [rng.randint(-3, 3) for _ in range(n)]
        alg = CGMListRanking(succ, v, values=values, seed=seed)
        alg.set_record_mode(records)
        out, _ = run_reference(alg, v)
        assert ranks_from(out, n) == true_ranks(succ, values)

    def test_prio_arr_matches_prio(self):
        nodes = np.array([0, 1, 2, 63, 1000, (1 << 40) + 3, (1 << 62) - 1], np.int64)
        for rnd in (0, 1, 9):
            for seed in (0, 12345, 1 << 40):
                assert _prio_arr(nodes, rnd, seed).tolist() == [
                    _prio(int(u), rnd, seed) for u in nodes.tolist()
                ]

    @pytest.mark.parametrize("records", ["object", "vector"])
    def test_no_two_adjacent_nodes_leave_in_one_round(self, records):
        n, v = 3000, 8
        succ = workloads.random_linked_list(n, seed=11)
        alg = WatchedListRanking(succ, v)
        alg.set_record_mode(records)
        out, _ = run_reference(alg, v)
        assert ranks_from(out, n) == true_ranks(succ)
        rounds: dict[int, dict[int, tuple[int, int]]] = {}
        for rnd, s, p, x in alg.left:
            rounds.setdefault(rnd, {})[s] = (p, x)
        assert len(rounds) >= 3
        for left in rounds.values():
            for p, x in left.values():
                assert p not in left and x not in left
        # A 3-window minimum: an expected third of the list leaves at once.
        assert 0.3 < len(rounds[0]) / n < 0.37

    @pytest.mark.parametrize("seed", range(3))
    def test_em_sequential_matches(self, seed):
        n, v = 64, 4
        succ = workloads.random_linked_list(n, seed=seed)
        out, report = simulate(CGMListRanking(succ, v), MACHINE, v=v, seed=seed)
        assert ranks_from(out, n) == true_ranks(succ)
        assert report.io_ops > 0

    def test_em_parallel_matches(self):
        n, v = 64, 4
        succ = workloads.random_linked_list(n, seed=5)
        machine = MachineParams(p=2, M=1 << 16, D=2, B=32, b=32)
        out, _ = simulate(CGMListRanking(succ, v), machine, v=v, k=2, seed=5)
        assert ranks_from(out, n) == true_ranks(succ)


def dfs_facts(edges, root):
    """Ground truth depths/preorder/subtree sizes by explicit DFS."""
    children: dict[int, list[int]] = {}
    for p, c in edges:
        children.setdefault(p, []).append(c)
    for v_ in children:
        children[v_].sort()
    depth, pre, size = {root: 0}, {}, {}
    order = 0
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            size[node] = 1 + sum(size[c] for c in children.get(node, []))
            continue
        pre[node] = order
        order += 1
        stack.append((node, True))
        for c in reversed(children.get(node, [])):
            depth[c] = depth[node] + 1
            stack.append((c, False))
    return depth, pre, size


class TestEulerTour:
    @pytest.mark.parametrize("n,v", [(2, 2), (8, 4), (40, 4), (33, 8)])
    def test_tour_is_a_single_chain(self, n, v):
        edges = workloads.random_tree_edges(n, seed=n)
        out, _ = run_reference(CGMEulerTourSuccessor(edges, 0, v), v)
        succ = {}
        for part in out:
            succ.update(dict(part))
        narcs = 2 * (n - 1)
        assert len(succ) == narcs
        tails = [a for a, s in succ.items() if s == a]
        assert len(tails) == 1
        # Follow the chain from the head: must visit every arc once.
        heads = set(succ) - {s for a, s in succ.items() if s != a}
        (head,) = heads
        seen, cur = set(), head
        while cur not in seen:
            seen.add(cur)
            cur = succ[cur]
        assert len(seen) == narcs

    def test_tour_positions_alternate_consistently(self):
        n, v = 20, 4
        edges = workloads.random_tree_edges(n, seed=2)
        pos = euler_tour_positions(edges, 0, v)
        # Down arc of every edge precedes its up arc.
        for k in range(n - 1):
            assert pos[2 * k] < pos[2 * k + 1]
        assert sorted(pos) == list(range(2 * (n - 1)))


class TestTreeAlgos:
    @pytest.mark.parametrize("n,v", [(8, 4), (30, 4), (64, 8)])
    def test_depths(self, n, v):
        edges = workloads.random_tree_edges(n, seed=n + 1)
        depth, _, _ = dfs_facts(edges, 0)
        assert tree_depths(edges, 0, v) == depth

    @pytest.mark.parametrize("n,v", [(8, 4), (30, 4)])
    def test_subtree_sizes(self, n, v):
        edges = workloads.random_tree_edges(n, seed=n + 2)
        _, _, size = dfs_facts(edges, 0)
        assert subtree_sizes(edges, 0, v) == size

    def test_preorder_is_valid_ordering(self):
        n, v = 30, 4
        edges = workloads.random_tree_edges(n, seed=9)
        pre = preorder_numbers(edges, 0, v)
        depth, _, size = dfs_facts(edges, 0)
        assert sorted(pre.values()) == list(range(n))
        # Parents precede children.
        for p, c in edges:
            assert pre[p] < pre[c]
        # Every subtree occupies a contiguous preorder interval.
        for node, sz in size.items():
            members = sorted(
                pre[x] for x in pre if pre[node] <= pre[x] < pre[node] + sz
            )
            assert len(members) == sz

    def test_path_tree(self):
        # Degenerate path: depths 0..n-1.
        n, v = 16, 4
        edges = [(i, i + 1) for i in range(n - 1)]
        assert tree_depths(edges, 0, v) == {i: i for i in range(n)}

    def test_star_tree(self):
        n, v = 17, 4
        edges = [(0, i) for i in range(1, n)]
        depths = tree_depths(edges, 0, v)
        assert depths[0] == 0 and all(depths[i] == 1 for i in range(1, n))
        sizes = subtree_sizes(edges, 0, v)
        assert sizes[0] == n and all(sizes[i] == 1 for i in range(1, n))

    def test_depths_through_em_engine(self):
        n, v = 24, 4
        edges = workloads.random_tree_edges(n, seed=4)
        depth, _, _ = dfs_facts(edges, 0)
        run = lambda alg, vv: simulate(alg, MACHINE, v=vv, seed=1)[0]
        assert tree_depths(edges, 0, v, run=run) == depth


class TestConnectivity:
    @pytest.mark.parametrize("n,ncomp,v", [(12, 3, 4), (40, 5, 4), (30, 1, 8)])
    def test_components(self, n, ncomp, v):
        edges, comp = workloads.random_forest_edges(n, ncomp, seed=n)
        out, _ = run_reference(CGMConnectedComponents(n, edges, v), v)
        labels = {}
        for part in out:
            labels.update(dict(part))
        assert len(labels) == n
        # Same component <=> same label.
        for a in range(n):
            for b in range(n):
                assert (labels[a] == labels[b]) == (comp[a] == comp[b])

    def test_with_extra_edges(self):
        n, v = 20, 4
        edges, comp = workloads.random_forest_edges(n, 2, seed=7)
        # Add redundant intra-component edges.
        extra = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if comp[a] == comp[b]][:15]
        out, _ = run_reference(CGMConnectedComponents(n, edges + extra, v), v)
        labels = {}
        for part in out:
            labels.update(dict(part))
        for a in range(n):
            for b in range(n):
                assert (labels[a] == labels[b]) == (comp[a] == comp[b])

    def test_isolated_vertices(self):
        out, _ = run_reference(CGMConnectedComponents(6, [], 2), 2)
        labels = {}
        for part in out:
            labels.update(dict(part))
        assert labels == {i: i for i in range(6)}

    def test_lambda_log_v(self):
        n, v = 64, 8
        edges = workloads.random_graph_edges(n, 100, seed=1, connected=True)
        _, ledger = run_reference(CGMConnectedComponents(n, edges, v), v)
        assert ledger.num_supersteps <= v.bit_length() + 3

    def test_spanning_forest(self):
        n, v = 30, 4
        edges = workloads.random_graph_edges(n, 60, seed=2, connected=True)
        out, _ = run_reference(CGMSpanningForest(n, edges, v), v)
        forest_ids = out[0]
        assert len(forest_ids) == n - 1  # connected graph: spanning tree
        # The selected edges indeed connect everything and are acyclic.
        import networkx as nx

        g = nx.Graph(edges[i] for i in forest_ids)
        assert g.number_of_nodes() == n and nx.is_forest(g)
        assert nx.number_connected_components(g) == 1

    def test_spanning_forest_multi_component(self):
        n, v = 24, 4
        edges, comp = workloads.random_forest_edges(n, 4, seed=3)
        out, _ = run_reference(CGMSpanningForest(n, edges, v), v)
        assert len(out[0]) == n - 4  # forest with 4 components

    def test_em_sequential_matches(self):
        n, v = 24, 4
        edges, comp = workloads.random_forest_edges(n, 3, seed=11)
        out, _ = simulate(CGMConnectedComponents(n, edges, v), MACHINE, v=v)
        labels = {}
        for part in out:
            labels.update(dict(part))
        for a in range(n):
            for b in range(n):
                assert (labels[a] == labels[b]) == (comp[a] == comp[b])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError):
            CGMConnectedComponents(4, [(0, 7)], 2)
