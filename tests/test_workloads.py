"""Tests for the workload generators (S12)."""

from repro import workloads


class TestKeysAndPermutations:
    def test_uniform_keys_reproducible(self):
        assert workloads.uniform_keys(50, seed=7) == workloads.uniform_keys(50, seed=7)
        assert workloads.uniform_keys(50, seed=7) != workloads.uniform_keys(50, seed=8)

    def test_random_permutation_valid(self):
        p = workloads.random_permutation(100, seed=1)
        assert sorted(p) == list(range(100))

    def test_reversing_permutation(self):
        assert workloads.reversing_permutation(4) == [3, 2, 1, 0]

    def test_bit_reversal_is_involution(self):
        p = workloads.bit_reversal_permutation(5)
        assert sorted(p) == list(range(32))
        assert all(p[p[i]] == i for i in range(32))

    def test_matrix_entries_distinct(self):
        e = workloads.matrix_entries(6, 7, seed=2)
        assert len(set(e)) == 42


class TestGeometry:
    def test_segments_noncrossing_are_horizontal_distinct(self):
        segs = workloads.random_segments(30, seed=3)
        assert all(y1 == y2 for _x1, y1, _x2, y2 in segs)
        assert len({s[1] for s in segs}) == 30
        assert all(x1 < x2 for x1, _y1, x2, _y2 in segs)

    def test_general_segments(self):
        segs = workloads.random_segments(20, seed=4, nonintersecting=False)
        assert all(x1 <= x2 for x1, _y1, x2, _y2 in segs)

    def test_points_distinct_coordinates(self):
        pts = workloads.random_points(40, seed=5, dims=3)
        for d in range(3):
            assert len({p[d] for p in pts}) == 40

    def test_rectangles_wellformed(self):
        rects = workloads.random_rectangles(25, seed=6)
        assert all(x1 < x2 and y1 < y2 for x1, y1, x2, y2 in rects)


class TestGraphs:
    def test_linked_list_visits_all(self):
        succ = workloads.random_linked_list(50, seed=7)
        tails = [i for i in range(50) if succ[i] == i]
        assert len(tails) == 1
        head = (set(range(50)) - set(succ)).pop()
        seen, cur = set(), head
        while cur not in seen:
            seen.add(cur)
            cur = succ[cur]
        assert len(seen) == 50

    def test_tree_edges_form_tree(self):
        edges = workloads.random_tree_edges(30, seed=8)
        assert len(edges) == 29
        parent = {}
        for p, c in edges:
            assert c not in parent
            assert p < c  # parents precede children by construction
            parent[c] = p

    def test_expression_tree_shape(self):
        edges, ops, leaves = workloads.random_expression_tree(10, seed=9)
        assert len(leaves) == 10
        assert len(ops) == 9  # internal nodes of a full binary tree
        assert len(edges) == 18
        assert set(ops.values()) <= {"+", "*"}
        children = {}
        for p, c in edges:
            children.setdefault(p, []).append(c)
        assert all(len(cs) == 2 for cs in children.values())
        assert set(children) == set(ops)

    def test_graph_edges_distinct_no_loops(self):
        edges = workloads.random_graph_edges(20, 40, seed=10)
        assert len(edges) == 40
        assert len(set(edges)) == 40
        assert all(a != b for a, b in edges)

    def test_graph_edges_connected_flag(self):
        import networkx as nx

        edges = workloads.random_graph_edges(25, 30, seed=11, connected=True)
        g = nx.Graph(edges)
        g.add_nodes_from(range(25))
        assert nx.is_connected(g)

    def test_forest_component_ground_truth(self):
        edges, comp = workloads.random_forest_edges(30, 4, seed=12)
        assert len(set(comp)) == 4
        assert len(edges) == 26  # n - ncomponents
        for a, b in edges:
            assert comp[a] == comp[b]
