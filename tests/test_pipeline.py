"""Tests for the Pipeline composition helper."""

from repro import workloads
from repro.algorithms.graphs import batched_lca, biconnected_components, tree_depths
from repro.params import MachineParams
from repro.pipeline import Pipeline

MACHINE = MachineParams(p=1, M=1 << 14, D=4, B=32, b=32)
#: M = D*B: the pipeline raises it to two contexts of each stage, so every
#: stage swaps its groups and writes its messages to disk.
TIGHT = MACHINE.with_(M=4 * 32)


class TestPipeline:
    def test_lca_through_pipeline(self):
        import random

        n, v = 32, 4
        edges = workloads.random_tree_edges(n, seed=3)
        rng = random.Random(3)
        queries = [(rng.randrange(n), rng.randrange(n)) for _ in range(10)]
        ref = batched_lca(edges, 0, queries, v)  # reference runner

        pipe = Pipeline(TIGHT, seed=5)
        got = batched_lca(edges, 0, queries, v, run=pipe.run)
        assert got == ref
        assert pipe.stages == 4  # tour + 2 rankings + RMQ
        assert pipe.io_ops > 0
        assert pipe.supersteps == sum(
            r.num_supersteps for _n, r in pipe.reports
        )

    def test_tree_depths_accumulates(self):
        n, v = 24, 4
        edges = workloads.random_tree_edges(n, seed=4)
        pipe = Pipeline(MACHINE)
        depths = tree_depths(edges, 0, v, run=pipe.run)
        assert depths[0] == 0
        assert pipe.stages == 2  # tour + ranking
        s = pipe.summary()
        assert s["stages"] == 2
        assert len(s["per_stage"]) == 2
        assert s["io_ops"] == pipe.io_ops

    def test_memory_auto_raised(self):
        # A machine too small for the stage's context still works: Pipeline
        # raises M to hold min_k contexts.
        small = MachineParams(p=1, M=256, D=2, B=16, b=16)
        n, v = 24, 4
        edges = workloads.random_tree_edges(n, seed=5)
        pipe = Pipeline(small)
        depths = tree_depths(edges, 0, v, run=pipe.run)
        assert depths[0] == 0

    def test_format_profile(self):
        n, v = 16, 4
        edges = workloads.random_graph_edges(n, 30, seed=6, connected=True)
        pipe = Pipeline(MACHINE)
        biconnected_components(n, edges, v, run=pipe.run)
        profile = pipe.format_profile()
        assert "TOTAL" in profile
        assert "CGMSpanningForest" in profile

    def test_seeds_advance_per_stage(self):
        n, v = 24, 4
        edges = workloads.random_tree_edges(n, seed=7)
        p1 = Pipeline(MACHINE, seed=9)
        p2 = Pipeline(MACHINE, seed=9)
        assert tree_depths(edges, 0, v, run=p1.run) == tree_depths(
            edges, 0, v, run=p2.run
        )
        # Deterministic stage-by-stage costs for equal seeds.
        assert [r.io_ops for _n, r in p1.reports] == [
            r.io_ops for _n, r in p2.reports
        ]
