"""Cross-machine consistency matrix (invariant I3 at full breadth).

Every algorithm in the library runs on the in-memory reference runner and
on the EM engine at p=1 (Algorithm 1), p=2 and p=4 (Algorithm 3) — all four
must agree bit-for-bit.  The earlier per-module tests cover depth; this
matrix covers breadth.
"""

import pytest

from repro import workloads
from repro.algorithms import (
    CGMMatrixTranspose,
    CGMMultisearch,
    CGMPermutation,
    CGMPrefixSums,
    CGMSampleSort,
)
from repro.algorithms.geometry import (
    CGM3DConvexHull,
    CGMSegmentTreeStab,
    CGM3DMaxima,
    CGMAllNearestNeighbors,
    CGMConvexHull,
    CGMDelaunay,
    CGMDominanceCounting,
    CGMLowerEnvelope,
    CGMNextElementSearch,
    CGMRectangleUnionArea,
    CGMSeparability,
)
from repro.algorithms.graphs import (
    CGMBatchedRMQ,
    CGMConnectedComponents,
    CGMEulerTourSuccessor,
    CGMExpressionEval,
    CGMListRanking,
    CGMSpanningForest,
)
from repro.bsp.runner import run_reference
from repro.core.simulator import simulate
from repro.params import MachineParams

V = 8


def _expr_args():
    edges, ops, leaves = workloads.random_expression_tree(16, seed=44)
    return edges, ops, leaves


ALGORITHMS = {
    "sample_sort": lambda: CGMSampleSort(workloads.uniform_keys(128, seed=40), V),
    "permutation": lambda: CGMPermutation(
        list(range(96)), workloads.random_permutation(96, seed=41), V
    ),
    "transpose": lambda: CGMMatrixTranspose(
        workloads.matrix_entries(8, 12, seed=42), 8, 12, V
    ),
    "multisearch": lambda: CGMMultisearch(
        sorted(workloads.uniform_keys(96, seed=60, hi=5000)),
        workloads.uniform_keys(32, seed=61, hi=6000),
        V,
    ),
    "prefix_sums": lambda: CGMPrefixSums(
        workloads.uniform_keys(80, seed=43, hi=50), V
    ),
    "convex_hull": lambda: CGMConvexHull(workloads.random_points(64, seed=44), V),
    "convex_hull_3d": lambda: CGM3DConvexHull(
        workloads.random_points(48, seed=44, dims=3), V
    ),
    "delaunay": lambda: CGMDelaunay(workloads.random_points(40, seed=45), V),
    "maxima3d": lambda: CGM3DMaxima(
        workloads.random_points(48, seed=46, dims=3), V
    ),
    "dominance": lambda: CGMDominanceCounting(
        workloads.random_points(48, seed=47), V
    ),
    "rect_union": lambda: CGMRectangleUnionArea(
        workloads.random_rectangles(40, seed=48), V
    ),
    "lower_envelope": lambda: CGMLowerEnvelope(
        workloads.random_segments(32, seed=49), V
    ),
    "nearest": lambda: CGMAllNearestNeighbors(
        workloads.random_points(40, seed=50), V
    ),
    "next_element": lambda: CGMNextElementSearch(
        workloads.random_segments(24, seed=51),
        workloads.random_points(24, seed=52),
        V,
    ),
    "segment_tree": lambda: CGMSegmentTreeStab(
        [(float(a), float(a + 40)) for a in range(0, 400, 10)],
        [float(x) for x in range(5, 400, 25)],
        V,
    ),
    "separability": lambda: CGMSeparability(
        workloads.random_points(24, seed=53),
        workloads.random_points(24, seed=54),
        [(1.0, 0.0), (0.0, 1.0)],
        V,
    ),
    "list_ranking": lambda: CGMListRanking(
        workloads.random_linked_list(96, seed=55), V
    ),
    "euler_tour": lambda: CGMEulerTourSuccessor(
        workloads.random_tree_edges(48, seed=56), 0, V
    ),
    "connected_components": lambda: CGMConnectedComponents(
        48, workloads.random_graph_edges(48, 80, seed=57), V
    ),
    "spanning_forest": lambda: CGMSpanningForest(
        48, workloads.random_graph_edges(48, 80, seed=58, connected=True), V
    ),
    "rmq": lambda: CGMBatchedRMQ(
        workloads.uniform_keys(64, seed=59, hi=100),
        [(3, 60), (10, 20), (0, 63), (31, 32)],
        V,
    ),
    "expression_eval": lambda: CGMExpressionEval(*_expr_args(), V),
}


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
@pytest.mark.parametrize("p", [1, 2, 4])
def test_engines_agree(name, p):
    factory = ALGORITHMS[name]
    ref, _ = run_reference(factory(), V)
    alg = factory()
    machine = MachineParams(
        p=p, M=max(2 * alg.context_size(), 4 * 32), D=2, B=32, b=32
    )
    out, report = simulate(factory(), machine, v=V, k=2, seed=p * 17 + 1)
    assert out == ref, f"{name} diverged on p={p}"
    assert report.io_ops > 0
