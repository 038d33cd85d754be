"""T1-C-GRAPH — Table 1, Group C: graph-algorithm rows.

Group C's CGM algorithms run ``lambda = O(log p)`` rounds, so the generated
EM algorithms cost ``O~(G log(p) n/(pBD))`` I/O — versus the PRAM-simulation
approach (Chiang et al.), which pays a *full external sort per PRAM step*
(``Theta(sort(n) log n)`` for pointer jumping).  The benchmark measures
list ranking both ways on the same substrate, plus the Euler-tour and
connectivity rows through the simulation.
"""

from repro import workloads
from repro.algorithms.graphs import (
    CGMConnectedComponents,
    CGMEulerTourSuccessor,
    CGMListRanking,
    CGMSpanningForest,
)
from repro.baselines import PRAMListRanking
from repro.core.simulator import simulate
from repro.params import MachineParams

from .common import emit

V, D, B = 8, 4, 32

#: The PRAM rival's memory per row: half the list, fixed, so that a change to
#: list ranking's contexts moves the CGM columns only.
PRAM_M = {512: 256, 4096: 2048}


def machine_for(alg, p=1):
    return MachineParams(
        p=p, M=max(2 * alg.context_size(), D * B), D=D, B=B, b=B
    )


def run_list_ranking(n, seed=0):
    succ = workloads.random_linked_list(n, seed=seed)
    alg = CGMListRanking(succ, V)
    out, report = simulate(CGMListRanking(succ, V), machine_for(alg), v=V, seed=seed)
    return report


def test_table1_list_ranking_vs_pram(benchmark):
    rows = []
    for n in (512, 4096):
        succ = workloads.random_linked_list(n, seed=n)

        alg = CGMListRanking(succ, V)
        machine = machine_for(alg)
        out, report = simulate(CGMListRanking(succ, V), machine, v=V, seed=n)
        cgm_io = report.io_ops

        pram_machine = MachineParams(p=1, M=PRAM_M[n], D=D, B=B, b=B)
        ranks, pram_stats = PRAMListRanking(pram_machine).rank(succ)
        # Cross-validate the two implementations against each other.
        got = {}
        for part in out:
            got.update(dict(part))
        assert [got[i] for i in range(n)] == ranks

        rows.append(
            (
                n,
                report.num_supersteps,
                cgm_io,
                pram_stats.steps,
                pram_stats.io_ops,
                f"{pram_stats.io_ops / cgm_io:.1f}x",
            )
        )
    emit(
        "T1-C-LISTRANK",
        f"list ranking, D={D}, B={B}, v={V}: generated EM-CGM vs PRAM simulation",
        ["n", "CGM supersteps", "CGM-sim io", "PRAM steps", "PRAM-sim io",
         "PRAM/CGM"],
        rows,
    )
    # Shape: the PRAM route pays a sort per step and Theta(log n) steps,
    # while the CGM route pays Theta(log v) supersteps; the gap widens
    # with n and the generated algorithm wins clearly at the larger size.
    assert rows[-1][4] > 1.5 * rows[-1][2]
    gap_small = rows[0][4] / rows[0][2]
    gap_large = rows[-1][4] / rows[-1][2]
    assert gap_large > gap_small
    benchmark(run_list_ranking, 256)


def test_table1_euler_tour(benchmark):
    benchmark(lambda: None)  # timing anchor; the emitted table is the artifact
    rows = []
    for n in (128, 512):
        edges = workloads.random_tree_edges(n, seed=n)
        alg = CGMEulerTourSuccessor(edges, 0, V)
        _, report = simulate(
            CGMEulerTourSuccessor(edges, 0, V), machine_for(alg), v=V, seed=n
        )
        scans = report.io_ops / (2 * n / (D * B))
        rows.append((n, report.num_supersteps, report.io_ops, f"{scans:.1f}"))
    emit(
        "T1-C-EULER",
        "Euler tour construction (lambda = O(1))",
        ["n", "supersteps", "io_ops", "scans of 2n arcs"],
        rows,
    )
    assert all(r[1] == CGMEulerTourSuccessor.LAMBDA for r in rows)
    assert float(rows[-1][3]) <= float(rows[0][3]) * 1.5 + 2


def test_table1_connected_components(benchmark):
    benchmark(lambda: None)  # timing anchor; the emitted table is the artifact
    rows = []
    for nverts, nedges in ((128, 256), (512, 1024)):
        edges = workloads.random_graph_edges(nverts, nedges, seed=nverts)
        alg = CGMConnectedComponents(nverts, edges, V)
        _, report = simulate(
            CGMConnectedComponents(nverts, edges, V),
            machine_for(alg),
            v=V,
            seed=nverts,
        )
        rows.append(
            (f"V={nverts},E={nedges}", report.num_supersteps, report.io_ops)
        )
    emit(
        "T1-C-CC",
        f"connected components (lambda = O(log v), v={V})",
        ["graph", "supersteps", "io_ops"],
        rows,
    )
    # lambda = ceil(log2 v) + 2, independent of the graph size.
    lam = [r[1] for r in rows]
    assert lam[0] == lam[1] <= V.bit_length() + 3


def test_table1_spanning_forest(benchmark):
    benchmark(lambda: None)  # timing anchor; the emitted table is the artifact
    nverts, nedges = 256, 768
    edges = workloads.random_graph_edges(nverts, nedges, seed=7, connected=True)
    alg = CGMSpanningForest(nverts, edges, V)
    out, report = simulate(
        CGMSpanningForest(nverts, edges, V), machine_for(alg), v=V, seed=7
    )
    assert len(out[0]) == nverts - 1
    emit(
        "T1-C-SF",
        "spanning forest",
        ["V", "E", "supersteps", "io_ops"],
        [(nverts, nedges, report.num_supersteps, report.io_ops)],
    )


def test_table1_lca(benchmark):
    """Row "Lowest common ancestor": tour + ranking + RMQ composition."""
    benchmark(lambda: None)  # timing anchor; the emitted table is the artifact
    import random

    from repro.algorithms.graphs import batched_lca

    n, nq = 256, 128
    edges = workloads.random_tree_edges(n, seed=13)
    rng = random.Random(13)
    queries = [(rng.randrange(n), rng.randrange(n)) for _ in range(nq)]

    from repro.pipeline import Pipeline

    pipe = Pipeline(MachineParams(p=1, M=1 << 12, D=D, B=B, b=B), seed=3)
    answers = batched_lca(edges, 0, queries, V, run=pipe.run)
    assert len(answers) == nq
    emit(
        "T1-C-LCA",
        f"batched LCA, n={n}, {nq} queries (tour + ranking x2 + RMQ)",
        ["stages", "component supersteps (total)", "io_ops (total)"],
        [(pipe.stages, pipe.supersteps, pipe.io_ops)],
    )
    # Total supersteps bounded by O(log v) + constants, not by n.
    assert pipe.supersteps <= 80


def test_table1_expression_eval(benchmark):
    """Rows "Tree contraction, Expression tree evaluation"."""
    benchmark(lambda: None)  # timing anchor; the emitted table is the artifact
    from repro.algorithms.graphs import CGMExpressionEval

    rows = []
    for nleaves in (64, 256):
        edges, ops, leaves = workloads.random_expression_tree(nleaves, seed=nleaves)
        alg = CGMExpressionEval(edges, ops, leaves, V)
        _, report = simulate(
            CGMExpressionEval(edges, ops, leaves, V),
            machine_for(alg),
            v=V,
            seed=nleaves,
        )
        rows.append((nleaves, report.num_supersteps, report.io_ops))
    emit(
        "T1-C-EXPR",
        f"expression tree evaluation (rake + compress + gather, v={V})",
        ["leaves", "supersteps", "io_ops"],
        rows,
    )
    # lambda = O(log v): superstep counts stay flat as the tree quadruples.
    assert rows[1][1] <= rows[0][1] + 6


def test_table1_biconnected_components(benchmark):
    """Row "Biconnected components": the Tarjan-Vishkin composition."""
    benchmark(lambda: None)  # timing anchor; the emitted table is the artifact
    from repro.algorithms.graphs import biconnected_components

    nverts, nedges = 96, 160
    edges = workloads.random_graph_edges(nverts, nedges, seed=17, connected=True)

    from repro.pipeline import Pipeline

    pipe = Pipeline(MachineParams(p=1, M=1 << 12, D=D, B=B, b=B), seed=5)
    comps = biconnected_components(nverts, edges, V, run=pipe.run)
    covered = {e for c in comps for e in c}
    assert covered == {(min(a, b), max(a, b)) for a, b in edges}
    emit(
        "T1-C-BICONN",
        f"biconnected components, V={nverts}, E={nedges}",
        ["components", "CGM stages", "io_ops (total)"],
        [(len(comps), pipe.stages, pipe.io_ops)],
    )


def test_table1_ear_decomposition(benchmark):
    """Row "Ear and open ear decomposition"."""
    benchmark(lambda: None)  # timing anchor; the emitted table is the artifact
    from repro.algorithms.graphs import ear_decomposition
    import random

    n = 64
    rng = random.Random(19)
    order = list(range(n))
    rng.shuffle(order)
    edges = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:] + order[:1])}
    while len(edges) < 2 * n:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    edges = sorted(edges)

    from repro.pipeline import Pipeline

    pipe = Pipeline(MachineParams(p=1, M=1 << 12, D=D, B=B, b=B), seed=7)
    ears = ear_decomposition(n, edges, V, run=pipe.run)
    assert len(ears) == len(edges) - n + 1
    emit(
        "T1-C-EARS",
        f"ear decomposition, V={n}, E={len(edges)}",
        ["ears", "CGM stages", "io_ops (total)"],
        [(len(ears), pipe.stages, pipe.io_ops)],
    )
