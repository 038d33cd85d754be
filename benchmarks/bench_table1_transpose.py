"""T1-A-TRANS — Table 1, Group A, row "Matrix transpose".

Previous sequential EM result: ``Theta(G (n/BD) log min(M,r,c,n/B) /
log(M/B))``; the generated parallel EM algorithm: ``O~(G n/(pBD))`` —
transpose is just a fixed one-round ``h``-relation on a CGM, so the
simulation pays a constant number of data scans regardless of the matrix
shape.  The benchmark sweeps shapes at fixed ``n = r*c`` and compares with
the sort-based sequential baseline.
"""

from repro import workloads
from repro.algorithms import CGMMatrixTranspose
from repro.baselines import EMTranspose
from repro.core.simulator import simulate
from repro.params import MachineParams

from .common import emit

V, D, B = 8, 4, 32


def machine_for(n: int) -> MachineParams:
    mu = CGMMatrixTranspose(list(range(n)), 1, n, V).context_size()
    return MachineParams(p=1, M=max(2 * mu, D * B), D=D, B=B, b=B)


def run_cgm_transpose(r, c, seed=0):
    entries = workloads.matrix_entries(r, c, seed=seed)
    out, report = simulate(
        CGMMatrixTranspose(entries, r, c, V), machine_for(r * c), v=V, seed=seed
    )
    got = [x for part in out for x in part]
    assert got[0] == entries[0]
    return report


def test_table1_transpose(benchmark):
    n = 4096
    rows = []
    for r, c in ((4, 1024), (64, 64), (1024, 4)):
        machine = machine_for(n)
        entries = workloads.matrix_entries(r, c, seed=r)

        _, report = simulate(
            CGMMatrixTranspose(entries, r, c, V), machine, v=V, seed=r
        )
        baseline = EMTranspose(machine)
        base_out, base_stats = baseline.transpose(entries, r, c)
        for row in range(0, r, max(1, r // 8)):
            assert base_out[0 * r + row] == entries[row * c + 0]

        rows.append(
            (
                f"{r}x{c}",
                report.io_ops,
                base_stats.io_ops,
                f"{baseline.predicted_io_ops(r, c):.0f}",
            )
        )
    emit(
        "T1-A-TRANS",
        f"matrix transpose, n={n}, D={D}, B={B}, v={V}",
        ["shape", "CGM-sim io", "EM sort-based io", "AV transpose bound"],
        rows,
    )
    # Shape independence: the generated algorithm's I/O varies little with
    # the aspect ratio at fixed n (it is one h-relation either way).
    ops = [r[1] for r in rows]
    assert max(ops) <= 1.6 * min(ops)
    benchmark(run_cgm_transpose, 64, 64)


def test_table1_transpose_scales_linearly(benchmark):
    benchmark(lambda: None)  # timing anchor; the emitted table is the artifact
    small = run_cgm_transpose(32, 32, seed=1).io_ops
    large = run_cgm_transpose(64, 64, seed=1).io_ops  # 4x entries
    assert 2.0 <= large / small <= 8.0
