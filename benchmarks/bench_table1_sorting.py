"""T1-A-SORT — Table 1, Group A, row "Sorting".

Regenerates the row's comparison: the parallel EM sort *generated by the
simulation* (CGM sample sort through Algorithm 1) against

* the hand-crafted sequential EM mergesort (the ``Theta(G (n/BD)
  log_{M/B}(n/B))`` "previous results" column),
* the Sibeyn–Kaufmann-style BSP-to-EM simulation (no blocking, one disk).

The shape claims: the generated sort's I/O is ``O~(G n/(pBD))`` — within a
small constant of one full read/write of the data per CGM round — and the
prior simulation pays roughly a factor ``D`` more I/O operations (no
parallel disks) on the same algorithm.
"""

from repro import workloads
from repro.algorithms import CGMSampleSort
from repro.baselines import EMMergeSort, SibeynKaufmannSimulation
from repro.core.simulator import simulate
from repro.params import MachineParams

from .common import emit

V = 8
D, B = 4, 32

#: The rivals' memory per row, fixed (twice the CGM sort's context bound at
#: the oversampled sort), so that a change to the CGM sort moves its own
#: columns only.
RIVAL_M = {512: 258, 2048: 652, 8192: 2190}


def machine_for(n: int, v: int = V, p: int = 1) -> MachineParams:
    """EM machine sized CGM-style: M = Theta(n/p_virtual) holds k=2 contexts."""
    mu = CGMSampleSort(workloads.uniform_keys(max(n, v * v), seed=0), v).context_size()
    return MachineParams(p=p, M=max(2 * mu, D * B), D=D, B=B, b=B)


def run_cgm_sort(n, seed=0, machine=None, v=V):
    data = workloads.uniform_keys(n, seed=seed)
    machine = machine or machine_for(n, v)
    out, report = simulate(CGMSampleSort(data, v), machine, v=v, seed=seed)
    flat = [x for part in out for x in part]
    assert flat == sorted(data)
    return report


def test_table1_sorting(benchmark):
    rows = []
    for n in (512, 2048, 8192):
        data = workloads.uniform_keys(n, seed=n)
        report = run_cgm_sort(n, seed=n)
        cgm_io = report.io_ops
        scan = -(-n // (D * B))  # one full data scan

        rival = MachineParams(p=1, M=RIVAL_M[n], D=D, B=B, b=B)
        sorter = EMMergeSort(rival)
        out, em_stats = sorter.sort(data)
        assert out == sorted(data)

        sib_out, sib_stats = SibeynKaufmannSimulation(
            CGMSampleSort(data, V), V, rival
        ).run()
        assert [x for part in sib_out for x in part] == sorted(data)

        rows.append(
            (
                n,
                cgm_io,
                f"{cgm_io / scan:.1f}",
                em_stats.io_ops,
                f"{sorter.predicted_io_ops(n):.0f}",
                sib_stats.io_ops,
                f"{sib_stats.io_ops / max(cgm_io, 1):.1f}x",
            )
        )
    emit(
        "T1-A-SORT",
        f"sorting, D={D}, B={B}, v={V} "
        "(io = parallel I/O operations)",
        ["n", "CGM-sim io", "scans of data", "EM mergesort io",
         "mergesort bound", "Sibeyn-K io", "SK/CGM"],
        rows,
    )
    # Shape: the prior BSP-to-EM simulation pays more I/O at every size,
    # approaching the factor-D gap as message traffic dominates contexts.
    for n, cgm_io, _scans, _em_io, _bound, sib_io, _r in rows:
        assert sib_io > cgm_io
    assert rows[-1][5] >= rows[-1][1] * D / 2
    # Shape: the generated sort's I/O tends to O(lambda) scans of the data
    # (per-item constants shrink as n grows past the fixed v, mu overheads).
    scans = [float(r[2]) for r in rows]
    assert scans[-1] < scans[0]
    assert scans[-1] <= 25
    benchmark(run_cgm_sort, 512)


def test_table1_sorting_io_linear_in_n(benchmark):
    """Io ops of the generated sort scale ~linearly in n (fixed v, lambda)."""
    benchmark(lambda: None)  # timing anchor; the emitted table is the artifact
    small = run_cgm_sort(1024, seed=1).io_ops
    large = run_cgm_sort(4096, seed=1).io_ops
    assert 2.0 <= large / small <= 8.0


def test_table1_sorting_parallel_speedup(benchmark):
    """With p processors the per-processor I/O drops (the table's /p)."""
    benchmark(lambda: None)  # timing anchor; the emitted table is the artifact
    n, v = 2048, 8
    data = workloads.uniform_keys(n, seed=5)
    seq_machine = machine_for(n)
    par_machine = machine_for(n, p=4)
    _, seq_rep = simulate(CGMSampleSort(data, v), seq_machine, v=v, seed=2)
    _, par_rep = simulate(CGMSampleSort(data, v), par_machine, v=v, k=2, seed=2)
    emit(
        "T1-A-SORT-P",
        "sorting: per-processor I/O, p=1 vs p=4",
        ["p", "io_ops"],
        [(1, seq_rep.io_ops), (4, par_rep.io_ops)],
    )
    assert par_rep.io_ops < seq_rep.io_ops
