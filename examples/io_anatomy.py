#!/usr/bin/env python3
"""Anatomy of the simulation's I/O — see the blocking and parallelism.

Attaches an I/O trace to the simulated disks and renders the operation
timeline for (a) this paper's simulation and (b) the Sibeyn–Kaufmann-style
prior simulation, making the difference the paper claims *visible*: the
generated algorithm drives all D disks nearly every operation, the prior
technique touches one disk at a time.

Also demonstrates the technique's stated boundary (Section 7): simulated
multisearch versus the direct EM batched search.

Run:  python examples/io_anatomy.py
"""

import bisect

from repro import MachineParams
from repro.algorithms import CGMMultisearch, CGMSampleSort
from repro.baselines import EMBatchedSearch, SibeynKaufmannSimulation
from repro.core import ParallelEMSimulation, build_params, simulate
from repro.emio.trace import IOTrace
from repro.workloads import uniform_keys


def main() -> None:
    n, v = 2048, 8
    data = uniform_keys(n, seed=3)
    alg = CGMSampleSort(data, v)
    machine = MachineParams(p=1, M=2 * alg.context_size(), D=4, B=64, b=64)

    # --- (a) this paper's simulation, traced -------------------------------
    params = build_params(CGMSampleSort(data, v), machine, v=v)
    sim = ParallelEMSimulation(CGMSampleSort(data, v), params, seed=1)
    trace = IOTrace.attach(sim.procs[0].array)  # the machine's one processor
    out, report = sim.run()
    assert [x for part in out for x in part] == sorted(data)

    print("generated EM sort (Algorithm 1), first 72 parallel I/O ops:")
    print(trace.render(start=0, width=72))
    print()

    # --- (b) the prior simulation -------------------------------------------
    sk = SibeynKaufmannSimulation(CGMSampleSort(data, v), v, machine)
    sk_trace = IOTrace.attach(sk.array)
    sk.run()
    print("Sibeyn-Kaufmann-style simulation (one vp at a time, one disk):")
    print(sk_trace.render(start=0, width=72))
    print()
    print(f"disk utilization: generated {trace.utilization():.0%} vs "
          f"prior {sk_trace.utilization():.0%} — the factor-D claim, visible.")
    print()

    # --- (c) the boundary: multisearch (Section 7) ---------------------------
    keys = sorted(uniform_keys(n, seed=5, hi=100 * n))
    queries = uniform_keys(128, seed=6, hi=110 * n)
    ms = CGMMultisearch(keys, queries, v)
    m2 = machine.with_(M=2 * ms.context_size())
    _, ms_rep = simulate(CGMMultisearch(keys, queries, v), m2, v=v, seed=2)
    _, direct = EMBatchedSearch(m2).search(keys, queries)
    print(f"multisearch, n={n} keys / {len(queries)} queries:")
    print(f"  simulated CGM multisearch : {ms_rep.io_ops:>5} I/O ops "
          f"({ms_rep.num_supersteps} supersteps - one per tree level)")
    print(f"  direct EM batched search  : {direct.io_ops:>5} I/O ops "
          "(sort + one merge scan)")
    print("  -> sublinear data-structure search does not amortize the")
    print("     context sweeps: the open problem of Section 7, measured.")


if __name__ == "__main__":
    main()
