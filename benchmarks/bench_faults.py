"""FAULTS — the price of robustness: fault injection, retries, recovery.

The paper's model assumes perfect devices; this experiment measures what the
robustness layer (checksummed blocks, bounded retries, superstep
checkpoints — see DESIGN.md's robustness section) costs on top of the
fault-free simulation, and verifies the layer's core guarantee: *outputs are
bit-identical to the fault-free run* at every fault rate, including a
permanent mid-run disk death survived via checkpoint recovery.

Two tables:

* **FAULTS-RATES** — a sorting workload swept over transient-fault rates
  (0%, 1%, 5%, 10% per access): I/O operations, retry operations, stall
  op-equivalents, and the I/O-time overhead ratio versus fault-free.
* **FAULTS-DEATH** — the same workload with one drive dying mid-run, with
  checkpointing on: recoveries, degraded writes, checkpoint/recovery I/O.
"""

import random

import pytest

from repro.algorithms import CGMSampleSort
from repro.core.simulator import simulate
from repro.emio.faults import FaultPlan
from repro.params import MachineParams

from .common import emit

V = 8
MACHINE = MachineParams(p=1, M=1 << 13, D=4, B=32, b=64)


def sort_data(n=1024, seed=11):
    rnd = random.Random(seed)
    return [rnd.randrange(10**6) for _ in range(n)]


def run_sort(faults=None, checkpoint=False, seed=4):
    data = sort_data()
    return simulate(
        CGMSampleSort(list(data), v=V), MACHINE, v=V, seed=seed,
        faults=faults, checkpoint=checkpoint,
    )


def test_fault_rate_sweep(benchmark):
    base_out, base_rep = run_sort()
    base_io_time = base_rep.ledger.total_io_time()
    rows = [(0.0, base_rep.io_ops, 0, 0, 1.0)]
    for rate in (0.01, 0.05, 0.10):
        plan = FaultPlan(
            seed=0,
            read_error_rate=rate,
            write_error_rate=rate / 2,
            corruption_rate=rate / 5,
            latency_rate=rate,
        )
        out, rep = run_sort(faults=plan, checkpoint=True)
        assert out == base_out  # robustness guarantee: outputs exact
        rows.append(
            (
                rate,
                rep.io_ops,
                rep.faults.retry_ops,
                rep.faults.stall_ops,
                rep.ledger.total_io_time() / base_io_time,
            )
        )
    emit(
        "FAULTS-RATES",
        f"sample sort n=1024 v={V}: robustness overhead vs transient fault rate",
        ["rate", "io_ops", "retry_ops", "stall_ops", "io_time_ratio"],
        rows,
    )
    # Overhead grows with the fault rate but stays modest: bounded retries
    # touch only the failed slots, not whole phases.
    ratios = [r[4] for r in rows]
    assert ratios == sorted(ratios)
    assert ratios[-1] < 2.5
    benchmark(run_sort)


def test_disk_death_recovery():
    base_out, base_rep = run_sort()
    # Drive 2's accesses 73-96 are superstep 3 (packed message blocks; at
    # 100 the death fell in the output unload, which no checkpoint covers).
    plan = FaultPlan(seed=1, read_error_rate=0.01, dead_disk=2, dead_after=80)
    out, rep = run_sort(faults=plan, checkpoint=True)
    assert out == base_out  # the run survived losing a drive, exactly
    f = rep.faults
    emit(
        "FAULTS-DEATH",
        f"sample sort n=1024 v={V}: one drive dies mid-run (checkpointed)",
        ["metric", "value"],
        [
            ("supersteps", rep.num_supersteps),
            ("io_ops", rep.io_ops),
            ("disks_died", f.disks_died),
            ("recoveries", f.recoveries),
            ("degraded_writes", f.degraded_writes),
            ("checkpoints", f.checkpoints_taken),
            ("checkpoint_io_ops", f.checkpoint_io_ops),
            ("recovery_io_ops", f.recovery_io_ops),
            ("io_ops_vs_faultfree", round(rep.io_ops / base_rep.io_ops, 2)),
        ],
    )
    assert f.disks_died == 1
    assert f.recoveries >= 1
    assert f.degraded_writes > 0


if __name__ == "__main__":  # pragma: no cover - manual run convenience
    pytest.main([__file__, "-q", "-p", "no:cacheprovider"])
