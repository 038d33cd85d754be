"""ABL — ablations of the design choices DESIGN.md calls out.

* **Blocking** (B): the same algorithm on ``B = 1`` (record-at-a-time disks)
  versus a realistic ``B`` — the introduction's "factor of B" claim.
* **Random vs round-robin writes** (Lemma 2's randomization): with
  structured traffic, deterministic rotation can leave buckets skewed
  across disks; the random permutation keeps the Lemma 2 guarantee
  input-obliviously.
* **Dummy-block padding** (pad_to_gamma): the analysis-mode worst case
  versus measured traffic.
* **Group size k**: swapping contexts one-at-a-time (k=1, the
  Sibeyn–Kaufmann regime) versus memory-filling groups.
"""

import pytest

from repro import workloads
from repro.algorithms import CGMPermutation
from repro.core.simulator import simulate
from repro.params import MachineParams

from .common import emit

V = 8


def run_perm(n, D=4, B=32, k=None, seed=0, **kw):
    vals = list(range(n))
    perm = workloads.random_permutation(n, seed=seed)
    alg = CGMPermutation(vals, perm, V)
    machine = MachineParams(
        p=1,
        M=max((k or 2) * alg.context_size(), D * max(B, 1)),
        D=D,
        B=B,
        b=max(B, 16),
    )
    _, report = simulate(
        CGMPermutation(vals, perm, V), machine, v=V, k=k, seed=seed, **kw
    )
    return report


def test_ablation_blocking_factor(benchmark):
    n = 2048
    rows = []
    for B in (1, 8, 32, 128):
        report = run_perm(n, B=B)
        rows.append((B, report.io_ops))
    emit(
        "ABL-BLOCKING",
        f"permutation n={n}: I/O ops vs block size (B=1 is unblocked I/O)",
        ["B", "io_ops"],
        rows,
    )
    ops = dict(rows)
    # "if I/O is not fully blocked, the runtime can typically be up to a
    # factor of B too high": B=1 pays ~an order of magnitude more than B=32.
    assert ops[1] >= 10 * ops[32]
    benchmark(run_perm, 512)


def test_ablation_random_vs_roundrobin_writes(benchmark):
    benchmark(lambda: None)  # timing anchor; the emitted table is the artifact
    n = 2048
    rnd = run_perm(n, seed=3, write_schedule="random")
    rr = run_perm(n, seed=3, write_schedule="rotate")
    worst_rnd = rnd.max_load_ratio
    worst_rr = rr.max_load_ratio
    emit(
        "ABL-RANDWRITE",
        "Lemma 2 randomization: worst per-disk bucket deviation",
        ["mode", "io_ops", "max load ratio"],
        [
            ("random permutation", rnd.io_ops, f"{worst_rnd:.2f}"),
            ("round-robin", rr.io_ops, f"{worst_rr:.2f}"),
        ],
    )
    # Both are correct; randomization's value is the input-oblivious
    # guarantee (round-robin can be adversarially skewed; see the unit
    # tests), not a win on benign traffic.
    assert worst_rnd <= 2.5


def test_ablation_pad_to_gamma(benchmark):
    benchmark(lambda: None)  # timing anchor; the emitted table is the artifact
    n = 1024
    plain = run_perm(n, seed=5)
    padded = run_perm(n, seed=5, pad_to_gamma=True)
    emit(
        "ABL-PAD",
        "dummy-block padding to the analytic worst case (Lemma 3)",
        ["mode", "io_ops"],
        [("measured traffic", plain.io_ops), ("padded to gamma", padded.io_ops)],
    )
    assert padded.io_ops >= plain.io_ops


def test_ablation_group_size(benchmark):
    benchmark(lambda: None)  # timing anchor; the emitted table is the artifact
    n = 1024
    rows = []
    for k in (1, 2, 4, 8):
        report = run_perm(n, k=k, seed=7)
        rows.append((k, report.io_ops))
    emit(
        "ABL-GROUPK",
        "group size k (k=1 = one context at a time, the prior-work regime)",
        ["k", "io_ops"],
        rows,
    )
    ops = dict(rows)
    # Grouping packs context transfers into fuller parallel operations.
    assert ops[8] <= ops[1]


def test_ablation_deterministic_balance_schedule(benchmark):
    """The paper's CGM determinization: schedule="balance" achieves the
    Lemma 2 guarantee deterministically for predetermined traffic."""
    benchmark(lambda: None)  # timing anchor; the emitted table is the artifact
    n = 2048
    rnd = run_perm(n, seed=9, write_schedule="random")
    bal = run_perm(n, seed=9, write_schedule="balance")
    emit(
        "ABL-DETERMINISTIC",
        "deterministic balance schedule vs randomized (CGM traffic)",
        ["schedule", "io_ops", "max load ratio"],
        [
            ("random (Lemma 2)", rnd.io_ops, f"{rnd.max_load_ratio:.2f}"),
            ("balance (deterministic)", bal.io_ops, f"{bal.max_load_ratio:.2f}"),
        ],
    )
    assert bal.max_load_ratio <= rnd.max_load_ratio + 1e-9
    assert abs(bal.io_ops - rnd.io_ops) <= 0.2 * rnd.io_ops
