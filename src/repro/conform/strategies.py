"""Seeded config generation: random draws + an admissibility repair step.

Random machine tuples almost never satisfy the simulation's structural
constraints (``M >= D*B``, ``M >= mu``, ``v`` a multiple of ``k*p``, one
whole group per processor, workload-specific input shapes).  Rejection
sampling over those constraints would waste nearly the whole budget and
bias coverage toward "easy" corners, so the fuzzer instead draws *freely*
and then **repairs**: :func:`repair` projects an arbitrary draw onto the
admissible set by the smallest upward adjustments (round ``v`` up to a
multiple of ``p``, grow ``M`` to fit one context and one block per disk,
clamp an explicit ``k`` to a divisor of ``v/p`` that fits memory, reshape
``n`` for the workload, wire fault/checkpoint implications).  Repair is
deterministic and idempotent, and the shrinker reuses it so every shrink
candidate is admissible by construction.

Determinism: config ``i`` of seed ``s`` is drawn from
``random.Random(f"conform/{s}/{i}")`` and nothing else, so a case number in
a fuzz log is enough to regenerate its exact configuration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from ..core.backend import BACKENDS
from ..emio.storage import STORAGE_KINDS
from .config import BASELINE_WORKLOADS, FAULT_KINDS, WORKLOADS, ConformConfig

__all__ = ["StrategyProfile", "DEFAULT", "QUICK", "random_config", "repair"]


@dataclass(frozen=True)
class StrategyProfile:
    """Bounds and weights of the random draw (not of the repair step)."""

    p_choices: tuple[int, ...] = (1, 1, 1, 2, 2, 3, 4)
    D_max: int = 6
    B_choices: tuple[int, ...] = (4, 8, 16, 32)
    v_choices: tuple[int, ...] = (1, 2, 4, 4, 6, 8, 12, 16)
    n_max: int = 256
    #: (none, transient, kill) draw weights.
    fault_weights: tuple[float, ...] = (0.6, 0.25, 0.15)
    workloads: tuple[str, ...] = WORKLOADS
    allow_process: bool = True
    process_rate: float = 0.25
    #: Storage-plane draw weights, one per entry of ``STORAGE_KINDS``.
    storage_weights: tuple[float, ...] = (0.6, 0.25, 0.15)
    #: Fraction of configs that crash at one random checkpoint-barrier
    #: stage and must scrub-and-resume (the ``crash_resume`` oracle).
    crash_rate: float = 0.15
    #: Upper bound (exclusive) of the drawn global crash point; points past
    #: the run's last barrier simply let the run finish (``crash_survived``).
    crash_point_max: int = 25
    #: Fraction of configs drawn on the vectorized record plane (repair
    #: folds it back to ``"object"`` for workloads without the mode).
    vector_rate: float = 0.35
    #: Competitor-sorter workload pool (``repro.baselines`` registry names);
    #: drawn *instead of* a CGM workload at ``baseline_rate``.
    baselines: tuple[str, ...] = BASELINE_WORKLOADS
    #: Fraction of configs redirected to a competitor sorter.  Their repair
    #: folds the CGM-only axes away, leaving (n, M, D, B, storage, fast_io)
    #: as the live axes.
    baseline_rate: float = 0.12


DEFAULT = StrategyProfile()

#: Tier-1 profile: small inputs, no multiprocessing workers, so a fixed-seed
#: pytest budget stays fast on CI runners.
QUICK = StrategyProfile(
    p_choices=(1, 1, 2, 2, 3),
    D_max=4,
    v_choices=(1, 2, 4, 4, 6, 8),
    n_max=96,
    allow_process=False,
)


def case_rng(seed: int, index: int) -> random.Random:
    """The RNG stream of config ``index`` under fuzzer seed ``seed``."""
    return random.Random(f"conform/{seed}/{index}")


def random_config(
    seed: int, index: int, profile: StrategyProfile = DEFAULT
) -> ConformConfig:
    """Draw config ``index`` of fuzz seed ``seed`` and repair it."""
    return repair(_draw(case_rng(seed, index), profile))


def _draw(rng: random.Random, profile: StrategyProfile) -> dict[str, Any]:
    """An unconstrained raw draw; only :func:`repair` makes it admissible."""
    p = rng.choice(profile.p_choices)
    engine = "parallel" if p > 1 else rng.choice(("sequential", "parallel"))
    backend = "inline"
    if (
        engine == "parallel"
        and profile.allow_process
        and rng.random() < profile.process_rate
    ):
        backend = "process"
    B = rng.choice(profile.B_choices)
    d = dict(
        p=p,
        M=rng.randrange(64, 1 << 14),
        D=rng.randrange(1, profile.D_max + 1),
        B=B,
        b=rng.choice((max(1, B // 2), B, B, 2 * B)),
        G=rng.choice((0.5, 1.0, 1.0, 2.0)),
        g=rng.choice((0.0, 1.0, 1.0, 4.0)),
        L=rng.choice((0.0, 1.0, 8.0)),
        v=rng.choice(profile.v_choices),
        k=rng.randrange(1, 9) if rng.random() < 0.3 else None,
        workload=rng.choice(profile.workloads),
        n=rng.randrange(8, profile.n_max + 1),
        data_seed=rng.randrange(1 << 16),
        engine=engine,
        backend=backend,
        context_cache=rng.random() < 0.4,
        fast_io=rng.random() < 0.4,
        checkpoint=rng.random() < 0.3,
        storage=rng.choices(STORAGE_KINDS, weights=profile.storage_weights)[0],
        sim_seed=rng.randrange(1 << 16),
        fault=rng.choices(FAULT_KINDS, weights=profile.fault_weights)[0],
        fault_seed=rng.randrange(1 << 16),
        dead_disk=rng.randrange(0, 64),
        dead_after=rng.randrange(1, 120),
        dead_proc=rng.randrange(0, 64),
        crash=rng.random() < profile.crash_rate,
        crash_point=rng.randrange(0, profile.crash_point_max),
        crash_seed=rng.randrange(1 << 16),
        records="vector" if rng.random() < profile.vector_rate else "object",
    )
    # Competitor sorters replace the CGM workload; the rest of the draw is
    # reused (repair folds the axes they don't have).
    if profile.baselines and rng.random() < profile.baseline_rate:
        d["workload"] = rng.choice(profile.baselines)
    return d


def repair(raw: dict[str, Any] | ConformConfig) -> ConformConfig:
    """Project a raw draw (or any config) onto the admissible set.

    Deterministic and idempotent: ``repair(repair(x)) == repair(x)``.  The
    result is guaranteed constructible — ``cfg.params()`` does not raise —
    which the function verifies before returning.
    """
    d = dict(raw.to_dict() if isinstance(raw, ConformConfig) else raw)

    # -- machine shape --
    p = max(1, int(d.get("p", 1)))
    D = max(1, int(d.get("D", 1)))
    B = max(1, int(d.get("B", 16)))
    b = max(1, int(d.get("b", B)))
    d.update(p=p, D=D, B=B, b=b)
    for cost in ("G", "g", "L"):
        d[cost] = max(0.0, float(d.get(cost, 1.0)))

    # -- competitor sorters: their own (much smaller) admissible set --
    if d.get("workload") in BASELINE_WORKLOADS:
        return _repair_baseline(d)

    # -- virtual machine: one whole group per real processor needs p | v --
    v = max(1, int(d.get("v", 1)))
    v = -(-v // p) * p
    d["v"] = v

    # -- workload input shape --
    wl = d.get("workload", "sort")
    if wl not in WORKLOADS:
        wl = "sort"
    n = max(1, int(d.get("n", 2 * v)))
    n = max(n, 2 * v)
    if wl == "sort":
        n = max(n, v * v)  # CGMSampleSort requires n >= v^2
    n = -(-n // v) * v  # clean shares (and transpose's n = r*c with r = v)
    d.update(workload=wl, n=n)

    # -- record plane: fold "vector" back to "object" when unsupported --
    records = d.get("records", "object")
    if records != "object":
        probe = ConformConfig.from_dict(
            {**d, "M": 1 << 30, "k": None, "records": "object"}
        )
        if records not in probe.algorithm().RECORD_MODES:
            records = "object"
    d["records"] = records

    # -- memory: hold one block per disk and one virtual context --
    cfg = ConformConfig.from_dict({**d, "M": 1 << 30, "k": None})
    mu = cfg.algorithm().context_size()
    M = max(int(d.get("M", 0)), D * B, mu)
    d["M"] = M

    # -- explicit k: fit memory, divide v/p --
    k = d.get("k")
    if k is not None:
        vpp = v // p
        k = max(1, min(int(k), M // mu, vpp))
        while vpp % k:
            k -= 1
        d["k"] = k

    # -- execution plane implications --
    engine = d.get("engine", "auto")
    if p > 1 or engine not in ("sequential", "parallel"):
        engine = "parallel" if p > 1 else "sequential"
    d["engine"] = engine
    if engine != "parallel":
        d["backend"] = "inline"
    elif d.get("backend") not in BACKENDS:
        d["backend"] = "inline"
    if d.get("storage") not in STORAGE_KINDS:
        d["storage"] = "memory"

    # -- fault plan implications --
    fault = d.get("fault", "none")
    if fault not in FAULT_KINDS:
        fault = "none"
    d["fault"] = fault
    if fault == "kill":
        # A permanent death is only recoverable from a checkpoint, and the
        # doomed (proc, disk) pair must exist on this machine.
        d["checkpoint"] = True
        d["dead_disk"] = int(d.get("dead_disk", 0)) % D
        d["dead_proc"] = int(d.get("dead_proc", 0)) % p
        d["dead_after"] = max(1, int(d.get("dead_after", 1)))

    # -- crash axis implications --
    d["crash"] = bool(d.get("crash", False))
    d["crash_point"] = max(0, int(d.get("crash_point", 0)))
    d["crash_seed"] = int(d.get("crash_seed", 0))
    if d["crash"]:
        # Crash injection needs a durable plane and a checkpoint protocol to
        # crash *around*; the fault axis is forced off so the crash_resume
        # verdict is not confounded by retries or a concurrent disk death.
        d["checkpoint"] = True
        if d["storage"] == "memory":
            d["storage"] = "file"
        d["fault"] = "none"

    cfg = ConformConfig.from_dict(d)
    cfg.params()  # admissibility proof; raises ParameterError on a repair bug
    return cfg


def _repair_baseline(d: dict[str, Any]) -> ConformConfig:
    """Project a draw onto the competitor-sorter (baseline) plane.

    Competitors are sequential single-processor programs charging I/O
    through the same counted :class:`~repro.emio.disks.DiskArray`, so the
    CGM-only axes — virtual processors, engines, backends, checkpoints,
    faults, crashes, record planes — fold to their trivial values.  The
    live axes are ``(workload, n, data_seed, M, D, B, storage, fast_io)``.
    The machine shape (``p``/``D``/``B``/``b``/costs) is already normalized
    by :func:`repair` before it dispatches here.
    """
    D, B = d["D"], d["B"]
    d.update(
        p=1, v=1, k=None,
        n=max(1, int(d.get("n", 8))),
        engine="sequential", backend="inline",
        context_cache=False, checkpoint=False,
        crash=False, fault="none",
        records="object",
        # One block per disk plus working headroom; every competitor sizes
        # its buffers defensively below this but the bound formulas assume
        # at least a couple of blocks of memory.
        M=max(int(d.get("M", 0)), 2 * D * B),
    )
    if d.get("storage") not in STORAGE_KINDS:
        d["storage"] = "memory"
    d["crash_point"] = max(0, int(d.get("crash_point", 0)))
    d["crash_seed"] = int(d.get("crash_seed", 0))
    cfg = ConformConfig.from_dict(d)
    cfg.machine()  # validates the machine tuple
    cfg.baseline_sorter()  # admissibility proof for the competitor plane
    return cfg
