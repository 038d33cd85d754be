"""One end-to-end conformance configuration, fully explicit and replayable.

A :class:`ConformConfig` pins *everything* a run depends on: the machine
tuple ``(p, M, D, B, b, G, g, L)``, the workload and its input size and data
seed, the virtual machine (``v``, optional explicit ``k``), the execution
plane (engine, backend, fast-path flags, checkpointing), and the fault plan.
Two properties matter:

* **Determinism** — building the same config twice yields byte-identical
  inputs and fault streams, so every oracle verdict is reproducible from the
  JSON form alone.
* **Admissibility is not assumed** — constructing the config object never
  validates; :func:`repro.conform.strategies.repair` is the projection onto
  the admissible set, and :meth:`ConformConfig.params` surfaces the
  (self-describing) :class:`~repro.params.ParameterError` otherwise.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING, Any

from ..bsp.program import BSPAlgorithm
from ..emio.faults import FaultPlan, RetryPolicy
from ..params import MachineParams

if TYPE_CHECKING:
    from ..baselines import CountedSorter

__all__ = ["ConformConfig", "WORKLOADS", "BASELINE_WORKLOADS", "FAULT_KINDS"]

#: Fuzzable workloads: one representative per communication pattern —
#: sample sort (splitter broadcast + all-to-all), permutation (pure
#: h-relation), prefix sums (converging tree traffic), list ranking
#: (pointer-jumping, superstep count grows with n), matrix transpose
#: (structured all-to-all).
WORKLOADS = ("sort", "permute", "prefix", "listrank", "transpose")

#: Competitor-sorter workloads: each runs one of the counted-cost external
#: sorting baselines (``repro.baselines.SORTING_BASELINES``) on the same
#: DiskArray substrate instead of a CGM simulation.  They share the config
#: schema but fold the CGM-only axes (``v``, engines, backends, faults,
#: crashes, record planes) to their trivial values — see
#: ``strategies._repair_baseline``.
BASELINE_WORKLOADS = ("guidesort", "emmergesort", "buffertree")

#: Fault axes: ``none`` (healthy machine), ``transient`` (retriable
#: read/write errors, detected corruption, latency spikes), ``kill`` (one
#: permanent disk death mid-run; exercises checkpoint/kill-resume).
FAULT_KINDS = ("none", "transient", "kill")

# Transient rates are fixed (the stream itself varies with fault_seed):
# high enough to inject several faults per run at these sizes, low enough
# that the default retry budget practically never exhausts (~rate^7).
_TRANSIENT = dict(
    read_error_rate=0.03,
    write_error_rate=0.03,
    corruption_rate=0.02,
    latency_rate=0.02,
)


@dataclass(frozen=True)
class ConformConfig:
    """One randomized end-to-end configuration of ``simulate()``."""

    # -- machine tuple (p, M, D, B, b, G, g, L) --
    p: int = 1
    M: int = 4096
    D: int = 2
    B: int = 16
    b: int = 16
    G: float = 1.0
    g: float = 1.0
    L: float = 1.0
    # -- virtual machine + workload --
    v: int = 4
    k: int | None = None
    workload: str = "sort"
    n: int = 64
    data_seed: int = 0
    #: Record plane the algorithm runs on (``"object"`` or ``"vector"``);
    #: repair folds ``"vector"`` back to ``"object"`` for workloads that
    #: don't support it.  Counted costs and outputs must be identical — the
    #: runner adds the other mode as a differential plane.
    records: str = "object"
    # -- execution plane --
    engine: str = "sequential"
    backend: str = "inline"
    context_cache: bool = False
    fast_io: bool = False
    checkpoint: bool = False
    storage: str = "memory"
    #: Crash axis: inject one host crash at ``crash_point`` (a global index
    #: over the run's checkpoint-barrier crash stages, see
    #: :data:`~repro.emio.faults.CRASH_STAGES`), then scrub-and-resume.
    #: Repair forces ``checkpoint=True``, a non-memory plane, and
    #: ``fault="none"`` (crash recovery is its own oracle).
    crash: bool = False
    crash_point: int = 0
    crash_seed: int = 0
    sim_seed: int = 0
    # -- fault plan --
    fault: str = "none"
    fault_seed: int = 0
    dead_disk: int = 0
    dead_after: int = 40
    dead_proc: int = 0

    # -- constructions -------------------------------------------------------

    def machine(self) -> MachineParams:
        return MachineParams(
            p=self.p, M=self.M, D=self.D, B=self.B, b=self.b,
            G=self.G, g=self.g, L=self.L,
        )

    @property
    def is_baseline(self) -> bool:
        """Whether this config runs a competitor sorter, not a CGM workload."""
        return self.workload in BASELINE_WORKLOADS

    def baseline_input(self) -> list[int]:
        """The deterministic input of a competitor-sorter config."""
        from .. import workloads as wl

        return [int(x) for x in wl.uniform_keys(self.n, seed=self.data_seed)]

    def baseline_sorter(self, *, storage: str | None = None,
                        fast_io: bool | None = None) -> CountedSorter:
        """A fresh competitor sorter over this config's machine.

        ``storage``/``fast_io`` override the config's own plane — the runner
        uses that to build the differential planes that must charge identical
        counted I/O.
        """
        from ..baselines import SORTING_BASELINES

        cls = SORTING_BASELINES[self.workload]
        return cls(
            self.machine(),
            storage=self.storage if storage is None else storage,
            fast_io=self.fast_io if fast_io is None else fast_io,
        )

    def algorithm(self) -> BSPAlgorithm:
        """A fresh algorithm instance over this config's deterministic input."""
        alg = self._build_algorithm()
        alg.set_record_mode(self.records)
        return alg

    def _build_algorithm(self) -> BSPAlgorithm:
        from .. import workloads as wl

        n, v, seed = self.n, self.v, self.data_seed
        if self.workload == "sort":
            from ..algorithms import CGMSampleSort

            return CGMSampleSort(wl.uniform_keys(n, seed=seed), v)
        if self.workload == "permute":
            from ..algorithms import CGMPermutation

            return CGMPermutation(
                list(range(n)), wl.random_permutation(n, seed=seed), v
            )
        if self.workload == "prefix":
            from ..algorithms import CGMPrefixSums

            return CGMPrefixSums(wl.uniform_keys(n, seed=seed, hi=1000), v)
        if self.workload == "listrank":
            from ..algorithms.graphs import CGMListRanking

            return CGMListRanking(wl.random_linked_list(n, seed=seed), v)
        if self.workload == "transpose":
            from ..algorithms import CGMMatrixTranspose

            r, c = v, n // v
            return CGMMatrixTranspose(wl.matrix_entries(r, c, seed=seed), r, c, v)
        if self.workload in BASELINE_WORKLOADS:
            raise ValueError(
                f"workload {self.workload!r} is a competitor sorter, not a "
                "CGM algorithm; use baseline_sorter()/baseline_input()"
            )
        raise ValueError(f"unknown workload {self.workload!r}")

    def params(self):
        """The run's :class:`SimulationParams` (raises ``ParameterError``
        when the config is not admissible)."""
        from ..core.simulator import build_params

        return build_params(self.algorithm(), self.machine(), self.v, k=self.k)

    def fault_plan(self) -> FaultPlan | None:
        if self.fault == "none":
            return None
        if self.fault == "transient":
            return FaultPlan(seed=self.fault_seed, **_TRANSIENT)
        if self.fault == "kill":
            return FaultPlan(
                seed=self.fault_seed,
                dead_disk=self.dead_disk,
                dead_after=self.dead_after,
                dead_proc=self.dead_proc,
            )
        raise ValueError(f"unknown fault kind {self.fault!r}")

    def retry_policy(self) -> RetryPolicy | None:
        return RetryPolicy() if self.fault != "none" else None

    def crash_plan(self):
        """The config's :class:`~repro.emio.faults.CrashPlan` (or ``None``)."""
        if not self.crash:
            return None
        from ..emio.faults import CrashPlan

        return CrashPlan(seed=self.crash_seed, crash_point=self.crash_point)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ConformConfig":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{key: val for key, val in d.items() if key in known})

    def with_(self, **kw) -> "ConformConfig":
        return replace(self, **kw)

    def describe(self) -> str:
        """One line, for fuzzer progress output and repro-case summaries."""
        plane = [self.engine, self.backend]
        if self.context_cache:
            plane.append("ctx-cache")
        if self.fast_io:
            plane.append("fast-io")
        if self.checkpoint:
            plane.append("ckpt")
        if self.storage != "memory":
            plane.append(f"storage={self.storage}")
        if self.records != "object":
            plane.append(f"records={self.records}")
        if self.crash:
            plane.append(f"crash@{self.crash_point}")
        fault = "" if self.fault == "none" else f" fault={self.fault}"
        return (
            f"{self.workload} n={self.n} v={self.v} k={self.k} "
            f"p={self.p} M={self.M} D={self.D} B={self.B} b={self.b} "
            f"[{'+'.join(plane)}]{fault} seed={self.sim_seed}"
        )
