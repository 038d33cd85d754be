"""Composing CGM algorithms into multi-stage EM pipelines.

Table 1's richer rows (LCA, biconnectivity, ear decomposition, the GIS
example) are *compositions* of CGM building blocks.  :class:`Pipeline`
packages the composition pattern: it exposes a ``run`` callable to hand to
any driver, executes every stage through the EM engine on one
machine description, and accumulates the stages' reports into a combined
cost summary — the end-to-end counted cost of the generated EM program.

    pipe = Pipeline(machine, seed=7)
    lcas = batched_lca(edges, 0, queries, v, run=pipe.run)
    print(pipe.summary())   # stages, total io_ops, packets, model time
"""

from __future__ import annotations

from typing import Any

from .core.simulator import simulate
from .core.stats import SimulationReport
from .params import MachineParams

__all__ = ["Pipeline"]


class Pipeline:
    """Runs a sequence of CGM algorithms on one EM machine, keeping score.

    Parameters
    ----------
    machine:
        The target machine.  Per stage, ``M`` is raised to hold ``min_k``
        contexts of that stage's algorithm if the given ``M`` is smaller
        (CGM algorithms size their contexts as ``Theta(n/v)``).
    seed:
        Base seed; stage ``i`` uses ``seed + i`` so reruns are reproducible.
    min_k:
        Minimum group size the memory must accommodate.
    """

    def __init__(
        self,
        machine: MachineParams,
        seed: int = 0,
        min_k: int = 2,
    ):
        self.machine = machine
        self.seed = seed
        self.min_k = min_k
        self.reports: list[tuple[str, SimulationReport]] = []

    def run(self, algorithm, v: int) -> list[Any]:
        """Execute one stage; drivers pass this as their ``run`` callable."""
        mu = algorithm.context_size()
        machine = self.machine
        if machine.M < self.min_k * mu:
            machine = machine.with_(M=self.min_k * mu)
        outputs, report = simulate(
            algorithm,
            machine,
            v=v,
            seed=self.seed + len(self.reports),
        )
        self.reports.append((type(algorithm).__name__, report))
        return outputs

    # -- accumulated costs -----------------------------------------------------------

    @property
    def stages(self) -> int:
        return len(self.reports)

    @property
    def io_ops(self) -> int:
        return sum(r.io_ops for _n, r in self.reports)

    @property
    def supersteps(self) -> int:
        return sum(r.num_supersteps for _n, r in self.reports)

    @property
    def comm_packets(self) -> int:
        return sum(r.ledger.total_comm_packets for _n, r in self.reports)

    def io_time(self) -> float:
        return sum(r.io_time for _n, r in self.reports)

    def total_time(self) -> float:
        return sum(r.ledger.total_time() for _n, r in self.reports)

    def summary(self) -> dict:
        return {
            "stages": self.stages,
            "supersteps": self.supersteps,
            "io_ops": self.io_ops,
            "comm_packets": self.comm_packets,
            "io_time": self.io_time(),
            "total_time": self.total_time(),
            "per_stage": [
                {"algorithm": name, "supersteps": r.num_supersteps, "io_ops": r.io_ops}
                for name, r in self.reports
            ],
        }

    def format_profile(self) -> str:
        """Human-readable per-stage cost table."""
        lines = [f"{'stage':<28}{'supersteps':>11}{'io_ops':>8}{'packets':>9}"]
        for name, r in self.reports:
            lines.append(
                f"{name:<28}{r.num_supersteps:>11}{r.io_ops:>8}"
                f"{r.ledger.total_comm_packets:>9}"
            )
        lines.append(
            f"{'TOTAL':<28}{self.supersteps:>11}{self.io_ops:>8}"
            f"{self.comm_packets:>9}"
        )
        return "\n".join(lines)
