"""repro — parallel external-memory algorithms by simulating coarse-grained
parallel algorithms.

A faithful, fully instrumented reproduction of

    F. Dehne, W. Dittrich, D. Hutchinson.
    *Efficient External Memory Algorithms by Simulating Coarse-Grained
    Parallel Algorithms.*  SPAA 1997 (Algorithmica 36:97-122, 2003).

Quick start::

    from repro import MachineParams, simulate
    from repro.algorithms import CGMSampleSort

    data = [5, 3, 8, 1, ...]
    outputs, report = simulate(
        CGMSampleSort(data, v=16), MachineParams(p=1, M=1 << 16, D=4, B=32), v=16
    )
    print(report.summary())

``simulate`` derives the virtual machine ``(v, k, mu, gamma)`` from the
algorithm's declarations; :class:`repro.core.ParallelEMSimulation` is the
engine, built from explicit :class:`SimulationParams` instead.
"""

from .costs import CostLedger, SuperstepCost, packets_for
from .params import (
    BSPParams,
    MachineParams,
    ParameterError,
    SimulationParams,
    log_MB,
)

__version__ = "1.0.0"

__all__ = [
    "MachineParams",
    "BSPParams",
    "SimulationParams",
    "ParameterError",
    "log_MB",
    "CostLedger",
    "SuperstepCost",
    "packets_for",
    "__version__",
]


def __getattr__(name):
    # Lazy imports keep `import repro` light while exposing the full API.
    if name == "SimulationReport":
        from .core.stats import SimulationReport

        return SimulationReport
    if name in ("BSPAlgorithm", "VPContext", "ReferenceRunner", "run_reference"):
        from . import bsp

        return getattr(bsp, name)
    if name == "ParallelEMSimulation":
        from .core.engine import ParallelEMSimulation

        return ParallelEMSimulation
    if name == "Pipeline":
        from .pipeline import Pipeline

        return Pipeline
    if name == "simulate":
        from .core.simulator import simulate

        return simulate
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
