"""The paper's simulation technique: Algorithms 1–3 and their reports."""

from .checkpoint import SimulationAborted, SuperstepCheckpoint
from .context import ContextStore
from .engine import RunConfig
from .parsim import ParallelEMSimulation
from .routing import RoutingStats, simulate_routing
from .seqsim import SequentialEMSimulation
from .simulator import build_params, make_engine, simulate
from .stats import FaultReport, PhaseBreakdown, SimulationReport, SuperstepReport

__all__ = [
    "ContextStore",
    "simulate_routing",
    "RoutingStats",
    "SequentialEMSimulation",
    "ParallelEMSimulation",
    "simulate",
    "make_engine",
    "RunConfig",
    "build_params",
    "SimulationReport",
    "SuperstepReport",
    "PhaseBreakdown",
    "FaultReport",
    "SuperstepCheckpoint",
    "SimulationAborted",
]
