"""Front door for running BSP*/CGM algorithms as EM algorithms.

:func:`simulate` assembles :class:`SimulationParams` from an algorithm's own
resource declarations, chooses the sequential (Algorithm 1) or parallel
(Algorithm 3) engine from the machine's ``p``, and runs it.  This is the
"automatically generated EM algorithm" of the paper's conclusion: the caller
supplies a parallel algorithm and a machine description; blocking, parallel
disks, and multiple processors are handled by the simulation.
"""

from __future__ import annotations

import warnings
from typing import Any

from ..bsp.program import BSPAlgorithm
from ..obs.live import RunEventLog
from ..obs.spans import Collector
from ..params import BSPParams, MachineParams, SimulationParams
from .engine import RunConfig
from .parsim import ParallelEMSimulation
from .seqsim import SequentialEMSimulation
from .stats import SimulationReport

__all__ = ["simulate", "make_engine", "build_params"]


def build_params(
    algorithm: BSPAlgorithm,
    machine: MachineParams,
    v: int,
    k: int | None = None,
    strict: bool = False,
) -> SimulationParams:
    """Derive :class:`SimulationParams` from the algorithm's declarations."""
    return SimulationParams(
        machine=machine,
        bsp=BSPParams(
            v=v,
            mu=algorithm.context_size(),
            gamma=max(algorithm.comm_bound(), 1),
        ),
        k=k,
        strict=strict,
    )


def make_engine(
    algorithm: BSPAlgorithm,
    params: SimulationParams,
    config: RunConfig | None = None,
    *,
    observer: Collector | None = None,
    events: RunEventLog | None = None,
    **knobs: Any,
) -> SequentialEMSimulation | ParallelEMSimulation:
    """Build the engine ``config.engine`` names for ``params`` — the one place
    that picks the class (``"auto"``: Algorithm 1 for ``p == 1``, Algorithm 3
    otherwise).  ``knobs`` are :class:`RunConfig` fields."""
    config = RunConfig.of(config, **knobs)
    engine = config.engine
    if engine == "auto":
        engine = "sequential" if params.machine.p == 1 else "parallel"
    cls = ParallelEMSimulation if engine == "parallel" else SequentialEMSimulation
    return cls(algorithm, params, config, observer=observer, events=events)


def simulate(
    algorithm: BSPAlgorithm,
    machine: MachineParams,
    v: int,
    k: int | None = None,
    strict: bool = False,
    config: RunConfig | None = None,
    *,
    observer: Collector | None = None,
    events: RunEventLog | None = None,
    io_overlap: bool = False,
    **knobs: Any,
) -> tuple[list[Any], SimulationReport]:
    """Run ``algorithm`` with ``v`` virtual processors on ``machine``.

    ``k`` (default ``floor(M/mu)``) and ``strict`` (enforce Theorem 1's side
    conditions: slackness etc.) complete :class:`SimulationParams`;
    ``config`` and ``knobs`` say how the host runs it — the fields of
    :class:`~repro.core.engine.RunConfig`, documented there once — and
    ``observer`` / ``events`` watch it (see
    :class:`~repro.core.engine.EMEngine`).  ``io_overlap`` is deprecated and
    ignored: the overlapped-I/O plane it selected was deleted (DESIGN §12);
    ``True`` warns, and nothing below this function accepts it.

    Returns ``(outputs, report)``: ``outputs[i]`` is virtual processor
    ``i``'s output; ``report`` holds counted model costs and per-phase I/O
    breakdowns.
    """
    if io_overlap:
        warnings.warn(
            "simulate(io_overlap=True) is deprecated and has no effect: the "
            "overlapped-I/O plane was deleted on its measured verdict "
            "(DESIGN 12); the run uses the synchronous plane",
            DeprecationWarning,
            stacklevel=2,
        )
    params = build_params(algorithm, machine, v, k=k, strict=strict)
    return make_engine(
        algorithm, params, config, observer=observer, events=events, **knobs
    ).run()
