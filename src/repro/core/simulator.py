"""Front door for running BSP*/CGM algorithms as EM algorithms.

:func:`simulate` assembles :class:`SimulationParams` from an algorithm's own
resource declarations and runs the engine
(:class:`~repro.core.engine.ParallelEMSimulation`: Algorithm 3, which is
Algorithm 1 at ``p = 1``) on the machine.  This is the
"automatically generated EM algorithm" of the paper's conclusion: the caller
supplies a parallel algorithm and a machine description; blocking, parallel
disks, and multiple processors are handled by the simulation.
"""

from __future__ import annotations

import warnings
from typing import Any, Callable

from ..bsp.program import BSPAlgorithm
from ..obs.live import RunEventLog
from ..obs.spans import Collector
from ..params import BSPParams, MachineParams, SimulationParams
from .engine import ParallelEMSimulation, RunConfig
from .stats import SimulationReport

__all__ = ["simulate", "build_params", "pick_v"]


def build_params(
    algorithm: BSPAlgorithm,
    machine: MachineParams,
    v: int,
    k: int | None = None,
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
    )


def pick_v(
    make: Callable[[int], BSPAlgorithm], machine: MachineParams, limit: int
) -> int | None:
    """The smallest admissible virtual-processor count for ``machine``.

    Tries ``v = max(2, p)`` and its doublings up to ``limit`` and returns the
    first that ``make(v)`` builds an algorithm for (it raises ``ValueError``
    where ``v`` does not suit the input, as the sort does below ``n >= v^2``)
    and :func:`build_params` admits: one context fits in ``M`` and the ``v``
    vps split evenly over the processors.  None if no ``v`` up to ``limit`` does.  The fewer
    the vps, the fewer and fuller their messages and context slots.
    """
    v = max(2, machine.p)
    while v <= limit:
        try:
            build_params(make(v), machine, v)
            return v
        except ValueError:  # ParameterError included
            v *= 2
    return None


def simulate(
    algorithm: BSPAlgorithm,
    machine: MachineParams,
    v: int,
    k: int | None = None,
    config: RunConfig | None = None,
    *,
    observer: Collector | None = None,
    events: RunEventLog | None = None,
    io_overlap: bool = False,
    records: str | None = None,
    **knobs: Any,
) -> tuple[list[Any], SimulationReport]:
    """Run ``algorithm`` with ``v`` virtual processors on ``machine``.

    ``k`` (default ``floor(M/mu)``) completes :class:`SimulationParams`;
    ``config`` and ``knobs`` say how the host runs it — the fields of
    :class:`~repro.core.engine.RunConfig`, documented there once (any other
    name, the engine's ablations too, is a ``TypeError``) — and ``observer``
    / ``events`` watch it (see :class:`~repro.core.engine.ParallelEMSimulation`).
    ``io_overlap`` is deprecated and ignored: the overlapped-I/O plane it
    selected was deleted (DESIGN §12); ``True`` warns, and nothing below
    this function accepts it.
    ``records`` is a check, not a knob: the input picks the record plane,
    and a plane other than the one it picked raises ``AlgorithmError``
    (:meth:`~repro.bsp.program.BSPAlgorithm.set_record_mode`).

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
    if records is not None:
        algorithm.set_record_mode(records)
    config = RunConfig.of(config, **knobs)
    params = build_params(algorithm, machine, v, k=k)
    return ParallelEMSimulation(
        algorithm, params, config, observer=observer, events=events
    ).run()
