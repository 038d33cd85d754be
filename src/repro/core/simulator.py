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
from typing import Any, Literal

from ..bsp.program import BSPAlgorithm
from ..emio.faults import CrashPlan, FaultPlan, RetryPolicy
from ..obs.live import RunEventLog
from ..obs.spans import Collector
from ..params import BSPParams, MachineParams, SimulationParams
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
    engine: Literal["auto", "sequential", "parallel"] = "auto",
    backend: Literal["inline", "process"] = "inline",
    **engine_kwargs,
) -> SequentialEMSimulation | ParallelEMSimulation:
    """Build the engine for ``params`` — the one place that picks the class
    from ``engine``/``backend`` (see :func:`simulate`); ``engine_kwargs`` go
    to its constructor as they are."""
    p = params.machine.p
    requested = engine
    if engine == "auto":
        engine = "sequential" if p == 1 else "parallel"
    if engine == "parallel":
        return ParallelEMSimulation(algorithm, params, backend=backend, **engine_kwargs)
    if engine != "sequential":
        raise ValueError(f"unknown engine {engine!r}")
    if backend != "inline":
        # Name both knobs: the caller must change either `backend` (to
        # "inline") or `engine` (to "parallel", which accepts p == 1).
        how = (
            f"engine='auto' resolved to 'sequential' because machine.p={p}"
            if requested == "auto"
            else f"engine={requested!r}"
        )
        raise ValueError(
            f"backend={backend!r} requires the parallel engine, but {how}; "
            f"pass engine='parallel' (it accepts p=1) or backend='inline' "
            "(the sequential engine has a single real processor)"
        )
    return SequentialEMSimulation(algorithm, params, **engine_kwargs)


def simulate(
    algorithm: BSPAlgorithm,
    machine: MachineParams,
    v: int,
    k: int | None = None,
    seed: int = 0,
    engine: Literal["auto", "sequential", "parallel"] = "auto",
    strict: bool = False,
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
    checkpoint: bool = False,
    max_recoveries: int = 8,
    backend: Literal["inline", "process"] = "inline",
    context_cache: bool | None = None,
    fast_io: bool | None = None,
    observer: Collector | None = None,
    events: RunEventLog | None = None,
    storage: str = "memory",
    storage_dir: str | None = None,
    io_overlap: bool = False,
    crash: CrashPlan | None = None,
    records: str | None = None,
    **engine_kwargs,
) -> tuple[list[Any], SimulationReport]:
    """Run ``algorithm`` with ``v`` virtual processors on ``machine``.

    Parameters
    ----------
    engine:
        ``"auto"`` picks Algorithm 1 for ``p == 1`` and Algorithm 3 for
        ``p > 1``; the other values force an engine (the parallel engine
        accepts ``p == 1`` and exercises the packet-scatter path).
    strict:
        Enforce Theorem 1's side conditions (slackness etc.).
    the engine knobs:
        ``faults``, ``retry``, ``checkpoint``, ``max_recoveries``,
        ``backend``, ``context_cache``, ``fast_io``, ``observer``, ``events``,
        ``storage``, ``storage_dir`` and ``crash`` go to the
        engine's constructor unchanged and are documented once, on
        :class:`~repro.core.seqsim.SequentialEMSimulation` (``backend`` on
        :class:`~repro.core.parsim.ParallelEMSimulation`, the engine that has
        processors to place; it is rejected for the sequential engine).
        ``fast_io`` and ``context_cache`` left at ``None`` are derived from
        the storage plane: on with ``storage="memory"``, off on ``"file"`` /
        ``"mmap"``; pass ``False`` for the per-attempt reference path,
        ``True`` for the fast file plane.
    io_overlap:
        Deprecated and ignored: the overlapped-I/O plane it selected was
        deleted (DESIGN §12) and host I/O is always synchronous.  ``True``
        warns; the keyword exists only until the benchmark suite stops
        passing it, and nothing below :func:`simulate` accepts it.
    records:
        Record plane the algorithm's supersteps run on: ``None`` keeps the
        algorithm's current mode (``"object"`` by default), ``"object"``
        forces the per-record reference plane, ``"vector"`` selects the
        numpy kernels of codec-eligible algorithms (see
        :mod:`repro.emio.codec` and ``DESIGN.md`` §10).  Counted costs,
        ledgers, and outputs are identical across modes — an algorithm that
        does not support the requested mode raises ``AlgorithmError``.
    engine_kwargs:
        Passed through to the engine (e.g. ``pad_to_gamma=True`` for the
        sequential engine, ``write_schedule="rotate"`` for ablations).

    Returns
    -------
    (outputs, report):
        ``outputs[i]`` is virtual processor ``i``'s output; ``report`` holds
        counted model costs and per-phase I/O breakdowns.
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
    params = build_params(algorithm, machine, v, k=k, strict=strict)
    return make_engine(
        algorithm,
        params,
        engine=engine,
        backend=backend,
        seed=seed,
        faults=faults,
        retry=retry,
        checkpoint=checkpoint,
        max_recoveries=max_recoveries,
        context_cache=context_cache,
        fast_io=fast_io,
        observer=observer,
        events=events,
        storage=storage,
        storage_dir=storage_dir,
        crash=crash,
        **engine_kwargs,
    ).run()
