"""The superstep-barrier lifecycle both engines share.

The paper tells Algorithm 1 (``SeqCompoundSuperstep``) from Algorithm 3
(``ParCompoundSuperstep``) only *inside* a compound superstep; everything
around the barrier is the same machine.  :class:`EMEngine` is that machine:
build the real processors (:class:`~repro.core.processor.RealProcessor`)
behind a backend, load the input, drive compound supersteps until the
algorithm halts, checkpoint at every barrier, resume from a checkpoint,
inject host crashes, stream events, unload the output, report the faults.

Robustness (``faults``/``retry``/``checkpoint`` knobs): the disk substrate
can inject transient errors, corruption, latency spikes, and permanent disk
death (:mod:`repro.emio.faults`; a plan's ``dead_proc`` selects whose drive
dies).  Transient faults are masked inside
:class:`~repro.emio.diskarray.DiskArray` by bounded retries; fatal faults
(lost data, a died drive mid-access, an exhausted retry budget) surface as
exceptions and are handled here by restoring the last compound-superstep
checkpoint on *every* processor and re-running only the failed superstep —
the barrier is the natural recovery line because it is the only globally
consistent cut and nothing survives it except the contexts, the incoming
regions, the RNG states, and the ledger (:mod:`repro.core.checkpoint`).  The
process backend reports a worker's fault only after the whole barrier round
completes, so the rollback reaches every worker in a consistent state.
Because message reassembly sorts blocks by (source, message, sequence) and
the computation is deterministic, neither degraded-mode block placement nor
a superstep re-run can change the simulated algorithm's outputs.

It is written against one verb — *call this method on every real processor
and collect the answers* (``backend.call_all``) — and charges every barrier
phase as the model prescribes, the maximum over processors.  The sequential
engine is the case of one local processor; a subclass supplies only
:meth:`EMEngine._superstep`, the one place where the paper's algorithms differ.

How the host runs all this — engine, backend, storage plane, data plane,
record plane, faults, checkpoints, crashes — is one frozen
:class:`RunConfig`, declared and checked here, once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Any

from ..bsp.program import AlgorithmError, BSPAlgorithm
from ..costs import CostLedger, SuperstepCost
from ..emio.faults import FATAL_IO_FAULTS, CrashPlan, FaultPlan, HostCrash, RetryPolicy
from ..emio.linked import WRITE_SCHEDULES
from ..emio.storage import STORAGE_KINDS, StorageSpec
from ..obs.live import RunEventLog
from ..obs.spans import NULL_OBSERVER, Collector
from ..params import ParameterError, SimulationParams
from .backend import BACKENDS, make_backend
from .checkpoint import (
    CheckpointJournal,
    SimulationAborted,
    SuperstepCheckpoint,
    freeze,
    thaw,
)
from .processor import RealProcessor
from .routing import RoutingStats
from .stats import FaultReport, PhaseBreakdown, SimulationReport, SuperstepReport

__all__ = ["EMEngine", "RunConfig", "ENGINES", "RECORD_MODES"]

#: ``RunConfig.engine`` values; ``"auto"`` picks by ``p``.
ENGINES = ("auto", "sequential", "parallel")
#: ``RunConfig.records`` values besides ``None`` (keep the algorithm's mode).
RECORD_MODES = ("object", "vector")


def _refuse_unknown(field: str, value: Any, allowed: tuple, none_ok: bool = False) -> None:
    """Raise a :class:`ParameterError` naming ``field`` and ``allowed``
    unless ``value`` is one of them (or ``None``, where that means a default)."""
    if value in allowed or (none_ok and value is None):
        return
    expected = f"None or one of {allowed}" if none_ok else f"one of {allowed}"
    raise ParameterError(f"unknown {field} {value!r} (expected {expected})")


@dataclass(frozen=True)
class RunConfig:
    """How the host runs a simulation: every engine knob, declared once.

    :class:`~repro.params.SimulationParams` holds what the paper
    parameterises — the machine ``(p, M, D, B, b, G, g, L)`` and the virtual
    machine ``(v, k, mu, gamma)``; a ``RunConfig`` holds the rest.
    :func:`~repro.core.simulator.simulate`,
    :func:`~repro.core.simulator.make_engine` and both engines take one as
    ``config=`` and accept its fields as keywords too (folded by :meth:`of`:
    a keyword wins over the same field of ``config``; a name that is no
    field is a ``TypeError``).  Every enumerated value is refused at
    construction, naming the field and what it allows — before any storage
    root is claimed, written or loaded.  ``RunConfig(**repro.conform.REFERENCE)``
    is the reference plane.  The run's sinks, ``observer`` and ``events``,
    are arguments of the engine, not fields: they watch a run and change
    nothing in it.

    Fields
    ------
    engine:
        ``"auto"`` picks Algorithm 1
        (:class:`~repro.core.seqsim.SequentialEMSimulation`) for ``p == 1``
        and Algorithm 3 (:class:`~repro.core.parsim.ParallelEMSimulation`)
        otherwise; the other values force an engine (the parallel engine
        accepts ``p == 1`` and exercises the packet-scatter path).  Read by
        ``make_engine``, which picks the class.
    backend:
        Where the parallel engine's real processors run: ``"inline"``
        (default, the reference) in-process, ``"process"`` one
        ``multiprocessing`` worker each.  Outputs, ledgers and reports are
        identical (see :mod:`repro.core.backend`).  The sequential engine
        has one local processor and refuses ``"process"``.
    seed:
        Seed of the random disk-write permutations (Step 1(d)) and, under
        Algorithm 3, of the packet deal's offsets (processor ``i`` draws
        from ``"{seed}/proc{i}"``).
    storage:
        Block-storage plane backing the simulated disks: ``"memory"``
        (default, plain dicts), ``"file"`` (one preallocated track file per
        drive, accessed with ``pread``/``pwrite``), or ``"mmap"`` (the same
        files through ``mmap``).  Outputs, counted costs, ledgers, and traces
        are byte-identical across planes — the model charges I/O before data
        moves, so where the bytes live is invisible to the accounting (see
        ``DESIGN.md`` §8).  Non-memory planes make truly out-of-core runs
        possible: resident heap stays bounded by a handful of blocks while
        the dataset lives in the track files.  Host I/O is synchronous; the
        routing schedule batches it (DESIGN §12).
    storage_dir:
        Directory for the track files on non-memory planes.  ``None``
        (default) uses a private temporary directory removed when the run
        finishes; an explicit path persists after the run (that is what
        checkpoint/resume across processes points at) and must be empty or
        carry the storage marker file from a previous run.
    fast_io:
        The disk array's fast data plane — counted-cost-identical
        short-circuits of the parallel primitives, legal only on a healthy,
        untraced array (auto-disabled otherwise).
    context_cache:
        Context-swap fast path: hold each context's state object host-side;
        swaps charge the identical counted I/O without moving block data
        (see :class:`~repro.core.context.ContextStore`).  Model costs and
        outputs are unchanged; only host wall-clock improves.
        Auto-disabled under fault injection.

        Who selects the plane (both knobs): ``None``, the default, asks the
        storage plane (:meth:`StorageSpec.fast_plane
        <repro.emio.storage.StorageSpec.fast_plane>`) — on with
        ``storage="memory"``, where nothing is lost, off on ``"file"`` /
        ``"mmap"``, where the fast plane would double the out-of-core heap
        promise (DESIGN §8).  ``True`` / ``False`` are honoured on every
        plane; ``False`` for both is the *reference plane* the golden tests
        name (``repro.conform.REFERENCE``).  The engine's own config holds
        the resolved values, and so does ``run_started``.
    records:
        Record plane the algorithm's supersteps run on: ``None`` keeps the
        algorithm's current mode (``"object"`` by default), ``"object"``
        forces the per-record reference plane, ``"vector"`` selects the
        numpy kernels of codec-eligible algorithms (see
        :mod:`repro.emio.codec` and ``DESIGN.md`` §10).  Counted costs,
        ledgers, and outputs are identical across modes.  The engine sets
        it before it claims a storage root; an algorithm that does not
        support the mode raises ``AlgorithmError`` there.
    faults:
        A :class:`~repro.emio.faults.FaultPlan` injecting disk faults
        (transient errors, corruption, latency spikes, disk death) into the
        simulated arrays, or None for healthy ones.  Transient faults are
        masked by bounded retries (``retry``); fatal faults need
        ``checkpoint=True`` to recover.
    retry:
        :class:`~repro.emio.faults.RetryPolicy` bounding the transient-fault
        retries (defaults to ``RetryPolicy()`` whenever ``faults`` is given).
    checkpoint:
        Take a host-side checkpoint at every compound-superstep barrier and
        recover from fatal I/O faults by restoring it.  Off by default: the
        checkpoint reads are charged as real parallel I/O.  The run's
        fault/retry/recovery tallies land in ``report.faults``.
    max_recoveries:
        Fatal-fault recovery budget; exceeding it raises
        :class:`~repro.core.checkpoint.SimulationAborted` carrying the last
        good checkpoint (hand it to ``resume_from_checkpoint``).
    crash:
        A :class:`~repro.emio.faults.CrashPlan` injecting one hard host
        crash at a chosen barrier stage (torn/lost unsynced writes, or a
        kill around the journal commit).  Requires ``checkpoint=True`` and
        a non-memory plane; the run dies with
        :class:`~repro.emio.faults.HostCrash` and is meant to be scrubbed
        (:func:`~repro.core.checkpoint.scrub`) and resumed by a fresh engine
        (see ``repro crashcheck`` and DESIGN §9).
    write_schedule:
        Disk-write schedule ("random", "rotate", "static", "balance"; see
        :class:`~repro.emio.linked.LinkedBuckets`); ``None`` is "random",
        the paper's.  "rotate" is the ablation that replaces the random
        write permutation with a deterministic rotation (see the ABL
        benchmark); "balance" is the paper's deterministic variant for
        predetermined (CGM) traffic.
    pad_to_gamma:
        If True, pad every group's message traffic with dummy blocks to the
        worst case ``k * ceil(gamma/B)`` the analysis assumes (Lemma 3's
        "introduction of dummy blocks").  Costs rise to the analytic bound;
        results are unaffected.  Algorithm 1 only: the parallel engine
        refuses it.
    enforce_gamma:
        Enforce the declared per-superstep communication bound on both the
        sending and receiving side.
    """

    engine: str = "auto"
    backend: str = "inline"
    seed: int = 0
    storage: str = "memory"
    storage_dir: str | os.PathLike | None = None
    fast_io: bool | None = None
    context_cache: bool | None = None
    records: str | None = None
    faults: FaultPlan | None = None
    retry: RetryPolicy | None = None
    checkpoint: bool = False
    max_recoveries: int = 8
    crash: CrashPlan | None = None
    write_schedule: str | None = None
    pad_to_gamma: bool = False
    enforce_gamma: bool = True

    def __post_init__(self) -> None:
        _refuse_unknown("engine", self.engine, ENGINES)
        _refuse_unknown("backend", self.backend, BACKENDS)
        _refuse_unknown("storage", self.storage, STORAGE_KINDS)
        _refuse_unknown("records", self.records, RECORD_MODES, none_ok=True)
        _refuse_unknown("write_schedule", self.write_schedule, WRITE_SCHEDULES, none_ok=True)
        if self.crash is not None and (self.storage == "memory" or not self.checkpoint):
            raise ParameterError(
                "crash= injects byte-level damage at checkpoint barriers; "
                "it requires checkpoint=True and a non-memory storage plane"
            )

    @classmethod
    def of(cls, config: RunConfig | None = None, **knobs: Any) -> RunConfig:
        """``config`` (every field at its default when ``None``) with
        ``knobs`` replacing the fields they name — the one place keyword
        call sites are folded into a config."""
        if config is None:
            return cls(**knobs)
        if not isinstance(config, cls):
            raise TypeError(f"config must be a RunConfig, got {config!r}")
        return replace(config, **knobs) if knobs else config


class EMEngine:
    """Barrier lifecycle of an EM-BSP simulation (see the module docstring).

    ``config`` / ``**knobs`` say how the host runs it (:class:`RunConfig`).
    ``observer`` is an optional :class:`~repro.obs.spans.Collector`
    receiving nested spans (superstep > phase), per-disk counter samples,
    and run metrics — purely read-only at phase boundaries: counted costs,
    outputs, and reports are byte-identical with and without it, and the
    fast data plane stays available (unlike
    :meth:`repro.emio.trace.IOTrace.attach`); export with
    :func:`repro.obs.write_chrome_trace` / :func:`repro.obs.write_jsonl`.  A
    ``Collector(profile=True)`` additionally receives the wall-clock
    attribution profile (DESIGN §11): the engine installs its
    :class:`~repro.obs.profile.CategoryProfiler` into the disk arrays (and
    therefore the storage plane) and bills each phase to its category.
    ``events`` is an optional :class:`~repro.obs.live.RunEventLog`: the
    engine streams ``run_started`` / ``superstep_started`` /
    ``superstep_finished`` / ``run_finished`` events (with counted io_ops,
    storage bytes moved, and an ETA when the log has an ``expected_steps``
    hint) as line-flushed JSONL (``repro watch <file>`` tails it) —
    read-only like the observer.
    """

    #: ``run_started``'s ``engine`` field.
    ENGINE = ""
    #: Processor class the backend instantiates once per real processor.
    PROCESSOR = RealProcessor
    #: Algorithm 1 runs on the machine's only processor: the engine's track is
    #: the only telemetry track, so its barrier spans carry the counted I/O
    #: (the parallel engine's per-processor tracks do), and its checkpoints
    #: hold that processor's RNG state bare rather than in a list.
    SOLE = False

    def __init__(
        self,
        algorithm: BSPAlgorithm,
        params: SimulationParams,
        config: RunConfig | None = None,
        *,
        observer: Collector | None = None,
        events: RunEventLog | None = None,
        **knobs: Any,
    ):
        config = RunConfig.of(config, **knobs)
        self.algorithm = algorithm
        self.params = params
        self.obs = observer if observer is not None else NULL_OBSERVER
        self.events = events
        self._crash_counter = 0

        m = params.machine
        self.p = m.p
        self.v = params.bsp.v
        self.k = params.k
        self.vpp = self.v // self.p  # virtual processors per real processor
        # Groups of k (Algorithm 3: rounds) per processor and compound superstep.
        self.nbatches = self.vpp // self.k
        self.ledger = CostLedger(m)
        self.report = SimulationReport(params=params, ledger=self.ledger)

        self.last_checkpoint: SuperstepCheckpoint | None = None
        self._recoveries = 0
        self._checkpoints_taken = 0
        self._checkpoint_io_ops = 0
        self._recovery_io_ops = 0
        self._resumed_from: int | None = None

        # Refuse what this engine cannot run and put the algorithm on its
        # record plane before the storage root is claimed; hand the root back
        # if anything later in the constructor fails (a worker whose
        # processor cannot be built).
        self._refuse(config)
        if config.records is not None:
            algorithm.set_record_mode(config.records)
        spec = StorageSpec.create(config.storage, config.storage_dir).with_crash(
            config.crash
        )
        try:
            # The engine claims the root directory; each processor derives
            # (and claims) its proc{i} sub-root from the pickled spec.
            self.storage_spec = spec
            # What a knob left at None means is the storage plane's call; the
            # processors are handed the resolved config.
            self.config = config = replace(
                config,
                fast_io=spec.fast_plane(config.fast_io),
                context_cache=spec.fast_plane(config.context_cache),
            )
            self.fast_io, self.context_cache = config.fast_io, config.context_cache
            # Non-memory checkpointed runs publish every barrier atomically
            # through a journal inside the storage root (crash consistency).
            self._journal = (
                CheckpointJournal(spec.root)
                if config.checkpoint and spec.kind != "memory"
                else None
            )
            observe = observer is not None and not self.SOLE
            self.backend = make_backend(
                config.backend,
                [
                    (
                        i, algorithm, params, config, spec, observe,
                        self.obs.profile.enabled, self.SOLE,
                    )
                    for i in range(self.p)
                ],
                self.PROCESSOR,
            )
        except BaseException:
            spec.cleanup()
            raise
        # Local processors stay inspectable (tests, notebooks); None when
        # they live in worker processes.
        self.procs: list[RealProcessor] | None = getattr(self.backend, "procs", None)
        # Wall-clock attribution plumbing (all no-ops when unprofiled): the
        # backend bills pipe sends as ``ipc`` and the receive-all rounds as
        # ``barrier_wait``; local processors run on the engine thread, so
        # their disk arrays (and therefore the storage plane) bill the
        # engine's profiler and their collectors share its scope stack
        # instead of keeping the private profilers the process backend drains.
        self.backend.profiler = self.obs.profile
        if self.procs is not None and self.obs.profile.enabled:
            for pr in self.procs:
                if pr.obs.enabled:
                    pr.obs.share_profile(self.obs.profile)
                pr.array.set_profiler(self.obs.profile)

    def _refuse(self, config: RunConfig) -> None:
        """The knobs only one engine can honour, refused by name."""
        p = self.p
        if not self.SOLE:
            if config.pad_to_gamma:
                raise ParameterError(
                    "pad_to_gamma=True pads Algorithm 1's groups to the analysis' "
                    "worst case; the parallel engine has no groups to pad"
                )
            return
        if p != 1:
            raise ParameterError(f"{type(self).__name__} requires p=1, got p={p}")
        if config.backend != "inline":
            # Name both knobs: the caller must change either `backend` (to
            # "inline") or `engine` (to "parallel", which accepts p == 1).
            how = (
                f"engine='auto' resolved to 'sequential' because machine.p={p}"
                if config.engine == "auto"
                else f"engine={config.engine!r}"
            )
            raise ValueError(
                f"backend={config.backend!r} requires the parallel engine, but "
                f"{how}; pass engine='parallel' (it accepts p=1) or "
                "backend='inline' (the sequential engine has a single real processor)"
            )

    # -- main entry ------------------------------------------------------------------

    def run(self) -> tuple[list[Any], SimulationReport]:
        """Simulate to completion; return (per-vp outputs, report)."""
        return self._drive(None)

    def resume_from_checkpoint(
        self, ckpt: SuperstepCheckpoint
    ) -> tuple[list[Any], SimulationReport]:
        """Continue an aborted run from a checkpoint, on this (fresh) engine.

        Rewrites the checkpointed contexts and incoming regions onto this
        engine's disk arrays, restores the RNG streams and the ledger, and
        resumes at ``ckpt.step`` — completed supersteps are *not* re-run.
        The engine must have been built with the same algorithm and
        parameters as the aborted one (typically on healthy replacement
        hardware, so no fault plan).

        When the checkpoint carries storage references (non-memory plane)
        and this engine points at the *same* plane kind and ``storage_dir``,
        every processor re-attaches its own on-disk track files in place —
        no rehydration I/O — which is the fresh-process crash-recovery path.
        Otherwise the portable pickled state in the checkpoint is rewritten.
        """
        if ckpt.nprocs != self.p:
            raise ParameterError(
                f"checkpoint holds {ckpt.nprocs} processors, machine has {self.p}"
            )
        return self._drive(ckpt)

    def _drive(
        self, ckpt: SuperstepCheckpoint | None
    ) -> tuple[list[Any], SimulationReport]:
        """One run, from the input (``ckpt`` None) or from a checkpoint."""
        self.obs.profile.start()
        try:
            if ckpt is None:
                self._emit_run_started()
                self._load_input()
                if self.config.checkpoint:
                    self._guarded_checkpoint(0)
                start = 0
            else:
                self._emit_run_started(resumed_from=ckpt.step)
                self._resumed_from = start = ckpt.step
                self.last_checkpoint = ckpt
                refs = getattr(ckpt, "storage_refs", None)
                self._restore(ckpt, refs if self._refs_attachable(refs) else None)
            self._run_from(start)
            return self._finish()
        except BaseException as exc:
            self._emit_run_finished("error", error=repr(exc))
            raise
        finally:
            self.obs.profile.stop()
            self._shutdown()

    def _shutdown(self) -> None:
        """Close the drives, stop the backend, drop an owned storage root —
        the last two even when a drive (or a dead worker) cannot close."""
        try:
            self.backend.call_all("close_storage")
        except Exception:
            pass  # a dead worker cannot close its files; the OS will
        finally:
            self.backend.close()
            self.storage_spec.cleanup()

    # -- live event stream ------------------------------------------------------------

    def _bytes_moved(self) -> int:
        """Host bytes physically moved so far: storage-plane traffic for
        local processors (the engine can see their arrays; 0 on the memory
        plane), pipe traffic for the process backend (the arrays live in
        the workers)."""
        if self.procs is not None:
            return sum(
                pr.array.storage_read_bytes + pr.array.storage_write_bytes
                for pr in self.procs
            )
        return self.backend.tx_bytes + self.backend.rx_bytes

    def _counted_io_ops(self) -> int:
        """``run_finished.io_ops``: every counted parallel I/O operation the
        report accounts for — input load, compound supersteps, output
        unload, checkpoint capture and recovery rewrites.  I/O of a
        rolled-back superstep attempt is in none of these and is not
        counted."""
        return (
            self.report.init_io_ops
            + self.report.io_ops
            + self.report.output_io_ops
            + self._checkpoint_io_ops
            + self._recovery_io_ops
        )

    def _emit_run_started(self, **extra: Any) -> None:
        if self.events is None:
            return
        m = self.params.machine
        meta = {"engine": self.ENGINE}
        if not self.SOLE:
            meta["backend"] = self.backend.name
        self.events.run_started(
            **meta,
            algorithm=type(self.algorithm).__name__,
            v=self.v,
            p=self.p,
            D=m.D,
            B=m.B,
            storage=self.storage_spec.kind,
            fast_io=self.fast_io,
            context_cache=self.context_cache,
            **extra,
        )

    def _emit_run_finished(self, status: str, **extra: Any) -> None:
        if self.events is None:
            return
        self.events.run_finished(
            status,
            io_ops=self._counted_io_ops(),
            bytes_moved=self._bytes_moved(),
            **extra,
        )

    # -- run skeleton ---------------------------------------------------------------

    def _load_input(self) -> None:
        with self.obs.span("load_input", cat="layout") as sp:
            self.report.init_io_ops = max(self.backend.call_all("load_input"))
            sp.add(io_ops=self.report.init_io_ops)

    def _superstep(self, step: int) -> bool:
        """Run compound superstep ``step`` and append its report; return
        True when the algorithm halted with no traffic in flight."""
        raise NotImplementedError

    def _seal_superstep(
        self,
        step: int,
        cost: SuperstepCost,
        phases: PhaseBreakdown,
        routing: RoutingStats | None,
        blocks_generated: int,
        all_halted: bool,
        routing_all: list[RoutingStats] | None = None,
        packing: list | None = None,
        ran: list[tuple[int, int, int]] | None = None,
        traffic: list | None = None,
    ) -> bool:
        """Close compound superstep ``step``'s books: charge its phases to
        the ledger, append its report, record its metrics; return True when
        the algorithm halted with no traffic in flight."""
        m = self.params.machine
        cost.io_ops = phases.total
        cost.records_io = phases.total * m.D * m.B
        self.report.supersteps.append(
            SuperstepReport(
                index=step,
                phases=phases,
                routing=routing,
                comm_packets=cost.comm_packets,
                message_blocks=blocks_generated,
                halted=all_halted,
                routing_all=routing_all,
                packing=packing,
                ran=ran,
                traffic=traffic,
            )
        )
        if self.obs.enabled:
            mx = self.obs.metrics
            mx.histogram("superstep_io_ops").record(phases.total)
            mx.counter("comm_packets").inc(cost.comm_packets)
            mx.counter("message_blocks").inc(blocks_generated)
            if cost.retry_ops or cost.stall_ops:
                mx.counter("retry_ops").inc(cost.retry_ops)
                mx.counter("stall_ops").inc(cost.stall_ops)
        return all_halted and blocks_generated == 0

    def _run_from(self, start: int) -> None:
        """Drive supersteps from ``start``, recovering from fatal faults."""
        step = start
        while True:
            if step >= self.algorithm.MAX_SUPERSTEPS:
                raise AlgorithmError(
                    "algorithm did not halt within "
                    f"MAX_SUPERSTEPS={self.algorithm.MAX_SUPERSTEPS}"
                )
            try:
                if self.events is not None:
                    self.events.superstep_started(step)
                bytes0 = self._bytes_moved() if self.events is not None else 0
                with self.obs.span("superstep", step=step, cat="layout") as sp:
                    finished = self._superstep(step)
                    sp.add(io_ops=self.report.supersteps[-1].phases.total)
                if not finished and self.config.checkpoint:
                    self._take_checkpoint(step + 1)
                self.obs.profile.mark_superstep(step)
                if self.events is not None:
                    self.events.superstep_finished(
                        step,
                        io_ops=self.report.supersteps[-1].phases.total,
                        bytes_moved=self._bytes_moved() - bytes0,
                    )
            except FATAL_IO_FAULTS as exc:
                step = self._handle_fault(exc)
                continue
            if finished:
                return
            step += 1

    def _guarded_checkpoint(self, step: int) -> None:
        """Initial checkpoint, with the same fault handling as the loop."""
        try:
            self._take_checkpoint(step)
        except FATAL_IO_FAULTS as exc:
            raise SimulationAborted(
                f"fatal I/O fault before the first checkpoint: {exc}", None
            ) from exc

    def _handle_fault(self, exc: Exception) -> int:
        """Restore the last checkpoint; return the superstep to re-run.

        A fatal fault on *any* processor rolls every processor back: the
        barrier is the only globally consistent cut of the distributed state.
        """
        self._recoveries += 1
        if self.last_checkpoint is None:
            raise SimulationAborted(
                f"fatal I/O fault with no checkpoint to recover from "
                f"(run with checkpoint=True): {exc}",
                None,
            ) from exc
        if self._recoveries > self.config.max_recoveries:
            raise SimulationAborted(
                f"fatal I/O fault after exhausting max_recoveries="
                f"{self.config.max_recoveries}: {exc}",
                self.last_checkpoint,
            ) from exc
        self._restore(self.last_checkpoint)
        return self.last_checkpoint.step

    # -- checkpoint/restore ----------------------------------------------------------

    def _take_checkpoint(self, step: int) -> None:
        """Snapshot the barrier state reachable before superstep ``step``.

        Every processor exports its half (charged as local reads; the model
        cost is the maximum over processors, like any phase).  On non-memory
        planes the checkpoint is additionally published through the storage
        root's journal (atomic commit; see
        :class:`~repro.core.checkpoint.CheckpointJournal`).
        """
        self._crash_stage("torn")
        self._crash_stage("lost")
        with self.obs.span("checkpoint", step=step, cat="checkpoint") as sp:
            exports = self.backend.call_all(
                "export_checkpoint", [(self.params.k,)] * self.p
            )
            rngs = [e[2] for e in exports]  # one RNG stream per processor
            refs = [e[5] for e in exports]
            self.last_checkpoint = SuperstepCheckpoint(
                step=step,
                rng_state=rngs[0] if self.SOLE else rngs,
                proc_states=[e[0] for e in exports],
                proc_incoming=[e[1] for e in exports],
                report_blob=freeze((self.report, self.ledger)),
                dead_disks=[e[3] for e in exports],
                storage_refs=refs if any(r is not None for r in refs) else None,
            )
            self._checkpoints_taken += 1
            delta = max(e[4] for e in exports)
            self._checkpoint_io_ops += delta
            if self.SOLE:
                sp.add(io_ops=delta, bytes=self.last_checkpoint.size_bytes())
        self._publish_checkpoint()

    def _crash_stage(self, stage: str) -> None:
        """One crash-stage boundary: die here if the plan's point fired.

        Counts every boundary globally (``CRASH_STAGES`` per barrier, in
        execution order) so a ``CrashPlan.crash_point`` deterministically
        names one fsync/rename boundary of the run.  The ``"torn"`` and
        ``"lost"`` stages first make every processor damage its unsynced
        write log, then the engine dies — modelling a whole-host crash that
        takes the workers' page caches with it.
        """
        plan = self.config.crash
        if plan is None:
            return
        point = self._crash_counter
        self._crash_counter += 1
        if point != plan.crash_point:
            return
        if stage in ("torn", "lost"):
            self.backend.call_all("apply_crash", [(stage,)] * self.p)
        raise HostCrash(f"injected host crash at point {point} (stage {stage!r})")

    def _publish_checkpoint(self) -> None:
        """Atomically publish the barrier through the storage root's journal."""
        self._crash_stage("postsync")
        if self._journal is not None:
            with self.obs.profile.scope("checkpoint"):
                self._journal.commit(
                    self.last_checkpoint, on_stage=self._crash_stage
                )
            self.obs.metrics.counter("checkpoint/commits").inc()

    def _refs_attachable(self, refs: list[dict | None] | None) -> bool:
        """Do the checkpoint's storage references name this engine's plane
        kind and every processor's own storage root?"""
        spec = self.storage_spec
        if (
            refs is None
            or len(refs) != self.p
            or any(r is None for r in refs)
            or spec.kind == "memory"
        ):
            return False
        return all(
            r["kind"] == spec.kind
            and r["root"] == (spec.root if self.SOLE else spec.proc_root(i))
            for i, r in enumerate(refs)
        )

    def _restore(
        self, ckpt: SuperstepCheckpoint, refs: list[dict] | None = None
    ) -> None:
        """Re-enter the barrier ``ckpt`` describes and rewind report, ledger
        and RNG streams: every processor rewrites its portable state onto its
        (possibly degraded) disk array — counted as ``recovery_io_ops`` — or,
        given attachable ``refs``, re-attaches its track files at zero I/O."""
        with self.obs.span("recover", step=ckpt.step, cat="checkpoint") as sp:
            self.report, self.ledger = thaw(ckpt.report_blob)
            rngs = ckpt.rng_state
            if not isinstance(rngs, list):
                rngs = [rngs] * self.p
            if refs is None:
                deltas = self.backend.call_all(
                    "restore_checkpoint",
                    [
                        (ckpt.proc_states[i], ckpt.proc_incoming[i], rngs[i], ckpt.step)
                        for i in range(self.p)
                    ],
                )
            else:
                deltas = self.backend.call_all(
                    "attach_storage",
                    [
                        (refs[i], rngs[i], ckpt.step, ckpt.proc_states[i])
                        for i in range(self.p)
                    ],
                )
            self._recovery_io_ops += max(deltas)
            if self.SOLE:
                sp.add(io_ops=max(deltas))
        if self.obs.enabled:
            self.obs.metrics.counter("recoveries").inc()

    # -- wrap-up ---------------------------------------------------------------------

    def _finish(self) -> tuple[list[Any], SimulationReport]:
        self.ledger.close()
        self.report.ledger = self.ledger

        with self.obs.span("collect_outputs", cat="layout") as sp:
            collected = self.backend.call_all("collect_outputs")
            self.report.output_io_ops = max(io for _o, io, _hw in collected)
            if self.SOLE:
                sp.add(io_ops=self.report.output_io_ops)
        outputs: list[Any] = [None] * self.v
        for outs, _io, _hw in collected:
            for vp, out in outs.items():
                outputs[vp] = out
        self.report.disk_space_tracks = max(hw for _o, _io, hw in collected)
        self._attach_fault_report()
        if self.obs.enabled:
            if self.SOLE:
                self.procs[0].record_totals(self.obs)
            # Pull every processor-side collector's telemetry into the
            # engine's (one coherent merged timeline; see Collector.ingest).
            for payload in self.backend.call_all("drain_obs"):
                if payload is not None:
                    self.obs.ingest(payload)
            mx = self.obs.metrics
            mx.gauge("disk_space_tracks").set(self.report.disk_space_tracks)
            if self.backend.tx_bytes or self.backend.rx_bytes:
                mx.counter("backend/tx_bytes").inc(self.backend.tx_bytes)
                mx.counter("backend/rx_bytes").inc(self.backend.rx_bytes)
        self._emit_run_finished("ok")
        return outputs, self.report

    def _attach_fault_report(self) -> None:
        if (
            self.config.faults is None
            and not self.config.checkpoint
            and self._resumed_from is None
        ):
            return
        fr = FaultReport(
            recoveries=self._recoveries,
            checkpoints_taken=self._checkpoints_taken,
            checkpoint_io_ops=self._checkpoint_io_ops,
            recovery_io_ops=self._recovery_io_ops,
            resumed_from_step=self._resumed_from,
        )
        # Injection and retry tallies aggregate over all processors' arrays.
        for stats in self.backend.call_all("fault_stats"):
            for name, count in stats.items():
                setattr(fr, name, getattr(fr, name) + count)
        self.report.faults = fr
