"""The EM simulation: Algorithm 3, **ParCompoundSuperstep**, on a
``p``-processor EM machine, for every ``p >= 1``.

Algorithm 1 (``SeqCompoundSuperstep``) is Algorithm 3 run on one processor:
with ``p = 1`` there is no network, and every other step is the same.
:class:`ParallelEMSimulation` is the one engine.

Each real processor ``i`` (:class:`~repro.core.processor.RealProcessor`)
simulates the virtual processors ``i*(v/p) .. (i+1)*(v/p)-1`` and owns its
own memory, router port, and ``D`` local disks.  A compound superstep runs
in ``ceil((v/p)/k)`` *rounds*; in round ``j`` processor ``i`` simulates its
vps of group ``j``, at most ``k`` (:attr:`~repro.params.SimulationParams.groups`;
the *batch* ``j`` comprises them across all processors; Algorithm 1 calls
it a *group*).

Per round:

* **Fetching phase** (Step 1(a)) — each processor reads from its local disks
  the message blocks pertaining to batch ``j`` (scattered there at random in
  the previous superstep), combines blocks bound for a common simulating
  processor into packets of size ``b``, and routes them in one h-relation.
  It also reads its ``k`` current contexts locally.
* **Computing phase** (Step 1(b)) — the ``k`` virtual supersteps run; changed
  contexts go back to the local disks.
* **Writing phase** (Step 1(c)) — the round's whole outbox (every vp of the
  batch, in message order) is cut into packets of ``b`` records, all full
  but the last, by the block packer (:func:`~repro.bsp.message.pack_blocks`;
  a message may split across packets, each packet's segment table says
  whose records it carries), and the packets are dealt round-robin from one
  uniformly random offset per processor and round (:func:`deal`).  Each
  receiver thus gets ``floor(n/p)`` or ``ceil(n/p)`` of a sender's ``n``
  packets — a deterministic bound beside Lemma 10's whp one.  A round with
  an empty outbox deals nothing and draws nothing.  Receivers pack the
  packets' pieces per destination batch's owner — the ``k`` vps it
  simulates together — into full blocks of size ``B``
  (:func:`~repro.bsp.message.pack_by_group`) and append them to their local
  ``D``-bucket stores with random-permutation disk writes.

**One processor** (:attr:`RealProcessor.network
<repro.core.processor.RealProcessor.network>` is False).  Nothing is
gathered, cut or dealt, and no random number is drawn for a deal: a
round's pieces go straight to :func:`~repro.bsp.message.pack_by_group`,
which is Algorithm 1's Step 1(d) exactly, and the only barrier of a
compound superstep is Step 2's.  What the machine reports as communication
is then the *virtual* machine's h-relation
(:func:`~repro.core.processor.vm_packets` per round, :func:`h_relation` per
superstep): the max over vps of packets sent plus received,
``ceil(size/b)`` a message and one for an empty one.  ``pad_to_gamma``
pads each group's blocks with Lemma 3's dummy blocks to the analysis' worst
case; it has no meaning with several processors and is refused there.

What a round moves of the contexts follows one rule, from each vp's
:meth:`~repro.bsp.program.BSPAlgorithm.state_use` (``none`` / ``read`` /
``write``), decided alike on every processor before anything is read.  A
batch whose vps are all ``none`` and whose incoming slot is empty on every
processor is skipped: no compute, no scatter.  A batch that runs fetches its
contexts only if some vp reads; a ``write`` vp's slot becomes dirty.  The
rounds run in ascending cyclic order from the batch in memory (batch 0 when
none is), which leaves memory only when another batch's contexts come in:
its dirty slots are written back (Step 1(e)), its clean ones dropped at no
I/O (:func:`plan_rounds`).  The batch that ends the superstep in memory —
the last whose contexts came in, else the one already there — opens the
next superstep at no I/O; with one batch (``v == p*k``), every one.  Where
``M`` also holds that batch's inbox (:meth:`RunConfig.holds_inbox`), Step
1(d) keeps the blocks a processor packs for its own vps of it in memory
instead of the bucket store, the slot sizes the skip reads count them, and
the batch's next fetch takes them at no I/O — with one batch on one
processor, every message.

After the last round, Step 2 runs Algorithm 2 (`simulate_routing`) locally on
every processor, producing per-batch standard-consecutive regions for the
next compound superstep — or, where reading the store as it stands costs the
next superstep's batch fetches no more than Algorithm 2 could (always with
``D <= 5``, and with one batch, ``v == p*k``), keeps the store itself as the
incoming messages and charges no round
(:meth:`~repro.core.processor.RealProcessor.deliver`).  Each processor
decides for itself.

Around the barrier the engine builds the real processors behind a backend
(:mod:`repro.core.backend`): ``"inline"`` (default, the reference) calls
them in index order in-process; ``"process"`` runs each processor in its own
``multiprocessing`` worker, the superstep barriers becoming
send-all/receive-all pipe rounds that exchange packed message payloads and
per-worker ledger deltas.  Every processor draws from its own deterministic
RNG stream (seeded ``{seed}/proc{i}``, or ``seed`` itself on a
one-processor machine), so both backends produce identical outputs, ledgers,
and reports.  The engine is written against one verb — *call this method on
every real processor and collect the answers* (``backend.call_all``) — and
charges every barrier phase as the model prescribes: the maximum over
processors of computation, packets, and parallel I/O operations, plus the
barrier cost ``L`` per h-relation.  It loads the input, drives compound
supersteps until the algorithm halts, checkpoints at every barrier, resumes
from a checkpoint, injects host crashes, streams events, unloads the output
and reports the faults.

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

How the host runs all this — backend, storage plane, data plane,
faults, checkpoints, crashes — is one frozen
:class:`RunConfig`, declared and checked here, once.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, replace
from typing import Any

from ..bsp.program import AlgorithmError, BSPAlgorithm, state_uses
from ..costs import CostLedger, SuperstepCost, packets_for
from ..emio.disk import Block
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
from .stats import FaultReport, PhaseBreakdown, SimulationReport, SuperstepReport

__all__ = ["ParallelEMSimulation", "RunConfig", "deal", "h_relation", "plan_rounds"]


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
    :func:`~repro.core.simulator.simulate` and the engine take one as
    ``config=`` and accept its fields as keywords too (folded by :meth:`of`:
    a keyword wins over the same field of ``config``; a name that is no
    field is a ``TypeError``).  Every enumerated value is refused at
    construction, naming the field and what it allows — before any storage
    root is claimed, written or loaded.  ``RunConfig(**repro.conform.REFERENCE)``
    is the reference plane.  The run's sinks, ``observer`` and ``events``,
    are arguments of the engine, not fields: they watch a run and change
    nothing in it.  Nor is the record plane a field: the algorithm's input
    picks it (:attr:`BSPAlgorithm.record_mode
    <repro.bsp.program.BSPAlgorithm.record_mode>`, DESIGN §10).

    Fields
    ------
    backend:
        Where the real processors run: ``"inline"`` (default, the
        reference) in-process, ``"process"`` one ``multiprocessing`` worker
        each — at ``p = 1`` too.  Outputs, ledgers and reports are identical
        (see :mod:`repro.core.backend`).
    seed:
        Seed of the random disk-write permutations (Step 1(d)) and of the
        packet deal's offsets: processor ``i`` draws from
        ``"{seed}/proc{i}"``, the only processor of a ``p = 1`` machine
        from ``seed`` itself.
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
        results are unaffected.  Algorithm 1 only: refused when ``p > 1``.
    enforce_gamma:
        Enforce the declared per-superstep communication bound on both the
        sending and receiving side.
    """

    backend: str = "inline"
    seed: int = 0
    storage: str = "memory"
    storage_dir: str | os.PathLike | None = None
    fast_io: bool | None = None
    context_cache: bool | None = None
    faults: FaultPlan | None = None
    retry: RetryPolicy | None = None
    checkpoint: bool = False
    max_recoveries: int = 8
    crash: CrashPlan | None = None
    write_schedule: str | None = None
    pad_to_gamma: bool = False
    enforce_gamma: bool = True

    def __post_init__(self) -> None:
        _refuse_unknown("backend", self.backend, BACKENDS)
        _refuse_unknown("storage", self.storage, STORAGE_KINDS)
        _refuse_unknown("write_schedule", self.write_schedule, WRITE_SCHEDULES, none_ok=True)
        if self.crash is not None and (self.storage == "memory" or not self.checkpoint):
            raise ParameterError(
                "crash= injects byte-level damage at checkpoint barriers; "
                "it requires checkpoint=True and a non-memory storage plane"
            )

    def holds_inbox(self, params: SimulationParams) -> bool:
        """Whether the batch held across the barrier keeps its inbox in
        memory too (DESIGN §13): iff a processor's ``k`` held contexts and
        the at most ``k*gamma`` records bound for them fit in ``M``,
        ``gamma`` is enforced, and ``pad_to_gamma``, which charges the
        analysis' worst case, is off."""
        m, s, k = params.machine, params.bsp, params.k
        return self.enforce_gamma and not self.pad_to_gamma and k * (s.mu + s.gamma) <= m.M

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


def deal(packets: list[Block], offset: int, p: int) -> list[list[Block]]:
    """The writing phase's deal: packet ``t`` goes to processor
    ``(offset + t) mod p``, so each of the ``p`` receivers gets
    ``floor(n/p)`` or ``ceil(n/p)`` of the ``n`` packets, in send order."""
    return [packets[(q - offset) % p :: p] for q in range(p)]


def plan_rounds(resident: int | None, reads: list[bool]) -> tuple[list[int], int | None]:
    """One compound superstep's plan, from the batch in memory (None if
    none is) and, batch by batch, whether its contexts come in (some vp
    reads): the rounds' order, ascending and cyclic from the batch in memory
    or from batch 0, and the batch that ends the superstep in memory — the
    last whose contexts come in, or, if none do, the one already there."""
    start = resident or 0
    order = [(start + g) % len(reads) for g in range(len(reads))]
    return order, next((j for j in reversed(order) if reads[j]), resident)


def h_relation(tallies: list[tuple[tuple[int, int, int], ...]]) -> int:
    """The virtual machine's h-relation over a compound superstep's rounds'
    :func:`~repro.core.processor.vm_packets` tallies: the max over vps of
    packets sent plus received."""
    load: Counter[int] = Counter()
    for tally in tallies:
        for vp, sent, received in tally:
            load[vp] += sent + received
    return max(load.values(), default=0)


class ParallelEMSimulation:
    """Runs a :class:`BSPAlgorithm` on a ``p``-processor EM machine, for
    every ``p >= 1``: Algorithm 3, which is Algorithm 1 at ``p = 1`` (see
    the module docstring).

    ``config`` / ``**knobs`` say how the host runs it (:class:`RunConfig`);
    ``backend`` places the real processors.  ``observer`` is an optional
    :class:`~repro.obs.spans.Collector` receiving nested spans (superstep >
    phase), per-disk counter samples, and run metrics — purely read-only at
    phase boundaries: counted costs, outputs, and reports are byte-identical
    with and without it, and the fast data plane stays available (unlike
    :meth:`repro.emio.trace.IOTrace.attach`); export with
    :func:`repro.obs.write_chrome_trace` / :func:`repro.obs.write_jsonl`.  A
    ``Collector(profile=True)`` additionally receives the wall-clock
    attribution profile (DESIGN §11): the engine installs its
    :class:`~repro.obs.profile.CategoryProfiler` into the disk arrays (and
    therefore the storage plane) and bills each phase to its category.  The
    engine emits barrier-level spans (superstep >
    fetch/compute/write/reorganize) on its own track; every real processor
    collects its own spans, samples, and metrics worker-side — under the
    process backend they travel back over the pipes — and the engine merges
    them into ``observer`` as one coherent timeline (``perf_counter`` is
    host-wide monotonic).  ``events`` is an optional
    :class:`~repro.obs.live.RunEventLog`: the engine streams ``run_started`` / ``superstep_started`` /
    ``superstep_finished`` / ``run_finished`` events (with counted io_ops,
    storage bytes moved, and an ETA when the log has an ``expected_steps``
    hint) as line-flushed JSONL (``repro watch <file>`` tails it) —
    read-only like the observer.
    """

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

        self.p = params.machine.p
        self.v = params.bsp.v
        self.ledger = CostLedger(params.machine)
        self.report = SimulationReport(
            params=params, ledger=self.ledger, inbox_held=config.holds_inbox(params)
        )

        self.last_checkpoint: SuperstepCheckpoint | None = None
        self._recoveries = 0
        self._checkpoints_taken = 0
        self._checkpoint_io_ops = 0
        self._recovery_io_ops = 0
        self._resumed_from: int | None = None

        # Refuse what this machine cannot run before the storage root is
        # claimed; hand the root back if anything later in the constructor
        # fails (a worker whose processor cannot be built).
        if config.pad_to_gamma and self.p > 1:
            raise ParameterError(
                "pad_to_gamma=True pads Algorithm 1's groups to the analysis' "
                f"worst case on a one-processor machine; this one has p={self.p}"
            )
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
            self.backend = make_backend(
                config.backend,
                [
                    (
                        i, algorithm, params, config, spec, observer is not None,
                        self.obs.profile.enabled,
                    )
                    for i in range(self.p)
                ],
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
        return self._drive(ckpt)

    def _refuse_checkpoint(self, ckpt: SuperstepCheckpoint) -> None:
        """Refuse a checkpoint this machine cannot re-enter, by what it holds."""
        if ckpt.nprocs != self.p:
            raise ParameterError(
                f"checkpoint holds {ckpt.nprocs} processors, machine has {self.p}"
            )
        if not isinstance(ckpt.rng_state, list):
            raise ParameterError(
                "checkpoint holds a bare RNG state: it was taken by the retired "
                "sequential engine, whose checkpoints are not read; rerun from "
                "the input"
            )

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
                self._refuse_checkpoint(ckpt)
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
        self.events.run_started(
            backend=self.backend.name,
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

    # -- one compound superstep -----------------------------------------------------

    def _superstep(self, step: int) -> bool:
        """Run compound superstep ``step`` and append its report; return
        True when the algorithm halted with no traffic in flight."""
        cost = self.ledger.begin_superstep(label=f"superstep {step}")
        # A round's gather and deal are h-relations, each ending in a
        # barrier, only over a network; Step 2's barrier ends every
        # compound superstep.
        network = self.p > 1
        cost.syncs = 1
        phases = PhaseBreakdown()
        marks0 = self.backend.call_all("begin_superstep")
        all_halted = True
        blocks_generated = 0
        packing: list[list[tuple[tuple[int, ...], int]]] = []
        traffic: list[tuple] = []

        obs = self.obs
        vpp = self.params.vps_per_processor
        groups = self.params.groups
        # The batches' state uses and the batch in memory plan the superstep
        # alike for every processor before anything is read (module docstring).
        resident = marks0[0][3]
        uses_of = [state_uses(self.algorithm, step, [
            i * vpp + s for i in range(self.p) for s in slots]) for slots in groups]
        reads = [u.strip("n") != "" for u in uses_of]
        order, holder = plan_rounds(resident, reads)
        ran: list[tuple[int, str, int | None, int | None, tuple[tuple[int, ...], ...]]] = []
        for j in order:
            uses, read, k = uses_of[j], reads[j], len(groups[j])
            mine = [uses[q * k:(q + 1) * k] for q in range(self.p)]
            if not read and not any(m[2][j] for m in marks0):
                all_halted = False  # a none vp with an empty inbox does not vote halt
                if network:  # its gather moved nothing, but is a barrier
                    cost.syncs += 1
                traffic.append(((), None) if network else ())
                # Step 1(e) alone: only the batch in memory has any to do,
                # and only if it leaves memory.
                settled = (self.backend.call_all("settle", [(j,)] * self.p)
                           if j == resident != holder else [(None, (0,) * k)] * self.p)
                save_ctx = max((w[0] for w in settled if w[0] is not None), default=None)
                phases.write_context += save_ctx or 0
                ran.append((j, uses, None, save_ctx, tuple(w[1] for w in settled)))
                continue

            # ---- Fetching phase: local reads + gather h-relation ----
            # inbound[q] = blocks for processor q's current vps.
            with obs.span("fetch_barrier", batch=j, cat="layout") as sp:
                fetches = self.backend.call_all("fetch", [(j, read)] * self.p)
                d = max(io for _by, io, _ctx in fetches)
                phases.fetch_messages += d
                sp.add(io_ops=d)
            fetch_ctx = max(ctx for _by, _io, ctx in fetches) if read else None
            inbound: list[list[Block]] = [[] for _ in range(self.p)]
            for by_owner, _io, _ctx in fetches:
                for q, qblocks in by_owner.items():
                    inbound[q].extend(qblocks)
            gather = self._gather(fetches, cost) if network else ()

            # ---- Computing phase ----
            with obs.span("compute_barrier", batch=j, cat="kernel") as sp:
                computes = self.backend.call_all(
                    "compute", [(j, step, inbound[q], mine[q]) for q in range(self.p)]
                )
                sp.add(comp_ops=max(r["comp"] for r in computes))
            cost.comp_ops += max(r["comp"] for r in computes)
            cost.records_sent += sum(r["sent_records"] for r in computes)
            if not all(r["halted"] for r in computes):
                all_halted = False

            # ---- Writing phase: scatter h-relation + bucket and context writes ----
            if network:
                outpackets = self._scatter(computes, cost)
                traffic.append((
                    gather, tuple((r["sent_records"], r["offset"]) for r in computes)
                ))
            else:
                outpackets = [[]]
                traffic.append(computes[0]["tally"])
            with obs.span("write_barrier", batch=j, cat="layout") as sp:
                writes = self.backend.call_all(
                    "write", [(j, holder, outpackets[q]) for q in range(self.p)]
                )
                d = max(w[1] for w in writes)
                sp.add(io_ops=d, packets=sum(len(r["packets"]) for r in computes))
            blocks_generated += sum(w[0] for w in writes)
            phases.write_messages += d
            packing.append([(w[2], w[3]) for w in writes])
            save_ctx = max((w[4] for w in writes if w[4] is not None), default=None)
            phases.fetch_context += fetch_ctx or 0
            phases.write_context += save_ctx or 0
            ran.append((j, uses, fetch_ctx, save_ctx, tuple(w[5] for w in writes)))
        if not network:  # the virtual machine's h-relation (Algorithm 1)
            cost.comm_packets += h_relation(traffic)

        # ---- Step 2: local reorganization on every processor ----
        with obs.span("reorganize_barrier", cat="routing") as sp:
            reorgs = self.backend.call_all("reorganize", [(step, holder)] * self.p)
            d = max(io for _r, io in reorgs)
            sp.add(io_ops=d)
        phases.reorganize += d
        routing_all = [routing for routing, _io in reorgs]
        worst_routing = max(routing_all, key=lambda r: r.max_load_ratio)

        marks1 = self.backend.call_all("end_superstep")
        cost.retry_ops = max(m1[0] - m0[0] for m0, m1 in zip(marks0, marks1))
        cost.stall_ops = max(m1[1] - m0[1] for m0, m1 in zip(marks0, marks1))

        # ---- Close the books: ledger, report, metrics ----
        m = self.params.machine
        cost.io_ops = phases.total
        cost.records_io = phases.total * m.D * m.B
        self.report.supersteps.append(
            SuperstepReport(
                index=step,
                phases=phases,
                routing=worst_routing,
                comm_packets=cost.comm_packets,
                message_blocks=blocks_generated,
                halted=all_halted,
                routing_all=routing_all,
                packing=packing,
                ran=ran,
                traffic=traffic,
            )
        )
        if obs.enabled:
            mx = obs.metrics
            if worst_routing.total_blocks:
                mx.histogram("lemma2_load_ratio").record(worst_routing.max_load_ratio)
            mx.histogram("superstep_io_ops").record(phases.total)
            mx.counter("comm_packets").inc(cost.comm_packets)
            mx.counter("message_blocks").inc(blocks_generated)
            if cost.retry_ops or cost.stall_ops:
                mx.counter("retry_ops").inc(cost.retry_ops)
                mx.counter("stall_ops").inc(cost.stall_ops)
        return all_halted and blocks_generated == 0

    def _gather(self, fetches: list, cost: SuperstepCost) -> tuple:
        """Charge the fetching phase's h-relation: the max over processors of
        packets sent plus received, ``max(1, ceil(records/b))`` per pair of
        distinct processors that moved blocks.  Returns the gather as
        ``(sender, owner, records)`` per pair, a processor's own included."""
        b = self.params.machine.b
        gather = []
        load = [0] * self.p
        for i, (by_owner, _io, _ctx) in enumerate(fetches):
            for q, qblocks in sorted(by_owner.items()):
                nrec = sum(blk.nrecords() for blk in qblocks)
                gather.append((i, q, nrec))
                if q != i:
                    npk = max(1, packets_for(nrec, b))
                    load[i] += npk
                    load[q] += npk
        cost.comm_packets += max(load)
        cost.syncs += 1
        return tuple(gather)

    def _scatter(self, computes: list[dict], cost: SuperstepCost) -> list[list[Block]]:
        """Deal every processor's packets and charge the writing phase's
        h-relation; returns each processor's received packets.  A packet a
        processor deals to itself is charged (the gather's are not): DESIGN
        §13."""
        outpackets: list[list[Block]] = [[] for _ in range(self.p)]
        load = [0] * self.p
        for i, r in enumerate(computes):
            load[i] += len(r["packets"])
            if r["offset"] is None:
                continue
            for q, got in enumerate(deal(r["packets"], r["offset"], self.p)):
                load[q] += len(got)
                outpackets[q].extend(got)
        cost.comm_packets += max(load)
        cost.syncs += 1
        return outpackets

    # -- run skeleton ---------------------------------------------------------------

    def _load_input(self) -> None:
        with self.obs.span("load_input", cat="layout") as sp:
            loads = self.backend.call_all("load_input")
            self.report.init_io_ops = max(io for io, _counts in loads)
            self.report.loaded = [tuple(g) for g in zip(*(c for _io, c in loads))]
            sp.add(io_ops=self.report.init_io_ops)

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
        with self.obs.span("checkpoint", step=step, cat="checkpoint"):
            exports = self.backend.call_all("export_checkpoint")
            refs = [e[5] for e in exports]
            self.last_checkpoint = SuperstepCheckpoint(
                step=step,
                rng_state=[e[2] for e in exports],  # one RNG stream per processor
                proc_states=[e[0] for e in exports],
                proc_incoming=[e[1] for e in exports],
                report_blob=freeze((self.report, self.ledger)),
                dead_disks=[e[3] for e in exports],
                storage_refs=refs if any(r is not None for r in refs) else None,
            )
            self._checkpoints_taken += 1
            self._checkpoint_io_ops += max(e[4] for e in exports)
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
            and r["root"] == spec.proc_root(i)
            for i, r in enumerate(refs)
        )

    def _restore(
        self, ckpt: SuperstepCheckpoint, refs: list[dict] | None = None
    ) -> None:
        """Re-enter the barrier ``ckpt`` describes and rewind report, ledger
        and RNG streams: every processor rewrites its portable state onto its
        (possibly degraded) disk array — counted as ``recovery_io_ops`` — or,
        given attachable ``refs``, re-attaches its track files at zero I/O."""
        with self.obs.span("recover", step=ckpt.step, cat="checkpoint"):
            self.report, self.ledger = thaw(ckpt.report_blob)
            rngs = ckpt.rng_state
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
        if self.obs.enabled:
            self.obs.metrics.counter("recoveries").inc()

    # -- wrap-up ---------------------------------------------------------------------

    def _finish(self) -> tuple[list[Any], SimulationReport]:
        # A fatal fault in the unload ends like one in a superstep: restore
        # the last checkpoint and run on from it, within max_recoveries.
        while True:
            try:
                with self.obs.span("collect_outputs", cat="layout"):
                    collected = self.backend.call_all("collect_outputs")
                break
            except FATAL_IO_FAULTS as exc:
                self._run_from(self._handle_fault(exc))
        self.ledger.close()
        self.report.ledger = self.ledger
        self.report.output_io_ops = max(io for _o, io, _hw in collected)
        outputs: list[Any] = [None] * self.v
        for outs, _io, _hw in collected:
            for vp, out in outs.items():
                outputs[vp] = out
        self.report.disk_space_tracks = max(hw for _o, _io, hw in collected)
        used = self.backend.call_all("bounds_used")
        self.report.mu_used = max(mu for mu, _g in used)
        self.report.gamma_used = max(g for _mu, g in used)
        self._attach_fault_report()
        if self.obs.enabled:
            # Pull every processor-side collector's telemetry into the
            # engine's (one coherent merged timeline; see Collector.ingest).
            for payload in self.backend.call_all("drain_obs"):
                if payload is not None:
                    self.obs.ingest(payload)
            mx = self.obs.metrics
            mx.gauge("disk_space_tracks").set(self.report.disk_space_tracks)
            # The machine's storage-plane bytes beside each processor's own.
            snap = mx.snapshot()
            for name in ("storage/read_bytes", "storage/write_bytes"):
                total = sum(m["value"] for key, m in snap.items() if key.endswith("/" + name))
                if total:
                    mx.counter(name).inc(total)
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
