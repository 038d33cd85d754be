"""Algorithm 1 — **SeqCompoundSuperstep**: BSP* on a single-processor EM machine.

Simulates a ``v``-processor BSP* algorithm on one real processor with ``D``
disks and ``M`` records of memory.  Virtual processors are swapped through
memory in groups of ``k = floor(M/mu)``; per compound superstep and group:

1. *Fetching phase* — read the group's contexts (Step 1(a)) and incoming
   message blocks (Step 1(b)) from their standard-consecutive regions.
2. *Computation phase* — run the group's supersteps in memory (Step 1(c)).
3. *Writing phase* — cut generated messages into blocks of ``B``, write them
   to randomly permuted disks into ``D`` destination buckets in standard
   linked format (Step 1(d)), and write the changed contexts back (Step 1(e)).

After all ``v/k`` groups, Step 2 (:func:`repro.core.routing.simulate_routing`,
the paper's Algorithm 2) reorganizes the buckets into the next superstep's
incoming region.

The execution is *transparent*: outputs are identical to the in-memory
reference runner for every algorithm and every valid parameter choice
(invariant I3), while every byte travels through the simulated disks under
the blocking and parallelism discipline of the EM-BSP model.

Everything around the barrier — run/resume, checkpoints, fatal-fault
rollback, crash injection, events, the fault report — is the shared
lifecycle of :mod:`repro.core.engine`; this module keeps what Algorithm 1
itself prescribes: the group loop and its phase accounting.
"""

from __future__ import annotations

from ..bsp.message import message_to_blocks
from ..bsp.program import BSPAlgorithm
from ..costs import packets_for
from ..emio.disk import Block
from ..emio.faults import CrashPlan, FaultPlan, RetryPolicy
from ..emio.storage import StorageSpec
from ..obs.live import RunEventLog
from ..obs.spans import Collector
from ..params import ParameterError, SimulationParams
from .engine import EMEngine
from .routing import simulate_routing
from .stats import PhaseBreakdown

__all__ = ["SequentialEMSimulation"]


class SequentialEMSimulation(EMEngine):
    """Runs a :class:`BSPAlgorithm` under Algorithm 1 (single real processor).

    Parameters
    ----------
    algorithm:
        The BSP*/CGM algorithm to simulate.
    params:
        Joint machine/virtual-machine parameters (``params.machine.p`` must
        be 1; use :class:`~repro.core.parsim.ParallelEMSimulation` otherwise).
    seed:
        Seed of the random disk-write permutations (Step 1(d)).
    pad_to_gamma:
        If True, pad every group's message traffic with dummy blocks to the
        worst case ``k * ceil(gamma/B)`` the analysis assumes (Lemma 3's
        "introduction of dummy blocks").  Costs rise to the analytic bound;
        results are unaffected.
    enforce_gamma:
        Enforce the declared per-superstep communication bound on both the
        sending and receiving side.
    write_schedule:
        Disk-write schedule ("random", "rotate", "static", "balance"; see
        :class:`~repro.emio.linked.LinkedBuckets`); ``None`` is "random",
        the paper's.  "rotate" is the ablation that replaces the random
        write permutation with a deterministic rotation (see the ABL
        benchmark); "balance" is the paper's deterministic variant for
        predetermined (CGM) traffic.
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
        good checkpoint (hand it to :meth:`resume_from_checkpoint`).
    context_cache:
        Context-swap fast path: keep pickled context bytes host-side;
        swaps charge the identical counted I/O without moving block data
        (see :class:`~repro.core.context.ContextStore`).  Model costs and
        outputs are unchanged; only host wall-clock improves.
        Auto-disabled under fault injection.
    fast_io:
        The disk array's fast data plane — counted-cost-identical
        short-circuits of the parallel primitives, legal only on a healthy,
        untraced array (auto-disabled otherwise).

        Who selects the plane (both knobs): ``None``, the default, asks the
        storage plane (:meth:`StorageSpec.fast_plane
        <repro.emio.storage.StorageSpec.fast_plane>`) — on with
        ``storage="memory"``, where nothing is lost, off on ``"file"`` /
        ``"mmap"``, where the fast plane would double the out-of-core heap
        promise (DESIGN §8).  ``True`` / ``False`` are honoured on every
        plane; ``False`` for both is the *reference plane* the golden tests
        name (``repro.conform.REFERENCE``).  ``run_started`` carries the
        resolved values.
    observer:
        Optional :class:`~repro.obs.spans.Collector` receiving nested spans
        (superstep > phase), per-disk counter samples, and run metrics.
        Purely read-only at phase boundaries: counted costs, outputs, and
        reports are byte-identical with and without it, and the fast data
        plane stays available (unlike :meth:`repro.emio.trace.IOTrace.attach`).
        Export with :func:`repro.obs.write_chrome_trace` /
        :func:`repro.obs.write_jsonl`.
        A ``Collector(profile=True)`` additionally receives the wall-clock
        attribution profile (DESIGN §11): the engine installs the
        collector's :class:`~repro.obs.profile.CategoryProfiler` into its
        disk array (and therefore the storage plane) and bills each phase
        to its category.
    events:
        Optional :class:`~repro.obs.live.RunEventLog`: the engine streams
        ``run_started`` / ``superstep_started`` / ``superstep_finished`` /
        ``run_finished`` events (with counted io_ops, storage bytes moved,
        and an ETA when the log has an ``expected_steps`` hint) as
        line-flushed JSONL (``repro watch <file>`` tails it).  Read-only
        like the observer.
    storage:
        Block-storage plane backing the simulated disks: ``"memory"``
        (default, plain dicts), ``"file"`` (one preallocated track file per
        drive, accessed with ``pread``/``pwrite``), or ``"mmap"`` (the same
        files through ``mmap``) — or a prebuilt
        :class:`~repro.emio.storage.StorageSpec`.  Outputs, counted costs,
        ledgers, and traces are byte-identical across planes — the model
        charges I/O before data moves, so where the bytes live is invisible
        to the accounting (see ``DESIGN.md`` §8).  Non-memory planes make
        truly out-of-core runs possible: resident heap stays bounded by a
        handful of blocks while the dataset lives in the track files.  Host
        I/O is synchronous; the routing schedule batches it (DESIGN §12).
    storage_dir:
        Directory for the track files on non-memory planes.  ``None``
        (default) uses a private temporary directory removed when the run
        finishes; an explicit path persists after the run (that is what
        checkpoint/resume across processes points at) and must be empty or
        carry the storage marker file from a previous run.
    crash:
        A :class:`~repro.emio.faults.CrashPlan` injecting one hard host
        crash at a chosen barrier stage (torn/lost unsynced writes, or a
        kill around the journal commit).  Requires ``checkpoint=True`` and
        a non-memory plane; the run dies with
        :class:`~repro.emio.faults.HostCrash` and is meant to be scrubbed
        (:func:`~repro.core.checkpoint.scrub`) and resumed by a fresh engine
        (see ``repro crashcheck`` and DESIGN §9).
    """

    ENGINE = "sequential"
    SOLE = True

    def __init__(
        self,
        algorithm: BSPAlgorithm,
        params: SimulationParams,
        seed: int = 0,
        pad_to_gamma: bool = False,
        enforce_gamma: bool = True,
        write_schedule: str | None = None,
        faults: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        checkpoint: bool = False,
        max_recoveries: int = 8,
        context_cache: bool | None = None,
        fast_io: bool | None = None,
        observer: Collector | None = None,
        events: "RunEventLog | None" = None,
        storage: "str | StorageSpec" = "memory",
        storage_dir: str | None = None,
        crash: CrashPlan | None = None,
    ):
        if params.machine.p != 1:
            raise ParameterError(
                f"SequentialEMSimulation requires p=1, got p={params.machine.p}"
            )
        super().__init__(
            algorithm,
            params,
            seed=seed,
            enforce_gamma=enforce_gamma,
            write_schedule=write_schedule,
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
        )
        self.pad_to_gamma = pad_to_gamma
        self.gpb = -(-params.bsp.gamma // params.machine.B) if params.bsp.gamma else 0
        self.groups = self.nbatches
        # The machine's one processor, called directly; its disks, allocator,
        # contexts and RNG stream are the engine's.
        self.proc = proc = self.procs[0]
        self.array = proc.array
        self.allocator = proc.allocator
        self.contexts = proc.contexts
        self.rng = proc.rng

    def _bucket_of(self, dest: int) -> int:
        """Bucket ``i`` holds blocks for the ``i``-th range of ``v/D`` vps."""
        v, D = self.params.bsp.v, self.params.machine.D
        return dest * D // v

    # -- one compound superstep --------------------------------------------------------

    def _superstep(self, step: int) -> bool:
        """Run compound superstep ``step``; return True when the algorithm
        halted with no traffic in flight."""
        p = self.params
        v, k, B = p.bsp.v, p.k, p.machine.B
        proc, array = self.proc, self.array

        cost = self.ledger.begin_superstep(label=f"superstep {step}")
        phases = PhaseBreakdown()
        retry0 = array.retry_ops
        stall0 = proc.stall_total()
        buckets = proc.open_buckets(self._bucket_of)
        all_halted = True
        blocks_generated = 0
        sent_packets = [0] * v
        recv_packets = [0] * v
        dummy_rr = 0

        obs = self.obs
        for g in range(self.groups):
            slots = proc.slots(g)

            # -- Fetching phase: Step 1(a) contexts, Step 1(b) messages --
            with obs.span("fetch_context", group=g, cat="layout") as sp:
                t = array.parallel_ops
                states = self.contexts.load_group(slots)
                d = array.parallel_ops - t
                phases.fetch_context += d
                sp.add(io_ops=d)

            with obs.span("fetch_messages", group=g, cat="layout") as sp:
                t = array.parallel_ops
                if proc.incoming is not None:
                    group_blocks = proc.incoming.read_slots(slots)
                else:
                    group_blocks = [[] for _ in slots]
                d = array.parallel_ops - t
                phases.fetch_messages += d
                sp.add(io_ops=d)

            # -- Computation phase: Step 1(c) --
            group_out_blocks: list[Block] = []
            new_states = []
            with obs.span("compute", group=g, cat="kernel") as sp:
                comp0 = cost.comp_ops
                for ctx in proc.run_vps(slots, states, group_blocks, step):
                    new_states.append(ctx.state)
                    if not ctx.halted:
                        all_halted = False
                    cost.comp_ops += ctx.comp_ops
                    for mi, m in enumerate(ctx.outbox):
                        pk = packets_for(max(m.size, 1), p.machine.b)
                        sent_packets[ctx.pid] += pk
                        recv_packets[m.dest] += pk
                        cost.records_sent += m.size
                        group_out_blocks.extend(message_to_blocks(m, B, mi))
                sp.add(comp_ops=cost.comp_ops - comp0)

            # -- Writing phase: Step 1(d) messages, Step 1(e) contexts --
            if self.pad_to_gamma:
                want = k * self.gpb
                while len(group_out_blocks) < want:
                    group_out_blocks.append(
                        Block(records=[], dest=dummy_rr % v, dummy=True)
                    )
                    dummy_rr += 1
            with obs.span("write_messages", group=g, cat="layout") as sp:
                t = array.parallel_ops
                buckets.append_blocks(group_out_blocks)
                d = array.parallel_ops - t
                phases.write_messages += d
                sp.add(io_ops=d, blocks=len(group_out_blocks))
            blocks_generated += sum(0 if b.dummy else 1 for b in group_out_blocks)

            with obs.span("write_context", group=g, cat="layout") as sp:
                t = array.parallel_ops
                self.contexts.save_group(slots, new_states)
                d = array.parallel_ops - t
                phases.write_context += d
                sp.add(io_ops=d)

        # -- Step 2: reorganize the generated blocks (Algorithm 2) --
        if obs.enabled:
            proc._sample_disks(obs)
        with obs.span("reorganize", cat="routing") as sp:
            t = array.parallel_ops
            new_incoming, routing = simulate_routing(
                array,
                self.allocator,
                buckets,
                nslots=v,
                slot_of=lambda dest: dest,
                name=f"incoming@{step + 1}",
            )
            d = array.parallel_ops - t
            phases.reorganize += d
            sp.add(io_ops=d, blocks=routing.total_blocks)
        proc.swap_incoming(new_incoming)

        # BSP*-equivalent communication cost of the *virtual* machine
        # (diagnostic; the real machine has p=1 and no router traffic).
        cost.comm_packets = max(
            (sent_packets[i] + recv_packets[i] for i in range(v)), default=0
        )
        cost.retry_ops = array.retry_ops - retry0
        cost.stall_ops = proc.stall_total() - stall0
        if obs.enabled:
            obs.metrics.histogram("lemma2_load_ratio").record(routing.max_load_ratio)
        return self._seal_superstep(
            step, cost, phases, routing, blocks_generated, all_halted
        )
