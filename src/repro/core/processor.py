"""One real processor of the EM-BSP machine.

A real processor owns ``D`` local disks (a :class:`~repro.emio.diskarray.DiskArray`),
their track allocator, the contexts of the virtual processors it simulates,
the bucket store of the current compound superstep, the incoming messages
of the next one, and a deterministic RNG stream.  The machine has ``p`` of
them (Algorithm 3; Algorithm 1 is the case ``p = 1``).  What a processor
does *around the barrier* — load the input, run a group of virtual
processors in memory, turn the bucket store into the next incoming
messages (Step 2), export / restore / re-attach its half of a checkpoint,
take crash damage, unload the output, tally its faults — lives here.

Every method takes and returns plain picklable values plus the parallel
I/O operations the call itself performed, so
:class:`~repro.core.engine.EMEngine` does the model's max-over-processors
accounting identically whether the processor is a local object or lives in
a ``multiprocessing`` worker (:mod:`repro.core.backend`).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from ..bsp.message import Message, blocks_to_messages
from ..bsp.program import AlgorithmError, BSPAlgorithm, VPContext
from ..emio.disk import Block
from ..emio.diskarray import DiskArray
from ..emio.layout import RegionAllocator, SlotReads, StripedRegion
from ..emio.linked import LinkedBuckets
from ..emio.storage import StorageSpec
from ..obs.spans import NULL_OBSERVER, Collector, NullObserver
from ..params import SimulationParams
from .checkpoint import freeze, thaw
from .context import ContextStore
from .routing import RoutingStats, keep_store, simulate_routing

if TYPE_CHECKING:
    from .engine import RunConfig

__all__ = ["RealProcessor", "group_order"]

#: How an incoming-message store is re-attached, by its ``reference()`` tag.
_ADOPT = {"region": StripedRegion.adopt, "store": LinkedBuckets.adopt}


def group_order(step: int, ngroups: int) -> list[int]:
    """The order compound superstep ``step`` runs its groups (Algorithm 3:
    batches) in: ascending and cyclic, starting one group further back each
    superstep (``-step mod ngroups``), so it starts with the group the
    superstep before ended with.  That group stays in memory across the
    barrier, so its write-back and its next fetch are skipped.  (Alternating
    ascending and descending saves the same; this keeps the direction of
    travel the groups always had.)"""
    return [(g - step) % ngroups for g in range(ngroups)]


class RealProcessor:
    """Disks, contexts, message regions and RNG of one real processor.

    Self-contained and picklable-by-construction (built from its init tuple
    inside a worker when the process backend is used).

    ``config`` is the engine's :class:`~repro.core.engine.RunConfig` with
    ``fast_io`` / ``context_cache`` already resolved against ``spec``, the
    engine's storage plane; the processor claims its own ``proc{i}``
    sub-root of it.  ``observe`` gives the processor a telemetry track of
    its own (spans, samples, metrics), drained to the engine by
    :meth:`drain_obs`.
    """

    def __init__(
        self,
        index: int,
        algorithm: BSPAlgorithm,
        params: SimulationParams,
        config: RunConfig,
        spec: StorageSpec,
        observe: bool = False,
        profile: bool = False,
    ):
        self.index = index
        self.algorithm = algorithm
        self.params = params
        m, s = params.machine, params.bsp
        self.p = m.p
        self.v = s.v
        self.k = params.k
        self.vpp = s.v // m.p  # virtual processors per real processor
        self.nbatches = self.vpp // self.k  # groups of k swapped through memory
        self.gamma = algorithm.comm_bound() if config.enforce_gamma else None
        # Lemma 3's dummy blocks: every group's traffic padded to k*ceil(gamma/B).
        self.pad = self.k * -(-s.gamma // m.B) if config.pad_to_gamma else 0
        self.write_schedule = config.write_schedule or "random"
        # Per-processor deterministic RNG stream: identical across backends,
        # independent across processors (no cross-processor draw ordering).
        # The machine's only processor draws from the seed itself, the
        # stream Algorithm 1 has always drawn from.
        seed = config.seed
        self.rng = random.Random(seed if self.p == 1 else f"{seed}/proc{index}")
        # Each real processor owns its drives, so each gets its own storage
        # sub-root (claimed worker-side under the process backend).
        self.storage_spec = spec.for_proc(index)
        self.array = DiskArray(
            m.D, m.B, faults=config.faults, retry=config.retry, proc=index,
            fast_io=config.fast_io, storage=self.storage_spec, M=m.M,
        )
        self.allocator = RegionAllocator(self.array)
        self.contexts = ContextStore(
            self.array, self.allocator, self.vpp, s.mu, m.B,
            name=f"ctx@p{index}",
            cache=config.context_cache,
        )
        # The incoming messages: a region Algorithm 2 laid out, or the last
        # superstep's bucket store itself (see deliver()).
        self.incoming: SlotReads | None = None
        self.buckets: LinkedBuckets | None = None
        # Worker-side telemetry: spans/samples/metrics collected here and
        # drained to the engine (over the pipe, under the process backend)
        # by drain_obs() — per-worker visibility with zero cost when off.
        self.obs: Collector | NullObserver = (
            Collector(proc=index, profile=profile) if observe else NULL_OBSERVER
        )
        # Under the process backend this worker's private profiler bills the
        # local storage plane; a local processor is handed the engine's own
        # profiler right after construction (EMEngine.__init__).
        self.array.set_profiler(self.obs.profile)
        self.obs.profile.start()

    # -- placement and bookkeeping ---------------------------------------------

    def slots(self, j: int) -> list[int]:
        """Local context slots of group (Algorithm 3: batch) ``j``."""
        return list(range(j * self.k, (j + 1) * self.k))

    def vps(self, j: int) -> list[int]:
        """Virtual processors this processor simulates in group ``j``."""
        base = self.index * self.vpp + j * self.k
        return list(range(base, base + self.k))

    def stall_total(self) -> int:
        """Stall op-equivalents so far: retry backoff plus latency spikes."""
        inj = self.array.injector
        return self.array.stall_ops + (inj.stats.stall_ops if inj else 0)

    def _sample_disks(self) -> None:
        """Emit one timestamped sample per disk (cumulative ops, queue depth)
        on this processor's track.

        Pure reads of counters the array maintains anyway, so sampling can
        never perturb the counted costs.
        """
        obs = self.obs
        buckets = self.buckets
        for d, disk in enumerate(self.array.disks):
            obs.sample(f"disk{d}/ops", disk.reads + disk.writes)
            if buckets is not None:
                depth = sum(len(buckets.table[b][d]) for b in range(buckets.nbuckets))
                obs.sample(f"disk{d}/queue_depth", depth)
            st = disk.storage
            if st.read_bytes or st.write_bytes:
                # Non-zero only on non-memory planes, so memory-plane span
                # streams are unchanged by the storage layer's existence.
                obs.sample(f"disk{d}/storage_read_bytes", st.read_bytes)
                obs.sample(f"disk{d}/storage_write_bytes", st.write_bytes)

    # -- input, computation, message regions -----------------------------------

    def load_input(self) -> int:
        """Create and store the initial contexts, ``k`` at a time; the group
        superstep 0 runs first stays in memory."""
        alg = self.algorithm
        with self.obs.span("load_input", cat="layout") as sp:
            t = self.array.parallel_ops
            first = group_order(0, self.nbatches)[0]
            for j in range(self.nbatches):
                states = [alg.initial_state(vp, self.v) for vp in self.vps(j)]
                self.contexts.save_group(self.slots(j), states, hold=j == first)
            delta = self.array.parallel_ops - t
            sp.add(io_ops=delta)
        return delta

    def fetch_group(self, slots: Sequence[int]) -> list[Block]:
        """The incoming message blocks of ``slots`` — one batch's — in one
        read, empty slots dropped.  Lemma 3's dummy blocks are kept: a batch
        they were written to is not idle, and the messages they carry are
        none (:func:`~repro.bsp.message.blocks_to_messages`)."""
        if self.incoming is None:
            return []
        return [blk for blks in self.incoming.read_slots(slots) for blk in blks if blk is not None]

    def run_vps(
        self,
        vps: Sequence[int],
        states: Iterable[Any],
        blocks: Iterable[Block],
        step: int,
    ) -> Iterator[VPContext]:
        """Computation phase: run one group's virtual supersteps in memory.

        ``blocks`` are every message block bound for the group, in any order;
        they are demultiplexed here, once, into each vp's messages.  Yields
        every vp's finished :class:`VPContext` in order; the caller keeps
        the new state and the outbox.
        """
        alg, gamma = self.algorithm, self.gamma
        inbox: dict[int, list[Message]] = {vp: [] for vp in vps}
        for m in blocks_to_messages(blocks):
            inbox[m.dest].append(m)
        for vp, state in zip(vps, states):
            msgs = inbox[vp]
            if gamma is not None:
                nrecv = sum(m.size for m in msgs)
                if nrecv > gamma:
                    raise AlgorithmError(
                        f"vp {vp} received {nrecv} records in superstep "
                        f"{step}, exceeding gamma={gamma}"
                    )
            ctx = VPContext(vp, self.v, step, state, msgs, comm_bound=gamma)
            alg.superstep(ctx)
            yield ctx

    def open_buckets(self, bucket_of: Callable[[int], int]) -> LinkedBuckets:
        """Open the compound superstep's ``D``-bucket store (Step 1(d)/(c))."""
        self.buckets = LinkedBuckets(
            self.array,
            self.allocator,
            nbuckets=self.params.machine.D,
            bucket_of=bucket_of,
            rng=self.rng,
            schedule=self.write_schedule,
        )
        return self.buckets

    def deliver(
        self, nslots: int, slot_of: Callable[[int], int], name: str
    ) -> RoutingStats:
        """Step 2: make this superstep's bucket store the next one's incoming
        messages, in ``nslots`` slots by ``slot_of(dest)``; the ``nbatches``
        fetch groups take the slots in equal consecutive runs.

        The store's tables say, before any block moves, what each group's
        fetch would cost reading the store as it stands (``group_loads``).
        Where :func:`~repro.core.routing.keep_store` finds that no dearer than
        Algorithm 2 could be, the store is kept (:meth:`LinkedBuckets.retain`)
        and no round is charged; otherwise Algorithm 2 reorganizes it into a
        fresh standard-consecutive region named ``name``.
        """
        store = self.buckets
        loads = store.retain(nslots, slot_of).group_loads(self.nbatches)
        if keep_store(loads, self.array.D):
            incoming, routing = store, RoutingStats.of(store)
        else:
            incoming, routing = simulate_routing(
                self.array, self.allocator, store, nslots=nslots, slot_of=slot_of,
                name=name,
            )
        routing.group_loads, routing.kept = loads, incoming is store
        self.swap_incoming(incoming)
        return routing

    def swap_incoming(self, region: SlotReads | None) -> None:
        """Retire the consumed incoming messages and the bucket store — unless
        the store is ``region`` itself, retained as it stands — and install
        ``region`` as the next compound superstep's incoming messages."""
        if self.buckets is not None and self.buckets is not region:
            self.buckets.free()
        self.buckets = None
        if self.incoming is not None:
            self.incoming.free()
        self.incoming = region

    # -- checkpoint/restore ------------------------------------------------------

    def export_checkpoint(
        self, group_size: int
    ) -> tuple[bytes, bytes | None, Any, set[int], int, dict | None]:
        """This processor's half of a barrier checkpoint.

        Reading the contexts and the incoming messages off the simulated
        disks is charged as real parallel I/O (the returned delta) — all but
        the resident group's, which is read from memory; holding the pickled
        snapshot on the host side is free, like writing it to a durable
        service outside the machine model.
        """
        with self.obs.span("checkpoint", cat="checkpoint") as sp:
            t = self.array.parallel_ops
            state_blob = freeze(self.contexts.export_all(group_size=group_size))
            inc = self.incoming
            if inc is not None:
                layout = (inc.slot_sizes, inc.read_slots(range(inc.nslots)))
                if isinstance(inc, LinkedBuckets):  # keep each block's drive
                    layout += (inc.slot_drives(),)
                inc_blob = freeze(layout)
            else:
                inc_blob = None
            delta = self.array.parallel_ops - t
            sp.add(io_ops=delta, bytes=len(state_blob))
        return (
            state_blob,
            inc_blob,
            self.rng.getstate(),
            set(self.array.dead_disks),
            delta,
            self._storage_ref(),
        )

    def _storage_ref(self) -> dict | None:
        """Fsync and snapshot the storage plane at a checkpoint barrier.

        Only on non-memory planes: the track files are flushed to stable
        media (the durability half of the barrier contract) and the returned
        reference pins the files' live extents, so a fresh process pointed
        at the same ``storage_dir`` can re-attach them without rehydrating.
        Pure host-side bookkeeping — no counted I/O.
        """
        if self.storage_spec.kind == "memory":
            return None
        self.array.sync_storage()
        inc = self.incoming
        return {
            "kind": self.storage_spec.kind,
            "root": self.storage_spec.root,
            "disks": self.array.snapshot_storage(),
            "alloc": (self.allocator.next_track, list(self.allocator._free)),
            "ctx_used": list(self.contexts._used),
            "incoming": None if inc is None else inc.reference(),
        }

    def _hold_resident(self, states: list[Any], step: int) -> None:
        """Hold the group that opens superstep ``step`` in memory again, from
        a checkpoint's ``states`` (local slot order)."""
        slots = self.slots(group_order(step, self.nbatches)[0])
        self.contexts.save_group(slots, [states[s] for s in slots], hold=True)

    def attach_storage(
        self, ref: dict, rng_state: Any, step: int, state_blob: bytes
    ) -> int:
        """Re-attach the checkpoint's on-disk track files (no rehydration).

        The drives already point at the same files; installing the
        snapshot's track maps plus the allocator/region/context metadata
        re-enters the barrier without a single parallel I/O operation —
        ``recovery_io_ops`` stays 0, which is the whole point of
        checkpoint-by-reference (the fresh-process crash-recovery path).
        """
        with self.obs.span("recover", step=step, cat="checkpoint"):
            if rng_state is not None:
                self.rng.setstate(rng_state)
            self.array.restore_storage(ref["disks"])
            next_track, free = ref["alloc"]
            self.allocator.next_track = next_track
            self.allocator._free = sorted(tuple(run) for run in free)
            self.contexts._used = list(ref["ctx_used"])
            self.contexts.invalidate_cache()
            # Cache-mode saves are charge-only on the fast plane, so the
            # attached disk image has no context bytes — reseed the cache
            # from the checkpoint's portable states (no counted I/O).  The
            # resident group never reached the disk at all: hold it again.
            states = thaw(state_blob)
            if self.contexts.cache:
                self.contexts.prime_cache(states)
            self._hold_resident(states, step)
            if ref["incoming"] is not None:
                kind, *layout = ref["incoming"]
                self.incoming = _ADOPT[kind](self.array, self.allocator, *layout)
        return 0

    def restore_checkpoint(
        self, state_blob: bytes, inc_blob: bytes | None, rng_state: Any, step: int
    ) -> int:
        """Rewrite the checkpointed barrier state onto the (possibly
        degraded) disk array and rewind the RNG; returns the write I/O."""
        with self.obs.span("recover", step=step, cat="checkpoint"):
            t = self.array.parallel_ops
            # Drop partial superstep state.  Scratch leaked by an interrupted
            # reorganization stays allocated (it only inflates the space high
            # water, like a real crash leaving unreclaimed sectors).
            self.swap_incoming(None)
            if rng_state is not None:
                self.rng.setstate(rng_state)
            self.contexts.import_all(
                thaw(state_blob), group_size=self.k,
                resident=group_order(step, self.nbatches)[0],
            )
            # The blob holds blocks by slot, and a kept store's drives too: it
            # comes back with every block on its drive, so each fetch costs
            # what it would have.
            if inc_blob is not None:
                slot_sizes, blocks, *drives = thaw(inc_blob)
                if drives:
                    self.incoming = LinkedBuckets.rewrite(
                        self.array, self.allocator, drives[0], blocks
                    )
                else:
                    region = StripedRegion(
                        self.array, self.allocator, slot_sizes,
                        name=f"incoming@p{self.index}resume{step}",
                    )
                    region.write_slots(range(region.nslots), blocks)
                    self.incoming = region
            return self.array.parallel_ops - t

    def apply_crash(self, stage: str) -> int:
        """Inflict one crash stage's byte damage on this processor's drives."""
        self.array.crash_storage(stage)
        return 0

    def close_storage(self) -> None:
        self.array.close_storage()

    # -- wrap-up -----------------------------------------------------------------

    def collect_outputs(self) -> tuple[dict[int, Any], int, int]:
        """Unload the output, ``k`` contexts at a time."""
        alg = self.algorithm
        with self.obs.span("collect_outputs", cat="layout") as sp:
            t = self.array.parallel_ops
            outs: dict[int, Any] = {}
            for j in range(self.nbatches):
                states = self.contexts.load_group(self.slots(j))
                for vp, state in zip(self.vps(j), states):
                    outs[vp] = alg.output(vp, state)
            delta = self.array.parallel_ops - t
            sp.add(io_ops=delta)
        return outs, delta, self.allocator.high_water

    def drain_obs(self) -> dict | None:
        """Ship this processor's telemetry track to the engine (picklable),
        with its end-of-run state: the final per-disk samples and the
        context-cache, storage-plane and retry tallies."""
        if not self.obs.enabled:
            return None
        self._sample_disks()
        mx = self.obs.metrics
        mx.counter("ctx_cache/hits").inc(self.contexts.cache_hits)
        mx.counter("ctx_cache/misses").inc(self.contexts.cache_misses)
        mx.gauge("disk_space_tracks").set(self.allocator.high_water)
        if self.array.storage_read_bytes or self.array.storage_write_bytes:
            mx.counter("storage/read_bytes").inc(self.array.storage_read_bytes)
            mx.counter("storage/write_bytes").inc(self.array.storage_write_bytes)
        if self.array.retry_ops or self.array.stall_ops:
            mx.counter("retry_ops").inc(self.array.retry_ops)
            mx.counter("stall_ops").inc(self.stall_total())
        return self.obs.drain()

    def fault_stats(self) -> dict[str, int]:
        """This processor's share of the :class:`~repro.core.stats.FaultReport`
        tallies, keyed by report field (the engine sums over processors)."""
        out = {
            "retry_reads": self.array.retry_reads,
            "retry_writes": self.array.retry_writes,
            "stall_ops": self.stall_total(),
            "degraded_writes": self.array.degraded_writes,
        }
        inj = self.array.injector
        if inj is not None:
            s = inj.stats
            out.update(
                transient_read_errors=s.transient_read_errors,
                transient_write_errors=s.transient_write_errors,
                corruptions_injected=s.corruptions_injected,
                checksum_errors=s.checksum_errors,
                latency_spikes=s.latency_spikes,
                disks_died=s.disks_died,
            )
        return out
