"""One real processor of the EM-BSP machine.

A real processor owns ``D`` local disks (a :class:`~repro.emio.diskarray.DiskArray`),
their track allocator, the contexts of the virtual processors it simulates,
the bucket store of the current compound superstep, the incoming messages
of the next one, and a deterministic RNG stream.  The machine has ``p`` of
them (Algorithm 3; Algorithm 1 is the case ``p = 1``).  Everything a
processor does lives here: load the input, its half of each round of a
compound superstep (fetch, compute, write), turn the bucket store into the
next incoming messages (Step 2), export / restore / re-attach its half of a
checkpoint, take crash damage, unload the output, tally its faults.

Every method takes and returns plain picklable values plus the parallel
I/O operations the call itself performed, so
:class:`~repro.core.engine.ParallelEMSimulation` does the model's
max-over-processors accounting identically whether the processor is a local
object or lives in a ``multiprocessing`` worker (:mod:`repro.core.backend`).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

from ..bsp.message import (
    Message,
    Piece,
    block_pieces,
    blocks_to_messages,
    pack_blocks,
    pack_by_group,
)
from ..bsp.program import AlgorithmError, BSPAlgorithm, VPContext
from ..costs import packets_for
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

__all__ = ["RealProcessor", "vm_packets"]

#: How an incoming-message store is re-attached, by its ``reference()`` tag.
_ADOPT = {"region": StripedRegion.adopt, "store": LinkedBuckets.adopt}


def vm_packets(pieces: list[Piece], b: int) -> tuple[tuple[int, int, int], ...]:
    """The virtual machine's h-relation of one round's outbox, as
    ``(vp, packets sent, packets received)`` per vp it touches, sorted by
    vp: a message of ``size`` records is ``ceil(max(size, 1)/b)`` packets."""
    sent: dict[int, int] = {}
    received: dict[int, int] = {}
    for dest, src, _msg, _seq, payload in pieces:
        n = packets_for(max(len(payload), 1), b)
        sent[src] = sent.get(src, 0) + n
        received[dest] = received.get(dest, 0) + n
    return tuple(
        (vp, sent.get(vp, 0), received.get(vp, 0))
        for vp in sorted(sent.keys() | received.keys())
    )


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
        self.vpp = params.vps_per_processor
        self.nbatches = params.groups_per_processor  # groups of at most k swapped through memory
        # Each vp's group's first vp: the key of the blocks packed for it.
        first = [params.groups[params.group_of_slot(s)].start for s in range(self.vpp)]
        self.group_key = [vp - vp % self.vpp + first[vp % self.vpp] for vp in range(self.v)]
        self.gamma = algorithm.comm_bound()
        self.max_inbox = 0  # the largest inbox received here, in records (gamma_used)
        # The paper's schedule and no dummy blocks unless ablated (ablate()).
        self.write_schedule, self.pad = "random", 0
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
        # The held batch's inbox (SimulationParams.holds_inbox): the blocks
        # this processor packs for its own held vps stay here, not in the
        # bucket store, while they are packed (``keeping``) and across the
        # barrier, by batch, until its fetch (``inbox``).
        self.holds_inbox = params.holds_inbox
        self.inbox: dict[int, list[Block]] = {}
        # Worker-side telemetry: spans/samples/metrics collected here and
        # drained to the engine (over the pipe, under the process backend)
        # by drain_obs() — per-worker visibility with zero cost when off.
        self.obs: Collector | NullObserver = (
            Collector(proc=index, profile=profile) if observe else NULL_OBSERVER
        )
        # Under the process backend this worker's private profiler bills the
        # local storage plane; a local processor is handed the engine's own
        # profiler right after construction (ParallelEMSimulation.__init__).
        self.array.set_profiler(self.obs.profile)
        self.obs.profile.start()

    def ablate(self, write_schedule: str, pad_to_gamma: bool) -> None:
        """Run the engine's Lemma 2/3 ablations (see
        :class:`~repro.core.engine.ParallelEMSimulation`): the disk-write
        schedule, and Lemma 3's dummy blocks, a group of ``n`` vps' traffic
        padded to ``n*ceil(gamma/B)``, which hold no inbox."""
        self.write_schedule = write_schedule
        if pad_to_gamma:
            self.pad = -(-self.params.bsp.gamma // self.params.machine.B)
            self.holds_inbox = False

    # -- placement and bookkeeping ---------------------------------------------

    @property
    def network(self) -> bool:
        """Whether the machine has a network to route over: not with one
        processor, where Algorithm 3 is Algorithm 1 (see
        :mod:`repro.core.engine`)."""
        return self.p > 1

    def owner_of_vp(self, vp: int) -> int:
        """Real processor simulating virtual processor ``vp``."""
        return vp // self.vpp

    def slot_of_vp(self, vp: int) -> int:
        """Incoming slot, on its owner, of a block destined for ``vp``: one
        slot per vp, as Algorithm 1 lays them out, so group ``j`` reads its
        run of consecutive slots (:meth:`slots`)."""
        return vp % self.vpp

    def bucket_of_vp(self, vp: int) -> int:
        """Local disk bucket of a block destined for ``vp``.

        "Each bucket contains the blocks for ``(v/pk)/D`` batches": the
        paper assumes ``v/(pk) >= D``.  The processor's ``v/p`` virtual
        processors are ranged evenly into the ``D`` buckets, as Algorithm 1
        ranges its ``v``; where ``D`` divides the batch count this is
        exactly the paper's map, batches ranged evenly into buckets.  Ranging
        batches would use only ``v/(pk)`` buckets when ``1 < v/(pk) < D``
        and leave the other drives idle in phase 1; ranging vps, a batch may
        span two buckets, and each bucket is still a contiguous vp range, as
        Algorithm 2 requires.  A message block, packed per destination batch,
        is addressed to the batch's first vp, so its bucket is its batch's
        under either map.
        """
        return (vp % self.vpp) * self.params.machine.D // self.vpp

    def slots(self, j: int) -> list[int]:
        """Local context slots of group (Algorithm 3: batch) ``j``."""
        return list(self.params.groups[j])

    def vps(self, j: int) -> list[int]:
        """Virtual processors this processor simulates in group ``j``."""
        base = self.index * self.vpp
        return [base + s for s in self.params.groups[j]]

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

    def load_input(self) -> tuple[int, list[tuple[int, ...]]]:
        """Create and store the initial contexts, a group at a time; group 0,
        which superstep 0 runs first, stays in memory, every slot dirty.
        Returns the I/O and each group's written block counts, slot by slot
        (0 for the held one's)."""
        alg = self.algorithm
        with self.obs.span("load_input", cat="layout") as sp:
            t = self.array.parallel_ops
            counts = []
            for j in range(self.nbatches):
                states = [alg.initial_state(vp, self.v) for vp in self.vps(j)]
                counts.append(tuple(
                    self.contexts.end_round(self.slots(j), states, [True] * len(states), hold=True)
                    if j == 0 else self.contexts.save_group(self.slots(j), states)
                ))
            delta = self.array.parallel_ops - t
            sp.add(io_ops=delta)
        return delta, counts

    def fetch_group(self, slots: Sequence[int]) -> list[Block]:
        """The incoming message blocks of ``slots`` — one batch's — in one
        read, empty slots dropped, then the batch's held inbox, taken from
        memory at no I/O.  Lemma 3's dummy blocks are kept: a batch they
        were written to is not idle, and the messages they carry are none
        (:func:`~repro.bsp.message.blocks_to_messages`)."""
        inbox = self.inbox.pop(self.params.group_of_slot(slots[0]), [])
        if self.incoming is None:
            return inbox
        return [blk for blks in self.incoming.read_slots(slots) for blk in blks
                if blk is not None] + inbox

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
            nrecv = sum(m.size for m in msgs)
            self.max_inbox = max(self.max_inbox, nrecv)
            if nrecv > gamma:
                raise AlgorithmError(
                    f"vp {vp} received {nrecv} records in superstep "
                    f"{step}, exceeding gamma={gamma}"
                )
            ctx = VPContext(vp, self.v, step, state, msgs, comm_bound=gamma)
            alg.superstep(ctx)
            yield ctx

    def deliver(self, step: int, holder: int | None) -> RoutingStats:
        """Step 2: make superstep ``step``'s bucket store the next one's
        incoming messages, one slot per vp (:meth:`slot_of_vp`); the
        ``nbatches`` fetch groups take the slots in balanced consecutive runs;
        the inbox of ``holder``, the batch held across the barrier, becomes
        its next fetch's, in memory.

        The store's tables say, before any block moves, what each group's
        fetch would cost reading the store as it stands (``group_loads``).
        Where :func:`~repro.core.routing.keep_store` finds that no dearer than
        Algorithm 2 could be, the store is kept (:meth:`LinkedBuckets.retain`)
        and no round is charged; otherwise Algorithm 2 reorganizes it into a
        fresh standard-consecutive region.
        """
        store, slot_of = self.buckets, self.slot_of_vp
        loads = store.retain(self.vpp, slot_of).group_loads(
            self.nbatches, self.params.group_of_slot)
        self.inbox = {holder: self.keeping} if self.keeping else {}
        if keep_store(loads, self.array.D):
            incoming, routing = store, RoutingStats.of(store)
        else:
            incoming, routing = simulate_routing(
                self.array, self.allocator, store, nslots=self.vpp, slot_of=slot_of,
                name=f"incoming@p{self.index}s{step + 1}",
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

    # -- one compound superstep's rounds (Algorithm 3, Step 1) ------------------
    #
    # Driven by the engine through a backend; each returns this processor's
    # parallel-I/O deltas, so the engine does the model's max-over-processors
    # accounting identically for every backend.

    def begin_superstep(self) -> tuple[int, int, list[int], int | None]:
        """Open a compound superstep and its ``D``-bucket store; returns
        (retry_ops, stall_ops) marks, the blocks each batch's incoming slot
        and held inbox hold (what the engine tells an idle batch by before
        anything is fetched) and the batch in memory, if any."""
        self.buckets = LinkedBuckets(
            self.array,
            self.allocator,
            nbuckets=self.params.machine.D,
            bucket_of=self.bucket_of_vp,
            rng=self.rng,
            schedule=self.write_schedule,
        )
        # The round's pieces while they wait for Step 1(d) without a
        # network, and the Lemma 3 dummy blocks written so far.
        self.held: list[Piece] = []
        self.dummies = 0
        self.keeping: list[Block] = []
        inc = self.incoming
        sizes = [(sum(inc.slot_sizes[s] for s in self.slots(j)) if inc else 0)
                 + len(self.inbox.get(j, ())) for j in range(self.nbatches)]
        held = self.contexts.held()
        return (self.array.retry_ops, self.stall_total(), sizes,
                held and self.params.group_of_slot(held[0][0]))

    def fetch(self, j: int, read: bool) -> tuple[dict[int, list[Block]], int, int | None]:
        """Step 1(a): read batch ``j``'s contexts if ``read`` (some vp of the
        batch reads; a batch in memory costs no I/O), kept here for
        :meth:`compute`, and its message blocks, grouped by owning processor.
        Returns the blocks and the message and context I/O (None for no
        context fetch)."""
        with self.obs.span("fetch_context", batch=j, cat="layout") as sp:
            t = self.array.parallel_ops
            self.states = self.contexts.load_group(self.slots(j)) if read else None
            ctx_io = self.array.parallel_ops - t if read else None
            sp.add(io_ops=ctx_io or 0)
        with self.obs.span("fetch", batch=j, cat="layout") as sp:
            t = self.array.parallel_ops
            blks = self.fetch_group(self.slots(j))
            by_owner: dict[int, list[Block]] = {}
            for blk in blks:
                by_owner.setdefault(self.owner_of_vp(blk.dest), []).append(blk)
            delta = self.array.parallel_ops - t
            sp.add(io_ops=delta, blocks=len(blks))
        return by_owner, delta, ctx_io

    def compute(self, j: int, step: int, inbound: list[Block], uses: str) -> dict[str, Any]:
        """Step 1(b): run batch ``j``'s virtual supersteps, each vp on
        its state or, where its letter of ``uses`` is ``n``, on None; the
        states ``w`` vps leave stay here for :meth:`write`.

        Returns the round's outbox cut into packets of ``b`` records and
        the deal offset (``None`` for an empty outbox, which draws no random
        number) — or, without a network, no packets and the virtual
        machine's h-relation tally (:func:`vm_packets`), the pieces staying
        here for :meth:`write` — plus this processor's cost contributions.
        """
        b = self.params.machine.b
        states = self.states  # None unless fetched, and fetched if some vp writes
        pieces: list[Piece] = []
        comp = 0.0
        sent_records = 0
        halted = True
        self.wrote = [u == "w" for u in uses]
        with self.obs.span("compute", batch=j, step=step, cat="kernel") as sp:
            given = [None if u == "n" else states[r] for r, u in enumerate(uses)]
            for r, ctx in enumerate(self.run_vps(self.vps(j), given, inbound, step)):
                if self.wrote[r]:
                    states[r] = ctx.state
                if not ctx.halted:
                    halted = False
                comp += ctx.comp_ops
                sent_records += ctx.sent_records
                for mi, msg in enumerate(ctx.outbox):
                    pieces.append((msg.dest, msg.src, mi, 0, msg.payload))
            packets: list[Block] = []
            offset = tally = None
            if not self.network:
                self.held, tally = pieces, vm_packets(pieces, b)
            elif pieces:
                packets = pack_blocks(pieces, b, self.index)
                offset = self.rng.randrange(self.p)
            sp.add(comp_ops=comp, packets=len(packets))
        return {
            "packets": packets,
            "offset": offset,
            "tally": tally,
            "comp": comp,
            "sent_records": sent_records,
            "halted": halted,
        }

    def write(
        self, j: int, holder: int | None, packets: list[Block]
    ) -> tuple[int, int, tuple[int, ...], int, int | None, tuple[int, ...]]:
        """Step 1(c): pack the pieces of the received packets (or, without
        a network, the round's own) into full blocks per destination group,
        pad them with Lemma 3's dummy blocks under ``pad_to_gamma``, and
        append them to the buckets — but for those bound for this
        processor's own vps of ``holder``, the batch the plan holds across
        the barrier, kept in memory where it holds its inbox; then Step
        1(e), :meth:`settle`.  Returns the message blocks, the message I/O,
        each destination group's records and the dummy blocks (for the
        packing referee), then what :meth:`settle` returns."""
        B = self.params.machine.B
        with self.obs.span("write_messages", batch=j, cat="layout") as sp:
            t = self.array.parallel_ops
            pieces, self.held = self.held + block_pieces(packets), []
            rblocks, loads = pack_by_group(pieces, B, self.group_key.__getitem__)
            nblocks = len(rblocks)
            dummies = max(0, self.pad * len(self.params.groups[j]) - nblocks)
            for _ in range(dummies):
                rblocks.append(Block(records=[], dest=self.dummies % self.v, dummy=True))
                self.dummies += 1
            written = rblocks
            if self.holds_inbox and holder is not None:
                first = self.vps(holder)[0]  # a block's dest is its group's first vp
                self.keeping += [blk for blk in rblocks if blk.dest == first]
                written = [blk for blk in rblocks if blk.dest != first]
            # The deal offsets draw from the same RNG: the kept blocks' write
            # cycles draw their permutations too, so the offsets are those of
            # a run that writes every block.
            self.buckets.append_blocks(written, kept=len(rblocks) - len(written))
            delta = self.array.parallel_ops - t
            sp.add(io_ops=delta, blocks=nblocks + dummies, packets=len(packets))
        settled = self.settle(j, j == holder, self.states, self.wrote)
        return (nblocks, delta, loads, dummies, *settled)

    def settle(
        self, j: int, hold: bool = False, states: list[Any] | None = None,
        wrote: list[bool] | None = None,
    ) -> tuple[int | None, tuple[int, ...]]:
        """Step 1(e) for batch ``j``, alone in place of a skipped round
        (:meth:`~repro.core.context.ContextStore.end_round`; held if
        ``hold``).  Returns the context I/O (None if nothing was written)
        and the block counts written, slot by slot."""
        with self.obs.span("write_context", batch=j, cat="layout") as sp:
            t = self.array.parallel_ops
            counts = self.contexts.end_round(
                self.slots(j), states, wrote or [False] * len(self.slots(j)), hold=hold
            )
            self.states = None
            save_io = self.array.parallel_ops - t
            sp.add(io_ops=save_io)
        return (save_io if any(counts) else None), tuple(counts)

    def reorganize(self, step: int, holder: int | None) -> tuple[RoutingStats, int]:
        """Step 2 on the local buckets (:meth:`deliver`)."""
        if self.obs.enabled:
            self._sample_disks()
        with self.obs.span("reorganize", step=step, cat="routing") as sp:
            t = self.array.parallel_ops
            routing = self.deliver(step, holder)
            delta = self.array.parallel_ops - t
            sp.add(io_ops=delta, blocks=routing.total_blocks)
        if self.obs.enabled:
            self.obs.metrics.histogram("lemma2_load_ratio").record(
                routing.max_load_ratio
            )
        return routing, delta

    def end_superstep(self) -> tuple[int, int]:
        return self.array.retry_ops, self.stall_total()

    # -- checkpoint/restore ------------------------------------------------------

    def export_checkpoint(
        self,
    ) -> tuple[bytes, bytes | None, Any, set[int], int, dict | None]:
        """This processor's half of a barrier checkpoint.

        Reading the contexts and the incoming messages off the simulated
        disks is charged as real parallel I/O (the returned delta) — all but
        the resident group's and the held inbox, which are read from memory;
        holding the pickled snapshot on the host side is free, like writing
        it to a durable service outside the machine model.
        """
        with self.obs.span("checkpoint", cat="checkpoint") as sp:
            t = self.array.parallel_ops
            state_blob = freeze((self.contexts.export_all(self.params.groups),
                                 self.contexts.held(), self.inbox))
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
            # held batch's dirty slots and its inbox never reached the disk:
            # hold them again.
            states, held, self.inbox = thaw(state_blob)
            if self.contexts.cache:
                self.contexts.prime_cache(states)
            slots, dirty = held or ((), ())
            self.contexts.end_round(
                slots, [states[s] for s in slots], [s in dirty for s in slots], hold=True
            )
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
            states, held, self.inbox = thaw(state_blob)
            self.contexts.import_all(states, self.params.groups, held=held)
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
        """Unload the output, a group of contexts at a time."""
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

    def bounds_used(self) -> tuple[int, int]:
        """The largest context saved and the largest inbox received here, in
        records: this processor's ``(mu_used, gamma_used)``."""
        return self.contexts.max_records, self.max_inbox

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
