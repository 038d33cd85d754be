"""On-disk storage of virtual-processor contexts (Steps 1(a)/1(e) of Algorithm 1).

"Since we know the size of the contexts of the processors, and the order in
which we simulate the virtual processors is static during the simulation, we
can distribute the ``k`` contexts deterministically.  We reserve an area of
total size ``v*mu`` on the disks, ``v*mu/DB`` blocks on each disk."

Contexts are pickled, the bytes split into blocks of ``B`` records (8 bytes
per record), and stored in the preallocated :class:`ConsecutiveRegion`.  The
declared bound ``mu`` is enforced on every save: an algorithm whose state
outgrows its declaration fails loudly instead of silently breaking the space
accounting.

**Context-swap fast path** (``cache=True``): the store keeps the pickled
bytes of every slot host-side; every save replaces them with the fresh
pickle (there is no dirty bit: nothing would read one, and finding out costs
a compare of the whole context).  On the disk array's fast data plane a
swap then charges the *identical* parallel I/O the reference path would — via
:meth:`~repro.emio.diskarray.DiskArray.charge_batched`, which replays the
exact greedy round packing arithmetic — without re-materializing ``Block``
objects; loads unpickle straight from the cached bytes.  On a traced array
the physical path runs unchanged (traces stay byte-identical), and the cache
is refused entirely on a fault-injecting array, where the disk image is
authoritative (corruption must be observable).  The model-cost ledger is
byte-identical either way; only host wall-clock changes.
"""

from __future__ import annotations

import pickle
from typing import Any, Sequence

from ..emio.disk import DiskError
from ..emio.diskarray import DiskArray
from ..emio.layout import (
    ConsecutiveRegion,
    RegionAllocator,
    blocks_to_object,
    bytes_to_blocks,
    check_context_bound,
    pickle_to_blocks,
)

__all__ = ["ContextStore"]


class ContextStore:
    """Preallocated context area for ``v`` virtual processors.

    Parameters
    ----------
    array, allocator:
        The disk substrate of one real processor.
    nslots:
        Number of contexts stored here (``v`` in the sequential simulation,
        ``v/p`` per real processor in the parallel one).
    mu:
        Declared maximum context size in records.
    B:
        Disk block size in records.
    cache:
        Enable the context-swap fast path (see module docstring).  Silently
        disabled when the array injects faults — there the on-disk image is
        authoritative and corruption must be observable.
    """

    def __init__(
        self,
        array: DiskArray,
        allocator: RegionAllocator,
        nslots: int,
        mu: int,
        B: int,
        name: str = "contexts",
        cache: bool = False,
    ):
        self.mu = mu
        self.B = B
        self.array = array
        self.blocks_per_context = -(-mu // B)
        self.region = ConsecutiveRegion(
            array, allocator, nslots, self.blocks_per_context, name=name
        )
        # Actual block count per slot.  A context's *area* is preallocated
        # at ceil(mu/B) blocks (the paper's space bound), but only the
        # currently used prefix is transferred — the metadata is one integer
        # per virtual processor, like the bucket pointer tables.
        self._used = [0] * nslots
        self.cache = bool(cache) and array.injector is None
        self._cached: list[bytes | None] = [None] * nslots
        # Cheap always-on tallies, sampled by the observability layer
        # (repro.obs) as the context-cache hit rate.
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def tracks_per_disk(self) -> int:
        return self.region.tracks_per_disk

    def save(self, slot: int, state: Any) -> None:
        """Pickle and write one context (fully parallel I/O)."""
        self.save_group([slot], [state])

    def load(self, slot: int) -> Any:
        """Read and unpickle one context."""
        return self.load_group([slot])[0]

    def invalidate_cache(self) -> None:
        """Drop all cached context bytes (next loads hit the disk image)."""
        self._cached = [None] * self.nslots

    def prime_cache(self, states: Sequence[Any]) -> None:
        """Re-seed the cache from checkpointed states (attach-time recovery).

        On the fast data plane, cached saves are charge-only: the bytes live
        in ``_cached`` and the disk image of this region holds nothing.  A
        fresh process that re-attaches the storage plane therefore cannot
        read contexts back from disk — the checkpoint's portable
        ``proc_states`` are the only copy, and they must be re-pickled into
        the cache before the first load.  Pure host-side bookkeeping: no
        counted I/O, and the recomputed block counts equal the attach
        reference's ``ctx_used`` (same pickle protocol as ``save_group``).
        """
        if not self.cache:
            return
        if len(states) != self.nslots:
            raise DiskError(
                f"priming {len(states)} contexts into {self.nslots} slots"
            )
        chunk = self.B * 8
        for slot, state in enumerate(states):
            data = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
            self._cached[slot] = data
            self._used[slot] = -(-max(len(data), 1) // chunk)

    def _slot_addrs(self, slots: Sequence[int], counts: Sequence[int]):
        """(disk, track) addresses of the used prefixes of ``slots``."""
        slot_addrs = self.region.slot_addrs
        addrs: list[tuple[int, int]] = []
        for slot, n in zip(slots, counts):
            addrs.extend(slot_addrs(slot, n))
        return addrs

    def save_group(self, slots: Sequence[int], states: Sequence[Any]) -> None:
        """Write a whole group of contexts with jointly packed parallel ops."""
        if not self.cache:
            ops: list = []
            for slot, state in zip(slots, states):
                blocks = pickle_to_blocks(
                    state, self.B, max_records=self.mu,
                    profiler=self.array.profiler,
                )
                if len(blocks) > self.blocks_per_context:
                    raise DiskError(  # pragma: no cover - pickle_to_blocks guards
                        f"context of slot {slot} exceeds its preallocated area"
                    )
                self._used[slot] = len(blocks)
                ops.extend(
                    (d, t, blk)
                    for (d, t), blk in zip(
                        self.region.slot_addrs(slot, len(blocks)), blocks
                    )
                )
            self.array.write_batched(ops)
            return

        chunk = self.B * 8  # bytes per block (Block.BYTES_PER_RECORD)
        counts: list[int] = []
        blobs: list[bytes] = []
        prof = self.array.profiler
        for slot, state in zip(slots, states):
            prof.push("serialize")
            try:
                data = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
            finally:
                prof.pop()
            check_context_bound(data, self.mu)
            blobs.append(data)
            counts.append(-(-max(len(data), 1) // chunk))
        if self.array.fast_data_plane:
            # A slot whose bytes did not change charges the identical merged
            # write the reference path performs.
            self.array.charge_batched("W", self._slot_addrs(slots, counts))
            for slot, data, n in zip(slots, blobs, counts):
                self._used[slot] = n
                self._cached[slot] = data
        else:
            # Physical path (e.g. a traced array): materialize and write the
            # blocks exactly as the reference path would.
            ops = []
            for slot, data, n in zip(slots, blobs, counts):
                self._used[slot] = n
                self._cached[slot] = data
                ops.extend(
                    (d, t, blk)
                    for (d, t), blk in zip(
                        self.region.slot_addrs(slot, n), bytes_to_blocks(data, self.B)
                    )
                )
            self.array.write_batched(ops)

    def load_group(self, slots: Sequence[int]) -> list[Any]:
        """Read a whole group of contexts with jointly packed parallel ops."""
        if self.cache and all(self._cached[s] is not None for s in slots):
            self.cache_hits += len(slots)
            counts = [self._used[s] for s in slots]
            addrs = self._slot_addrs(slots, counts)
            if self.array.fast_data_plane:
                self.array.charge_batched("R", addrs)
            else:
                self.array.read_batched(addrs)  # physical read; data == cache
            prof = self.array.profiler
            prof.push("serialize")
            try:
                return [pickle.loads(self._cached[s]) for s in slots]
            finally:
                prof.pop()
        self.cache_misses += len(slots)
        counts = [self._used[s] for s in slots]
        flat = self.array.read_batched(self._slot_addrs(slots, counts))
        out, pos = [], 0
        for c in counts:
            out.append(
                blocks_to_object(flat[pos : pos + c], profiler=self.array.profiler)
            )
            pos += c
        return out

    # -- checkpoint support (see repro.core.checkpoint) ------------------------

    @property
    def nslots(self) -> int:
        return len(self._used)

    def export_all(self, group_size: int | None = None) -> list[Any]:
        """Read every context, ``group_size`` at a time (memory-bounded).

        The engines pass their group size ``k`` so a checkpoint never holds
        more than one group of contexts in memory at once — the same
        discipline as the simulation itself.
        """
        g = group_size or self.nslots
        out: list[Any] = []
        for base in range(0, self.nslots, g):
            out.extend(self.load_group(range(base, min(base + g, self.nslots))))
        return out

    def import_all(self, states: Sequence[Any], group_size: int | None = None) -> None:
        """Rewrite every context from ``states`` (restore path).

        The cache is invalidated first: a restore replaces every slot, so
        stale bytes must never survive it (save_group then re-caches the
        restored pickles, keeping the fast path hot across a recovery).
        """
        if len(states) != self.nslots:
            raise DiskError(
                f"restore of {len(states)} contexts into {self.nslots} slots"
            )
        self.invalidate_cache()
        g = group_size or self.nslots
        for base in range(0, self.nslots, g):
            hi = min(base + g, self.nslots)
            self.save_group(range(base, hi), states[base:hi])
