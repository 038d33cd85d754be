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

**Context-swap fast path** (``cache=True``): the store *holds* every slot's
state object host-side — the memory image a virtual processor's context
already is — and hands that same object back at the next load.  A save still
pickles each state once, because the pickle's length is what the paper's
accounting is defined on: the slot's block count (``_used``), the ``mu``
refusal (:func:`~repro.emio.layout.check_context_bound`) and the parallel I/O
a swap is charged.  On the disk array's fast data plane nobody reads the
bytes, so the stream is metered as the pickler emits it and never assembled
(:class:`_Meter`), and the swap charges the *identical* parallel I/O the
reference path would — via
:meth:`~repro.emio.diskarray.DiskArray.charge_batched`, which replays the
exact greedy round packing arithmetic — without materializing a single
``Block``; a load charges the same way and unpickles nothing.  Every save
re-measures, so a kernel that grows its state in place is re-counted (and
refused past ``mu``) at the next save.

*Aliasing contract*: between a load and the next save of a slot, the kernel
owns the held object and may mutate it in place; nobody else reads it.  This
is the aliasing the in-memory reference runner (:mod:`repro.bsp.runner`,
invariant I3 of DESIGN §5) has always had, so every algorithm is already
tested under it.  A checkpoint freezes the states into a blob at the barrier
and every recovery thaws fresh objects from it (:meth:`prime_cache`,
:meth:`import_all`), so no held object ever outlives a rollback.

**The batch in memory** (:meth:`ContextStore.end_round`): at most one
batch's states are in memory between rounds — the one a barrier holds —
with the slots whose disk image is not their state marked *dirty*.  A
round's batch leaves memory at its end, its dirty slots written and its
clean ones dropped at no I/O, unless it is held across the barrier; its
next :meth:`load_group` then hands the same objects back at no I/O.  A
checkpoint records the held batch and its dirty slots (:meth:`held`), and
every recovery holds it again from the checkpoint's states.

On a traced array the physical path runs unchanged — the blocks written are
cut from the fresh pickle and the load still reads them, so traces stay
byte-identical — and the cache is refused entirely on a fault-injecting
array, where the disk image is authoritative (corruption must be
observable).  The model-cost ledger is byte-identical either way; only host
wall-clock and heap change.
"""

from __future__ import annotations

import pickle
from typing import Any, Sequence

from ..emio.disk import Block, DiskError
from ..emio.diskarray import DiskArray
from ..emio.layout import (
    ConsecutiveRegion,
    RegionAllocator,
    blocks_to_object,
    bytes_to_blocks,
    check_context_bound,
)

__all__ = ["ContextStore"]


class _Meter:
    """A write-only file that is as long as what was written to it, and keeps
    nothing else.  ``pickle.Pickler(meter, protocol).dump(state)`` emits the
    very stream ``pickle.dumps(state, protocol)`` assembles — the same
    opcodes in the same frames; only where a frame is flushed to differs — and
    hands a large buffer (an ndarray's data) to :meth:`write` as it stands,
    so measuring a context copies none of it."""

    def __init__(self) -> None:
        self.nbytes = 0

    def write(self, data) -> None:
        self.nbytes += memoryview(data).nbytes

    def __len__(self) -> int:
        return self.nbytes


class ContextStore:
    """Preallocated context area for ``v`` virtual processors.

    Parameters
    ----------
    array, allocator:
        The disk substrate of one real processor.
    nslots:
        Number of contexts stored here (``v/p``, one real processor's).
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
        # Held state objects, boxed so that a state which *is* ``None`` still
        # reads as present; ``None`` marks a slot the cache does not hold.
        self._cached: list[tuple[Any] | None] = [None] * nslots
        # The batch in memory, slot -> state (empty when none is), and those
        # of its slots whose disk image is not their state.
        self._resident: dict[int, Any] = {}
        self._dirty: set[int] = set()
        # Cheap always-on tallies, sampled by the observability layer
        # (repro.obs) as the context-cache hit rate.
        self.cache_hits = 0
        self.cache_misses = 0
        # The largest context measured here, in records (mu_used).
        self.max_records = 0

    @property
    def tracks_per_disk(self) -> int:
        return self.region.tracks_per_disk

    def invalidate_cache(self) -> None:
        """Drop every held context, the batch in memory's too (next loads hit
        the disk image)."""
        self._cached = [None] * self.nslots
        self._resident, self._dirty = {}, set()

    def prime_cache(self, states: Sequence[Any]) -> None:
        """Re-seed the cache from checkpointed states (attach-time recovery).

        On the fast data plane, cached saves are charge-only: the states live
        in ``_cached`` and the disk image of this region holds nothing.  A
        fresh process that re-attaches the storage plane therefore cannot
        read contexts back from disk — the checkpoint's portable
        ``proc_states`` are the only copy.  ``states`` is the freshly thawed
        list and is held as it is, no copy and no pickle; the slots' block
        counts are the attach reference's ``ctx_used``, which the caller
        installs.  Pure host-side bookkeeping: no counted I/O.
        """
        if not self.cache:
            return
        if len(states) != self.nslots:
            raise DiskError(
                f"priming {len(states)} contexts into {self.nslots} slots"
            )
        self._cached = [(state,) for state in states]

    def _slot_addrs(self, slots: Sequence[int], counts: Sequence[int]):
        """(disk, track) addresses of the used prefixes of ``slots``."""
        slot_addrs = self.region.slot_addrs
        addrs: list[tuple[int, int]] = []
        for slot, n in zip(slots, counts):
            addrs.extend(slot_addrs(slot, n))
        return addrs

    def save_group(
        self, slots: Sequence[int], states: Sequence[Any], write: bool = True
    ) -> list[int]:
        """Write a whole group of contexts with jointly packed parallel ops
        — or, with ``write`` False, only measure them — and return the
        block count of each slot; either way ``mu`` is enforced."""
        # One pickle per state: its length is what the block count, the mu
        # refusal and the charge are defined on.  The blocks are cut from the
        # bytes, except where nothing reads them — a state only measured, or
        # a cached one whose write the fast data plane charges without
        # storing it: there the stream is metered and never assembled.
        if not slots:
            return []
        metered = not write or (self.cache and self.array.fast_data_plane)
        chunk = self.B * Block.BYTES_PER_RECORD
        counts: list[int] = []
        ops: list = []
        prof = self.array.profiler
        for slot, state in zip(slots, states):
            prof.push("serialize")
            try:
                if metered:
                    data = _Meter()
                    pickle.Pickler(data, protocol=pickle.HIGHEST_PROTOCOL).dump(state)
                else:
                    data = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
            finally:
                prof.pop()
            self.max_records = max(self.max_records, check_context_bound(data, self.mu))
            n = -(-max(len(data), 1) // chunk)
            counts.append(n)
            self._used[slot] = n
            if not write:
                continue
            if self.cache:
                self._cached[slot] = (state,)
            addrs = self.region.slot_addrs(slot, n)
            if metered:
                ops += addrs
            else:
                ops += [(d, t, blk) for (d, t), blk in zip(addrs, bytes_to_blocks(data, self.B))]
        if write and metered:
            self.array.charge_batched("W", ops)
        elif write:
            self.array.write_batched(ops)
        return counts

    def held(self) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """The batch in memory and its dirty slots, or None."""
        if not self._resident:
            return None
        return tuple(self._resident), tuple(sorted(self._dirty))

    def end_round(
        self, slots: Sequence[int], states: Sequence[Any] | None, wrote: Sequence[bool],
        hold: bool,
    ) -> list[int]:
        """Step 1(e) for batch ``slots``: ``states`` are its states if fetched
        (None: then only a batch already in memory is), ``wrote`` marks the
        ones rewritten, which become dirty.  With ``hold`` the batch stays in
        memory, its rewritten states measured; otherwise its dirty slots are
        written and its clean ones dropped at no I/O.  Returns the block
        count written per slot, 0 for one not written."""
        slots = list(slots)
        resident = bool(slots) and slots[0] in self._resident
        if states is None:
            if not resident:
                return [0] * len(slots)
            states = [self._resident[s] for s in slots]
        if hold and self._resident and not resident:
            raise DiskError("a second batch cannot be held beside the one in memory")
        dirty = [w or (resident and s in self._dirty) for s, w in zip(slots, wrote)]
        pick = wrote if hold else dirty
        counts = iter(self.save_group(
            [s for s, x in zip(slots, pick) if x], [st for st, x in zip(states, pick) if x],
            write=not hold,
        ))
        if hold:
            self._resident = dict(zip(slots, states))
            self._dirty = {s for s, d in zip(slots, dirty) if d}
            return [0] * len(slots)
        if resident:
            self._resident, self._dirty = {}, set()
        return [next(counts) if d else 0 for d in dirty]

    def load_group(self, slots: Sequence[int]) -> list[Any]:
        """Read a whole group of contexts with jointly packed parallel ops —
        none for the batch in memory, which is handed back as it is held."""
        held = [s in self._resident for s in slots]
        if any(held):
            if not all(held):
                raise DiskError(f"slots {list(slots)} straddle the batch in memory")
            return [self._resident[s] for s in slots]
        if self.cache and all(self._cached[s] is not None for s in slots):
            self.cache_hits += len(slots)
            counts = [self._used[s] for s in slots]
            addrs = self._slot_addrs(slots, counts)
            if self.array.fast_data_plane:
                self.array.charge_batched("R", addrs)
            else:
                self.array.read_batched(addrs)  # physical read; data == cache
            return [self._cached[s][0] for s in slots]
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

    def export_all(self, groups: Sequence[Sequence[int]] | None = None) -> list[Any]:
        """Read every context, one of ``groups`` (consecutive slot runs
        covering every slot; all slots as one when None) at a time.

        The engines pass their groups so a checkpoint never holds more than
        one group of contexts in memory at once — the same discipline as
        the simulation itself.
        """
        out: list[Any] = []
        for slots in groups or [range(self.nslots)]:
            out.extend(self.load_group(slots))
        return out

    def import_all(
        self,
        states: Sequence[Any],
        groups: Sequence[Sequence[int]] | None = None,
        held: tuple[Sequence[int], Sequence[int]] | None = None,
    ) -> None:
        """Rewrite every context from ``states`` (restore path), but the
        dirty slots of the batch ``held`` (:meth:`held`), which is held in
        memory again as it was at the barrier the states come from;
        ``groups`` as :meth:`export_all` reads them.

        The cache is invalidated first: a restore replaces every slot, so a
        stale object must never survive it (save_group then holds the
        restored states as they are, keeping the fast path hot across a
        recovery).
        """
        if len(states) != self.nslots:
            raise DiskError(
                f"restore of {len(states)} contexts into {self.nslots} slots"
            )
        self.invalidate_cache()
        slots, dirty = held or ((), ())
        for group in groups or [range(self.nslots)]:
            clean = [s for s in group if s not in dirty]
            self.save_group(clean, [states[s] for s in clean])
        self.end_round(slots, [states[s] for s in slots], [s in dirty for s in slots], hold=True)
