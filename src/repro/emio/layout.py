"""Disk data layouts: blocked format and *standard consecutive format*.

Definitions 1 and 2 of the paper:

* A collection of records is in **blocked format** if its records are grouped
  into blocks of size ``B``.
* A collection of records stored on ``D`` disks is in **standard consecutive
  format** if (i) it is blocked, (ii) the number of blocks per disk differs by
  at most one, and (iii) on each disk the blocks occupy consecutive tracks.

The simulation keeps the virtual-processor contexts and each group's incoming
messages in standard consecutive format so they can be read and written with
fully parallel I/O operations.  The context striping follows Section 5.1:
"we store the *i*-th block of ``V_j`` on disk ``(i + j*(mu/B)) mod D`` using
track ``floor((i + j*(mu/B)) / D)``".

Two region flavours are provided: :class:`ConsecutiveRegion` holds ``nslots``
*fixed-size* items (contexts; the paper's preallocated areas), while
:class:`StripedRegion` holds items of *per-slot sizes* (each superstep's
incoming-message areas, whose sizes are known exactly once the writing phase
of the previous superstep completes).  Both use the same linear striping and
therefore both satisfy Definition 2 and admit fully parallel access to any
run of consecutive slots.
"""

from __future__ import annotations

import pickle
from typing import Any, Iterable, Sequence

import numpy as np

from ..obs.profile import NULL_PROFILER
from .disk import Block, DiskError
from .diskarray import DiskArray

__all__ = [
    "RegionAllocator",
    "SlotReads",
    "StripedRegion",
    "ConsecutiveRegion",
    "blocks_needed",
    "pack_records",
    "unpack_records",
    "bytes_to_blocks",
    "check_context_bound",
    "pickle_to_blocks",
    "blocks_to_object",
]


def blocks_needed(nrecords: int, B: int) -> int:
    """``ceil(nrecords / B)``: blocks required for ``nrecords`` records."""
    return -(-nrecords // B)


def pack_records(records: Sequence[Any], B: int, dest: int = -1) -> list[Block]:
    """Cut a record sequence into blocks of size ``B`` (blocked format).

    Every block inherits the destination address ``dest`` and carries a
    sequence number so the original order can be reassembled.
    """
    # ndarray payloads block into zero-copy views: each Block holds a slice
    # of the same buffer, so packing n records costs O(nblocks) regardless
    # of n.  Slicing a list already yields a fresh list; only other
    # sequences need one materializing copy up front (avoids the old
    # per-block double copy via list(records[i:i+B])).
    if not isinstance(records, (list, np.ndarray)):
        records = list(records)
    return [
        Block(records=records[i : i + B], dest=dest, seq=seq)
        for seq, i in enumerate(range(0, len(records), B))
    ]


def unpack_records(blocks: Iterable[Block | None]) -> list[Any] | np.ndarray:
    """Concatenate block payloads back into a record run (in ``seq`` order).

    All-ndarray payloads reassemble into one contiguous array (a single
    concatenate, or a zero-copy passthrough for a lone block); any other
    mix falls back to a Python list.
    """
    present = [b for b in blocks if b is not None and not b.dummy]
    present.sort(key=lambda b: b.seq)
    if present and all(isinstance(b.records, np.ndarray) for b in present):
        if len(present) == 1:
            return present[0].records
        return np.concatenate([b.records for b in present])
    records: list[Any] = []
    for b in present:
        records.extend(b.records)
    return records


def check_context_bound(data: bytes, max_records: int | None) -> int:
    """Records needed for a serialized context; raise if over ``max_records``.

    This is how the simulator enforces the declared context bound ``mu``.
    """
    nrec = -(-len(data) // Block.BYTES_PER_RECORD)
    if max_records is not None and nrec > max_records:
        raise DiskError(
            f"serialized context needs {nrec} records, exceeds declared bound "
            f"{max_records}; raise the algorithm's context_size()"
        )
    return nrec


def bytes_to_blocks(data: bytes | memoryview, B: int) -> list[Block]:
    """Split serialized bytes into blocks of ``B`` records (8 bytes each).

    Slicing preserves the input flavour: ``bytes`` input yields ``bytes``
    payloads (the pickled-context path, unchanged), while a ``memoryview``
    input yields zero-copy ``memoryview`` slices over the same buffer —
    the opt-in path for callers that hold a large canonical byte image.
    """
    chunk = B * Block.BYTES_PER_RECORD
    return [
        Block(records=data[i : i + chunk], seq=seq)
        for seq, i in enumerate(range(0, max(len(data), 1), chunk))
    ]


def pickle_to_blocks(
    obj: Any, B: int, max_records: int | None = None, *, profiler=NULL_PROFILER
) -> list[Block]:
    """Serialize ``obj`` and split the bytes into blocks of ``B`` records.

    One record carries :attr:`Block.BYTES_PER_RECORD` bytes of the pickle.
    If ``max_records`` is given and the serialized size exceeds it, a
    :class:`DiskError` is raised.  ``profiler`` bills the pickling to the
    ``serialize`` category (wall-clock attribution only; never counted).
    """
    profiler.push("serialize")
    try:
        data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        profiler.pop()
    check_context_bound(data, max_records)
    return bytes_to_blocks(data, B)


def blocks_to_object(blocks: Iterable[Block | None], *, profiler=NULL_PROFILER) -> Any:
    """Inverse of :func:`pickle_to_blocks`."""
    present = sorted((b for b in blocks if b is not None), key=lambda b: b.seq)
    data = b"".join(bytes(b.records) for b in present)
    profiler.push("serialize")
    try:
        return pickle.loads(data)
    finally:
        profiler.pop()


class RegionAllocator:
    """Hands out disjoint track ranges (uniform across all disks) of a disk array.

    Released ranges are kept on a free list and reused, so alternating
    per-superstep scratch areas (message buckets, reorganization copies,
    incoming regions) occupy bounded disk space over a long run — matching
    the paper's ``O(v*mu/DB)`` blocks-per-disk space bound.
    """

    def __init__(self, array: DiskArray):
        self.array = array
        self.next_track = 0
        self._free: list[tuple[int, int]] = []  # (size, base), kept sorted

    def allocate(self, tracks_per_disk: int) -> int:
        """Reserve ``tracks_per_disk`` consecutive tracks on every disk.

        Returns the base track of the reserved range.
        """
        if tracks_per_disk < 0:
            raise DiskError(f"cannot allocate {tracks_per_disk} tracks")
        # Best-fit from the free list.
        for i, (size, base) in enumerate(self._free):
            if size >= tracks_per_disk:
                del self._free[i]
                if size > tracks_per_disk:
                    self._insert_free(size - tracks_per_disk, base + tracks_per_disk)
                return base
        base = self.next_track
        self.next_track += tracks_per_disk
        return base

    def release(self, base: int, tracks_per_disk: int) -> None:
        """Return a previously allocated range to the free list.

        Freed tracks are also cleared on every disk (metadata operation; no
        I/O is charged — deallocation touches no data).
        """
        if tracks_per_disk <= 0:
            return
        for disk in self.array.disks:
            disk.discard_range(base, base + tracks_per_disk)
        if base + tracks_per_disk == self.next_track:
            self.next_track = base
            self._coalesce_tail()
        else:
            self._insert_free(tracks_per_disk, base)

    def _insert_free(self, size: int, base: int) -> None:
        import bisect

        bisect.insort(self._free, (size, base))

    def _coalesce_tail(self) -> None:
        # Fold free ranges that now touch the tail back into next_track.
        changed = True
        while changed:
            changed = False
            for i, (size, base) in enumerate(self._free):
                if base + size == self.next_track:
                    self.next_track = base
                    del self._free[i]
                    changed = True
                    break

    @property
    def high_water(self) -> int:
        """Tracks per disk ever reserved simultaneously (space bound check)."""
        return self.next_track


class SlotReads:
    """How an incoming-message store is read: by slot.

    :class:`StripedRegion` and a retained bucket store
    (:meth:`repro.emio.linked.LinkedBuckets.retain`) both answer these calls
    from their ``array``, ``slot_sizes`` and ``slot_addrs(slot)``, so the
    engines fetch from either without asking which one they hold.
    """

    array: DiskArray
    slot_sizes: list[int]

    @property
    def nslots(self) -> int:
        return len(self.slot_sizes)

    def slot_addrs(self, slot: int) -> list[tuple[int, int]]:
        """``(disk, track)`` addresses of slot ``slot``'s blocks, in order."""
        raise NotImplementedError

    def read_slot(self, slot: int) -> list[Block | None]:
        """Read all blocks of one slot."""
        return self.read_slots([slot])[0]

    def read_slots(self, slots: Sequence[int]) -> list[list[Block | None]]:
        """Read several slots with jointly packed parallel operations."""
        addrs: list[tuple[int, int]] = []
        for s in slots:
            addrs.extend(self.slot_addrs(s))
        flat = self.array.read_batched(addrs)
        out, pos = [], 0
        for s in slots:
            out.append(flat[pos : pos + self.slot_sizes[s]])
            pos += self.slot_sizes[s]
        return out


class StripedRegion(SlotReads):
    """A striped on-disk region holding ``len(slot_sizes)`` variable-size items.

    Item ``j``'s blocks occupy linear positions ``offset[j] .. offset[j+1])``
    of the region; linear position ``q`` lives on disk ``q mod D`` at track
    ``base + q div D``.  The layout satisfies Definition 2 (standard
    consecutive format) and any run of consecutive slots — in particular one
    simulation group's ``k`` incoming-message areas — maps to consecutive
    linear positions and is therefore transferable at full disk parallelism.
    """

    def __init__(
        self,
        array: DiskArray,
        allocator: RegionAllocator,
        slot_sizes: Sequence[int],
        name: str = "",
    ):
        self._stripe(array, allocator, slot_sizes, name)
        self.base = allocator.allocate(self.tracks_per_disk)

    def _stripe(
        self,
        array: DiskArray,
        allocator: RegionAllocator,
        slot_sizes: Sequence[int],
        name: str,
    ) -> None:
        """Everything about the region but where its track range starts."""
        self.array = array
        self.allocator = allocator
        self.name = name
        self.slot_sizes = list(slot_sizes)
        self.offsets = [0]
        for s in self.slot_sizes:
            if s < 0:
                raise DiskError(f"negative slot size in region {name!r}")
            self.offsets.append(self.offsets[-1] + s)
        self.total_blocks = self.offsets[-1]
        self.tracks_per_disk = (
            -(-self.total_blocks // array.D) if self.total_blocks else 0
        )
        self._freed = False

    @classmethod
    def adopt(
        cls,
        array: DiskArray,
        allocator: RegionAllocator,
        slot_sizes: Sequence[int],
        base: int,
        name: str = "",
    ) -> "StripedRegion":
        """Rebuild a region over an *already allocated* track range.

        Used when re-attaching a storage-plane checkpoint: the blocks are
        still on disk at ``base``, and the allocator state is restored
        separately, so no fresh allocation must happen.
        """
        region = cls.__new__(cls)
        region._stripe(array, allocator, slot_sizes, name)
        region.base = base
        return region

    def reference(self) -> tuple:
        """What :meth:`adopt` needs to rebuild this region over its tracks."""
        return ("region", list(self.slot_sizes), self.base, self.name)

    def _linear_addr(self, q: int) -> tuple[int, int]:
        return q % self.array.D, self.base + q // self.array.D

    def addr(self, slot: int, i: int) -> tuple[int, int]:
        """(disk, track) address of block ``i`` of slot ``slot``."""
        if self._freed:
            raise DiskError(f"region {self.name!r} used after free")
        if not (0 <= slot < self.nslots):
            raise DiskError(f"slot {slot} outside region {self.name!r}")
        if not (0 <= i < self.slot_sizes[slot]):
            raise DiskError(
                f"block index {i} outside slot {slot} of size "
                f"{self.slot_sizes[slot]} in region {self.name!r}"
            )
        return self._linear_addr(self.offsets[slot] + i)

    def slot_addrs(self, slot: int, count: int | None = None) -> list[tuple[int, int]]:
        """Addresses of the first ``count`` blocks of ``slot`` (default: all).

        What :meth:`addr` gives block by block, with the slot and the
        freed state checked once for the whole run.
        """
        if self._freed:
            raise DiskError(f"region {self.name!r} used after free")
        if not (0 <= slot < self.nslots):
            raise DiskError(f"slot {slot} outside region {self.name!r}")
        size = self.slot_sizes[slot]
        if count is None:
            count = size
        elif not (0 <= count <= size):
            raise DiskError(
                f"{count} blocks outside slot {slot} of size {size} "
                f"in region {self.name!r}"
            )
        D = self.array.D
        base = self.base
        q0 = self.offsets[slot]
        return [(q % D, base + q // D) for q in range(q0, q0 + count)]

    # -- I/O (reads: :class:`SlotReads`; any run of slots is fully parallel) ----

    def write_slot(self, slot: int, blocks: Sequence[Block | None]) -> None:
        """Write all blocks of one slot (fully parallel)."""
        self.write_slots([slot], [blocks])

    def write_slots(
        self, slots: Sequence[int], blocks_per: Sequence[Sequence[Block | None]]
    ) -> None:
        """Write several slots with jointly packed parallel operations."""
        ops: list[tuple[int, int, Block | None]] = []
        for s, blocks in zip(slots, blocks_per):
            if len(blocks) > self.slot_sizes[s]:
                raise DiskError(
                    f"slot {s} of region {self.name!r}: {len(blocks)} blocks "
                    f"exceed slot size {self.slot_sizes[s]}"
                )
            padded = list(blocks) + [None] * (self.slot_sizes[s] - len(blocks))
            ops.extend((d, t, blk) for (d, t), blk in zip(self.slot_addrs(s), padded))
        self.array.write_batched(ops)

    def free(self) -> None:
        """Release this region's track range back to the allocator."""
        if not self._freed:
            self.allocator.release(self.base, self.tracks_per_disk)
            self._freed = True

    # -- invariant check (used by property tests) ----------------------------------

    def check_standard_consecutive(self) -> None:
        """Assert Definition 2 for this region's address map."""
        per_disk: dict[int, list[int]] = {d: [] for d in range(self.array.D)}
        for q in range(self.total_blocks):
            d, t = self._linear_addr(q)
            per_disk[d].append(t)
        counts = [len(ts) for ts in per_disk.values()]
        if counts and max(counts) - min(counts) > 1:
            raise DiskError(
                f"region {self.name!r}: per-disk block counts {counts} differ by >1"
            )
        for d, ts in per_disk.items():
            for a, b in zip(ts, ts[1:]):
                if b != a + 1:
                    raise DiskError(
                        f"region {self.name!r}: non-consecutive tracks on disk {d}"
                    )
            if ts and ts[0] != self.base:
                raise DiskError(
                    f"region {self.name!r}: disk {d} does not start at base track"
                )


class ConsecutiveRegion(StripedRegion):
    """A striped region of ``nslots`` *fixed-size* items (the paper's
    preallocated context and message areas).

    Block ``i`` of item ``j`` lives at linear position ``j*blocks_per_item + i``
    — on disk ``(i + j*blocks_per_item) mod D``, matching the context striping
    formula of Section 5.1 verbatim.
    """

    def __init__(
        self,
        array: DiskArray,
        allocator: RegionAllocator,
        nslots: int,
        blocks_per_item: int,
        name: str = "",
    ):
        self.blocks_per_item = blocks_per_item
        super().__init__(array, allocator, [blocks_per_item] * nslots, name=name)
