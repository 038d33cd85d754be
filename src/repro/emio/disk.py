"""A single simulated disk drive: a sequence of track-addressable blocks.

Section 3 of the paper: "Each drive consists of a sequence of *tracks*
(consecutively numbered starting with 0) which can be accessed by direct
random access using their unique track number.  A track stores exactly one
block of ``B`` records."

The disk enforces the blocking discipline — the only I/O primitive is reading
or writing one whole track — and records access statistics so that higher
layers (and the Lemma 2 balance benchmarks) can audit behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .storage import BlockStorage

__all__ = ["Block", "Disk", "DiskError", "SHADOW_TRACK_BASE"]

#: First track number of the *shadow namespace*: when a disk dies, the array
#: remaps its writes onto surviving disks at tracks >= this base so remapped
#: blocks can never collide with allocator-managed ranges.  Shadow tracks are
#: excluded from the high-water statistic (they are not real capacity).
SHADOW_TRACK_BASE = 1 << 40


class DiskError(RuntimeError):
    """Raised on invalid disk operations (capacity overflow, bad track)."""


@dataclass
class Block:
    """One disk block: up to ``B`` records plus routing metadata.

    Attributes
    ----------
    records:
        The payload.  A list of at most ``B`` records (arbitrary objects;
        each list element counts as exactly one record), or a ``bytes``
        object of at most ``B * Block.BYTES_PER_RECORD`` bytes for opaque
        (pickled-context) payloads.
    dest:
        Destination virtual processor for message blocks; ``-1`` otherwise.
    src:
        Source virtual processor for message blocks; ``-1`` otherwise.
    msg:
        Message id (unique per (src, superstep)); lets the fetching phase
        reassemble multi-block messages.
    seq:
        Sequence number of this block within its message stream (used by the
        reorganization step to reassemble per-destination order).
    dummy:
        True for padding blocks introduced to reach the worst-case traffic
        the analysis assumes ("dummy blocks", Lemma 3).
    segs:
        A message block's segment table: one ``(dest, src, msg, seq, n)``
        per piece of a message it carries — ``n`` records of message ``msg``
        of ``src`` for ``dest``, starting at record offset ``seq`` — with
        ``records`` then the tuple of those pieces' payloads, one a segment,
        in table order (:func:`repro.bsp.message.pack_blocks`).  ``dest`` is
        then the destination *group*'s first virtual processor.  The table
        rides beside the records and is not counted against ``B``.
    """

    BYTES_PER_RECORD = 8

    records: Any
    dest: int = -1
    src: int = -1
    msg: int = 0
    seq: int = 0
    dummy: bool = False
    segs: tuple = ()

    def nrecords(self) -> int:
        """Number of records this block carries.

        Byte-flavoured payloads (``bytes``/``bytearray``/``memoryview``)
        count in 8-byte records; a message block's tuple of segment payloads
        counts the records of its parts; every other payload — lists and
        ndarray slices alike — counts one record per element (``len``).
        """
        records = self.records
        if isinstance(records, tuple):
            return sum(map(len, records))
        if isinstance(records, (bytes, bytearray)):
            return -(-len(records) // self.BYTES_PER_RECORD)
        if isinstance(records, memoryview):
            return -(-records.nbytes // self.BYTES_PER_RECORD)
        return len(records)

    def validate(self, B: int) -> None:
        if getattr(self, "_vB", None) == B:
            return
        n = self.nrecords()
        if n > B:
            raise DiskError(f"block holds {n} records, exceeds block size B={B}")
        # Blocks are immutable once written; memoize the passed bound so a
        # block travelling through several regions is not re-measured on
        # every write (hot in write_batched).
        self._vB = B


class Disk:
    """A simulated disk drive with ``ntracks`` tracks of one block each.

    The drive grows on demand (tracks are allocated lazily) but an explicit
    capacity can be given to test space bounds.  All accesses are counted.
    """

    def __init__(
        self,
        disk_id: int,
        B: int,
        ntracks: int | None = None,
        storage: "BlockStorage | None" = None,
    ):
        self.disk_id = disk_id
        self.B = B
        self.capacity = ntracks  # None = unbounded
        if storage is None:
            from .storage import MemoryStorage

            storage = MemoryStorage()
        self.storage = storage
        self.reads = 0
        self.writes = 0
        self._high_water = -1  # highest track ever written
        self._occupied = 0  # tracks currently holding a block (O(1) used_tracks)

    @property
    def _tracks(self):
        """Dict-flavoured window over the storage plane (tests plant blocks here)."""
        return self.storage.tracks_view()

    # -- primitives ------------------------------------------------------------

    def _check_track(self, track: int) -> None:
        if track < 0:
            raise DiskError(f"disk {self.disk_id}: negative track number {track}")
        if self.capacity is not None and track >= self.capacity:
            raise DiskError(
                f"disk {self.disk_id}: track {track} beyond capacity {self.capacity}"
            )

    def read_track(self, track: int) -> Block | None:
        """Read the block stored at ``track`` (one disk access)."""
        self._check_track(track)
        self.reads += 1
        return self.storage.get(track)

    def write_track(self, track: int, block: Block | None) -> None:
        """Write ``block`` to ``track`` (one disk access)."""
        self._check_track(track)
        if block is not None:
            block.validate(self.B)
        self.writes += 1
        self._store(track, block)
        self._raise_high_water(track)

    def _raise_high_water(self, track: int) -> None:
        """The high-water rule, written once: the mark is the highest
        *ordinary* track ever written — a shadow track is a remapped write,
        not capacity, and neither raises the mark nor hides a lower one."""
        if self._high_water < track < SHADOW_TRACK_BASE:
            self._high_water = track

    def _store(self, track: int, block: Block | None) -> None:
        """Place ``block`` at ``track``, maintaining the occupancy counter."""
        prev_present = self.storage.put(track, block)
        if prev_present != (block is not None):
            self._occupied += 1 if not prev_present else -1

    def _load_many(self, tracks: list[int]) -> list[Block | None]:
        """Read several tracks with one storage call (file-backed planes
        coalesce near-adjacent slot extents into single preads).  Access
        counters are the caller's business (``DiskArray`` charges per
        address)."""
        return self.storage.get_many(tracks)

    def _store_many(self, items: list[tuple[int, Block | None]]) -> None:
        """Place several blocks with one storage call (file-backed planes
        merge adjacent slot runs into single pwrites); the occupancy
        bookkeeping is that of in-order :meth:`_store` calls."""
        for (_track, block), prev_present in zip(items, self.storage.put_many(items)):
            if prev_present != (block is not None):
                self._occupied += 1 if not prev_present else -1

    def discard_track(self, track: int) -> None:
        """Drop a track's contents (deallocation; no access is charged)."""
        if self.storage.discard(track):
            self._occupied -= 1

    def discard_range(self, lo: int, hi: int) -> None:
        """:meth:`discard_track` over tracks ``lo .. hi-1`` in one storage call."""
        self._occupied -= self.storage.discard_range(lo, hi)

    # -- inspection (free of charge; simulator-internal) -----------------------

    def peek(self, track: int) -> Block | None:
        """Inspect a track without charging an access (for tests/assertions)."""
        return self.storage.peek(track)

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def used_tracks(self) -> int:
        """Number of tracks currently holding a block (O(1) counter)."""
        return self._occupied

    @property
    def high_water(self) -> int:
        """Highest track index ever written (-1 if never written)."""
        return self._high_water

    def occupied(self) -> Iterable[int]:
        """Track numbers currently holding blocks."""
        return self.storage.tracks()

    def reset_stats(self) -> None:
        self.reads = 0
        self.writes = 0
        self._high_water = -1
        self.storage.read_bytes = 0
        self.storage.write_bytes = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Disk(id={self.disk_id}, B={self.B}, used={self.used_tracks}, "
            f"reads={self.reads}, writes={self.writes})"
        )
