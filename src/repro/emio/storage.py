"""Pluggable block-storage planes: where a drive's tracks actually live.

The simulation's *counted* I/O is defined entirely by the model (one access
per track touched, ``parallel_ops`` per round) and is charged in
:mod:`repro.emio.diskarray` before any data moves.  *Where* the block images
live is therefore a free choice — this module makes it a pluggable plane:

* :class:`MemoryStorage` — the historical behaviour: a dict of live
  ``Block`` objects.  Fast, identity-preserving, heap-bound.
* :class:`FileStorage` — one preallocated file per drive.  Tracks map to
  runs of :data:`SLOT_BYTES` *slots*; each stored image is a sealed frame
  written with ``os.pwrite`` / read with ``os.pread`` — several at once
  through ``put_many`` / ``get_many``, which merge adjacent runs into one
  syscall (the unit is small so that a batch lies dense on the platter).
  ndarray records travel as raw little-endian images behind a fixed binary
  header (a message block's segment table in it, its parts back to back),
  everything else as a pickle.  Slot runs freed by
  ``discard_track`` are reused (best-fit).  This is the true out-of-core
  plane: datasets are bounded by the filesystem, not the heap.
* :class:`MmapStorage` — the same on-disk format accessed through ``mmap``,
  for read-heavy phases where page-cache mapping beats syscalls.

The storage-plane invariant (DESIGN §8): outputs, the counted-cost ledger,
and the physical I/O trace are byte-identical across all three planes.
Storage only adds the ``read_bytes`` / ``write_bytes`` *observability*
counters, which live outside the model.

Durability: :meth:`FileStorage.sync` fsyncs the track file; the engines call
it at checkpoint barriers.  :meth:`FileStorage.snapshot` returns a metadata
snapshot (track map + allocation state) and *pins* the referenced slot runs:
overwrites of pinned tracks go to freshly allocated slots
(track-granularity copy-on-write), so a checkpoint that references the
snapshot stays readable even though the run continued.  Pins are held for a
*two-snapshot window*, so the previous checkpoint generation also stays
intact on disk — that is what lets ``scrub()`` fall back one barrier when
the newest generation fails verification.  :meth:`FileStorage.restore`
installs such a snapshot on a storage attached to the same files — that is
how ``resume_from_checkpoint`` re-attaches a crashed run's data without
rehydrating the array.

Crash consistency (DESIGN §9): every stored image is *framed* — a header
carrying a magic number, the write generation, and the payload length,
sealed with a CRC32 over header and payload.  A torn write (partial frame
on the platter) or a lost write (the slot still holds an older, internally
valid frame) is therefore *detected* at read time as a
:class:`~repro.emio.faults.ChecksumError` instead of deserializing garbage.
:func:`verify_extents` applies the same validation to a whole snapshot
without unpickling anything — the primitive ``scrub()`` is built on.

Host I/O is synchronous (DESIGN §12): every transfer is a blocking
``pread``/``pwrite`` on the engine's thread, issued through the one pair of
primitives ``_read_at``/``_write_at``.  What keeps the syscall count low is
the *schedule*, not concurrency — the batched transfers hand a batch to
``get_many``/``put_many``, one call per drive, which coalesce them.  A background flusher and a streak-guessing readahead were built,
measured three times and deleted; nothing outside this module knows how
host I/O is issued.
"""

from __future__ import annotations

import json
import mmap
import os
import pickle
import shutil
import struct
import tempfile
import zlib
from collections import deque
from dataclasses import dataclass, replace
from functools import lru_cache
from operator import itemgetter
from typing import Iterator, Protocol, Sequence

import numpy as np

from ..obs.profile import NULL_PROFILER
from .disk import Block, DiskError
from .faults import ChecksumError, CrashPlan, CrashyStorage

__all__ = [
    "STORAGE_KINDS",
    "STORAGE_MARKER",
    "FRAME_BYTES",
    "BlockStorage",
    "MemoryStorage",
    "FileStorage",
    "MmapStorage",
    "StorageSpec",
    "resolve_storage",
    "verify_extents",
]

#: Valid values of the ``storage=`` knob, in preference order.
STORAGE_KINDS = ("memory", "file", "mmap")

#: Marker file written into every claimed ``storage_dir``.  A pre-existing
#: non-empty directory *without* it is refused (it is somebody else's data);
#: one *with* it is reused, which is what crash-resume needs.
STORAGE_MARKER = ".em-storage.json"
#: On-disk format the marker records; bumped whenever track files written by
#: the old code would misread under the new (2: slot unit, vector image;
#: 3: the vector image's segment table).
STORAGE_VERSION = 3

# Per-slot frame: magic | write generation | payload length, then a CRC32
# sealing header + payload.  The generation tag distinguishes two
# internally-valid frames written to the same slot in different checkpoint
# generations — the "lost write" case a bare checksum cannot catch.
_FRAME = struct.Struct("<IIQ")  # magic, generation, payload length
_CRC = struct.Struct("<I")
FRAME_MAGIC = 0x454D5331  # "EMS1"
#: Bytes of framing overhead in front of every stored payload.
FRAME_BYTES = _FRAME.size + _CRC.size


def _seal_frame(head: bytes, bodies: Sequence, gen: int) -> bytes:
    """Frame the payload ``head + bodies`` (an image as :func:`_encode_block`
    returns it): sealed header, then the payload.

    The CRC32 runs over header and payload in place, body buffer by body
    buffer; the one ``join`` is the only copy a payload makes before the
    write buffer it leaves in.
    """
    length = len(head) + sum(len(body) for body in bodies)
    prefix = _FRAME.pack(FRAME_MAGIC, gen & 0xFFFFFFFF, length)
    crc = zlib.crc32(head, zlib.crc32(prefix))
    for body in bodies:
        crc = zlib.crc32(body, crc)
    return b"".join((prefix, _CRC.pack(crc), head, *bodies))


def _open_frame(
    raw: "bytes | memoryview", path: str, base: int, length: int, gen: int
) -> memoryview:
    """Validate one framed slot image against the map's expectations.

    Returns the payload as a view into ``raw`` (no copy), or raises
    :class:`~repro.emio.faults.ChecksumError` (a retriable
    :class:`~repro.emio.disk.DiskError`) if the frame is short, the magic
    or CRC32 is wrong, or the stored generation/length disagree with what
    the track map recorded at write time.
    """
    expect_gen = gen & 0xFFFFFFFF
    if len(raw) >= FRAME_BYTES + length:
        view = memoryview(raw)
        magic, stored_gen, stored_len = _FRAME.unpack_from(view)
        (stored_crc,) = _CRC.unpack_from(view, _FRAME.size)
        payload = view[FRAME_BYTES : FRAME_BYTES + length]
        crc = zlib.crc32(payload, zlib.crc32(view[: _FRAME.size]))
        if (
            magic == FRAME_MAGIC
            and stored_gen == expect_gen
            and stored_len == length
            and crc == stored_crc
        ):
            return payload
        detail = (
            f"stored (magic={magic:#x}, gen={stored_gen}, len={stored_len}, "
            f"crc={stored_crc:#x}), expected (magic={FRAME_MAGIC:#x}, "
            f"gen={expect_gen}, len={length}, crc={crc:#x})"
        )
    else:
        detail = f"short read ({len(raw)} of {FRAME_BYTES + length} bytes)"
    raise ChecksumError(
        f"storage file {path}: corrupt image at slot {base} ({detail})"
    )


# A vectorized (raw fixed-width) slot image: a fixed header — tag, record
# count, dest, src, msg, seq, dummy, descr length, segment count — then the
# segment table (five int64 a segment), the dtype's descr and the records'
# little-endian bytes, the segments' parts back to back.  Pickle streams of
# protocol >= 2 always start with 0x80, so the two image flavours are
# distinguished by their first byte alone.
_VEC_TAG = 0x56  # "V"
_VEC_HEAD = struct.Struct("<BIqqqqBHI")
_SEG = struct.Struct("<5q")


@lru_cache(maxsize=256)
def _descr_of(dtype: np.dtype) -> bytes:
    """A dtype's JSON ``descr``, space-padded so that the array bytes after
    it start 8-byte aligned within the frame: decode is a zero-copy
    ``frombuffer``, and aligned views keep numpy on its fast loops."""
    descr = json.dumps(
        dtype.descr if dtype.names else dtype.str, separators=(",", ":")
    ).encode("ascii")
    return descr + b" " * (-(FRAME_BYTES + _VEC_HEAD.size + len(descr)) % 8)


@lru_cache(maxsize=256)
def _dtype_of(descr: bytes) -> np.dtype:
    """Inverse of :func:`_descr_of` (JSON turned the field tuples into lists)."""
    parsed = json.loads(descr)
    if isinstance(parsed, str):
        return np.dtype(parsed)
    return np.dtype(
        [(f[0], f[1], tuple(f[2])) if len(f) == 3 else (f[0], f[1]) for f in parsed]
    )


def _vector_parts(block: Block) -> "list[np.ndarray] | None":
    """The block's records as 1-D ndarrays of one dtype, ready for the raw
    image — a plain ndarray payload, or a message block's non-empty parts —
    or ``None`` where the block must be pickled."""
    records = block.records
    if isinstance(records, np.ndarray):
        parts = [records] if records.ndim == 1 else []
    elif isinstance(records, tuple) and block.segs:
        parts = [part for part in records if len(part)]
    else:
        return None
    if not parts or not all(
        isinstance(part, np.ndarray) and part.ndim == 1 and part.dtype == parts[0].dtype
        for part in parts
    ):
        return None
    out = []
    for part in parts:
        arr = np.ascontiguousarray(part)
        if arr.dtype.byteorder == ">":  # canonical images are little-endian
            arr = arr.astype(arr.dtype.newbyteorder("<"))
        out.append(arr)
    return out


def _encode_block(block: Block) -> tuple[bytes, list]:
    """Serialize one block into a slot image, returned as ``(head, bodies)``.

    ndarray payloads become a raw image — the fixed header, the segment
    table and the cached descr, then each part's own buffer, uncopied — so
    the vectorized plane's storage path is one memcpy (in
    :func:`_seal_frame`), not a pickle of boxed objects.  Everything else
    (lists, pickled-context bytes, mixed parts) is a pickle image with no
    bodies; memoryview payloads are materialized first since pickle refuses
    them.
    """
    arrs = _vector_parts(block)
    if arrs is not None:
        descr = _descr_of(arrs[0].dtype)
        segs = block.segs
        head = _VEC_HEAD.pack(
            _VEC_TAG, sum(arr.shape[0] for arr in arrs), block.dest, block.src,
            block.msg, block.seq, block.dummy, len(descr), len(segs),
        )
        table = b"".join(_SEG.pack(*seg) for seg in segs)
        return head + table + descr, [arr.view(np.uint8) for arr in arrs]
    if isinstance(block.records, memoryview):
        block = replace(block, records=bytes(block.records))
    return pickle.dumps(block, protocol=pickle.HIGHEST_PROTOCOL), []


def _decode_block(payload: memoryview) -> Block:
    """Inverse of :func:`_encode_block` (dispatch on the first byte)."""
    if payload[0] != _VEC_TAG:
        return pickle.loads(payload)
    _tag, n, dest, src, msg, seq, dummy, dlen, nsegs = _VEC_HEAD.unpack_from(payload)
    pos = _VEC_HEAD.size + _SEG.size * nsegs
    segs = tuple(_SEG.iter_unpack(payload[_VEC_HEAD.size : pos]))
    arr = np.frombuffer(
        payload, dtype=_dtype_of(bytes(payload[pos : pos + dlen])),
        count=n, offset=pos + dlen,
    )
    if not segs:
        return Block(records=arr, dest=dest, src=src, msg=msg, seq=seq, dummy=bool(dummy))
    parts: list = []
    at = 0
    for seg in segs:  # a zero-length segment is an empty message: []
        parts.append(arr[at : at + seg[4]] if seg[4] else [])
        at += seg[4]
    return Block(
        records=tuple(parts), dest=dest, src=src, msg=msg, seq=seq,
        dummy=bool(dummy), segs=segs,
    )


def _fsync_dir(path: str) -> None:
    """fsync a directory so freshly created entries survive a crash."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform cannot open directories
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - filesystem rejects directory fsync
        pass
    finally:
        os.close(fd)


class BlockStorage(Protocol):
    """Where one drive's tracks live.  All methods are model-cost-free.

    ``put``/``discard`` return whether a block was present before, so the
    :class:`~repro.emio.disk.Disk` occupancy counter stays O(1) on every
    plane.  The batch forms are part of the protocol, not an extra: every
    plane answers ``get_many``/``put_many``/``discard_range`` exactly as
    the in-order per-track calls would (same blocks, same prev-present
    flags, same stored state), and only the data movement may be batched.
    ``read_bytes``/``write_bytes`` count payload bytes actually
    moved (0 forever on the memory plane) and feed the observer's
    ``storage_read_bytes``/``storage_write_bytes`` samples.
    """

    kind: str
    read_bytes: int
    write_bytes: int

    def get(self, track: int) -> Block | None: ...  # pragma: no cover

    def get_many(self, tracks: list[int]) -> list[Block | None]: ...  # pragma: no cover

    def peek(self, track: int) -> Block | None: ...  # pragma: no cover

    def put(self, track: int, block: Block | None) -> bool: ...  # pragma: no cover

    def put_many(
        self, items: list[tuple[int, Block | None]]
    ) -> list[bool]: ...  # pragma: no cover

    def discard(self, track: int) -> bool: ...  # pragma: no cover

    def discard_range(self, lo: int, hi: int) -> int: ...  # pragma: no cover

    def tracks(self) -> Iterator[int]: ...  # pragma: no cover

    def sync(self) -> None: ...  # pragma: no cover

    def close(self) -> None: ...  # pragma: no cover

    def snapshot(self) -> dict | None: ...  # pragma: no cover

    def restore(self, snap: dict | None) -> None: ...  # pragma: no cover


class _ProfiledStorage:
    """Shared profiler plumbing: attribution scopes for the storage plane.

    ``profiler`` is installed by :meth:`~repro.emio.diskarray.DiskArray
    .set_profiler` (default: the no-op :data:`NULL_PROFILER`).  Storage
    methods bill raw data movement to ``syscall_io`` — ``pread``/``pwrite``
    /``fsync`` on the file plane, page-cache copies on the mmap plane — and
    image encode/decode to ``serialize``.  Scopes only *time* existing
    work; bytes written, counters, and frames are byte-identical with
    profiling on or off.
    """

    profiler = NULL_PROFILER


class MemoryStorage(_ProfiledStorage):
    """The historical in-heap plane: a dict of live ``Block`` objects.

    Reads return the *same object* that was written (no copy), matching the
    pre-storage-plane behaviour that parts of the test suite rely on.  Like
    the old dict, a ``put(track, None)`` keeps the key with a ``None``
    value; ``tracks()`` yields only tracks holding a real block.
    """

    kind = "memory"

    def __init__(self) -> None:
        self._tracks: dict[int, Block | None] = {}
        self.read_bytes = 0
        self.write_bytes = 0

    def get(self, track: int) -> Block | None:
        return self._tracks.get(track)

    peek = get

    def put(self, track: int, block: Block | None) -> bool:
        prev = self._tracks.get(track)
        self._tracks[track] = block
        return prev is not None

    def discard(self, track: int) -> bool:
        return self._tracks.pop(track, None) is not None

    # The batch forms are the per-track calls in order, minus one method
    # dispatch per track (50k tracks a superstep on a 10M-key sort).

    def get_many(self, tracks: list[int]) -> list[Block | None]:
        return list(map(self._tracks.get, tracks))

    def put_many(self, items: list[tuple[int, Block | None]]) -> list[bool]:
        stored = self._tracks
        prev_flags: list[bool] = []
        for track, block in items:
            prev_flags.append(stored.get(track) is not None)
            stored[track] = block
        return prev_flags

    def discard_range(self, lo: int, hi: int) -> int:
        """Drop tracks ``lo .. hi-1``; returns how many held a block."""
        pop = self._tracks.pop
        return sum(pop(t, None) is not None for t in range(lo, hi))

    def tracks(self) -> Iterator[int]:
        return (t for t, b in self._tracks.items() if b is not None)

    def tracks_view(self) -> dict[int, Block | None]:
        """The raw dict, for tests that plant blocks directly."""
        return self._tracks

    def sync(self) -> None:
        pass

    def close(self) -> None:
        pass

    def snapshot(self) -> dict | None:
        return None  # nothing on disk to reference; checkpoints carry the data

    def restore(self, snap: dict | None) -> None:
        raise DiskError("MemoryStorage holds no on-disk state to restore from")


class _TracksView:
    """Dict-flavoured window over a non-memory storage (test compatibility)."""

    def __init__(self, storage: "FileStorage"):
        self._storage = storage

    def get(self, track: int, default=None):
        blk = self._storage.peek(track)
        return default if blk is None else blk

    __getitem__ = get

    def __setitem__(self, track: int, block: Block | None) -> None:
        self._storage.put(track, block)

    def __contains__(self, track: int) -> bool:
        return self._storage.peek(track) is not None

    def __len__(self) -> int:
        return sum(1 for _ in self._storage.tracks())


#: Allocation unit of a track file.  A frame occupies
#: ``ceil((FRAME_BYTES + payload) / SLOT_BYTES)`` slots, so a batch of frames
#: lies dense on the platter; with a unit large enough to hold any frame
#: whole, a batched transfer would move mostly slack (DESIGN §8).
SLOT_BYTES = 512
#: Dead bytes one coalesced transfer may carry between two frames: a
#: multi-track read sweeps over a gap up to this long rather than issue a
#: second syscall (gap bytes are read but never counted — only the per-frame
#: spans are), and a slot run's slack is zero-filled, so that neighbouring
#: runs merge into one write, only up to this long.
_COALESCE_GAP_BYTES = 1 << 14
class FileStorage(_ProfiledStorage):
    """One preallocated track file per drive; framed images in slot runs.

    Layout: the file is an array of ``slot_bytes``-sized slots.  A stored
    block occupies a *contiguous run* of slots holding a sealed frame
    (magic, write generation, payload length, CRC32 — see :func:`_seal_frame`)
    followed by the block's image and zeros up to the end of the run, so
    the file's bytes are a function of the put sequence alone.  A track map
    (``track -> (base slot, run length, payload length, generation)``)
    lives in memory — tracks are sparse (the shadow namespace starts at
    ``1 << 40``) so positional addressing is impossible.  Freed runs enter
    a neighbour-coalescing free list and are reused best-fit; runs freed at
    the file tail shrink the bump pointer.

    ``slot_bytes`` defaults to :data:`SLOT_BYTES` whatever ``B`` is (the
    parameter stays because every plane is built as ``make(disk_id, B)``).
    """

    kind = "file"

    def __init__(
        self,
        path: str | os.PathLike,
        B: int,
        slot_bytes: int | None = None,
    ):
        self.path = os.fspath(path)
        self.slot_bytes = int(slot_bytes or SLOT_BYTES)
        creating = not os.path.exists(self.path)
        # O_RDWR|O_CREAT without O_TRUNC: reopening an existing track file
        # (crash-resume) must keep its contents.
        self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        self._size = os.fstat(self._fd).st_size
        self._closed = False
        # track -> (base, nslots, payload len, write generation)
        self._map: dict[int, tuple[int, int, int, int]] = {}
        # Free runs as a neighbour-coalescing pair of maps (base -> nslots
        # and end -> base), so releasing a whole region track by track — the
        # dominant free pattern — merges in O(1) per track instead of
        # rescanning a sorted list.
        self._free_start: dict[int, int] = {}
        self._free_end: dict[int, int] = {}
        self._next_slot = 0
        # Slot runs referenced by the last two snapshots: never handed back
        # to the free list in place (copy-on-write pinning, see module
        # docstring).  The two-deep window keeps the previous checkpoint
        # generation intact for scrub()'s fall-back.
        self._pin_sets: deque[frozenset[tuple[int, int]]] = deque(maxlen=2)
        self._pinned: set[tuple[int, int]] = set()
        self._deferred: list[tuple[int, int]] = []  # pinned runs freed meanwhile
        self._gen = 0  # current write generation; bumped by snapshot()
        self.read_bytes = 0
        self.write_bytes = 0
        self._grow(self.slot_bytes)
        if creating:
            # A fresh storage root must survive a crash immediately after
            # creation: flush the preallocation, then the directory entry.
            os.fsync(self._fd)
            _fsync_dir(os.path.dirname(self.path) or ".")

    # -- raw extent I/O --------------------------------------------------------
    #
    # The one pair of device primitives: MmapStorage overrides them, and
    # CrashyStorage shadows ``_write_at`` on the *instance* to log every
    # write with its preimage.

    def _read_at(self, offset: int, nbytes: int) -> bytes:
        return os.pread(self._fd, nbytes, offset)

    def _write_at(self, offset: int, data: bytes) -> None:
        # pwrite may land fewer bytes than asked (a signal, ENOSPC part-way,
        # Linux's 0x7ffff000-byte cap on one call): a dropped tail would
        # only surface later as a CRC failure far from the cause.
        view = memoryview(data)
        done = 0
        while done < len(view):
            n = os.pwrite(self._fd, view[done:], offset + done)
            if n <= 0:
                raise DiskError(
                    f"storage file {self.path}: pwrite at offset "
                    f"{offset + done} made no progress, {len(view) - done} of "
                    f"{len(view)} bytes not written"
                )
            done += n

    def _grow(self, nbytes: int) -> None:
        if self._size >= nbytes:
            return
        # Geometric preallocation: truncate-up only, so reopened files never
        # lose data and growth costs O(log size) metadata operations.
        self._size = max(nbytes, 2 * self._size)
        os.ftruncate(self._fd, self._size)

    # -- slot-run allocation -----------------------------------------------------

    def _alloc(self, nslots: int) -> int:
        best = None
        for base, size in self._free_start.items():
            if size >= nslots and (best is None or (size, base) < best):
                best = (size, base)
        if best is not None:
            size, base = best
            del self._free_start[base]
            del self._free_end[base + size]
            if size > nslots:
                self._free_start[base + nslots] = size - nslots
                self._free_end[base + size] = base + nslots
            return base
        base = self._next_slot
        self._next_slot += nslots
        self._grow(self._next_slot * self.slot_bytes)
        return base

    def _release(self, base: int, nslots: int) -> None:
        if nslots <= 0:
            return
        if (base, nslots) in self._pinned:
            self._deferred.append((base, nslots))
            return
        prev = self._free_end.pop(base, None)
        if prev is not None:
            nslots += self._free_start.pop(prev)
            base = prev
        nxt = self._free_start.pop(base + nslots, None)
        if nxt is not None:
            del self._free_end[base + nslots + nxt]
            nslots += nxt
        if base + nslots == self._next_slot:
            self._next_slot = base
        else:
            self._free_start[base] = nslots
            self._free_end[base + nslots] = base

    # -- BlockStorage ------------------------------------------------------------

    def _load(self, track: int, count: bool) -> Block | None:
        ext = self._map.get(track)
        if ext is None:
            return None
        base, _nslots, length, _gen = ext
        prof = self.profiler
        prof.push("syscall_io")
        try:
            raw = self._read_at(base * self.slot_bytes, FRAME_BYTES + length)
        finally:
            prof.pop()
        return self._decode_frame(raw, ext, count)

    def _decode_frame(
        self, raw: "bytes | memoryview", ext: tuple[int, int, int, int], count: bool
    ) -> Block:
        """Validate and decode the frame ``raw`` read from extent ``ext``."""
        payload = _open_frame(raw, self.path, ext[0], ext[2], ext[3])
        if count:
            self.read_bytes += len(raw)
        prof = self.profiler
        prof.push("serialize")
        try:
            return _decode_block(payload)
        finally:
            prof.pop()

    def get(self, track: int) -> Block | None:
        return self._load(track, count=True)

    def _read_frames(self, tracks: list[int]) -> dict[int, memoryview]:
        """The stored frame of every mapped track in ``tracks``, unchecked,
        as views into as few reads as :data:`_COALESCE_GAP_BYTES` allows
        (the read-side mirror of :meth:`_write_runs`)."""
        exts: list[tuple[int, int, int, int]] = []  # (base, nslots, length, track)
        raws: dict[int, memoryview] = {}
        for t in set(tracks):
            ext = self._map.get(t)
            if ext is not None:
                exts.append((ext[0], ext[1], ext[2], t))
        exts.sort()
        slot_bytes = self.slot_bytes
        gap_slots = _COALESCE_GAP_BYTES // slot_bytes
        prof = self.profiler
        prof.push("syscall_io")
        try:
            i = 0
            while i < len(exts):
                start = exts[i][0]
                j = i
                while j + 1 < len(exts) and (
                    exts[j + 1][0] - exts[j][0] - exts[j][1] <= gap_slots
                ):
                    j += 1
                span = (exts[j][0] - start) * slot_bytes + FRAME_BYTES + exts[j][2]
                raw = memoryview(self._read_at(start * slot_bytes, span))
                for base, _nslots, length, t in exts[i : j + 1]:
                    off = (base - start) * slot_bytes
                    raws[t] = raw[off : off + FRAME_BYTES + length]
                i = j + 1
        finally:
            prof.pop()
        return raws

    def get_many(self, tracks: list[int]) -> list[Block | None]:
        """Read several tracks with coalesced preads (:meth:`_read_frames`).

        Observability counters are byte-identical to per-track ``get`` calls:
        only each frame's span (``FRAME_BYTES + payload``) is counted, never
        the gap a coalesced read sweeps over.
        """
        raws = self._read_frames(tracks)
        out: list[Block | None] = []
        for t in tracks:
            ext = self._map.get(t)
            # A decoded vector block is a view of its frame and may outlive
            # the batch: it gets its own copy, or it would pin the whole
            # coalesced read (measured: +2% peak RSS on a 10M-key sort).
            out.append(
                None if ext is None else self._decode_frame(bytes(raws[t]), ext, count=True)
            )
        return out

    def peek(self, track: int) -> Block | None:
        return self._load(track, count=False)

    def _place_frame(self, track: int, length: int) -> tuple[bool, int, int]:
        """Metadata half of storing a frame of ``length`` payload bytes at
        ``track``: allocate/release, pin check, map and counter update.

        Returns ``(prev_present, byte offset, pad)`` with ``pad`` the zero
        bytes that fill the slot run behind the frame.  Allocation never
        depends on written bytes, so the caller may defer and merge the
        data movement and leave every map/free-list transition identical.
        """
        prev = self._map.get(track)
        slot_bytes = self.slot_bytes
        need = -(-(FRAME_BYTES + length) // slot_bytes)
        if prev is not None and prev[1] == need and (prev[0], prev[1]) not in self._pinned:
            base = prev[0]  # overwrite in place
        else:
            if prev is not None:
                self._release(prev[0], prev[1])
            base = self._alloc(need)
        self.write_bytes += FRAME_BYTES + length
        self._map[track] = (base, need, length, self._gen)
        pad = need * slot_bytes - FRAME_BYTES - length
        return prev is not None, base * slot_bytes, pad if pad <= _COALESCE_GAP_BYTES else 0

    def _encode(self, block: Block) -> bytes:
        """A block's sealed frame."""
        prof = self.profiler
        prof.push("serialize")
        try:
            head, bodies = _encode_block(block)
        finally:
            prof.pop()
        return _seal_frame(head, bodies, self._gen)

    def _write_runs(self, writes: list[tuple[int, bytes, int]]) -> None:
        """Write ``(byte offset, frame, pad)`` records, byte-adjacent ones as
        one pwrite whose buffer is one ``join`` of their frames and pads."""
        writes.sort(key=itemgetter(0))
        prof = self.profiler
        prof.push("syscall_io")
        try:
            i = 0
            while i < len(writes):
                start = end = writes[i][0]
                parts = []
                while i < len(writes) and writes[i][0] == end:
                    _, frame, pad = writes[i]
                    parts += (frame, bytes(pad))
                    end += len(frame) + pad
                    i += 1
                self._write_at(start, b"".join(parts))
        finally:
            prof.pop()

    def put(self, track: int, block: Block | None) -> bool:
        if block is None:
            return self.discard(track)
        frame = self._encode(block)
        prev_present, offset, pad = self._place_frame(track, len(frame) - FRAME_BYTES)
        self._write_runs([(offset, frame, pad)])
        return prev_present

    def put_many(self, items: list[tuple[int, Block | None]]) -> list[bool]:
        """Store several tracks, merging byte-adjacent slot runs into one
        pwrite; otherwise exactly in-order ``put`` calls.

        Map, free-list and file-byte transitions are exactly those of
        in-order single puts (every frame is padded to the end of its
        run); only the data movement is batched.  Duplicate tracks in one
        batch are stored one by one (a later put may free and reuse the
        earlier one's slots).
        """
        if len({t for t, _ in items}) != len(items):
            return [self.put(track, block) for track, block in items]
        prev_flags: list[bool] = []
        writes: list[tuple[int, bytes, int]] = []
        for track, block in items:
            if block is None:
                prev_flags.append(self.discard(track))
                continue
            frame = self._encode(block)
            prev_present, offset, pad = self._place_frame(track, len(frame) - FRAME_BYTES)
            prev_flags.append(prev_present)
            writes.append((offset, frame, pad))
        self._write_runs(writes)
        return prev_flags

    def discard(self, track: int) -> bool:
        ext = self._map.pop(track, None)
        if ext is None:
            return False
        self._release(ext[0], ext[1])
        return True

    def discard_range(self, lo: int, hi: int) -> int:
        """Drop tracks ``lo .. hi-1``; returns how many held a block.

        The slot runs are released in track order, as per-track
        :meth:`discard` calls would, so the free list ends up the same.
        """
        pop = self._map.pop
        exts = [ext for t in range(lo, hi) if (ext := pop(t, None)) is not None]
        for base, nslots, _length, _gen in exts:
            self._release(base, nslots)
        return len(exts)

    def tracks(self) -> Iterator[int]:
        return iter(list(self._map))

    def tracks_view(self) -> "_TracksView":
        return _TracksView(self)

    def sync(self) -> None:
        prof = self.profiler
        prof.push("syscall_io")
        try:
            os.fsync(self._fd)
        finally:
            prof.pop()

    def close(self) -> None:
        if not self._closed:
            os.close(self._fd)
            self._closed = True

    # -- snapshot / restore (checkpoint-by-reference) ----------------------------

    def snapshot(self) -> dict:
        """Pin the current track map and return it as checkpoint metadata.

        Opens a new write generation.  Pins are held for a two-snapshot
        window: runs pinned two barriers ago (and freed in the meantime)
        become reusable now, so the *previous* checkpoint generation's
        extents are never recycled while ``scrub()`` could still fall back
        to them.
        """
        snap_gen = self._gen
        self._gen += 1
        live = frozenset(
            (base, nslots) for base, nslots, _len, _gen in self._map.values()
        )
        self._pin_sets.append(live)
        self._pinned = set().union(*self._pin_sets)
        deferred, self._deferred = self._deferred, []
        for base, nslots in deferred:
            self._release(base, nslots)  # re-defers runs that are still pinned
        return {
            "slot_bytes": self.slot_bytes,
            "gen": snap_gen,
            "map": {int(t): tuple(ext) for t, ext in self._map.items()},
            "next_slot": self._next_slot,
            "free": sorted(
                (size, base) for base, size in self._free_start.items()
            ),
        }

    def restore(self, snap: dict | None) -> None:
        if snap is None:
            raise DiskError(
                f"storage file {self.path}: checkpoint carries no storage "
                "snapshot for this drive"
            )
        if snap["slot_bytes"] != self.slot_bytes:
            raise DiskError(
                f"storage file {self.path}: snapshot slot size "
                f"{snap['slot_bytes']} != {self.slot_bytes} (different B?)"
            )
        self._map = {int(t): tuple(ext) for t, ext in snap["map"].items()}
        self._free_start = {base: size for size, base in snap["free"]}
        self._free_end = {base + size: base for size, base in snap["free"]}
        self._next_slot = int(snap["next_slot"])
        # Resume the write-generation clock where the snapshot left it, so
        # a resumed run stamps frames exactly like the original would have.
        self._gen = int(snap.get("gen", 0)) + 1
        self._grow(max(self._next_slot * self.slot_bytes, self.slot_bytes))
        # The restored checkpoint stays the rollback target until the next
        # barrier, so its extents are pinned exactly as after snapshot().
        live = frozenset(
            (base, nslots) for base, nslots, _len, _gen in self._map.values()
        )
        self._pin_sets = deque([live], maxlen=2)
        self._pinned = set(live)
        self._deferred = []


class MmapStorage(FileStorage):
    """The :class:`FileStorage` format accessed through a shared ``mmap``:
    the device primitives slice the mapping, growth closes and reopens it."""

    kind = "mmap"

    def __init__(
        self,
        path: str | os.PathLike,
        B: int,
        slot_bytes: int | None = None,
    ):
        self._mm: mmap.mmap | None = None
        super().__init__(path, B, slot_bytes)
        if self._mm is None:
            self._remap()

    def _remap(self) -> None:
        if self._mm is not None:
            # Push dirty pages down before dropping the mapping: a crash
            # between remaps must not lose writes that only ever lived in
            # the old mapping's pages.
            self._mm.flush()
            self._mm.close()
        self._mm = mmap.mmap(self._fd, self._size)

    def _grow(self, nbytes: int) -> None:
        if self._size >= nbytes:
            return
        super()._grow(nbytes)
        self._remap()

    def _read_at(self, offset: int, nbytes: int) -> bytes:
        return bytes(self._mm[offset : offset + nbytes])

    def _write_at(self, offset: int, data: bytes) -> None:
        self._mm[offset : offset + len(data)] = data

    def sync(self) -> None:
        prof = self.profiler
        prof.push("syscall_io")
        try:
            self._mm.flush()
            os.fsync(self._fd)
        finally:
            prof.pop()

    def close(self) -> None:
        if self._closed:
            return
        if self._mm is not None:
            self._mm.flush()
            self._mm.close()
            self._mm = None
        super().close()


def _claim_dir(root: str) -> None:
    """Create or adopt a storage directory, refusing foreign data."""
    marker = os.path.join(root, STORAGE_MARKER)
    if os.path.exists(root):
        if not os.path.isdir(root):
            raise DiskError(f"storage_dir {root!r} exists and is not a directory")
        if os.listdir(root) and not os.path.exists(marker):
            raise DiskError(
                f"storage_dir {root!r} is not empty and carries no "
                f"{STORAGE_MARKER} marker; refusing to overwrite what looks "
                "like somebody else's data — point storage_dir at an empty "
                "directory or at a directory from a previous run"
            )
    else:
        os.makedirs(root, exist_ok=True)
    if os.path.exists(marker):
        try:
            with open(marker, encoding="utf-8") as fh:
                found = json.load(fh)["version"]
        except (ValueError, KeyError, TypeError) as exc:
            raise DiskError(
                f"storage_dir {root!r}: unreadable {STORAGE_MARKER} marker ({exc!r})"
            ) from exc
        if found != STORAGE_VERSION:
            raise DiskError(
                f"storage_dir {root!r} holds em-storage format version {found}; "
                f"this build reads and writes version {STORAGE_VERSION} — point "
                "storage_dir at an empty directory"
            )
    else:
        with open(marker, "w", encoding="utf-8") as fh:
            json.dump({"format": "em-storage", "version": STORAGE_VERSION}, fh)
            fh.flush()
            os.fsync(fh.fileno())
        # Make the claim itself durable: the marker's directory entry (and
        # the freshly created root's entry in its parent) must survive a
        # crash right after creation, or resume would refuse the directory.
        _fsync_dir(root)
        _fsync_dir(os.path.dirname(root) or ".")


def verify_extents(path: str | os.PathLike, snap: dict) -> int:
    """Raw-verify every framed slot image a storage snapshot references.

    Reads each mapped extent directly off ``path`` and validates its frame
    (magic, generation, length, CRC32) without unpickling anything — torn
    or lost writes inside a checkpointed extent surface as
    :class:`~repro.emio.faults.ChecksumError` here, before a resume could
    attach to them.  Returns the number of extents verified.  This is the
    primitive :func:`repro.core.checkpoint.scrub` is built on.
    """
    path = os.fspath(path)
    slot_bytes = int(snap["slot_bytes"])
    extents = sorted(
        tuple(int(x) for x in ext) for ext in snap["map"].values()
    )
    checked = 0
    fd = os.open(path, os.O_RDONLY)
    try:
        # Coalesce adjacent slot runs into single preads: a snapshot taken
        # after bulk writes maps mostly-consecutive runs, so verifying a
        # checkpoint costs a few large sequential reads instead of one
        # syscall per track.
        i = 0
        while i < len(extents):
            start = extents[i][0]
            j = i
            end_slot = extents[i][0] + extents[i][1]
            while j + 1 < len(extents) and extents[j + 1][0] == end_slot:
                j += 1
                end_slot = extents[j][0] + extents[j][1]
            last_base, _n, last_len, _g = extents[j]
            span = (last_base - start) * slot_bytes + FRAME_BYTES + last_len
            raw = memoryview(os.pread(fd, span, start * slot_bytes))
            for base, _nslots, length, gen in extents[i : j + 1]:
                off = (base - start) * slot_bytes
                _open_frame(raw[off : off + FRAME_BYTES + length], path, base, length, gen)
                checked += 1
            i = j + 1
    finally:
        os.close(fd)
    return checked


@dataclass(frozen=True)
class StorageSpec:
    """A picklable recipe for building one plane's per-drive storages.

    ``owned`` marks a temporary root created because the caller passed no
    ``storage_dir``; :meth:`cleanup` removes owned roots and leaves explicit
    ones in place (they are the user's durable data).

    ``crash`` optionally attaches a :class:`~repro.emio.faults.CrashPlan`:
    every non-memory storage built by :meth:`make` is then wrapped in a
    :class:`~repro.emio.faults.CrashyStorage` so the engines can inflict
    deterministic byte-level crash damage.  ``proc`` records which real
    processor this spec builds for (it seeds the per-disk crash streams).
    """

    kind: str = "memory"
    root: str | None = None
    owned: bool = False
    crash: CrashPlan | None = None
    proc: int = 0

    @classmethod
    def create(cls, kind: str = "memory", root: str | os.PathLike | None = None) -> "StorageSpec":
        if kind not in STORAGE_KINDS:
            raise DiskError(
                f"unknown storage kind {kind!r} (expected one of {STORAGE_KINDS})"
            )
        if kind == "memory":
            return cls("memory", None, False)
        if root is None:
            root = tempfile.mkdtemp(prefix="em-storage-")
            owned = True
        else:
            root = os.path.abspath(os.fspath(root))
            owned = False
        _claim_dir(root)
        return cls(kind, root, owned)

    def fast_plane(self, knob: bool | None) -> bool:
        """Resolve a ``fast_io`` / ``context_cache`` knob on this plane.

        An explicit bool is honoured.  ``None`` — the default wherever
        either knob is spelled — is on exactly when the tracks live on the
        heap: there the fast plane holds nothing the reference plane does
        not.  On ``file`` / ``mmap`` it keeps up to ``M/4`` records of a
        batch of write cycles in flight and the pickled contexts host-side,
        past the out-of-core heap promise (DESIGN §8), so those planes are
        fast only by request.
        """
        return self.kind == "memory" if knob is None else bool(knob)

    def proc_root(self, index: int) -> str | None:
        """Path of processor ``index``'s sub-root (not created)."""
        if self.kind == "memory":
            return None
        return os.path.join(self.root, f"proc{index}")

    def for_proc(self, index: int) -> "StorageSpec":
        """Derive (and claim) the per-worker spec of real processor ``index``."""
        if self.kind == "memory":
            return self
        sub = self.proc_root(index)
        _claim_dir(sub)
        # The engine-level root owns cleanup; per-proc specs never do.
        return StorageSpec(self.kind, sub, False, self.crash, index)

    def with_crash(self, plan: CrashPlan | None) -> "StorageSpec":
        """This spec with a byte-level crash plan attached."""
        return StorageSpec(self.kind, self.root, self.owned, plan, self.proc)

    def make(self, disk_id: int, B: int) -> BlockStorage:
        """Build the storage of drive ``disk_id``."""
        if self.kind == "memory":
            return MemoryStorage()
        path = os.path.join(self.root, f"disk{disk_id}.dat")
        impl = FileStorage if self.kind == "file" else MmapStorage
        store: BlockStorage = impl(path, B)
        if self.crash is not None:
            store = CrashyStorage(store, self.crash, self.proc, disk_id)
        return store

    def cleanup(self) -> None:
        if self.owned and self.root:
            shutil.rmtree(self.root, ignore_errors=True)


def resolve_storage(
    storage: "str | StorageSpec | None", storage_dir: str | os.PathLike | None
) -> StorageSpec:
    """Normalize a ``storage=`` argument (a kind, a spec, or ``None``) and its
    ``storage_dir`` into a :class:`StorageSpec` (the baselines' arrays)."""
    if storage is None:
        storage = "memory"
    if isinstance(storage, StorageSpec):
        return storage
    return StorageSpec.create(storage, storage_dir)

