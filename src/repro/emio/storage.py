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
  header, everything else as a pickle.  Slot runs freed by
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

Overlapped I/O (DESIGN §12): with ``io_overlap=True`` a non-memory storage
owns a :class:`_FlusherPool` — one bounded background thread per drive that
performs the raw platter transfers.  ``_write_at`` then *enqueues* sealed
frames instead of calling ``pwrite`` (write-behind), ``_read_at`` overlays
any still-queued bytes over what the platter returns (read-after-write
stays exact), and sequential track streaks schedule readahead into a small
validated cache.  The queue and the readahead cache together are bounded
by ``overlap_budget`` bytes, which the engines derive from the declared
memory budget ``M`` — overlap never smuggles extra working set past the
model.  The *quiesce invariant*: ``sync``, ``close``, ``snapshot``,
``restore`` and ``CrashyStorage.apply_crash`` all drain the queue first,
so every fsync barrier, journal commit, COW pin set, and injected crash
observes exactly the platter state the synchronous plane would have — the
counted ledger, byte counters, and crash semantics are identical by
construction.
"""

from __future__ import annotations

import json
import mmap
import os
import pickle
import shutil
import struct
import tempfile
import threading
import time
import weakref
import zlib
from collections import OrderedDict, deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Protocol

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
    "default_overlap_budget",
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
#: the old code would misread under the new (2: slot unit, vector image).
STORAGE_VERSION = 2

# Per-slot frame: magic | write generation | payload length, then a CRC32
# sealing header + payload.  The generation tag distinguishes two
# internally-valid frames written to the same slot in different checkpoint
# generations — the "lost write" case a bare checksum cannot catch.
_FRAME = struct.Struct("<IIQ")  # magic, generation, payload length
_CRC = struct.Struct("<I")
FRAME_MAGIC = 0x454D5331  # "EMS1"
#: Bytes of framing overhead in front of every stored payload.
FRAME_BYTES = _FRAME.size + _CRC.size


def _seal_frame(head: bytes, body, gen: int, pad: int = 0) -> bytes:
    """Frame the payload ``head + body`` (an image as :func:`_encode_block`
    returns it): sealed header, payload, then ``pad`` zero bytes — the
    slack of the slot run, outside the frame.

    The one ``join`` is the only copy a payload makes on its way to the
    platter; the CRC32 runs over header and payload in place.
    """
    prefix = _FRAME.pack(FRAME_MAGIC, gen & 0xFFFFFFFF, len(head) + len(body))
    crc = zlib.crc32(body, zlib.crc32(head, zlib.crc32(prefix)))
    return b"".join((prefix, _CRC.pack(crc), head, body, bytes(pad)))


def _open_frame(raw: bytes, path: str, base: int, length: int, gen: int) -> memoryview:
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
# count, dest, src, msg, seq, dummy, descr length — then the dtype's descr
# and the array's little-endian bytes.  Pickle streams of protocol >= 2
# always start with 0x80, so the two image flavours are distinguished by
# their first byte alone.
_VEC_TAG = 0x56  # "V"
_VEC_HEAD = struct.Struct("<BIqqqqBH")


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


def _encode_block(block: Block) -> tuple[bytes, "bytes | np.ndarray"]:
    """Serialize one block into a slot image, returned as ``(head, body)``.

    ndarray payloads become a raw image — the fixed header plus the cached
    descr, and the array's own buffer, uncopied — so the vectorized plane's
    storage path is one memcpy (in :func:`_seal_frame`), not a pickle of
    boxed objects.  Everything else (lists, pickled-context bytes) keeps
    the historical pickle image byte-for-byte, with an empty body;
    memoryview payloads are materialized first since pickle refuses them.
    """
    records = block.records
    if isinstance(records, np.ndarray) and records.ndim == 1:
        arr = np.ascontiguousarray(records)
        if arr.dtype.byteorder == ">":  # canonical images are little-endian
            arr = arr.astype(arr.dtype.newbyteorder("<"))
        descr = _descr_of(arr.dtype)
        head = _VEC_HEAD.pack(
            _VEC_TAG, arr.shape[0], block.dest, block.src, block.msg, block.seq,
            block.dummy, len(descr),
        )
        return head + descr, arr.view(np.uint8)
    if isinstance(records, memoryview):
        block = Block(
            records=bytes(records),
            dest=block.dest,
            src=block.src,
            msg=block.msg,
            seq=block.seq,
            dummy=block.dummy,
        )
    return pickle.dumps(block, protocol=pickle.HIGHEST_PROTOCOL), b""


def _decode_block(payload: memoryview) -> Block:
    """Inverse of :func:`_encode_block` (dispatch on the first byte)."""
    if payload[0] != _VEC_TAG:
        return pickle.loads(payload)
    _tag, n, dest, src, msg, seq, dummy, dlen = _VEC_HEAD.unpack_from(payload)
    body = _VEC_HEAD.size + dlen
    arr = np.frombuffer(
        payload, dtype=_dtype_of(bytes(payload[_VEC_HEAD.size : body])),
        count=n, offset=body,
    )
    return Block(records=arr, dest=dest, src=src, msg=msg, seq=seq, dummy=bool(dummy))


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
#: Tracks of readahead scheduled once a sequential streak is detected.
_RA_DEPTH = 8

#: Live flusher pools in this process.  Diagnostics and torture tests reach
#: pools they have no handle on (e.g. inside a process-backend worker, to
#: stall the gates and die with a provably non-empty write-behind queue).
_LIVE_POOLS: "weakref.WeakSet[_FlusherPool]" = weakref.WeakSet()


class _FlusherPool:
    """One drive's bounded background I/O worker (write-behind + readahead).

    The pool owns a single thread — drives are independent devices, so one
    in-flight transfer per drive mirrors the machine model.  The engine
    thread *submits* raw platter writes (``submit``) and readahead requests
    (``ra_schedule``); the worker performs them through the storage's
    ``_platter_write``/``_read_at`` primitives, which release the GIL for
    the actual ``pwrite``/``pread``.

    Sequencing guarantees:

    * Writes flush in submission order.  A queued entry stays visible to
      :meth:`pending_in` until its platter write *completes* (it is held as
      ``_inflight`` meanwhile), so overlay reads can never observe a window
      where a write is neither queued nor on the platter.
    * A queued entry whose byte range is fully covered by a newer submission
      is superseded (dropped) — the dominant overwrite-before-flush case.
    * ``submit`` applies backpressure: it blocks while the queue holds more
      than ``budget`` bytes, so write-behind memory is hard-bounded.
    * A worker exception shuts the pool down; it re-raises on the next
      ``submit``/``quiesce``/``close`` so data loss can never pass silently.

    ``gate`` is a test hook: clearing it stalls the worker *before* each
    platter transfer, making "read-after-queued-write" and "quiesce drains
    first" deterministically observable.  It is set in production.
    """

    def __init__(self, storage: "FileStorage", budget: int):
        self._storage = storage
        self.budget = max(int(budget), 1 << 16)
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        # Queue entries are mutable ``[seq, offset, data, alive]`` records:
        # superseding marks ``alive`` False in place (O(1) via ``_by_off``)
        # and the worker discards tombstones as it drains.
        self._writes: deque[list] = deque()
        self._by_off: dict[int, list] = {}  # offset -> latest queued entry
        self._inflight: list[list] | None = None
        self._queued_bytes = 0
        # Page-granular refcount of queued/in-flight byte ranges.  Reads
        # consult it lock-free: a page is only ever removed *after* its
        # bytes are on the platter (or superseded by a covering entry), so
        # observing every page of a read range absent proves the platter
        # image is current and the overlay scan can be skipped.
        self._q_pages: dict[int, int] = {}
        # Wakeup batching: waking the worker per small write costs two
        # context switches per frame and would make the overlapped plane
        # *slower* than a synchronous pwrite.  Submissions accumulate until
        # the unflushed bytes cross the kick threshold (or a quiesce/close
        # forces the drain); the worker then writes the whole backlog in
        # one wake.  Reads stay correct meanwhile via the pending overlay.
        self._kick = False
        self._kick_bytes = max(1 << 15, self.budget // 8)
        self._reads: deque[tuple[int, int, int, int, int]] = deque()
        self._ra_cache: OrderedDict[int, tuple[int, int, int, bytes]] = OrderedDict()
        self._ra_bytes = 0
        self._ra_epoch = 0
        self._ra_queued: set[int] = set()
        self._seq = 0
        self._error: BaseException | None = None
        self._stopping = False
        self.gate = threading.Event()
        self.gate.set()
        #: Background platter time/ops (drained into the profiler as
        #: ``syscall_io_bg`` by the owning storage at quiesce points).
        self.bg_seconds = 0.0
        self.bg_ops = 0
        self._thread = threading.Thread(
            target=self._run, name=f"em-flusher-{os.path.basename(storage.path)}",
            daemon=True,
        )
        _LIVE_POOLS.add(self)
        self._thread.start()

    @property
    def pending_bytes(self) -> int:
        """Bytes currently queued or in flight (0 when drained).

        ``_queued_bytes`` counts an entry until its platter write completes,
        so the in-flight item is already included.
        """
        with self._lock:
            return self._queued_bytes

    # -- engine-thread API ------------------------------------------------------

    def _check_error(self) -> None:
        if self._error is not None:
            raise self._error

    def _page_incr(self, offset: int, nbytes: int) -> None:
        pages = self._q_pages
        for p in range(offset >> 12, ((offset + nbytes - 1) >> 12) + 1):
            pages[p] = pages.get(p, 0) + 1

    def _page_decr(self, offset: int, nbytes: int) -> None:
        pages = self._q_pages
        for p in range(offset >> 12, ((offset + nbytes - 1) >> 12) + 1):
            left = pages[p] - 1
            if left:
                pages[p] = left
            else:
                del pages[p]

    def submit(self, offset: int, data: bytes) -> None:
        """Enqueue one raw platter write (blocks while over budget)."""
        with self._lock:
            self._check_error()
            while (
                self._queued_bytes + len(data) > self.budget
                and (self._writes or self._inflight is not None)
            ):
                if not self._kick:
                    self._kick = True
                    self._work.notify()
                self._idle.wait()
                self._check_error()
            # Supersede: a still-queued entry at this exact offset whose
            # range the new write covers never needs to reach the platter.
            # (Partial overlaps simply stack — both flush in order.)
            prev = self._by_off.get(offset)
            if prev is not None and prev[3] and len(prev[2]) <= len(data):
                prev[3] = False
                self._queued_bytes -= len(prev[2])
                self._page_decr(offset, len(prev[2]))
            self._seq += 1
            entry = [self._seq, offset, data, True]
            self._writes.append(entry)
            self._by_off[offset] = entry
            self._queued_bytes += len(data)
            self._page_incr(offset, len(data))
            if not self._kick and self._queued_bytes >= self._kick_bytes:
                self._kick = True
                self._work.notify()

    def pending_in(self, offset: int, nbytes: int) -> list[tuple[int, int, bytes]]:
        """Queued/in-flight writes intersecting ``[offset, offset+nbytes)``,
        in submission order (the overlay applies them oldest-first)."""
        # Lock-free fast paths: only the engine thread adds entries, and
        # the worker removes page refcounts strictly *after* a write hits
        # the platter, so observing the containers empty — or every page of
        # the read range absent from the index — proves the platter image
        # is current.
        if not self._writes and self._inflight is None:
            return []
        pages = self._q_pages
        if all(
            p not in pages
            for p in range(offset >> 12, ((offset + nbytes - 1) >> 12) + 1)
        ):
            return []
        end = offset + nbytes
        with self._lock:
            # Submission order needs no sort: the in-flight batch was popped
            # from the head of the queue, so its seqs precede every queued
            # entry's.
            entries = list(self._inflight) if self._inflight else []
            out = [
                (e[0], e[1], e[2])
                for e in entries
                if e[1] < end and e[1] + len(e[2]) > offset
            ]
            out += [
                (e[0], e[1], e[2])
                for e in self._writes
                if e[3] and e[1] < end and e[1] + len(e[2]) > offset
            ]
        return out

    def quiesce(self) -> None:
        """Block until every queued write is on the platter (the barrier)."""
        with self._lock:
            if self._writes and not self._kick:
                self._kick = True
                self._work.notify()
            while self._error is None and (
                self._writes or self._inflight is not None
            ):
                self._idle.wait()
            self._check_error()

    def close(self) -> None:
        """Drain, stop and join the worker; re-raises a deferred error."""
        with self._lock:
            self._stopping = True
            self._kick = True
            self._work.notify_all()
        self.gate.set()
        self._thread.join()
        self._check_error()

    # -- readahead --------------------------------------------------------------

    def ra_invalidate(self) -> None:
        """Drop the readahead cache and fence in-flight fills (any mutation
        of the track map calls this — stale platter bytes must never win)."""
        with self._lock:
            self._ra_epoch += 1
            self._ra_cache.clear()
            self._ra_queued.clear()
            self._ra_bytes = 0

    def ra_schedule(self, requests: list[tuple[int, int, int, int]]) -> None:
        """Queue background reads of ``(track, base, length, gen)`` extents."""
        with self._lock:
            if self._error is not None:
                return  # readahead is best-effort; the error surfaces on writes
            epoch = self._ra_epoch
            queued = False
            for track, base, length, gen in requests:
                if track in self._ra_cache or track in self._ra_queued:
                    continue
                if self._ra_bytes + FRAME_BYTES + length > self.budget:
                    break
                self._ra_queued.add(track)
                self._reads.append((track, base, length, gen, epoch))
                queued = True
            if queued:
                self._work.notify()

    def ra_take(self, track: int, base: int, length: int, gen: int) -> bytes | None:
        """Pop a cached readahead image iff it matches the live map entry."""
        with self._lock:
            hit = self._ra_cache.pop(track, None)
            if hit is None:
                return None
            self._ra_bytes -= len(hit[3])
            if hit[:3] == (base, length, gen):
                return hit[3]
            return None

    # -- worker -----------------------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._lock:
                while not (self._kick or self._reads or self._stopping):
                    self._work.wait()
                if self._writes:
                    # Drain a whole backlog per wake: the batch stays
                    # visible to the overlay as in-flight until every
                    # member is on the platter.  Publish ``_inflight``
                    # *before* popping — pending_in's lock-free drained
                    # check must never observe both containers empty while
                    # an entry is neither queued nor written (momentary
                    # double-listing is harmless: the overlay is
                    # idempotent).
                    n = min(len(self._writes), 64)
                    batch = [e for e in (self._writes[i] for i in range(n)) if e[3]]
                    if batch:
                        self._inflight = batch
                    for _ in range(n):
                        e = self._writes.popleft()
                        if self._by_off.get(e[1]) is e:
                            del self._by_off[e[1]]
                    if not batch:  # all tombstones: nothing to transfer
                        if not self._writes:
                            self._idle.notify_all()
                        continue
                    kind, item = "w", batch
                else:
                    self._kick = False
                    if self._stopping:
                        return
                    if not self._reads:
                        continue
                    kind, item = "r", self._reads.popleft()
            self.gate.wait()
            t0 = time.perf_counter()
            try:
                if kind == "w":
                    self._flush_batch(item)
                else:
                    self._fill_readahead(item)
            except BaseException as exc:  # noqa: BLE001 - reported at the barrier
                with self._lock:
                    self._error = exc
                    self._inflight = None
                    self._writes.clear()
                    self._by_off.clear()
                    self._q_pages.clear()
                    self._reads.clear()
                    self._queued_bytes = 0
                    self._idle.notify_all()
                return
            self.bg_seconds += time.perf_counter() - t0
            self.bg_ops += len(item) if kind == "w" else 1
            if kind == "w":
                with self._lock:
                    self._inflight = None
                    for entry in item:
                        self._queued_bytes -= len(entry[2])
                        self._page_decr(entry[1], len(entry[2]))
                    self._idle.notify_all()

    def _flush_batch(self, batch: list[list]) -> None:
        """Put a drained batch on the platter, merging byte-adjacent entries
        into single writes — the multi-slot syscall batching of
        ``put_many``, applied again across queued frames."""
        storage = self._storage
        i = 0
        while i < len(batch):
            start = batch[i][1]
            end = start + len(batch[i][2])
            j = i + 1
            while j < len(batch) and batch[j][1] == end:
                end += len(batch[j][2])
                j += 1
            data = batch[i][2] if j - i == 1 else b"".join(e[2] for e in batch[i:j])
            storage._platter_write(start, data)
            i = j

    def _fill_readahead(self, req: tuple[int, int, int, int, int]) -> None:
        track, base, length, gen, epoch = req
        # _read_at (not _platter_read): the overlay keeps a readahead that
        # races a still-queued write of the same extent byte-exact.
        raw = self._storage._read_at(
            base * self._storage.slot_bytes, FRAME_BYTES + length
        )
        with self._lock:
            self._ra_queued.discard(track)
            if self._ra_epoch != epoch or len(raw) != FRAME_BYTES + length:
                return
            self._ra_cache[track] = (base, length, gen, raw)
            self._ra_bytes += len(raw)
            while self._ra_bytes > self.budget and self._ra_cache:
                _t, old = self._ra_cache.popitem(last=False)
                self._ra_bytes -= len(old[3])


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
        io_overlap: bool = False,
        overlap_budget: int = 0,
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
        # Overlapped I/O (DESIGN §12): the pool is built last so its worker
        # never observes a half-initialized storage.  ``_ra_last``/``_ra_streak``
        # detect sequential track scans worth readahead.
        self.io_overlap = bool(io_overlap)
        self.overlap_budget = int(overlap_budget) if overlap_budget else (1 << 20)
        self._pool: _FlusherPool | None = None
        self._ra_last = -2
        self._ra_streak = 0
        self._bg_reported_ops = 0
        self._bg_reported_seconds = 0.0
        self._grow(self.slot_bytes)
        if creating:
            # A fresh storage root must survive a crash immediately after
            # creation: flush the preallocation, then the directory entry.
            os.fsync(self._fd)
            _fsync_dir(os.path.dirname(self.path) or ".")
        if self.io_overlap:
            self._pool = _FlusherPool(self, self.overlap_budget)

    # -- raw extent I/O --------------------------------------------------------
    #
    # Two layers: ``_platter_read``/``_platter_write`` are the raw device
    # primitives (overridden by MmapStorage), while ``_read_at``/``_write_at``
    # add the overlap dispatch — enqueue on write, pending-write overlay on
    # read.  CrashyStorage shadows ``_write_at`` on the *instance*, so its
    # write log records entries at submission time, in submission order,
    # with overlay-correct preimages — crash determinism is independent of
    # flusher timing.

    def _platter_read(self, offset: int, nbytes: int) -> bytes:
        return os.pread(self._fd, nbytes, offset)

    def _platter_write(self, offset: int, data: bytes) -> None:
        os.pwrite(self._fd, data, offset)

    def _read_at(self, offset: int, nbytes: int) -> bytes:
        pool = self._pool
        if pool is None:
            return self._platter_read(offset, nbytes)
        pending = pool.pending_in(offset, nbytes)
        if not pending:
            return self._platter_read(offset, nbytes)
        # The newest pending write covering the whole range serves the read
        # outright — the dominant write-then-read-back case needs no pread
        # and no overlay assembly.
        _seq, off, data = pending[-1]
        if off <= offset and off + len(data) >= offset + nbytes:
            return bytes(data[offset - off : offset - off + nbytes])
        buf = bytearray(self._platter_read(offset, nbytes))
        if len(buf) < nbytes:  # queued write past the platter's current data
            buf += b"\x00" * (nbytes - len(buf))
        for _seq, off, data in pending:
            lo, hi = max(off, offset), min(off + len(data), offset + nbytes)
            buf[lo - offset : hi - offset] = data[lo - off : hi - off]
        return bytes(buf)

    def _write_at(self, offset: int, data: bytes) -> None:
        pool = self._pool
        if pool is None:
            self._platter_write(offset, data)
        else:
            pool.submit(offset, bytes(data))

    def _quiesce(self) -> None:
        """Drain the write-behind queue (no-op on the synchronous plane)."""
        pool = self._pool
        if pool is not None:
            pool.quiesce()
            self._drain_bg_profile()

    def _drain_bg_profile(self, pool: "_FlusherPool | None" = None) -> None:
        """Fold the worker's platter time into the profiler (engine thread).

        The pool accumulates privately (the exclusive-time scope stack is
        single-threaded); deltas land in the ``syscall_io_bg`` category at
        quiesce points, so hidden-background time stays attributable.
        """
        pool = pool if pool is not None else self._pool
        prof = self.profiler
        if pool is None or not prof.enabled:
            return
        dsec = pool.bg_seconds - self._bg_reported_seconds
        dops = pool.bg_ops - self._bg_reported_ops
        if dops or dsec > 0.0:
            prof.add("syscall_io_bg", dsec, dops)
            self._bg_reported_seconds = pool.bg_seconds
            self._bg_reported_ops = pool.bg_ops

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
        base, _nslots, length, gen = ext
        prof = self.profiler
        pool = self._pool
        raw = None
        if pool is not None:
            raw = pool.ra_take(track, base, length, gen)
        if raw is None:
            prof.push("syscall_io")
            try:
                raw = self._read_at(base * self.slot_bytes, FRAME_BYTES + length)
            finally:
                prof.pop()
        return self._decode_frame(raw, ext, count)

    def _decode_frame(self, raw: bytes, ext: tuple[int, int, int, int], count: bool) -> Block:
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

    def _note_sequential(self, lo: int, hi: int) -> None:
        """Streak detection: two reads in a row that chain track ranges
        (``lo`` follows the previous read's ``hi``) arm readahead past ``hi``.

        Only while the write queue is drained — a write-heavy phase
        invalidates the cache on every put, so scheduling fills there is
        pure background churn that competes with the engine for the GIL.
        """
        pool = self._pool
        self._ra_streak = self._ra_streak + 1 if lo == self._ra_last + 1 else 1
        self._ra_last = hi
        if self._ra_streak >= 2 and not pool._queued_bytes:
            ahead = []
            for t in range(hi + 1, hi + 1 + _RA_DEPTH):
                ext = self._map.get(t)
                if ext is None:
                    break
                ahead.append((t, ext[0], ext[2], ext[3]))
            if ahead:
                pool.ra_schedule(ahead)

    def get(self, track: int) -> Block | None:
        if self._pool is not None:
            self._note_sequential(track, track)
        return self._load(track, count=True)

    def get_many(self, tracks: list[int]) -> list[Block | None]:
        """Read several tracks, coalescing extents no further apart than
        :data:`_COALESCE_GAP_BYTES` into single preads (the read-side
        mirror of :meth:`put_many`).

        Observability counters are byte-identical to per-track ``get`` calls:
        only each frame's span (``FRAME_BYTES + payload``) is counted, never
        the gap a coalesced read sweeps over.  Readahead-cached frames are
        consumed first; a trailing sequential streak schedules the next
        extents into the cache.
        """
        exts: list[tuple[int, int, int, int]] = []  # (base, nslots, length, track)
        raws: dict[int, bytes] = {}
        pool = self._pool
        for t in set(tracks):
            ext = self._map.get(t)
            if ext is None:
                continue
            if pool is not None:
                hit = pool.ra_take(t, ext[0], ext[2], ext[3])
                if hit is not None:
                    raws[t] = hit
                    continue
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
                raw = self._read_at(start * slot_bytes, span)
                for base, _nslots, length, t in exts[i : j + 1]:
                    off = (base - start) * slot_bytes
                    raws[t] = raw[off : off + FRAME_BYTES + length]
                i = j + 1
        finally:
            prof.pop()
        out: list[Block | None] = []
        for t in tracks:
            ext = self._map.get(t)
            out.append(None if ext is None else self._decode_frame(raws[t], ext, count=True))
        if pool is not None and tracks:
            # Batch-granular streak: consecutive batches that chain track
            # ranges arm readahead past the batch's end.
            self._note_sequential(min(tracks), max(tracks))
        return out

    def peek(self, track: int) -> Block | None:
        return self._load(track, count=False)

    def _place(self, track: int, block: Block | None) -> tuple[bool, tuple | None]:
        """Metadata half of a put: allocate/release and update the map.

        Returns ``(prev_present, pending_write)`` where ``pending_write``
        is ``(byte offset, sealed frame padded to the end of its slot
        run)`` — or ``None`` when the put was a deletion.  The caller
        performs the actual write, which is what lets :meth:`put_many`
        merge adjacent runs into one pwrite (allocation never depends on
        written bytes, so deferring the data movement leaves every
        map/free-list transition identical).
        """
        if self._pool is not None:
            # Any map mutation fences the readahead cache (a stale platter
            # image must never satisfy a later read).
            self._pool.ra_invalidate()
            self._ra_streak = 0
        prev = self._map.get(track)
        if block is None:
            if prev is None:
                return False, None
            del self._map[track]
            self._release(prev[0], prev[1])
            return True, None
        prof = self.profiler
        prof.push("serialize")
        try:
            head, body = _encode_block(block)
        finally:
            prof.pop()
        length = len(head) + len(body)
        slot_bytes = self.slot_bytes
        need = -(-(FRAME_BYTES + length) // slot_bytes)
        if prev is not None and prev[1] == need and (prev[0], prev[1]) not in self._pinned:
            base = prev[0]  # overwrite in place
        else:
            if prev is not None:
                self._release(prev[0], prev[1])
            base = self._alloc(need)
        pad = need * slot_bytes - FRAME_BYTES - length
        record = _seal_frame(
            head, body, self._gen, pad if pad <= _COALESCE_GAP_BYTES else 0
        )
        self.write_bytes += FRAME_BYTES + length
        self._map[track] = (base, need, length, self._gen)
        return prev is not None, (base * slot_bytes, record)

    def put(self, track: int, block: Block | None) -> bool:
        prev_present, pending = self._place(track, block)
        if pending is not None:
            prof = self.profiler
            prof.push("syscall_io")
            try:
                self._write_at(*pending)
            finally:
                prof.pop()
        return prev_present

    def put_many(self, items: list[tuple[int, Block | None]]) -> list[bool]:
        """Store several tracks, merging byte-adjacent slot runs into one pwrite.

        Map, free-list and file-byte transitions are exactly those of
        in-order ``put`` calls (every frame is already padded to the end of
        its run); only the data movement is batched.  Duplicate tracks in
        one batch fall back to plain puts (a later put may free and reuse
        the earlier one's slots).
        """
        tracks = [t for t, _ in items]
        if len(set(tracks)) != len(tracks):
            return [self.put(t, b) for t, b in items]
        prev_flags: list[bool] = []
        writes: list[tuple[int, bytes]] = []
        for track, block in items:
            prev_present, pending = self._place(track, block)
            prev_flags.append(prev_present)
            if pending is not None:
                writes.append(pending)
        writes.sort()
        prof = self.profiler
        prof.push("syscall_io")
        try:
            i = 0
            while i < len(writes):
                start, record = writes[i]
                end = start + len(record)
                j = i + 1
                while j < len(writes) and writes[j][0] == end:
                    end += len(writes[j][1])
                    j += 1
                if j - i > 1:
                    record = b"".join(w[1] for w in writes[i:j])
                self._write_at(start, record)
                i = j
        finally:
            prof.pop()
        return prev_flags

    def discard(self, track: int) -> bool:
        ext = self._map.pop(track, None)
        if ext is None:
            return False
        if self._pool is not None:
            self._pool.ra_invalidate()
            self._ra_streak = 0
        self._release(ext[0], ext[1])
        return True

    def discard_range(self, lo: int, hi: int) -> int:
        """Drop tracks ``lo .. hi-1``; returns how many held a block.

        The slot runs are released in track order, as per-track
        :meth:`discard` calls would, so the free list ends up the same.
        """
        pop = self._map.pop
        exts = [ext for t in range(lo, hi) if (ext := pop(t, None)) is not None]
        if exts and self._pool is not None:
            self._pool.ra_invalidate()
            self._ra_streak = 0
        for base, nslots, _length, _gen in exts:
            self._release(base, nslots)
        return len(exts)

    def tracks(self) -> Iterator[int]:
        return iter(list(self._map))

    def tracks_view(self) -> "_TracksView":
        return _TracksView(self)

    def sync(self) -> None:
        # Quiesce invariant (DESIGN §12): the fsync barrier must cover every
        # queued write, so the durability point is exactly the sync plane's.
        self._quiesce()
        prof = self.profiler
        prof.push("syscall_io")
        try:
            os.fsync(self._fd)
        finally:
            prof.pop()

    def close(self) -> None:
        if not self._closed:
            try:
                pool = self._pool
                if pool is not None:
                    # Drain and join before the fd goes away; a deferred
                    # worker error still surfaces (after the fd is closed).
                    self._pool = None
                    try:
                        pool.close()
                    finally:
                        self._drain_bg_profile(pool)
            finally:
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
        self._quiesce()  # pins must reference platter-settled extents
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
        self._quiesce()
        if self._pool is not None:
            self._pool.ra_invalidate()
            self._ra_last, self._ra_streak = -2, 0
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
    """The :class:`FileStorage` format accessed through a shared ``mmap``.

    The platter primitives slice the mapping under ``_mm_lock``: with the
    flusher pool on, a remap (growth closes and reopens the mapping) must
    never pull the pages out from under an in-flight background transfer.
    """

    kind = "mmap"

    def __init__(
        self,
        path: str | os.PathLike,
        B: int,
        slot_bytes: int | None = None,
        io_overlap: bool = False,
        overlap_budget: int = 0,
    ):
        self._mm: mmap.mmap | None = None
        self._mm_lock = threading.Lock()
        super().__init__(path, B, slot_bytes, io_overlap, overlap_budget)
        if self._mm is None:
            self._remap()

    def _remap(self) -> None:
        with self._mm_lock:
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

    def _platter_read(self, offset: int, nbytes: int) -> bytes:
        with self._mm_lock:
            return bytes(self._mm[offset : offset + nbytes])

    def _platter_write(self, offset: int, data: bytes) -> None:
        with self._mm_lock:
            self._mm[offset : offset + len(data)] = data

    def sync(self) -> None:
        self._quiesce()
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
        try:
            pool = self._pool
            if pool is not None:
                self._pool = None
                try:
                    pool.close()
                finally:
                    self._drain_bg_profile(pool)
        finally:
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
            raw = os.pread(fd, span, start * slot_bytes)
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

    ``io_overlap``/``overlap_budget`` carry the overlapped-I/O knob: every
    non-memory storage then owns a :class:`_FlusherPool` bounded to
    ``overlap_budget`` bytes per drive.  The fields survive :meth:`for_proc`,
    so process-backend workers build their per-drive pools from the same
    recipe.
    """

    kind: str = "memory"
    root: str | None = None
    owned: bool = False
    crash: CrashPlan | None = None
    proc: int = 0
    io_overlap: bool = False
    overlap_budget: int = 0

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
        return StorageSpec(
            self.kind, sub, False, self.crash, index,
            self.io_overlap, self.overlap_budget,
        )

    def with_crash(self, plan: CrashPlan | None) -> "StorageSpec":
        """This spec with a byte-level crash plan attached."""
        return StorageSpec(
            self.kind, self.root, self.owned, plan, self.proc,
            self.io_overlap, self.overlap_budget,
        )

    def with_overlap(self, budget: int) -> "StorageSpec":
        """This spec with the overlapped-I/O plane on (``budget`` bytes per
        drive bounding write-behind queue + readahead cache together)."""
        if self.kind == "memory":
            return self  # nothing to overlap; the dict plane has no platter
        return StorageSpec(
            self.kind, self.root, self.owned, self.crash, self.proc,
            True, int(budget),
        )

    def make(self, disk_id: int, B: int) -> BlockStorage:
        """Build the storage of drive ``disk_id``."""
        if self.kind == "memory":
            return MemoryStorage()
        path = os.path.join(self.root, f"disk{disk_id}.dat")
        impl = FileStorage if self.kind == "file" else MmapStorage
        store: BlockStorage = impl(
            path, B,
            io_overlap=self.io_overlap, overlap_budget=self.overlap_budget,
        )
        if self.crash is not None:
            store = CrashyStorage(store, self.crash, self.proc, disk_id)
        return store

    def cleanup(self) -> None:
        if self.owned and self.root:
            shutil.rmtree(self.root, ignore_errors=True)


def resolve_storage(
    storage: "str | StorageSpec | None", storage_dir: str | os.PathLike | None
) -> StorageSpec:
    """Normalize the engine-level ``storage=``/``storage_dir=`` knobs."""
    if storage is None:
        storage = "memory"
    if isinstance(storage, StorageSpec):
        return storage
    return StorageSpec.create(storage, storage_dir)


def default_overlap_budget(M: int, D: int, bytes_per_record: int = 8) -> int:
    """Per-drive byte budget for overlapped-I/O buffers.

    A quarter of the declared memory budget ``M`` (in record bytes), split
    evenly across the ``D`` drives, floored at 64 KiB so tiny test machines
    still overlap usefully.  Write-behind queue and readahead cache each
    stay under this bound per drive, keeping total buffer memory O(M).
    """
    return max(1 << 16, M * bytes_per_record // 4 // max(D, 1))
