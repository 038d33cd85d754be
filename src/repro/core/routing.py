"""Algorithm 2 — **SimulateRouting**: reorganizing message blocks on disk.

Step 2 of Algorithm 1: the blocks generated during a compound superstep sit
in ``D`` buckets in *standard linked format*; they must be brought into
*standard consecutive format*, grouped by destination, so that the fetching
phase of the next compound superstep can read each group's messages with
fully parallel I/O (Figure 2 of the paper).

The two phases follow the paper:

* **Phase 1** — "Allocate space for a copy of bucket *i* on disk *i* ...  For
  the *j*-th parallel read/write: for ``d = 0..D-1`` in parallel, read block
  ``b_d`` belonging to bucket ``d`` from disk ``(d + j) mod D``; write block
  ``b_d`` to disk ``d``."  After this phase, bucket ``d`` lies on
  consecutive tracks of disk ``d`` alone — and, in this implementation,
  *sorted by final target position*, which the bucket tables make possible
  without extra I/O (each table entry records its block's destination).

* **Phase 2** — "read the *j*-th block from disk ``d`` and write it to disk
  ``(d + j) mod D``".  Because every bucket holds the blocks of a contiguous
  range of destination slots, its targets form a contiguous linear range of
  the new region; with the copies sorted, round ``j`` of bucket ``d`` writes
  to linear position ``offset_d + j`` and a per-bucket start stagger of
  ``(offset_d - d) mod D`` rounds makes the round's write disks exactly
  ``(d + j) mod D`` — pairwise distinct, the paper's formula.  Phase 2 thus
  costs one parallel read + one parallel write per round, ``O(total/D + D)``
  operations in all.

The returned region satisfies Definition 2, and reading any run of
consecutive destination slots achieves full disk parallelism.

Both phases are a *schedule*: every ``(disk, track)`` a round reads and
writes follows from the bucket tables before a byte moves.  Each phase is
therefore a lazy generator of ``(reads, write_addrs)`` rounds, and
:func:`simulate_routing` hands both to one call of
:meth:`~repro.emio.diskarray.DiskArray.move_rounds`, which checks every
round of both and charges them as the paper does: one parallel read and one
parallel write per round, on the drives and up to the tracks the round
names, the scratch range allocated and released.  An array that is not on
the fast data plane then runs them as written, one round at a time.  On the
fast data plane the two schedules are *composed* before data moves: phase 2
reads exactly the tracks phase 1 writes, so each of its reads is resolved,
through phase 1's own write address -> source map, to the bucket-store
track the block started on, and the block makes one hop, from there to its
final ``(tgt % D, region.base + tgt // D)``,
:attr:`~repro.emio.diskarray.DiskArray.rounds_in_flight` rounds' worth at a
time — at most ``M/4`` records in memory.  The copy on disk ``d`` is charged
and never written: the same bargain the context cache strikes for a swap
(DESIGN §6).  The schedule stays two-phase because the *count* is the
paper's claim; how many times the bytes are carried is ours to choose, and
deriving the hop from the two schedules, not from a second reading of the
bucket tables, is what keeps the two from drifting apart.  Neither phase
looks inside a block — the tables already say where each one goes — so the
blocks travel *sealed*: on the file planes the stored frame is checked and
written back as read, never decoded.  A message block is encoded once, at
``write_messages``, decoded once, at ``fetch_messages``, and moved once in
between.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterator

from ..emio.disk import DiskError
from ..emio.diskarray import DiskArray, Round
from ..emio.layout import RegionAllocator, StripedRegion
from ..emio.linked import LinkedBuckets

__all__ = ["simulate_routing", "RoutingStats"]


@dataclass
class RoutingStats:
    """Diagnostics of one SimulateRouting invocation."""

    total_blocks: int = 0
    phase1_ops: int = 0
    phase2_ops: int = 0
    max_load_ratio: float = 0.0  # Lemma 2 deviation of the bucket store
    # Per-bucket per-disk block counts of the store being reorganized — the
    # X_{j,k} variables of Lemma 2, kept so conformance oracles can check
    # the balance bound and the phase-1/phase-2 round counts after the fact.
    bucket_loads: tuple[tuple[int, ...], ...] = ()

    @property
    def io_ops(self) -> int:
        return self.phase1_ops + self.phase2_ops


class _Schedule:
    """One phase's rounds, generated afresh on every walk: off the fast
    data plane ``move_rounds`` walks a schedule to check it before it walks
    it to run it, and never holds it; on it one walk keeps the addresses."""

    def __init__(self, rounds: Callable[..., Iterator[Round]], *args):
        self._rounds = rounds
        self._args = args

    def __iter__(self) -> Iterator[Round]:
        return self._rounds(*self._args)


def _phase1_rounds(
    queues: list[list[list[tuple[int, int]]]], D: int, copy_base: int
) -> Iterator[Round]:
    """Round ``j`` reads bucket ``d``'s next block off disk ``(d + j) mod D``
    and writes it to its sorted position in bucket ``d``'s copy on disk ``d``.

    ``queues[d][disk]`` is the FIFO of ``(track, copy position)`` pairs of
    bucket ``d``'s blocks on ``disk``.
    """
    remaining = sum(len(fifo) for per_disk in queues for fifo in per_disk)
    # FIFO consumption via per-queue cursors: list.pop(0) is O(queue) and
    # turns phase 1 quadratic in the bucket size.
    heads = [[0] * D for _ in queues]
    j = 0
    while remaining > 0:
        reads: list[tuple[int, int]] = []
        write_addrs: list[tuple[int, int]] = []
        for d, per_disk in enumerate(queues):
            src = (d + j) % D
            if heads[d][src] < len(per_disk[src]):
                track, copy_pos = per_disk[src][heads[d][src]]
                heads[d][src] += 1
                reads.append((src, track))
                write_addrs.append((d, copy_base + copy_pos))
        j += 1
        if reads:
            remaining -= len(reads)
            yield reads, write_addrs


def _phase2_rounds(
    bucket_range: list[tuple[int, int]], D: int, copy_base: int, region_base: int
) -> Iterator[Round]:
    """Round ``j`` reads the next block of every bucket's sorted copy and
    writes it to its final place in the striped region.

    Bucket ``d`` (``bucket_range[d]`` = first linear target, size) sends
    copy position ``q`` to linear position ``offset_d + q``; a start
    stagger of ``(offset_d - d) mod D`` rounds gives round ``j`` the write
    disks ``(d + j) mod D`` — pairwise distinct, the paper's schedule
    (``move_rounds`` refuses a round that is not).
    """
    shifts = [(off - d) % D if size else 0 for d, (off, size) in enumerate(bucket_range)]
    total_rounds = max(
        (shift + size for shift, (_, size) in zip(shifts, bucket_range)), default=0
    )
    for j in range(total_rounds):
        reads = []
        write_addrs = []
        for d, (off, size) in enumerate(bucket_range):
            q = j - shifts[d]
            if 0 <= q < size:
                reads.append((d, copy_base + q))
                tgt = off + q
                write_addrs.append((tgt % D, region_base + tgt // D))
        if reads:
            yield reads, write_addrs


def simulate_routing(
    array: DiskArray,
    allocator: RegionAllocator,
    buckets: LinkedBuckets,
    nslots: int,
    slot_of: Callable[[int], int],
    name: str = "incoming",
) -> tuple[StripedRegion, RoutingStats]:
    """Reorganize ``buckets`` into a new standard-consecutive region.

    Parameters
    ----------
    nslots:
        Number of destination slots in the target region (``v`` in the
        sequential simulation — one slot per virtual processor; ``v/(p*k)``
        in the parallel one — one slot per batch).
    slot_of:
        Maps a block's destination virtual processor to its target slot.
        Each bucket must cover a contiguous slot range (true for the
        engines' ``bucket_of`` maps, which factor through ``slot_of``).

    Returns the freshly allocated region and routing statistics.  The caller
    is responsible for freeing the bucket store afterwards.
    """
    D = array.D
    if buckets.nbuckets > D:
        raise DiskError(
            f"SimulateRouting requires nbuckets ({buckets.nbuckets}) <= D ({D}): "
            "phase 1 copies bucket i onto disk i"
        )
    stats = RoutingStats(
        total_blocks=buckets.total_blocks,
        max_load_ratio=buckets.max_load_ratio(),
        bucket_loads=tuple(
            tuple(buckets.bucket_disk_loads(b)) for b in range(buckets.nbuckets)
        ),
    )

    # ---- Sizing and target assignment (metadata only; the bucket tables
    # record every block's destination, so no I/O happens here, and nothing
    # is allocated until the tables are known to be routable).  One walk of
    # the tables caches each entry's slot so the target pass below does not
    # re-derive it. ----
    slot_sizes = [0] * nslots
    triples: list[list[tuple[int, int, int]]] = []  # (src_disk, track, slot)
    for b in range(buckets.nbuckets):
        ts = []
        for disk, bucket_entries in enumerate(buckets.table[b]):
            for track, dest in bucket_entries:
                s = slot_of(dest)
                slot_sizes[s] += 1
                ts.append((disk, track, s))
        triples.append(ts)

    # Per-bucket target lists: targets[b][i] = final linear position of the
    # i-th table entry of bucket b (entries enumerated disk-major).  Each
    # bucket's targets must form a contiguous linear range.
    cursors = list(accumulate(slot_sizes, initial=0))  # the region's slot offsets
    entries: list[list[tuple[int, int, int]]] = []  # (src_disk, track, target)
    bucket_range: list[tuple[int, int]] = []
    for b in range(buckets.nbuckets):
        es = []
        lo, hi = None, None
        for disk, track, s in triples[b]:
            tgt = cursors[s]
            cursors[s] += 1
            es.append((disk, track, tgt))
            lo = tgt if lo is None else min(lo, tgt)
            hi = tgt if hi is None else max(hi, tgt)
        if es and hi - lo + 1 != len(es):
            raise DiskError(
                f"bucket {b} targets are not contiguous "
                "(bucket_of must factor through slot_of monotonically)"
            )
        entries.append(es)
        bucket_range.append((lo if lo is not None else 0, len(es)))

    region = StripedRegion(array, allocator, slot_sizes, name=name)
    if stats.total_blocks == 0:
        return region, stats

    # ---- Phase 1 gathers bucket d onto disk d, sorted by target; phase 2
    # stripes the sorted copies into the target region ----
    max_bucket = max(len(es) for es in entries)
    copy_base = allocator.allocate(max_bucket)
    # Per (bucket, source-disk) FIFOs of (track, copy position).
    queues: list[list[list[tuple[int, int]]]] = []
    for b in range(buckets.nbuckets):
        off = bucket_range[b][0]
        per_disk: list[list[tuple[int, int]]] = [[] for _ in range(D)]
        for disk, track, tgt in entries[b]:
            per_disk[disk].append((track, tgt - off))
        queues.append(per_disk)

    stats.phase1_ops, stats.phase2_ops = array.move_rounds(
        _Schedule(_phase1_rounds, queues, D, copy_base),
        _Schedule(_phase2_rounds, bucket_range, D, copy_base, region.base),
    )
    allocator.release(copy_base, max_bucket)
    return region, stats
