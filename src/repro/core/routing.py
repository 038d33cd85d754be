"""Algorithm 2 — **SimulateRouting**: reorganizing message blocks on disk.

Step 2 of Algorithm 1: the blocks generated during a compound superstep sit
in ``D`` buckets in *standard linked format*; they must be brought into
*standard consecutive format*, grouped by destination, so that the fetching
phase of the next compound superstep can read each group's messages with
fully parallel I/O (Figure 2 of the paper).

That is the whole reason to run it, so the engines run it only where it can
pay.  The bucket store can be read by slot as it stands
(:meth:`~repro.emio.linked.LinkedBuckets.retain`): the next superstep's fetch
of group ``g`` then costs ``max_d load[g][d]``, the heaviest drive among the
blocks of that group's slots (Algorithm 1: ``k`` consecutive vp slots;
Algorithm 3: one batch slot).  Algorithm 2 costs at least two parallel
operations a round over at least ``ceil(N/D)`` rounds in each of its two
phases, and the region it lays out is then fetched in ``ceil(m_g/D)`` per
group.  :func:`keep_store` is the rule, taken from the store's own tables
before a block moves: keep the store when

    ``sum_g max_d load[g][d]  <=  4*ceil(N/D) + sum_g ceil(m_g/D)``,

the right-hand side being a lower bound on Algorithm 2 plus the region's
fetch, so a processor is never charged more than Algorithm 2 would have
charged it and Theorem 1's bound stands.  The left-hand side is at most
``N``, so with ``D <= 5`` drives the store is always kept; so is the store
of a processor with one group (one fetch, which one append left at
``ceil(N/D)`` on a healthy array).  Where the rule keeps the store,
:meth:`~repro.core.processor.RealProcessor.deliver` installs it as the next
superstep's incoming messages and charges no round; otherwise it runs
:func:`simulate_routing`.  Either way :class:`RoutingStats` records the
``group_loads`` the rule read and whether the store was ``kept``, for the
Lemma 2 and Theorem 1 oracles.

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
writes follows from the bucket tables before a byte moves.  Each is built
once, in closed form, as a :class:`~repro.emio.diskarray.RelaySchedule` —
five integer arrays (round id, read disk, read track, write disk, write
track), one row per block:

* bucket ``d``'s ``i``-th block on disk ``s`` is read in phase-1 round
  ``((s - d) mod D) + i*D`` — the ``i``-th time the paper's rotation brings
  bucket ``d`` to disk ``s`` — and written to ``(d, copy_base + q)``, ``q``
  its position in the sorted copy;
* copy position ``q`` of bucket ``d`` leaves in phase-2 round ``shift_d + q``
  for ``((off_d + q) mod D, region.base + (off_d + q) div D)``;

rounds in which nothing moves are dropped and the rows lie in (round, bucket)
order.  Slots, targets and the per-bucket contiguity check come from one
stable sort of the table entries by slot, and ``slot_of`` is called once per
distinct destination.  :func:`simulate_routing` hands both schedules to one
call of :meth:`~repro.emio.diskarray.DiskArray.move_rounds`, which checks
every round of both and charges them as the paper does: one parallel read
and one parallel write per round, on the drives and up to the tracks the
round names, the scratch range allocated and released.  An array that is not
on the fast data plane then runs them as written, one round at a time — the
schedule iterates as ``(reads, write_addrs)`` rounds of Python-int pairs.  On
the fast data plane the two schedules are *composed* before data moves:
phase 2 reads exactly the tracks phase 1 writes, so each of its reads is
resolved, by a join on phase 1's own write addresses, to the bucket-store
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

Whatever leaves the arrays for a report, a :class:`StripedRegion`, a trace or
a checkpoint leaves through ``tolist()``: a numpy integer in ``slot_sizes``
or in an ``IOTrace`` op would change pickled golden images.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from ..emio.disk import DiskError
from ..emio.diskarray import DiskArray, RelaySchedule
from ..emio.layout import RegionAllocator, StripedRegion
from ..emio.linked import LinkedBuckets

__all__ = ["simulate_routing", "RoutingStats", "keep_store"]


@dataclass
class RoutingStats:
    """Diagnostics of one Step 2: the store's loads, and what it charged."""

    total_blocks: int = 0
    phase1_ops: int = 0
    phase2_ops: int = 0
    max_load_ratio: float = 0.0  # Lemma 2 deviation of the bucket store
    # Per-bucket per-disk block counts of the store being reorganized — the
    # X_{j,k} variables of Lemma 2, kept so conformance oracles can check
    # the balance bound and the phase-1/phase-2 round counts after the fact.
    bucket_loads: tuple[tuple[int, ...], ...] = ()
    # Per fetch group, per disk: the store's blocks of that group's slots —
    # what keep_store decided on, and what the next fetch of each group
    # costs: its heaviest drive if the store was kept, ceil(sum/D) if not.
    group_loads: tuple[tuple[int, ...], ...] = ()
    kept: bool = False  # the store is the next incoming set; no round charged

    @classmethod
    def of(cls, buckets: LinkedBuckets) -> "RoutingStats":
        """The store's diagnostics, before any round is charged (both phase
        counts stay 0 where Step 2 keeps the store)."""
        return cls(
            total_blocks=buckets.total_blocks,
            max_load_ratio=buckets.max_load_ratio(),
            bucket_loads=tuple(
                tuple(buckets.bucket_disk_loads(b)) for b in range(buckets.nbuckets)
            ),
        )

    @property
    def io_ops(self) -> int:
        return self.phase1_ops + self.phase2_ops


def keep_store(group_loads: Sequence[Sequence[int]], D: int) -> bool:
    """Step 2's rule: keep the bucket store whose fetch groups hold
    ``group_loads[g][d]`` blocks on drive ``d`` when reading it as it stands
    costs no more than a lower bound on Algorithm 2's two phases plus the
    fetch of the region it would lay out (module docstring)."""
    n = sum(map(sum, group_loads))
    floor = 4 * -(-n // D) + sum(-(-sum(row) // D) for row in group_loads)
    return sum(max(row, default=0) for row in group_loads) <= floor


def _in_round_order(raw_round, bucket, D, read_disk, read_track, write_disk, write_track):
    """Rows as a schedule: ordered by (round, bucket) — a bucket moves at
    most one block a round, so the order is total — and the rounds
    renumbered without the empty ones."""
    order = np.argsort(raw_round * D + bucket)
    raw_round = raw_round[order]
    ids = np.cumsum(np.diff(raw_round, prepend=raw_round[:1]) != 0)
    return RelaySchedule(
        ids, read_disk[order], read_track[order], write_disk[order], write_track[order]
    )


def _plan(
    buckets: LinkedBuckets, D: int, nslots: int, slot_of: Callable[[int], int]
) -> tuple[list[int], int, RelaySchedule, RelaySchedule]:
    """Everything SimulateRouting reads off the bucket tables: the target
    region's slot sizes, the largest bucket, and both phases' schedules with
    the tracks of the bucket copies and of the target region counted from 0
    — neither is allocated yet, and nothing is until the tables are known to
    be routable.  Metadata only: the tables record every block's
    destination, so no I/O happens here.  What this works on dies with it;
    the two schedules are all a reorganization holds of its tables."""
    # The tables as arrays, in table order: bucket by bucket, within a
    # bucket disk by disk, within a disk first in first out.
    nb = buckets.nbuckets
    fifos = [fifo for per_disk in buckets.table for fifo in per_disk]
    fifo_len = np.fromiter(map(len, fifos), dtype=np.int64, count=len(fifos))
    n = int(fifo_len.sum())
    table = np.fromiter(
        chain.from_iterable(chain.from_iterable(fifos)), dtype=np.int64, count=2 * n
    ).reshape(n, 2)
    track, dest = table[:, 0], table[:, 1]
    bucket, disk = np.divmod(np.repeat(np.arange(nb * D), fifo_len), D)
    # How many blocks of its bucket lie before it on its disk.
    depth = np.arange(n) - np.repeat(np.cumsum(fifo_len) - fifo_len, fifo_len)

    dests, first_at, dest_id = np.unique(dest, return_index=True, return_inverse=True)
    slots = [slot_of(d) for d in dests.tolist()]
    for d, s, i in zip(dests.tolist(), slots, first_at.tolist()):
        if not 0 <= s < nslots:
            raise DiskError(
                f"bucket {bucket[i]}: dest {d} maps to slot {s}, outside 0..{nslots - 1}"
            )
    slot = np.asarray(slots, dtype=np.int64)[dest_id]
    slot_sizes = np.bincount(slot, minlength=nslots).tolist()

    # The final linear position of every block: a slot's blocks follow the
    # earlier slots' in table order, so one stable sort by slot ranks them
    # all.  Each bucket's targets must form a contiguous linear range.
    target = np.empty(n, dtype=np.int64)
    target[np.argsort(slot, kind="stable")] = np.arange(n)
    size = np.bincount(bucket, minlength=nb)
    filled = np.flatnonzero(size)
    starts = (np.cumsum(size) - size)[filled]  # a bucket's rows are consecutive
    off = np.zeros(nb, dtype=np.int64)
    if n:
        off[filled] = np.minimum.reduceat(target, starts)
        gaps = np.maximum.reduceat(target, starts) - off[filled] + 1 != size[filled]
        if gaps.any():
            raise DiskError(
                f"bucket {filled[gaps.argmax()]} targets are not contiguous "
                "(bucket_of must factor through slot_of monotonically)"
            )

    # Phase 1 gathers bucket d onto disk d, sorted by target.
    phase1 = _in_round_order(
        (disk - bucket) % D + depth * D, bucket, D,
        disk, track, bucket, target - off[bucket],
    )
    # Phase 2 stripes the sorted copies into the target region, each front
    # to back; a bucket's rows being consecutive, row i of the table stands
    # for copy position i - start.  The start stagger of (off_d - d) mod D
    # rounds gives round j the write disks (d + j) mod D — pairwise distinct,
    # the paper's schedule (``move_rounds`` refuses a round that is not).
    q = np.arange(n) - np.repeat(starts, size[filled])
    final = off[bucket] + q
    phase2 = _in_round_order(
        (off[bucket] - bucket) % D + q, bucket, D,
        bucket, q, final % D, final // D,
    )
    return slot_sizes, int(size.max(initial=0)), phase1, phase2


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
    stats = RoutingStats.of(buckets)
    slot_sizes, max_bucket, phase1, phase2 = _plan(buckets, D, nslots, slot_of)
    region = StripedRegion(array, allocator, slot_sizes, name=name)
    if stats.total_blocks == 0:
        return region, stats

    copy_base = allocator.allocate(max_bucket)
    phase1.write_track += copy_base
    phase2.read_track += copy_base
    phase2.write_track += region.base
    stats.phase1_ops, stats.phase2_ops = array.move_rounds(phase1, phase2)
    allocator.release(copy_base, max_bucket)
    return region, stats
