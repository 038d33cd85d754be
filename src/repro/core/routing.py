"""Algorithm 2 — **SimulateRouting**: reorganizing message blocks on disk.

Step 2 of Algorithms 1 and 3: the blocks a real processor generated during
a compound superstep sit in its ``D`` buckets in *standard linked format*;
they must be brought into *standard consecutive format*, grouped by
destination, so that the fetching phase of the next compound superstep can
read each group's messages with fully parallel I/O (Figure 2 of the paper).

That is the whole reason to run it, so the engine runs it only where it can
pay.  The bucket store can be read by slot as it stands
(:meth:`~repro.emio.linked.LinkedBuckets.retain`): the next superstep's fetch
of group ``g`` then costs ``max_d load[g][d]``, the heaviest drive among the
blocks of that group's ``k`` consecutive slots (one slot per vp).  Algorithm
2 costs at least two parallel operations a round over at least
``ceil(N/D)`` rounds in each of its two phases, and the region it lays out
is then fetched in ``ceil(m_g/D)`` per group.  :func:`keep_store` is the
rule, taken from the store's own tables before a block moves: keep the
store when

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

The two phases are the paper's loop of rounds, each round one parallel read
plus one parallel write:

* **Phase 1** — "for the *j*-th parallel read/write: for ``d = 0..D-1`` in
  parallel, read block ``b_d`` belonging to bucket ``d`` from disk
  ``(d + j) mod D``; write block ``b_d`` to disk ``d``."  Bucket ``d`` ends
  on consecutive tracks of disk ``d``, sorted by final target position (the
  tables record every block's destination, so sorting costs no I/O).
* **Phase 2** — "read the *j*-th block from disk ``d`` and write it to disk
  ``(d + j) mod D``."  A bucket covers a contiguous range of destination
  slots, so copy position ``q`` of bucket ``d`` goes to linear position
  ``off_d + q``; starting bucket ``d`` ``(off_d - d) mod D`` rounds late
  makes each round's write disks pairwise distinct.

:func:`_plan` reads both phases off the bucket tables in closed form before
a block moves; :func:`simulate_routing` hands them to
:meth:`~repro.emio.diskarray.DiskArray.move_rounds`, which checks every
round of both and then runs them read, write, read, write.  The region it
leaves satisfies Definition 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterator, Sequence

import numpy as np

from ..emio.disk import DiskError
from ..emio.diskarray import DiskArray
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


class _Phase:
    """One phase of the plan as five integer arrays, one row per block, in
    round order: the row's round id (from 0, none skipped), the ``(disk,
    track)`` it reads and the ``(disk, track)`` it writes.  Iterating yields
    the rounds as ``(reads, write_addrs)`` lists of Python-int pairs, one
    round at a time and afresh on every walk, so a walk holds one round."""

    __slots__ = ("round", "read_disk", "read_track", "write_disk", "write_track")

    def __init__(self, round, read_disk, read_track, write_disk, write_track):
        self.round, self.read_disk, self.read_track = round, read_disk, read_track
        self.write_disk, self.write_track = write_disk, write_track

    def __iter__(self) -> Iterator[tuple[list[tuple[int, int]], list[tuple[int, int]]]]:
        nrounds = int(self.round[-1]) + 1 if len(self.round) else 0
        edges = np.searchsorted(self.round, np.arange(nrounds + 1)).tolist()
        for lo, hi in zip(edges, edges[1:]):
            yield (
                list(zip(self.read_disk[lo:hi].tolist(), self.read_track[lo:hi].tolist())),
                list(zip(self.write_disk[lo:hi].tolist(), self.write_track[lo:hi].tolist())),
            )


def _in_round_order(raw_round, bucket, D, read_disk, read_track, write_disk, write_track):
    """Rows as a schedule: ordered by (round, bucket) — a bucket moves at
    most one block a round, so the order is total — and the rounds
    renumbered without the empty ones."""
    order = np.argsort(raw_round * D + bucket)
    raw_round = raw_round[order]
    ids = np.cumsum(np.diff(raw_round, prepend=raw_round[:1]) != 0)
    return _Phase(ids, read_disk[order], read_track[order], write_disk[order], write_track[order])


def _plan(
    buckets: LinkedBuckets, D: int, nslots: int, slot_of: Callable[[int], int]
) -> tuple[list[int], int, _Phase, _Phase]:
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
        Number of destination slots in the target region (``v/p``, one slot
        per vp).
    slot_of:
        Maps a block's destination virtual processor to its target slot.
        Each bucket must cover a contiguous slot range (true for the
        engine's ``bucket_of`` map, which factors through ``slot_of``).

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
