"""*Standard linked format*: the randomized bucket store of Section 5.1.

After the computation phase of a group, the generated message blocks are
written to disk immediately, one random permutation of disks per write cycle:

    "In each round a group of ``D`` blocks ``b_i`` is written in parallel to
    the disks by choosing a random permutation ``pi`` of ``{0..D-1}`` and
    writing block ``b_i`` to disk ``pi(i)``."

Blocks are partitioned into ``D`` *buckets* by destination: bucket ``i`` holds
the blocks destined for the ``i``-th contiguous range of virtual processors.
On each disk, the blocks of a bucket form a linked list; the paper maintains
"a table of ``D`` pointers on each disk" pointing at the list heads.  We keep
the equivalent table in memory (one integer per stored block); its maintenance
piggybacks on block writes exactly as in the paper and incurs no extra I/O.

Lemma 2 shows that the random permutation writes leave every bucket spread
almost evenly over the disks — the property the reorganization step
(:mod:`repro.core.routing`) relies on, and which the ``LEM2`` benchmark
measures empirically.

The store can also be read as it stands: :meth:`~LinkedBuckets.retain` serves
it, by slot like a :class:`~repro.emio.layout.StripedRegion`, as the next
compound superstep's incoming messages, and :meth:`~LinkedBuckets.group_loads`
says from the tables alone what each fetch group would pay to read it — the
numbers Step 2 decides on (:func:`repro.core.routing.keep_store`).
"""

from __future__ import annotations

import random
from itertools import islice
from typing import Callable, Sequence

from .disk import Block, DiskError
from .diskarray import DiskArray
from .layout import RegionAllocator, SlotReads

__all__ = ["LinkedBuckets", "WRITE_SCHEDULES"]

#: The disk-assignment policies of a write cycle (see ``schedule`` below).
WRITE_SCHEDULES = ("random", "rotate", "static", "balance")


class LinkedBuckets(SlotReads):
    """``nbuckets`` buckets of message blocks in standard linked format.

    Free tracks are drawn from ``allocator`` in chunks of ``chunk`` tracks
    per disk, so the store grows with actual traffic and releases everything
    back with :meth:`free` at the end of the superstep.

    Parameters
    ----------
    array:
        The disk array to write to.
    allocator:
        Source of track ranges.
    nbuckets:
        Number of buckets (the paper uses ``D``).
    bucket_of:
        Mapping from a block's destination virtual processor to its bucket.
    rng:
        Source of the random write permutations.
    schedule:
        Disk-assignment policy per write cycle — ablation modes for what
        Lemma 2's randomization buys:

        * ``"random"`` (the paper): a fresh uniform permutation per cycle;
          balance holds whp for *every* traffic pattern.
        * ``"rotate"``: deterministic rotation by the cycle index; balanced
          for benign traffic but defeatable by adversarial correlation.
        * ``"static"``: the identity permutation every cycle; traffic whose
          in-cycle position correlates with the bucket piles whole buckets
          onto single disks (load ratio ``D``).
        * ``"balance"``: deterministic greedy least-loaded assignment — the
          paper's remark that "for communication of predetermined size,
          such as occurs in a CGM, our simulation result can be made
          deterministic": each block goes to the cycle-free disk where its
          bucket currently has the smallest load.
    """

    def __init__(
        self,
        array: DiskArray,
        allocator: RegionAllocator,
        nbuckets: int,
        bucket_of: Callable[[int], int],
        rng: random.Random,
        chunk: int = 16,
        schedule: str = "random",
    ):
        if schedule not in WRITE_SCHEDULES:
            raise ValueError(f"unknown write schedule {schedule!r}")
        self.array = array
        self.allocator = allocator
        self.nbuckets = nbuckets
        self.bucket_of = bucket_of
        self.rng = rng
        self.chunk = max(1, chunk)
        self.schedule = schedule
        self._cycle = 0
        # Reserved track ranges (base, size) and the per-disk next-free pointer.
        self._ranges: list[tuple[int, int]] = []
        self._free_tracks: list[list[int]] = [[] for _ in range(array.D)]
        # table[bucket][disk] = list of (track, dest) pairs for that bucket's
        # blocks on that disk (the per-disk pointer tables of the paper,
        # augmented with the block's destination so the reorganization step
        # can size the target region without extra I/O).
        self.table: list[list[list[tuple[int, int]]]] = [
            [[] for _ in range(array.D)] for _ in range(nbuckets)
        ]
        self.blocks_written = 0
        # The read side, set by retain(): each slot's (disk, track) addresses.
        self.slot_sizes: list[int] = []
        self._slot_addrs: list[list[tuple[int, int]]] = []

    def _grab_chunk(self) -> None:
        base = self.allocator.allocate(self.chunk)
        self._ranges.append((base, self.chunk))
        for d in range(self.array.D):
            self._free_tracks[d].extend(range(base, base + self.chunk))

    def _next_track(self, disk: int) -> int:
        if not self._free_tracks[disk]:
            self._grab_chunk()
        return self._free_tracks[disk].pop(0)

    # -- writing (Step 1(d) of Algorithm 1) -----------------------------------

    def append_blocks(self, blocks: Sequence[Block], kept: int = 0) -> int:
        """Write message blocks in random-permutation cycles of ``D`` blocks.

        Returns the number of parallel I/O operations used
        (``ceil(len(blocks)/D)``).  ``kept`` more blocks of the same write
        stay in memory: the cycles they would have filled still draw their
        permutations, unused, so the RNG is where the whole write would have
        left it for whatever else draws from it.

        In degraded mode (a dead drive, see
        :meth:`repro.emio.diskarray.DiskArray.mark_dead`) cycles shrink to
        the ``D-1`` surviving disks and the permutation ranges over those
        only, so every bucket stays spread evenly over the drives that can
        actually serve it — Lemma 2 balance at ``D-1``.

        The cycles go to :meth:`~repro.emio.diskarray.DiskArray.write_batched`
        :attr:`~repro.emio.diskarray.DiskArray.rounds_in_flight` at a time:
        placed, then written, cycle by cycle unless the array is on the
        fast data plane, where a batch of cycles reaches each drive in one
        transfer.  Each cycle is a permutation of the live drives and only
        the last can be partial, so the batch's greedy packing gives back
        exactly its cycles, in order: one parallel write each.
        """
        ops_before = self.array.parallel_ops
        live = self.array.live_disks
        D = len(live)
        starts = iter(range(0, len(blocks), D))
        while chunk := list(islice(starts, self.array.rounds_in_flight)):
            self.array.write_batched(
                [op for start in chunk for op in self._place_cycle(blocks[start : start + D], live)]
            )
        for _ in range(-(-(len(blocks) + kept) // D) - -(-len(blocks) // D)):
            self._place_cycle((), live)
        self.blocks_written += len(blocks)
        return self.array.parallel_ops - ops_before

    def _place_cycle(
        self, cycle: Sequence[Block], live: Sequence[int]
    ) -> list[tuple[int, int, Block]]:
        """Assign one write cycle's blocks to disks and tracks and enter
        them in the bucket tables; returns the cycle's ``(disk, track,
        block)`` writes."""
        D = len(live)
        perm = list(range(D))
        if self.schedule == "rotate":
            r = self._cycle % D
            perm = perm[r:] + perm[:r]
        elif self.schedule == "random":
            self.rng.shuffle(perm)
        elif self.schedule == "balance":
            perm = self._balanced_assignment(cycle, live)
        self._cycle += 1
        writes = []
        for i, blk in enumerate(cycle):
            disk = live[perm[i]]
            track = self._next_track(disk)
            bucket = self.bucket_of(blk.dest)
            if not (0 <= bucket < self.nbuckets):
                raise DiskError(
                    f"block dest {blk.dest} maps to invalid bucket {bucket}"
                )
            self.table[bucket][disk].append((track, blk.dest))
            writes.append((disk, track, blk))
        return writes

    def _balanced_assignment(
        self, cycle: Sequence[Block], live: Sequence[int]
    ) -> list[int]:
        """Deterministic least-loaded disk assignment for one write cycle.

        Greedy: process blocks in bucket order; each takes the still-free
        disk where its bucket's current load is smallest (ties to the lowest
        disk id).  For predetermined uniform traffic — the CGM case — this
        keeps every bucket's per-disk loads within 1 of each other, making
        the whole simulation deterministic as the paper notes.  Returns
        indices into ``live`` (the surviving drives).
        """
        free = set(range(len(live)))
        perm = [0] * len(cycle)
        order = sorted(range(len(cycle)), key=lambda i: self.bucket_of(cycle[i].dest))
        for i in order:
            bucket = self.bucket_of(cycle[i].dest)
            loads = self.table[bucket]
            li = min(free, key=lambda j: (len(loads[live[j]]), live[j]))
            free.remove(li)
            perm[i] = li
        return perm

    # -- inspection --------------------------------------------------------------

    def bucket_size(self, bucket: int) -> int:
        """Total blocks currently held by ``bucket`` across all disks."""
        return sum(len(tr) for tr in self.table[bucket])

    def bucket_disk_loads(self, bucket: int) -> list[int]:
        """Per-disk block counts of ``bucket`` — the ``X_{j,k}`` of Lemma 2."""
        return [len(tr) for tr in self.table[bucket]]

    def max_load_ratio(self) -> float:
        """max over (bucket, disk) of load / (R/D), the Lemma 2 deviation factor.

        ``R`` is taken per bucket as that bucket's actual size.  Buckets with
        no blocks are skipped.
        """
        worst = 0.0
        for j in range(self.nbuckets):
            R = self.bucket_size(j)
            if R == 0:
                continue
            expected = R / self.array.D
            worst = max(worst, max(self.bucket_disk_loads(j)) / expected)
        return worst

    @property
    def total_blocks(self) -> int:
        return sum(self.bucket_size(j) for j in range(self.nbuckets))

    # -- reading back (Step 2 keeps the store as it stands) ---------------------

    def retain(self, nslots: int, slot_of: Callable[[int], int]) -> "LinkedBuckets":
        """Serve this store as the next compound superstep's incoming messages.

        Its blocks are grouped into ``nslots`` slots by ``slot_of(dest)``,
        each slot's in table order — bucket, disk, first in first out: the
        order Algorithm 2 (:func:`~repro.core.routing.simulate_routing`) lays
        a slot out in, so a fetch hands every virtual processor the blocks it
        would have read from the region.  Metadata only, no I/O; returns the
        store.

        Always correct; cheap only where the blocks a fetch reads together
        are spread over the drives.  Whether they are is a count over the
        tables (:meth:`group_loads`), and the caller decides on it: the
        engines keep the store only where reading it costs no more than
        Algorithm 2 could (:func:`~repro.core.routing.keep_store`; with
        ``D <= 5`` drives, always).  A store that one append filled — one
        group — has at most ``ceil(n/live)`` of its ``n`` blocks on a drive,
        since every cycle is a permutation of the live drives and only the
        last is partial.
        """
        slots: dict[int, int] = {}
        per_slot: list[list[tuple[int, int]]] = [[] for _ in range(nslots)]
        for per_disk in self.table:
            for disk, entries in enumerate(per_disk):
                for track, dest in entries:
                    s = slots.get(dest)
                    if s is None:
                        s = slots[dest] = slot_of(dest)
                        if not 0 <= s < nslots:
                            raise DiskError(
                                f"dest {dest} maps to slot {s}, outside 0..{nslots - 1}"
                            )
                    per_slot[s].append((disk, track))
        self._slot_addrs = per_slot
        self.slot_sizes = [len(addrs) for addrs in per_slot]
        return self

    def group_loads(
        self, ngroups: int, group_of: Callable[[int], int]
    ) -> tuple[tuple[int, ...], ...]:
        """Per fetch group, per drive, the blocks of a :meth:`retain`-ed store
        that group reads: slot ``s`` is group ``group_of(s)``'s, of
        ``ngroups`` (one vp slot each, the groups' runs of slots).  Reading
        group ``g``'s slots costs its heaviest drive."""
        loads = [[0] * self.array.D for _ in range(ngroups)]
        for s, addrs in enumerate(self._slot_addrs):
            row = loads[group_of(s)]
            for disk, _track in addrs:
                row[disk] += 1
        return tuple(map(tuple, loads))

    def slot_drives(self) -> list[list[int]]:
        """Each slot's blocks' drives, in slot order: what a portable
        checkpoint keeps so that :meth:`rewrite` puts them back."""
        return [[disk for disk, _track in addrs] for addrs in self._slot_addrs]

    def slot_addrs(self, slot: int) -> list[tuple[int, int]]:
        return self._slot_addrs[slot]

    def reference(self) -> tuple:
        """What :meth:`adopt` needs to rebuild this retained store: its track
        ranges and its table read out by slot."""
        return ("store", list(self._ranges), self._slot_addrs)

    @classmethod
    def adopt(
        cls,
        array: DiskArray,
        allocator: RegionAllocator,
        ranges: Sequence[tuple[int, int]],
        slot_addrs: Sequence[Sequence[tuple[int, int]]],
    ) -> "LinkedBuckets":
        """Rebuild a retained store over track ranges that are *already
        allocated* — re-attaching a storage-plane checkpoint, as
        :meth:`StripedRegion.adopt <repro.emio.layout.StripedRegion.adopt>`
        does for a region.  It reads and frees; it is never appended to."""
        store = cls(array, allocator, nbuckets=0, bucket_of=None, rng=None)
        store._ranges = list(ranges)
        store._slot_addrs = [list(addrs) for addrs in slot_addrs]
        store.slot_sizes = [len(addrs) for addrs in slot_addrs]
        return store

    @classmethod
    def rewrite(
        cls,
        array: DiskArray,
        allocator: RegionAllocator,
        slot_drives: Sequence[Sequence[int]],
        blocks: Sequence[Sequence[Block | None]],
    ) -> "LinkedBuckets":
        """Write a retained store back from a portable checkpoint: slot by
        slot, each block on the drive :meth:`slot_drives` recorded, in one
        freshly allocated track range.  Each fetch group's heaviest drive is
        then what it was, so the resumed superstep charges what the
        uninterrupted one did.  The write costs the heaviest drive."""
        per_drive = [0] * array.D
        for drives in slot_drives:
            for d in drives:
                per_drive[d] += 1
        size = max(per_drive)
        base = allocator.allocate(size)
        nxt = [base] * array.D
        slot_addrs, writes = [], []
        for drives, blks in zip(slot_drives, blocks):
            addrs = []
            for d, blk in zip(drives, blks):
                addrs.append((d, nxt[d]))
                writes.append((d, nxt[d], blk))
                nxt[d] += 1
            slot_addrs.append(addrs)
        array.write_batched(writes)
        return cls.adopt(array, allocator, [(base, size)], slot_addrs)

    def free(self) -> None:
        """Release all reserved track ranges back to the allocator."""
        for base, size in self._ranges:
            self.allocator.release(base, size)
        self._ranges.clear()
        self._free_tracks = [[] for _ in range(self.array.D)]
        self._slot_addrs, self.slot_sizes = [], []
