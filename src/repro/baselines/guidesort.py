"""Guidesort: guide-sequence PDM merge sort with ``D``-disk striping.

Hagerup's Guidesort (arXiv 1807.11328; PAPERS.md) is the simpler optimal
deterministic parallel-disk sorter.  The idea reproduced here: alongside
every sorted run keep a *guide sequence* — the maximum key of each of its
blocks.  Merging the guide sequences of a merge group (tiny: one key per
``B`` records) yields, ahead of time, the exact order in which the record
merge will exhaust its input blocks — which is exactly the order in which
blocks must be fetched.  With that schedule the merge prefetches ``D``
blocks per parallel read, and staggered run striping (run ``r`` starts on
disk ``r mod D``) keeps lockstep batches on distinct drives, so merge-pass
reads cost ``~n/(DB)`` instead of the demand-driven ``n/B`` of
:class:`~repro.baselines.emsort.KWayMergeSort` — while the fan-in
stays ``Theta(M/B)``, a factor ``D`` above
:class:`~repro.baselines.emsort.EMMergeSort`'s superblock striping.

Both rivals' weaknesses fixed at once: counted I/O is
``Theta((n/DB) * log_{M/B}(n/B))`` parallel operations — the optimal
deterministic PDM sort bound.

The schedule/consumption agreement is not trusted: the merge asserts each
refill is the prefetch pool's head and counts any disagreement in
``stats.guide_mismatches`` (zero on every test and bake-off configuration;
ties are broken ``(key, run)`` identically in both heaps).
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Iterator, Sequence

from .striping import CountedSorter, SortStats, StripedFile

__all__ = ["Guidesort"]


class _Run:
    """One sorted run: staggered data blocks plus its guide sequence."""

    def __init__(self, file: StripedFile, guide: StripedFile, nrecords: int):
        self.file = file
        self.guide = guide
        self.nrecords = nrecords

    @property
    def nblocks(self) -> int:
        return self.file.nblocks


class Guidesort(CountedSorter):
    """Single-processor guide-sequence merge sort over ``D`` striped disks.

    Guides store key values, so keys must be totally ordered; ties across
    runs break by run index in both the guide and the record merge.
    """

    @property
    def fan_in(self) -> int:
        # Per input run: one data block + one guide block; plus the D-block
        # prefetch pool, D-block output buffer and D-block guide-out buffer.
        m = self.machine
        return max(2, (m.M - 3 * m.D * m.B) // (2 * m.B) - 1)

    # -- layout ---------------------------------------------------------------------

    def _alloc(self, nblocks: int) -> int:
        base = self._next_track
        self._next_track += -(-max(1, nblocks) // self.machine.D) + 1
        return base

    def _new_run(self, array, nrecords: int, idx: int) -> _Run:
        B, D = self.machine.B, self.machine.D
        nblk = -(-nrecords // B)
        gblk = -(-nblk // B)
        file = StripedFile(array, self._alloc(nblk), nblk, shift=idx % D)
        guide = StripedFile(array, self._alloc(gblk), gblk, shift=idx % D)
        return _Run(file, guide, nrecords)

    # -- the sort -------------------------------------------------------------------

    def _sort(self, array, data: Sequence[Any]) -> tuple[list[Any], SortStats]:
        m = self.machine
        B, D, M = m.B, m.D, m.M
        n = len(data)
        stats = SortStats(n=n, fan_in=self.fan_in)
        keyf = self.key if self.key is not None else (lambda x: x)
        self._next_track = 0
        nblocks = -(-n // B) if n else 0

        # ---- load input (counted: part of the sort's job) ----
        inp = StripedFile(array, self._alloc(nblocks), nblocks)
        inp.write_blocks(0, [data[i : i + B] for i in range(0, n, B)] if n else [])
        if n == 0:
            stats.io_ops = array.parallel_ops
            return [], stats

        # ---- run formation on M records at a time, guides recorded ----
        per_run = max(B, (M // B) * B)
        runs: list[_Run] = []
        pos = 0
        while pos * B < n:
            cnt = min(per_run // B, nblocks - pos)
            chunk = [x for blk in inp.read_blocks(pos, cnt) for x in blk]
            chunk.sort(key=keyf)
            stats.comp_ops += len(chunk) * max(1, len(chunk).bit_length())
            run = self._new_run(array, len(chunk), len(runs))
            run.file.write_blocks(
                0, [chunk[i : i + B] for i in range(0, len(chunk), B)]
            )
            gkeys = [keyf(chunk[min(i + B, len(chunk)) - 1]) for i in range(0, len(chunk), B)]
            run.guide.write_blocks(
                0, [gkeys[i : i + B] for i in range(0, len(gkeys), B)]
            )
            runs.append(run)
            pos += cnt
        stats.runs_formed = len(runs)

        # ---- guided merge passes ----
        while len(runs) > 1:
            stats.merge_passes += 1
            new_runs: list[_Run] = []
            for gi in range(0, len(runs), self.fan_in):
                group = runs[gi : gi + self.fan_in]
                new_runs.append(
                    self._merge_group(array, group, len(new_runs), stats, keyf)
                )
            runs = new_runs

        # ---- read back the result (fully D-parallel) ----
        result = [x for blk in runs[0].file.read_blocks(0, runs[0].nblocks) for x in blk]
        stats.io_ops = array.parallel_ops
        return result, stats

    # -- guided merge ---------------------------------------------------------------

    def _schedule(self, group: Sequence[_Run]) -> Iterator[int]:
        """Merge the group's guide sequences: yields run indices in the
        exact order the record merge will exhaust its input blocks."""
        bufs: list[list[Any]] = []
        cursors = []
        heap: list[tuple[Any, int, int]] = []
        for ri, run in enumerate(group):
            blk = run.guide.read_blocks(0, 1)[0] if run.guide.nblocks else []
            bufs.append(blk)
            cursors.append(1)
            if blk:
                heap.append((blk[0], ri, 0))
        heapq.heapify(heap)
        while heap:
            _gkey, ri, idx = heapq.heappop(heap)
            yield ri
            nxt = idx + 1
            if nxt >= len(bufs[ri]):
                if cursors[ri] < group[ri].guide.nblocks:
                    bufs[ri] = group[ri].guide.read_blocks(cursors[ri], 1)[0]
                    cursors[ri] += 1
                    nxt = 0
                else:
                    bufs[ri] = []
            if nxt < len(bufs[ri]):
                heapq.heappush(heap, (bufs[ri][nxt], ri, nxt))

    def _merge_group(
        self,
        array,
        group: Sequence[_Run],
        out_idx: int,
        stats: SortStats,
        keyf: Callable,
    ) -> _Run:
        B, D = self.machine.B, self.machine.D
        out = self._new_run(array, sum(r.nrecords for r in group), out_idx)

        sched = self._schedule(group)
        pool: list[tuple[int, list[Any]]] = []  # (run, records) in schedule order
        fetched = [1] * len(group)  # next block index to prefetch, per run
        consumed = [1] * len(group)  # next block index the merge will need

        def fill_pool() -> bool:
            want: list[tuple[int, int]] = []
            while len(want) < D:
                ri = next(sched, None)
                if ri is None:
                    break
                if fetched[ri] < group[ri].nblocks:
                    want.append((ri, fetched[ri]))
                    fetched[ri] += 1
            if not want:
                return False
            got = array.read_batched(
                [group[ri].file.addr(c) for ri, c in want]
            )
            for (ri, _c), blk in zip(want, got):
                pool.append((ri, list(blk.records) if blk is not None else []))
            return True

        def refill(ri: int) -> list[Any]:
            if consumed[ri] >= group[ri].nblocks:
                return []
            while True:
                for j, (rj, blk) in enumerate(pool):
                    if rj == ri:
                        if j:
                            stats.guide_mismatches += 1
                        del pool[j]
                        consumed[ri] += 1
                        return blk
                if not fill_pool():
                    # Defensive: the schedule ran dry early; fetch directly.
                    stats.guide_mismatches += 1
                    (blk,) = group[ri].file.read_blocks(consumed[ri], 1)
                    fetched[ri] = max(fetched[ri], consumed[ri] + 1)
                    consumed[ri] += 1
                    return blk

        # Block 0 of every run loads upfront in one batched, staggered read.
        bufs = [blks for blks in ([] for _ in group)]
        first = array.read_batched([r.file.addr(0) for r in group if r.nblocks])
        fi = 0
        for ri, run in enumerate(group):
            if run.nblocks:
                blk = first[fi]
                fi += 1
                bufs[ri] = list(blk.records) if blk is not None else []

        heap = [
            (keyf(bufs[ri][0]), ri, 0) for ri in range(len(group)) if bufs[ri]
        ]
        heapq.heapify(heap)
        outbuf: list[Any] = []
        gkeys: list[Any] = []
        out_block = 0
        gout_block = 0

        def flush_out(final: bool) -> None:
            nonlocal outbuf, gkeys, out_block, gout_block
            while len(outbuf) >= D * B or (final and outbuf):
                take = outbuf[: D * B]
                outbuf = outbuf[D * B :]
                chunks = [take[i : i + B] for i in range(0, len(take), B)]
                out.file.write_blocks(out_block, chunks)
                out_block += len(chunks)
                gkeys.extend(keyf(c[-1]) for c in chunks)
            while len(gkeys) >= D * B or (final and gkeys):
                gtake = gkeys[: D * B]
                gkeys = gkeys[D * B :]
                gchunks = [gtake[i : i + B] for i in range(0, len(gtake), B)]
                out.guide.write_blocks(gout_block, gchunks)
                gout_block += len(gchunks)

        while heap:
            _, ri, idx = heapq.heappop(heap)
            outbuf.append(bufs[ri][idx])
            stats.comp_ops += max(1, len(group).bit_length())
            nxt = idx + 1
            if nxt >= len(bufs[ri]):
                bufs[ri] = refill(ri)
                nxt = 0
            if bufs[ri] and nxt < len(bufs[ri]):
                heapq.heappush(heap, (keyf(bufs[ri][nxt]), ri, nxt))
            flush_out(final=False)
        flush_out(final=True)
        return out

    # -- analytic bound -------------------------------------------------------------

    def predicted_io_ops(self, n: int) -> float:
        """Closed-form bound ``O((n/DB) * log_{M/B}(n/M))`` on parallel ops.

        Terms: load + formation + final read are ``D``-parallel streams;
        each merge pass reads and writes every block once in ``D``-batches
        (staggered striping keeps batches on distinct drives; the factor 2
        on pass reads covers residual disk collisions), plus the
        lower-order guide traffic (``~n/B^2`` single-block reads and
        ``D``-batched writes per pass).
        """
        m = self.machine
        if n == 0:
            return 1.0
        nblk = math.ceil(n / m.B)
        stripes = math.ceil(nblk / m.D)
        runs = max(1, math.ceil(n / max(m.B, (m.M // m.B) * m.B)))
        passes = math.ceil(math.log(runs, self.fan_in)) if runs > 1 else 0
        gblk = math.ceil(nblk / m.B) + runs
        groups = max(1, math.ceil(runs / self.fan_in))
        per_pass = (
            2 * stripes  # prefetched reads (collision slack included)
            + stripes  # D-batched writes
            + 3 * groups
            + self.fan_in  # partial batches at group boundaries
            + 2 * (gblk + runs)  # guide reads (single-block) + writes
        )
        return 4 * (stripes + 1) + 2 * runs + gblk + passes * per_pass
