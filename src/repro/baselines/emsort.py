"""Sequential external-memory merge sorts: one skeleton, two buffer widths.

Both sorts form runs of ``M`` records, then merge ``fan_in`` runs at a time
through a heap until one run is left, on the same striped disk substrate as
the CGM simulation.  Run formation, merge output and the final read are
fully ``D``-parallel in both; they differ only in how wide one input-buffer
refill is, which fixes the fan-in (one refill buffer per input run plus one
output buffer must fit in ``M``) and therefore the pass count:

* :class:`EMMergeSort` — the classical Aggarwal–Vitter baseline of Table 1,
  column "Previous results", with the refinement the PDM literature assumes:
  ``D``-block prefetching, so every refill is one fully parallel operation
  and the fan-in is ``M/(DB) - 1``.  Counted I/O is
  ``Theta((n/DB) * log_{M/DB}(n/M))`` parallel operations — the
  ``Theta(G (n/BD) log_{M/B}(n/B))`` row of Table 1 up to the usual striping
  constant.  The T1-A-SORT benchmark prints this next to the simulated CGM
  sort's I/O.
* :class:`KWayMergeSort` — the textbook merge sort (SNIPPETS.md): one block
  per input run, fan-in ``M/B - 1``, a factor ``D`` larger, so the pass
  count is the optimal ``log_{M/B}(n/B)`` — but single-block refills are
  demand-driven and cannot be batched across runs, so merge-pass *reads*
  cost one parallel operation per block (``n/B`` per pass) instead of
  ``n/(DB)``.  Counted I/O: ``Theta((n/DB) + passes * (n/B + n/DB))``; for
  ``D = 1`` this is the optimal ``Theta((n/B) log_{M/B}(n/B))`` sort bound.

That trade-off is exactly the gap Guidesort closes (see
:mod:`~repro.baselines.guidesort`): fewer passes *or* full disk parallelism
is easy; both at once needs a prefetch schedule.  The bake-off table makes
the trade visible on identical machines.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Sequence

from .striping import CountedSorter, SortStats, StripedFile

__all__ = ["EMMergeSort", "KWayMergeSort"]


class _MergeSort(CountedSorter):
    """Run formation + heap merge passes; a subclass names its refill width."""

    #: blocks one input-buffer refill fetches (``D`` or 1)
    refill_blocks: int

    @property
    def fan_in(self) -> int:
        # One refill buffer per input run plus one output buffer must fit
        # in M records.
        m = self.machine
        return max(2, m.M // (self.refill_blocks * m.B) - 1)

    def _sort(self, array, data: Sequence[Any]) -> tuple[list[Any], SortStats]:
        m = self.machine
        B, D, M = m.B, m.D, m.M
        n = len(data)
        fan_in, width = self.fan_in, self.refill_blocks
        stats = SortStats(n=n, fan_in=fan_in)
        nblocks = -(-n // B) if n else 0
        keyf = self.key if self.key is not None else (lambda x: x)

        # Two alternating striped files (ping-pong between merge passes).
        file_a = StripedFile(array, 0, nblocks)
        file_b = StripedFile(array, nblocks + 1, nblocks)

        # ---- load input (counted: it is part of the EM sort's job) ----
        file_a.write_blocks(
            0, [data[i : i + B] for i in range(0, n, B)] if n else []
        )

        # ---- run formation: sort M records at a time in memory ----
        blocks_per_run = max(1, M // B)
        runs: list[tuple[int, int]] = []  # (start block, nblocks) in file_a
        pos = 0
        while pos < nblocks:
            cnt = min(blocks_per_run, nblocks - pos)
            chunk = [x for blk in file_a.read_blocks(pos, cnt) for x in blk]
            chunk.sort(key=self.key)
            stats.comp_ops += len(chunk) * max(1, len(chunk).bit_length())
            file_a.write_blocks(pos, [chunk[i : i + B] for i in range(0, len(chunk), B)])
            runs.append((pos, cnt))
            pos += cnt
        stats.runs_formed = len(runs)

        # ---- merge passes ----
        src, dst = file_a, file_b
        while len(runs) > 1:
            stats.merge_passes += 1
            new_runs: list[tuple[int, int]] = []
            out_block = 0
            for gi in range(0, len(runs), fan_in):
                group = runs[gi : gi + fan_in]
                merged_start = out_block
                # Per-run cursor state: next block index, buffered records.
                cursors = [start for start, _ in group]
                ends = [start + cnt for start, cnt in group]
                bufs: list[list[Any]] = [[] for _ in group]

                def refill(ri: int) -> None:
                    # width = D: one fully parallel prefetch.  width = 1: the
                    # defining demand-driven (non-batchable) single-block read.
                    take = min(width, ends[ri] - cursors[ri])
                    if take > 0:
                        got = src.read_blocks(cursors[ri], take)
                        cursors[ri] += take
                        bufs[ri] = [x for blk in got for x in blk]

                for ri in range(len(group)):
                    refill(ri)
                heap = [
                    (keyf(bufs[ri][0]), ri, 0) for ri in range(len(group)) if bufs[ri]
                ]
                heapq.heapify(heap)
                outbuf: list[Any] = []
                while heap:
                    _, ri, idx = heapq.heappop(heap)
                    outbuf.append(bufs[ri][idx])
                    stats.comp_ops += max(1, len(group).bit_length())
                    nxt = idx + 1
                    if nxt >= len(bufs[ri]):
                        bufs[ri] = []
                        refill(ri)
                        nxt = 0
                    if bufs[ri]:
                        heapq.heappush(heap, (keyf(bufs[ri][nxt]), ri, nxt))
                    while len(outbuf) >= D * B:
                        # Output is sequential: batch D blocks per write op.
                        dst.write_blocks(
                            out_block, [outbuf[i : i + B] for i in range(0, D * B, B)]
                        )
                        out_block += D
                        outbuf = outbuf[D * B :]
                if outbuf:
                    dst.write_blocks(
                        out_block,
                        [outbuf[i : i + B] for i in range(0, len(outbuf), B)],
                    )
                    out_block += -(-len(outbuf) // B)
                new_runs.append((merged_start, out_block - merged_start))
            runs = new_runs
            src, dst = dst, src

        # ---- read back the result (fully D-parallel) ----
        if runs:
            start, cnt = runs[0]
            result = [x for blk in src.read_blocks(start, cnt) for x in blk]
        else:
            result = []
        stats.io_ops = array.parallel_ops
        return result, stats

    def _shape(self, n: int) -> tuple[int, int, int, int, int]:
        """``(nblk, stripes, runs, passes, groups)`` of an ``n``-record sort."""
        m = self.machine
        nblk = math.ceil(n / m.B)
        runs = max(1, math.ceil(n / m.M))
        passes = math.ceil(math.log(runs, self.fan_in)) if runs > 1 else 0
        groups = max(1, math.ceil(runs / self.fan_in))
        return nblk, math.ceil(nblk / m.D), runs, passes, groups


class EMMergeSort(_MergeSort):
    """External mergesort with ``D``-block prefetch buffers (superblock
    striping): every refill is one parallel op, the fan-in is
    ``M/(DB) - 1``."""

    @property
    def refill_blocks(self) -> int:
        return self.machine.D

    def predicted_io_ops(self, n: int) -> float:
        """The textbook bound ``~(n/DB) * (2*passes + 4)`` on parallel I/O ops.

        Stripes and run counts round up, and each phase (load, run
        formation read/write, per-pass merge read/write, final read) may
        pay one extra partial parallel operation per run it touches.
        """
        if n == 0:
            return 0.0
        _nblk, stripes, runs, passes, groups = self._shape(n)
        return (stripes + 1) * (2 * passes + 4) + 2 * runs + 2 * passes * groups


class KWayMergeSort(_MergeSort):
    """Textbook k-way external merge sort: one block buffer per input run,
    the full ``M/B - 1`` fan-in, one read op per block in the merge."""

    refill_blocks = 1

    def predicted_io_ops(self, n: int) -> float:
        """Closed-form bound on parallel I/O operations.

        Load + run formation + final read are ``D``-parallel streams
        (``4 * ceil(n/DB)`` with per-phase rounding slack); each merge pass
        reads one op per block (``ceil(n/B)``) and writes ``D``-batched
        (``ceil(n/DB)`` plus one partial batch per output run group).
        """
        if n == 0:
            return 0.0
        nblk, stripes, _runs, passes, groups = self._shape(n)
        return 4 * (stripes + 1) + passes * (nblk + stripes + 2 * groups)
