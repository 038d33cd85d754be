"""K-way external merge sort with the full ``M/B``-way merge fan-in.

The textbook external-memory merge sort (SNIPPETS.md; Aggarwal–Vitter):
run formation on ``M`` records, then merge passes with fan-in
``f = M/B - 1`` where every input run holds exactly one block buffer in
memory.  That fan-in is a factor ``D`` larger than
:class:`~repro.baselines.emsort.EMMergeSort`'s superblock-striped
``M/(DB) - 1``, so the pass count is the optimal ``log_{M/B}(n/B)`` — but
the single-block buffer refills are demand-driven and cannot be batched
across runs, so merge-pass *reads* cost one parallel operation per block
(``n/B`` per pass) instead of ``n/(DB)``.  Run formation and merge output
remain fully ``D``-parallel.

That trade-off is exactly the gap Guidesort closes (see
:mod:`~repro.baselines.guidesort`): fewer passes *or* full disk
parallelism is easy; both at once needs a prefetch schedule.  The bake-off
table makes the trade visible on identical machines.

Counted I/O: ``Theta((n/DB) + passes * (n/B + n/DB))`` parallel operations
with ``passes = ceil(log_{M/B}(n/M))`` — for ``D = 1`` this is the optimal
``Theta((n/B) log_{M/B}(n/B))`` sort bound.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..emio.storage import StorageSpec
from ..params import MachineParams
from .striping import StripedFile, open_array

__all__ = ["KWayMergeSort", "KWayStats"]


@dataclass
class KWayStats:
    """Counted costs of one k-way external merge sort run."""

    n: int = 0
    runs_formed: int = 0
    merge_passes: int = 0
    fan_in: int = 0
    io_ops: int = 0  # parallel I/O operations
    comp_ops: float = 0.0

    def io_time(self, machine: MachineParams) -> float:
        return machine.G * self.io_ops


class KWayMergeSort:
    """Single-processor k-way external merge sort over ``D`` striped disks.

    Parameters
    ----------
    machine:
        Machine description; ``M``, ``D``, ``B`` and ``G`` are used.
    key:
        Optional sort key.
    storage:
        Optional storage plane (kind string or :class:`StorageSpec`).
    fast_io:
        The array's fast data plane (identical counted cost); ``None``
        derives it from the storage plane, as
        :class:`~repro.emio.diskarray.DiskArray` documents.
    """

    def __init__(
        self,
        machine: MachineParams,
        key: Callable | None = None,
        *,
        storage: "str | StorageSpec | None" = None,
        fast_io: bool | None = None,
    ):
        if machine.p != 1:
            raise ValueError("KWayMergeSort is the single-processor baseline")
        self.machine = machine
        self.key = key
        self.storage = storage
        self.fast_io = fast_io

    @property
    def fan_in(self) -> int:
        # One block buffer per input run + one output block must fit in M.
        return max(2, self.machine.M // self.machine.B - 1)

    def sort(self, data: Sequence[Any]) -> tuple[list[Any], KWayStats]:
        """Sort ``data`` through the simulated disks; return (result, stats)."""
        with open_array(self.machine, self.storage, self.fast_io) as array:
            return self._sort(array, data)

    def _sort(self, array, data: Sequence[Any]) -> tuple[list[Any], KWayStats]:
        m = self.machine
        B, D, M = m.B, m.D, m.M
        n = len(data)
        stats = KWayStats(n=n, fan_in=self.fan_in)
        nblocks = -(-n // B) if n else 0
        keyf = self.key if self.key is not None else (lambda x: x)

        file_a = StripedFile(array, 0, nblocks)
        file_b = StripedFile(array, nblocks + 1, nblocks)

        # ---- load input (counted: part of the sort's job) ----
        file_a.write_blocks(
            0, [data[i : i + B] for i in range(0, n, B)] if n else []
        )

        # ---- run formation on M records at a time (fully D-parallel) ----
        blocks_per_run = max(1, M // B)
        runs: list[tuple[int, int]] = []
        pos = 0
        while pos < nblocks:
            cnt = min(blocks_per_run, nblocks - pos)
            chunk = [x for blk in file_a.read_blocks(pos, cnt) for x in blk]
            chunk.sort(key=keyf)
            stats.comp_ops += len(chunk) * max(1, len(chunk).bit_length())
            file_a.write_blocks(
                pos, [chunk[i : i + B] for i in range(0, len(chunk), B)]
            )
            runs.append((pos, cnt))
            pos += cnt
        stats.runs_formed = len(runs)

        # ---- merge passes: one block buffer per run, demand-driven refills ----
        src, dst = file_a, file_b
        while len(runs) > 1:
            stats.merge_passes += 1
            new_runs: list[tuple[int, int]] = []
            out_pos = 0
            for gi in range(0, len(runs), self.fan_in):
                group = runs[gi : gi + self.fan_in]
                merged_start = out_pos
                cursors = [start for start, _ in group]
                ends = [start + cnt for start, cnt in group]
                bufs: list[list[Any]] = [[] for _ in group]

                def refill(ri: int) -> None:
                    # Exactly one block: the defining (non-batchable) read.
                    if cursors[ri] < ends[ri]:
                        (blk,) = src.read_blocks(cursors[ri], 1)
                        cursors[ri] += 1
                        bufs[ri] = blk

                for ri in range(len(group)):
                    refill(ri)
                heap = [
                    (keyf(bufs[ri][0]), ri, 0)
                    for ri in range(len(group))
                    if bufs[ri]
                ]
                heapq.heapify(heap)
                outbuf: list[Any] = []
                out_block = merged_start
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
                            out_block,
                            [outbuf[i : i + B] for i in range(0, D * B, B)],
                        )
                        out_block += D
                        outbuf = outbuf[D * B :]
                if outbuf:
                    dst.write_blocks(
                        out_block,
                        [outbuf[i : i + B] for i in range(0, len(outbuf), B)],
                    )
                    out_block += -(-len(outbuf) // B)
                run_len = out_block - merged_start
                new_runs.append((merged_start, run_len))
                out_pos += run_len
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

    # -- analytic bound -------------------------------------------------------------

    def predicted_io_ops(self, n: int) -> float:
        """Closed-form bound on parallel I/O operations.

        Load + run formation + final read are ``D``-parallel streams
        (``4 * ceil(n/DB)`` with per-phase rounding slack); each merge pass
        reads one op per block (``ceil(n/B)``) and writes ``D``-batched
        (``ceil(n/DB)`` plus one partial batch per output run group).
        """
        m = self.machine
        if n == 0:
            return 0.0
        nblk = math.ceil(n / m.B)
        stripes = math.ceil(nblk / m.D)
        runs = max(1, math.ceil(n / m.M))
        passes = (
            math.ceil(math.log(runs, self.fan_in)) if runs > 1 else 0
        )
        per_pass = nblk + stripes + 2 * max(1, math.ceil(runs / self.fan_in))
        return 4 * (stripes + 1) + passes * per_pass
