"""Sequential external-memory mergesort — the classical Aggarwal–Vitter
baseline of Table 1, column "Previous results".

Implements multiway mergesort on the same simulated disk substrate as the
CGM simulation, with the parallel-disk-aware refinements the PDM literature
assumes: striped layout, run formation on ``M`` records, and merge fan-in
``f = M/(D*B) - 1`` with ``D``-block prefetching so every buffer refill is
one fully parallel I/O operation.

Counted I/O is ``Theta((n/DB) * log_{M/DB}(n/M))`` parallel operations —
the ``Theta(G (n/BD) log_{M/B}(n/B))`` row of Table 1 up to the usual
striping constant.  The T1-A-SORT benchmark prints this next to the
simulated CGM sort's I/O.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..emio.storage import StorageSpec
from ..params import MachineParams
from .striping import StripedFile, open_array

__all__ = ["EMMergeSort", "EMSortStats"]


@dataclass
class EMSortStats:
    """Counted costs of one external mergesort run."""

    n: int = 0
    runs_formed: int = 0
    merge_passes: int = 0
    fan_in: int = 0
    io_ops: int = 0  # parallel I/O operations
    comp_ops: float = 0.0

    def io_time(self, machine: MachineParams) -> float:
        return machine.G * self.io_ops


# Striping moved to ``.striping``; the old private name stays importable.
_StripedFile = StripedFile


class EMMergeSort:
    """External mergesort for a single-processor EM machine with ``D`` disks.

    Parameters
    ----------
    machine:
        Machine description; ``M``, ``D``, ``B`` and ``G`` are used.
    key:
        Optional sort key.
    storage:
        Optional storage plane (a kind string or :class:`StorageSpec`);
        counted-cost-invisible like the simulation's storage planes.
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
            raise ValueError("EMMergeSort is the single-processor baseline")
        self.machine = machine
        self.key = key
        self.storage = storage
        self.fast_io = fast_io

    def sort(self, data: Sequence[Any]) -> tuple[list[Any], EMSortStats]:
        """Sort ``data`` through the simulated disks; return (result, stats)."""
        with open_array(self.machine, self.storage, self.fast_io) as array:
            return self._sort(array, data)

    def _sort(self, array, data: Sequence[Any]) -> tuple[list[Any], EMSortStats]:
        m = self.machine
        B, D, M = m.B, m.D, m.M
        n = len(data)
        stats = EMSortStats(n=n)
        nblocks = -(-n // B) if n else 0

        # Two alternating striped files (ping-pong between merge passes).
        file_a = _StripedFile(array, 0, nblocks)
        file_b = _StripedFile(array, nblocks + 1, nblocks)

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
        # Fan-in: one D-block prefetch buffer per input run plus one output
        # buffer must fit in M records.
        fan_in = max(2, M // (D * B) - 1)
        stats.fan_in = fan_in
        src, dst = file_a, file_b
        while len(runs) > 1:
            stats.merge_passes += 1
            new_runs: list[tuple[int, int]] = []
            out_pos_total = 0
            for gi in range(0, len(runs), fan_in):
                group = runs[gi : gi + fan_in]
                merged_start = out_pos_total
                # Per-run cursor state: next block index, buffered records.
                cursors = [start for start, _ in group]
                ends = [start + cnt for start, cnt in group]
                bufs: list[list[Any]] = [[] for _ in group]

                def refill(ri: int) -> None:
                    take = min(D, ends[ri] - cursors[ri])
                    if take > 0:
                        got = src.read_blocks(cursors[ri], take)
                        cursors[ri] += take
                        for blk in got:
                            bufs[ri].extend(blk)

                for ri in range(len(group)):
                    refill(ri)
                import heapq

                keyf = self.key if self.key is not None else (lambda x: x)
                heap = [
                    (keyf(bufs[ri][0]), ri, 0) for ri in range(len(group)) if bufs[ri]
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
                run_len = out_block - merged_start
                new_runs.append((merged_start, run_len))
                out_pos_total += run_len
            runs = new_runs
            src, dst = dst, src

        # ---- read back the result ----
        if runs:
            start, cnt = runs[0]
            result = [x for blk in src.read_blocks(start, cnt) for x in blk]
        else:
            result = []
        stats.io_ops = array.parallel_ops
        return result, stats

    # -- analytic bound -------------------------------------------------------------

    def predicted_io_ops(self, n: int) -> float:
        """The textbook bound ``~(n/DB) * (2*passes + 4)`` on parallel I/O ops.

        Stripes and run counts round up, and each phase (load, run
        formation read/write, per-pass merge read/write, final read) may
        pay one extra partial parallel operation per run it touches.
        """
        import math

        m = self.machine
        if n == 0:
            return 0.0
        stripes = math.ceil(math.ceil(n / m.B) / m.D)
        runs = max(1, math.ceil(n / m.M))
        fan_in = max(2, m.M // (m.D * m.B) - 1)
        passes = math.ceil(math.log(runs, fan_in)) if runs > 1 else 0
        groups = max(1, math.ceil(runs / fan_in))
        return (stripes + 1) * (2 * passes + 4) + 2 * runs + 2 * passes * groups
