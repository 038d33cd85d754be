"""Direct EM batched predecessor search — the hand-crafted counterpart to
:class:`~repro.algorithms.multisearch.CGMMultisearch`.

The classical technique the paper's conclusion alludes to: sort the query
batch externally, then merge-scan it against the (sorted, striped) key
array — ``O(sort(m) + (n + m)/(DB))`` parallel I/O operations, versus the
simulated multisearch's ``Theta(log n)`` full sweeps.  The LIMITS benchmark
measures the gap, making the paper's open problem concrete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ..emio.diskarray import DiskArray
from ..params import MachineParams
from .emsort import EMMergeSort
from .striping import StripedFile

__all__ = ["EMBatchedSearch", "SearchStats"]


@dataclass
class SearchStats:
    n: int = 0
    m: int = 0
    io_ops: int = 0
    comp_ops: float = 0.0


class EMBatchedSearch:
    """Predecessor search for a sorted key array on the EM substrate."""

    def __init__(self, machine: MachineParams):
        if machine.p != 1:
            raise ValueError("EMBatchedSearch is the single-processor baseline")
        self.machine = machine

    def search(
        self, keys: Sequence[Any], queries: Sequence[Any]
    ) -> tuple[list[int], SearchStats]:
        """``pred[i]`` = index of the largest key <= queries[i] (or -1)."""
        if sorted(keys) != list(keys):
            raise ValueError("keys must be sorted")
        m = self.machine
        stats = SearchStats(n=len(keys), m=len(queries))

        # External sort of the tagged queries.
        sorter = EMMergeSort(m, key=lambda t: t[0])
        ordered, sort_stats = sorter.sort([(q, i) for i, q in enumerate(queries)])
        stats.io_ops += sort_stats.io_ops
        stats.comp_ops += sort_stats.comp_ops

        # Striped key array on a fresh disk array; single merge-scan.
        array = DiskArray(m.D, m.B)
        B = m.B
        nblocks = -(-len(keys) // B) if keys else 0
        keyfile = StripedFile(array, 0, nblocks)
        keyfile.write_blocks(0, [keys[j * B : (j + 1) * B] for j in range(nblocks)])
        answers = [-1] * len(queries)
        window_start = -1  # first block of the cached D-block window
        window: list[Any] = []

        def key_at(i: int) -> Any:
            nonlocal window_start, window
            blk = i // B
            if not (window_start <= blk < window_start + m.D) or window_start < 0:
                # Sequential streaming with full disk parallelism: fetch the
                # next D consecutive (striped) blocks in one operation.
                window_start = blk
                window = [x for b in keyfile.read_blocks(blk, m.D) for x in b]
            return window[i - window_start * B]

        ki = 0
        for q, qi in ordered:
            while ki < len(keys) and key_at(ki) <= q:
                ki += 1
            answers[qi] = ki - 1
            stats.comp_ops += 1
        stats.io_ops += array.parallel_ops
        return answers, stats
