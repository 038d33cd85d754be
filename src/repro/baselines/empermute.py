"""External-memory permutation baselines (Table 1, Group A, "Permutation").

Two classical strategies on the simulated disk substrate:

* :class:`NaiveEMPermute` — move each record independently: read its source
  block, read-modify-write its destination block.  ``Theta(n)`` I/O
  operations for a random permutation — the unblocked disaster the paper's
  introduction warns about ("if I/O is not fully blocked, the runtime can
  typically be up to a factor of 10^3 too high").  A one-block write-back
  cache gives sequential permutations their deserved discount.
* :class:`SortBasedEMPermute` — tag each record with its target index and
  run the external mergesort baseline.  ``Theta((n/DB) log_{M/DB}(n/M))``
  parallel I/O operations, the Aggarwal–Vitter bound.

The T1-A-PERM benchmark prints both against the simulated CGM permutation's
``O~(n/(DB))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ..emio.disk import Block
from ..emio.diskarray import DiskArray
from ..params import MachineParams
from .emsort import EMMergeSort
from .striping import SortStats, StripedFile

__all__ = ["NaiveEMPermute", "SortBasedEMPermute", "PermuteStats"]


@dataclass
class PermuteStats:
    n: int = 0
    io_ops: int = 0
    comp_ops: float = 0.0


class NaiveEMPermute:
    """Record-at-a-time external permutation (the unblocked baseline)."""

    def __init__(self, machine: MachineParams):
        if machine.p != 1:
            raise ValueError("NaiveEMPermute is the single-processor baseline")
        self.machine = machine

    def permute(
        self, values: Sequence[Any], perm: Sequence[int]
    ) -> tuple[list[Any], PermuteStats]:
        """Return ``y`` with ``y[perm[i]] = values[i]`` and counted I/O."""
        m = self.machine
        B = m.B
        n = len(values)
        stats = PermuteStats(n=n)
        array = DiskArray(m.D, B)
        nblocks = -(-n // B) if n else 0
        src = StripedFile(array, 0, nblocks)
        dst = StripedFile(array, nblocks + 1, nblocks)
        # Load input (blocked, counted).
        src.write_blocks(0, [values[j * B : (j + 1) * B] for j in range(nblocks)])
        # Destination starts as empty blocks of the right shape.
        dst.write_blocks(
            0, [[None] * min(B, n - j * B) for j in range(nblocks)]
        )

        # One-block caches: the classical naive algorithm still avoids
        # re-reading the block it just touched.
        src_cache: tuple[int, list[Any]] | None = None
        dst_cache: tuple[int, Block] | None = None
        for i in range(n):
            sb = i // B
            if src_cache is None or src_cache[0] != sb:
                (blk,) = array.parallel_read([src.addr(sb)])
                src_cache = (sb, list(blk.records))
            val = src_cache[1][i % B]
            target = perm[i]
            db = target // B
            if dst_cache is None or dst_cache[0] != db:
                if dst_cache is not None:
                    array.parallel_write([(*dst.addr(dst_cache[0]), dst_cache[1])])
                (dblk,) = array.parallel_read([dst.addr(db)])
                dst_cache = (db, dblk)
            dst_cache[1].records[target % B] = val
            stats.comp_ops += 1
        if dst_cache is not None:
            array.parallel_write([(*dst.addr(dst_cache[0]), dst_cache[1])])

        out = [x for blk in dst.read_blocks(0, nblocks) for x in blk]
        stats.io_ops = array.parallel_ops
        return out, stats


class SortBasedEMPermute:
    """Permutation as an external sort on the target index."""

    def __init__(self, machine: MachineParams):
        self.machine = machine
        self._sorter = EMMergeSort(machine, key=lambda pair: pair[0])

    def permute(
        self, values: Sequence[Any], perm: Sequence[int]
    ) -> tuple[list[Any], SortStats]:
        """Return ``y`` with ``y[perm[i]] = values[i]`` and the sort's stats."""
        tagged = [(perm[i], values[i]) for i in range(len(values))]
        ordered, stats = self._sorter.sort(tagged)
        return [val for _, val in ordered], stats
