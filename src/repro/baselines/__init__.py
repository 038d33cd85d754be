"""Baselines: Table 1's "previous results" column plus the modern rivals,
all on the same counted substrate.

1997-era opponents:

* :class:`EMMergeSort` — classical sequential external mergesort
  (superblock-striped, fan-in ``M/(DB) - 1``); shares its merge skeleton
  with :class:`KWayMergeSort` below.
* :class:`NaiveEMPermute` / :class:`SortBasedEMPermute` — unblocked and
  sort-based external permutation.
* :class:`EMTranspose` — sequential external matrix transpose.
* :class:`EMPRAMSimulator` / :class:`PRAMListRanking` — PRAM-step simulation
  (Chiang et al.): one external sort per PRAM step.
* :class:`SibeynKaufmannSimulation` — the concurrent BSP-to-EM simulation
  without blocking-factor or multi-disk support.

Modern rivals (PAPERS.md; the bake-off competitors):

* :class:`KWayMergeSort` — textbook ``M/B``-way external merge sort.
* :class:`Guidesort` — Hagerup's guide-sequence PDM merge sort.
* :class:`BufferTree` / :class:`BufferTreePQ` / :class:`BufferTreeSort` —
  Arge's buffer tree and the bulk priority queue built on it.

``SORTING_BASELINES`` is the registry of counted-cost sorters.  What one
*is* is written once, in :mod:`~repro.baselines.striping`: every entry
subclasses :class:`CountedSorter` (``cls(machine, key=None, *,
storage=None, fast_io=None)``, ``sort(data) -> (result, SortStats)``) and
supplies ``_sort(array, data)`` plus ``predicted_io_ops(n)``.  Registering
a sorter here auto-enrolls it in ``tests/test_baselines.py``, the conform
fuzzer's workload pool and the ``repro bakeoff`` sweep.
"""

from .buffertree import BufferTree, BufferTreePQ, BufferTreeSort, BufferTreeStats
from .empermute import NaiveEMPermute, PermuteStats, SortBasedEMPermute
from .emsearch import EMBatchedSearch, SearchStats
from .emsort import EMMergeSort, KWayMergeSort
from .emtranspose import EMTranspose
from .guidesort import Guidesort
from .pramsim import EMPRAMSimulator, PRAMListRanking, PRAMStats
from .sibeyn import SibeynKaufmannSimulation, SibeynStats
from .striping import (
    CountedSorter,
    SortStats,
    StripedFile,
    baseline_array,
    open_array,
)

#: name -> class for every counted-cost external sorter on the shared contract
SORTING_BASELINES = {
    "emsort": EMMergeSort,
    "emmergesort": KWayMergeSort,
    "guidesort": Guidesort,
    "buffertree": BufferTreeSort,
}

__all__ = [
    "CountedSorter",
    "SortStats",
    "EMMergeSort",
    "KWayMergeSort",
    "Guidesort",
    "BufferTree",
    "BufferTreePQ",
    "BufferTreeSort",
    "BufferTreeStats",
    "NaiveEMPermute",
    "SortBasedEMPermute",
    "PermuteStats",
    "EMTranspose",
    "EMBatchedSearch",
    "SearchStats",
    "EMPRAMSimulator",
    "PRAMListRanking",
    "PRAMStats",
    "SibeynKaufmannSimulation",
    "SibeynStats",
    "SORTING_BASELINES",
    "StripedFile",
    "baseline_array",
    "open_array",
]
