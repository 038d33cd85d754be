"""Shared striped-layout plumbing for the sequential EM baselines.

Every counted-cost competitor stores its working files striped block-by-block
over the ``D`` drives of one :class:`~repro.emio.diskarray.DiskArray` —
block ``i`` of a file based at track ``base`` lives at
``(i % D, base + i // D)`` — and charges all I/O through
``read_batched``/``write_batched`` so ``array.parallel_ops`` is directly
comparable with the simulation's ledger (DESIGN §13).

The module also states, once, what a *counted sorter* is: the
:class:`CountedSorter` base (constructor, single-processor check, ``sort``
over one owned array) and the :class:`SortStats` record every registered
sorter returns.  A rival supplies ``_sort(array, data)`` and
``predicted_io_ops(n)``; referees read one stats type.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from ..emio.disk import Block
from ..emio.diskarray import DiskArray
from ..emio.storage import StorageSpec, resolve_storage
from ..params import MachineParams

__all__ = [
    "CountedSorter", "SortStats", "StripedFile", "baseline_array", "open_array",
]


def baseline_array(
    machine: MachineParams,
    storage: "str | StorageSpec | None" = None,
    fast_io: bool | None = None,
) -> DiskArray:
    """A :class:`DiskArray` for one baseline run.

    ``storage`` is either a ready :class:`StorageSpec` or a plane kind
    (``"memory"``/``"file"``/``"mmap"``; a non-memory kind gets an owned
    temporary root).  Both the storage plane and ``fast_io`` (``None``:
    derived from the plane, see :class:`DiskArray`) are
    counted-cost-invisible: the batched paths charge identical parallel-op
    rounds either way, so they are safe differential planes for the
    competitors exactly as for the simulation engines.
    """
    if storage is None or isinstance(storage, str):
        spec = resolve_storage(storage, None)
    else:
        spec = storage
    return DiskArray(machine.D, machine.B, fast_io=fast_io, storage=spec)


@contextmanager
def open_array(
    machine: MachineParams,
    storage: "str | StorageSpec | None" = None,
    fast_io: bool | None = None,
) -> Iterator[DiskArray]:
    """``baseline_array`` as a context manager: closes the storage plane and
    removes owned temporary roots when the baseline finishes."""
    array = baseline_array(machine, storage=storage, fast_io=fast_io)
    try:
        yield array
    finally:
        array.close_storage()
        array.storage_spec.cleanup()


class StripedFile:
    """A sequence of records striped block-by-block over the disk array.

    ``shift`` rotates the stripe start disk: block ``i`` lives on disk
    ``(i + shift) % D``.  Staggering sibling files (e.g. merge runs) by one
    disk each keeps a prefetch batch that touches many files in lockstep on
    distinct drives instead of colliding on one.
    """

    def __init__(self, array: DiskArray, base: int, nblocks: int, shift: int = 0):
        self.array = array
        self.base = base
        self.nblocks = nblocks
        self.shift = shift % max(1, array.D)

    def addr(self, i: int) -> tuple[int, int]:
        return (i + self.shift) % self.array.D, self.base + i // self.array.D

    def read_blocks(self, start: int, count: int) -> list[list[Any]]:
        count = max(0, min(count, self.nblocks - start))
        got = self.array.read_batched(
            [self.addr(i) for i in range(start, start + count)]
        )
        return [list(b.records) if b is not None else [] for b in got]

    def write_blocks(self, start: int, blocks: Sequence[Sequence[Any]]) -> None:
        self.array.write_batched(
            [
                (*self.addr(start + j), Block(records=list(rs)))
                for j, rs in enumerate(blocks)
            ]
        )


@dataclass
class SortStats:
    """Counted costs of one run of a :class:`CountedSorter`."""

    n: int = 0
    runs_formed: int = 0
    merge_passes: int = 0
    fan_in: int = 0
    io_ops: int = 0  # parallel I/O operations
    comp_ops: float = 0.0
    #: prefetch-schedule/consumption disagreements: only Guidesort has a
    #: schedule to disagree with, and every referee expects 0
    guide_mismatches: int = 0


class CountedSorter:
    """A sequential external sorter charged on the shared disk substrate.

    Parameters
    ----------
    machine:
        Machine description; ``M``, ``D`` and ``B`` are used, and ``p``
        must be 1 (the rivals are sequential by definition).
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
            raise ValueError(
                f"{type(self).__name__} is the single-processor baseline"
            )
        self.machine = machine
        self.key = key
        self.storage = storage
        self.fast_io = fast_io

    def sort(self, data: Sequence[Any]) -> tuple[list[Any], SortStats]:
        """Sort ``data`` through the simulated disks; return (result, stats)."""
        with open_array(self.machine, self.storage, self.fast_io) as array:
            return self._sort(array, data)

    def _sort(self, array: DiskArray, data: Sequence[Any]) -> tuple[list[Any], SortStats]:
        raise NotImplementedError

    def predicted_io_ops(self, n: int) -> float:
        """Closed-form bound on the parallel I/O operations of ``sort``."""
        raise NotImplementedError
