"""Shared striped-layout plumbing for the sequential EM baselines.

Every counted-cost competitor stores its working files striped block-by-block
over the ``D`` drives of one :class:`~repro.emio.diskarray.DiskArray` —
block ``i`` of a file based at track ``base`` lives at
``(i % D, base + i // D)`` — and charges all I/O through
``read_batched``/``write_batched`` so ``array.parallel_ops`` is directly
comparable with the simulation's ledger (DESIGN §13).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Sequence

from ..emio.disk import Block
from ..emio.diskarray import DiskArray
from ..emio.storage import StorageSpec, resolve_storage
from ..params import MachineParams

__all__ = ["StripedFile", "baseline_array", "open_array"]


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

    def read_blocks_at(self, indices: Sequence[int]) -> list[list[Any]]:
        """Read an arbitrary set of block indices in one batched request.

        The array packs the addresses greedily into parallel operations,
        charging the max per-disk count — the counted cost of a prefetch
        schedule falls out of the layout, not out of trust.
        """
        got = self.array.read_batched([self.addr(i) for i in indices])
        return [list(b.records) if b is not None else [] for b in got]

    def write_blocks(self, start: int, blocks: Sequence[Sequence[Any]]) -> None:
        self.array.write_batched(
            [
                (*self.addr(start + j), Block(records=list(rs)))
                for j, rs in enumerate(blocks)
            ]
        )
