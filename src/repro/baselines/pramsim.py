"""PRAM-simulation baseline (Chiang et al., SODA'95) on the EM substrate.

Section 2.1: "Chiang et al. explored simulation of PRAM algorithms as a
source of new EM techniques.  Their approach involves an EM sort with every
PRAM step."  Only PRAM algorithms with geometrically decreasing active size
simulate I/O-optimally; generic algorithms (pointer jumping, etc.) pay
``Theta(sort(n))`` I/O *per PRAM step* — the overhead the CGM simulation
avoids by exploiting coarse-grained supersteps.

:class:`EMPRAMSimulator` executes one PRAM step as the classical five-phase
technique, each phase blocked and striped on the simulated disks:

1. sort the read requests ``(addr, proc)`` by address,
2. scan shared memory in address order, answering requests,
3. sort the answers back by processor id,
4. run every processor's local compute (registers live on disk too and are
   streamed in and out with counted scans),
5. sort the write requests by address and scan-update memory.

Counted I/O per step is ``Theta(sort(n))`` parallel operations (three
external sorts plus the memory and register scans).  :class:`PRAMListRanking`
implements list ranking by pointer jumping on top (``2*ceil(log2 n)`` PRAM
steps, ``Theta(sort(n) log n)`` total I/O) — the Group C comparison row of
the T1-C-GRAPH benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..emio.diskarray import DiskArray
from ..params import MachineParams
from .emsort import EMMergeSort
from .striping import StripedFile

__all__ = ["EMPRAMSimulator", "PRAMStats", "PRAMListRanking"]


@dataclass
class PRAMStats:
    """Counted costs of a PRAM simulation run."""

    steps: int = 0
    io_ops: int = 0
    sort_io_ops: int = 0
    scan_io_ops: int = 0
    comp_ops: float = 0.0


class EMPRAMSimulator:
    """Simulates an ``nprocs``-processor PRAM step by step on the EM substrate.

    Shared memory and the per-processor registers live on the simulated
    disks in blocked striped format; every step moves all requests through
    external sorts, exactly as the Chiang et al. reduction prescribes.  The
    record movement is performed (not just counted), so programs are
    functionally verified, and concurrent writes resolve deterministically
    by highest processor id (arbitrary-CRCW flavour).
    """

    def __init__(
        self, machine: MachineParams, memory: Sequence[Any], nprocs: int
    ):
        if machine.p != 1:
            raise ValueError("the PRAM baseline targets a single-processor EM machine")
        self.machine = machine
        self.nprocs = nprocs
        self.stats = PRAMStats()
        self.array = DiskArray(machine.D, machine.B)
        self._size = len(memory)
        self._mem_blocks = -(-self._size // machine.B) if self._size else 0
        self._reg_blocks = -(-nprocs // machine.B) if nprocs else 0
        self._reg_base = self._mem_blocks + 1
        # Memory and registers are block ranges of one striped file.
        self._file = StripedFile(
            self.array, 0, self._reg_base + self._reg_blocks
        )
        self._write_stripe(0, list(memory), self._mem_blocks)
        self._write_stripe(self._reg_base, [None] * nprocs, self._reg_blocks)

    # -- blocked striped files ----------------------------------------------------

    def _write_stripe(self, base: int, items: list[Any], nblocks: int) -> None:
        B = self.machine.B
        before = self.array.parallel_ops
        self._file.write_blocks(
            base, [items[j * B : (j + 1) * B] for j in range(nblocks)]
        )
        self._charge_scan(before)

    def _read_stripe(self, base: int, nblocks: int, size: int) -> list[Any]:
        before = self.array.parallel_ops
        out = [x for blk in self._file.read_blocks(base, nblocks) for x in blk]
        self._charge_scan(before)
        return out[:size]

    def _charge_scan(self, before: int) -> None:
        delta = self.array.parallel_ops - before
        self.stats.scan_io_ops += delta
        self.stats.io_ops += delta

    def _external_sort(self, items: list[tuple]) -> list[tuple]:
        sorter = EMMergeSort(self.machine, key=lambda t: t[0])
        result, st = sorter.sort(items)
        self.stats.sort_io_ops += st.io_ops
        self.stats.io_ops += st.io_ops
        self.stats.comp_ops += st.comp_ops
        return result

    # -- one PRAM step ---------------------------------------------------------------

    def step(
        self,
        reads: Callable[[int, Any], Sequence[int]],
        compute: Callable[[int, Sequence[Any], Any], tuple[Sequence[tuple[int, Any]], Any]],
    ) -> None:
        """Execute one PRAM step.

        ``reads(i, reg)`` lists the addresses processor ``i`` reads given its
        register state; ``compute(i, values, reg)`` receives the values in
        the same order and returns ``(writes, new_reg)`` where writes are
        ``(addr, value)`` pairs.
        """
        self.stats.steps += 1
        regs = self._read_stripe(self._reg_base, self._reg_blocks, self.nprocs)
        # Phase 1: sort read requests by address.
        requests = [
            (addr, i, slot)
            for i in range(self.nprocs)
            for slot, addr in enumerate(reads(i, regs[i]))
        ]
        requests = self._external_sort(requests)
        # Phase 2: scan memory, answer requests.
        mem = self._read_stripe(0, self._mem_blocks, self._size)
        answers = [(i, slot, mem[addr]) for addr, i, slot in requests]
        # Phase 3: sort answers back by processor.
        answers = self._external_sort(answers)
        # Phase 4: local compute.
        writes: list[tuple[int, int, Any]] = []
        pos = 0
        for i in range(self.nprocs):
            vals = []
            while pos < len(answers) and answers[pos][0] == i:
                vals.append(answers[pos][2])
                pos += 1
            w, regs[i] = compute(i, vals, regs[i])
            writes.extend((addr, i, val) for addr, val in w)
            self.stats.comp_ops += 1 + len(vals)
        # Phase 5: sort writes by address, scan-update memory.
        for addr, _i, val in self._external_sort(writes):
            mem[addr] = val
        self._write_stripe(0, mem, self._mem_blocks)
        self._write_stripe(self._reg_base, regs, self._reg_blocks)

    def memory(self) -> list[Any]:
        """Current shared-memory contents (one counted scan)."""
        return self._read_stripe(0, self._mem_blocks, self._size)


class PRAMListRanking:
    """List ranking by pointer jumping on the PRAM baseline.

    ``2 * ceil(log2 n)`` PRAM steps (one to load ``(succ[i], rank[i])`` into
    registers, one to read through the indirection and jump), each a full
    sort-and-scan pass — the ``O(sort(n) log n)`` I/O behaviour that
    Table 1's Group C CGM algorithms improve upon.
    """

    def __init__(self, machine: MachineParams):
        self.machine = machine

    def rank(self, succ: Sequence[int]) -> tuple[list[int], PRAMStats]:
        """Distance of every node to the list tail (``succ[tail] == tail``)."""
        n = len(succ)
        if n == 0:
            return [], PRAMStats()
        # Memory layout: [succ(0..n-1), rank(0..n-1)].
        mem = list(succ) + [0 if succ[i] == i else 1 for i in range(n)]
        sim = EMPRAMSimulator(self.machine, mem, nprocs=n)

        def jump(i: int, vals: Sequence[Any], reg: Any):
            s, r = reg
            if s == i:  # already at the tail
                return [], reg
            succ_s, rank_s = vals
            return [(i, succ_s), (n + i, r + rank_s)], reg

        rounds = max(1, (n - 1).bit_length())
        for _ in range(rounds):
            # Step A: load own (succ, rank) into the register.
            sim.step(
                reads=lambda i, reg: (i, n + i),
                compute=lambda i, vals, reg: ([], (vals[0], vals[1])),
            )
            # Step B: read successor's (succ, rank); jump.
            sim.step(reads=lambda i, reg: (reg[0], n + reg[0]), compute=jump)
        final = sim.memory()
        return final[n : 2 * n], sim.stats
