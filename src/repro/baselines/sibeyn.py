"""Sibeyn–Kaufmann-style BSP-to-EM simulation — the concurrent prior work.

Section 2.1 of the paper: "[Sibeyn and Kaufmann] simulate a superstep of one
virtual processor at a time, saving the context and generated messages in a
``v x v`` array on disk, where each cell is of size ``3*mu`` ...  However,
the paper does not include techniques to accommodate the blocking factor,
which is an intrinsic issue in efficient I/O design, nor does it provide
mechanisms for handling multiple disks or multiple physical processors."

This engine reproduces those structural properties on our disk substrate:

* one virtual processor simulated at a time (no grouping, ``k = 1``),
* all I/O on a **single disk** (one block per I/O operation, never ``D``),
* per-(sender, receiver) message cells, written as generated.

Two fairness modes:

* ``mode="packed"`` (default, *favorable* to the baseline) — only non-empty
  cells are touched, and a cell costs only the blocks its records need.  Even
  so the engine pays one I/O operation per block because it cannot use disk
  parallelism; the paper's engine beats it by ``~D``.
* ``mode="cells"`` — each non-empty cell transfer is charged its full
  preallocated ``ceil(3*mu/B)`` blocks, the layout the prior work describes;
  the gap then grows with the cell-utilization factor as well.

Outputs remain bit-identical to the reference runner (this is still a
correct simulation — just an I/O-inefficient one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Literal

from ..bsp.message import blocks_to_messages, message_to_blocks
from ..bsp.program import AlgorithmError, BSPAlgorithm, VPContext
from ..emio.disk import Block
from ..emio.diskarray import DiskArray
from ..emio.layout import blocks_to_object, pickle_to_blocks
from ..params import MachineParams

__all__ = ["SibeynKaufmannSimulation", "SibeynStats"]


@dataclass
class SibeynStats:
    """Counted costs of one Sibeyn–Kaufmann-style simulation run."""

    supersteps: int = 0
    io_ops: int = 0  # single-block I/O operations (no disk parallelism)
    blocks_context: int = 0
    blocks_messages: int = 0
    cell_blocks_charged: int = 0  # only in mode="cells"


class SibeynKaufmannSimulation:
    """Simulate a BSP algorithm one virtual processor at a time on one disk."""

    def __init__(
        self,
        algorithm: BSPAlgorithm,
        v: int,
        machine: MachineParams,
        mode: Literal["packed", "cells"] = "packed",
    ):
        if v < 1:
            raise ValueError("v must be >= 1")
        self.algorithm = algorithm
        self.v = v
        self.machine = machine
        self.mode = mode
        self.stats = SibeynStats()
        # The machine may have D disks; this technique only ever uses one
        # ("nor does it provide mechanisms for handling multiple disks").
        self.array = DiskArray(machine.D, machine.B)
        self._track = 0

    def _charge_blocks(self, nblocks: int, kind: str = "W") -> None:
        # One I/O operation per block: a single disk moves one track at a
        # time.  The accesses are physically performed on the substrate so
        # tracing and op counting agree.
        for _ in range(nblocks):
            if kind == "W":
                self.array.parallel_write([(0, self._track, Block(records=[]))])
                self._track += 1
            else:
                self.array.parallel_read([(0, max(self._track - 1, 0))])
        self.stats.io_ops += nblocks

    def run(self) -> tuple[list[Any], SibeynStats]:
        """Run to completion; return (per-vp outputs, stats)."""
        alg, v, B = self.algorithm, self.v, self.machine.B
        mu = alg.context_size()
        cell_blocks = -(-3 * mu // B)

        # The context area and the v x v cell array are modelled in memory
        # (contents) with I/O charged per the layout above; the data still
        # round-trips through pickle/blocks so sizes are real.
        disk_ctx: list[Any] = []
        for pid in range(v):
            blocks = pickle_to_blocks(alg.initial_state(pid, v), B, max_records=mu)
            self._charge_blocks(len(blocks))
            self.stats.blocks_context += len(blocks)
            disk_ctx.append(blocks)

        # cells[src][dst] = list of message blocks awaiting delivery.
        cells: dict[tuple[int, int], list] = {}

        for step in range(alg.MAX_SUPERSTEPS):
            self.stats.supersteps += 1
            all_halted = True
            any_message = False
            new_cells: dict[tuple[int, int], list] = {}
            for pid in range(v):
                # Fetch context (one vp at a time; k=1 — no batching).
                self._charge_blocks(len(disk_ctx[pid]), kind="R")
                state = blocks_to_object(disk_ctx[pid])
                # Fetch this vp's column of non-empty cells.
                arrived = []
                for src in range(v):
                    blocks = cells.pop((src, pid), None)
                    if blocks:
                        if self.mode == "cells":
                            self._charge_blocks(cell_blocks, kind="R")
                            self.stats.cell_blocks_charged += cell_blocks
                        else:
                            self._charge_blocks(len(blocks), kind="R")
                        self.stats.blocks_messages += len(blocks)
                        arrived.extend(blocks)
                msgs = blocks_to_messages(arrived)
                ctx = VPContext(pid, v, step, state, msgs, comm_bound=None)
                alg.superstep(ctx)
                if not ctx.halted:
                    all_halted = False
                # Write generated messages to their cells.
                for mi, msg in enumerate(ctx.outbox):
                    any_message = True
                    blocks = message_to_blocks(msg, B, mi)
                    if self.mode == "cells":
                        self._charge_blocks(cell_blocks)
                        self.stats.cell_blocks_charged += cell_blocks
                    else:
                        self._charge_blocks(len(blocks))
                    self.stats.blocks_messages += len(blocks)
                    new_cells.setdefault((pid, msg.dest), []).extend(blocks)
                # Write context back.
                blocks = pickle_to_blocks(ctx.state, B, max_records=mu)
                self._charge_blocks(len(blocks))
                self.stats.blocks_context += len(blocks)
                disk_ctx[pid] = blocks
            cells = new_cells
            if all_halted and not any_message:
                break
        else:
            raise AlgorithmError(
                f"algorithm did not halt within MAX_SUPERSTEPS={alg.MAX_SUPERSTEPS}"
            )

        outputs = []
        for pid in range(v):
            self._charge_blocks(len(disk_ctx[pid]), kind="R")
            outputs.append(alg.output(pid, blocks_to_object(disk_ctx[pid])))
        return outputs, self.stats
