"""CGM parallel prefix sums — the coarse-grained workhorse primitive.

Not a Table 1 row by itself, but the substrate of many of them (weighted
dominance, area sweeps, tour numberings all reduce to prefix computations).
Three supersteps: local prefixes, an all-to-one/one-to-all exchange of the
``v`` partial totals, and a local offset pass — the canonical CGM pattern
with ``lambda = O(1)`` and ``h = O(v)``.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Sequence

from ..bsp.collectives import share_bounds
from ..bsp.program import BSPAlgorithm, VPContext

__all__ = ["CGMPrefixSums"]


class CGMPrefixSums(BSPAlgorithm):
    """Inclusive prefix sums of ``values`` under an associative ``op``.

    Output ``j`` is vp ``j``'s slice of the prefix array; the concatenation
    over vp ids is ``[values[0], values[0] op values[1], ...]``.

    Parameters
    ----------
    values:
        The input sequence.
    v:
        Number of virtual processors.
    op:
        Associative binary operation (default ``operator.add``).
    identity:
        Identity element of ``op`` (default 0).
    """

    LAMBDA = 3

    def __init__(
        self,
        values: Sequence[Any],
        v: int,
        op: Callable[[Any, Any], Any] = operator.add,
        identity: Any = 0,
    ):
        self.values = list(values)
        self.v = v
        self.op = op
        self.identity = identity
        self.n = len(values)

    def context_size(self) -> int:
        return 256 + 8 * (4 * -(-max(self.n, 1) // self.v) + 2 * self.v)

    def comm_bound(self) -> int:
        return 64 + 8 * 2 * self.v

    def quiet(self, step: int, pid: int) -> bool:
        # Superstep 1 is vp 0's alone: every other vp waits for its offset.
        return step == 1 and pid != 0

    def initial_state(self, pid: int, nprocs: int):
        lo, hi = share_bounds(self.n, nprocs, pid)
        return {"vals": self.values[lo:hi], "result": None}

    def superstep(self, ctx: VPContext) -> None:
        st = ctx.state
        if ctx.step == 0:
            prefix = []
            acc = self.identity
            for x in st["vals"]:
                acc = self.op(acc, x)
                prefix.append(acc)
            st["prefix"] = prefix
            ctx.charge(len(prefix))
            ctx.send(0, [acc if prefix else self.identity])
        elif ctx.step == 1:
            if ctx.pid == 0:
                totals = [None] * ctx.nprocs
                for m in ctx.incoming:
                    totals[m.src] = m.payload[0]
                acc = self.identity
                for dest in range(ctx.nprocs):
                    ctx.send(dest, [acc])  # exclusive prefix of totals
                    acc = self.op(acc, totals[dest])
                ctx.charge(ctx.nprocs)
        else:
            offset = ctx.incoming[0].payload[0]
            st["result"] = [self.op(offset, x) for x in st["prefix"]]
            ctx.charge(len(st["prefix"]))
            ctx.vote_halt()

    def output(self, pid: int, state) -> list:
        return state["result"] if state["result"] is not None else []
