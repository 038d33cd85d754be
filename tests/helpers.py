"""Shared test fixtures: small BSP algorithms exercising the simulation,
and the check that a golden helper built the plane it was asked for."""

from __future__ import annotations

from repro.bsp.program import BSPAlgorithm, VPContext

__all__ = [
    "assert_plane",
    "RingShift",
    "AllToAllExchange",
    "TotalExchangeSum",
    "MultiRoundAccumulate",
    "NoCommunication",
]


def assert_plane(sim, fast_io=None, context_cache=None, faults=None, **_other):
    """Fail unless ``sim``'s local processors run the plane its builder named.

    Called by the golden suites' ``build`` helpers with the keywords they
    passed the engine.  A fast-vs-reference comparison says nothing once both
    sides run one plane, and a default can move under it without one failure
    (it did: the knobs left at ``None`` now follow the storage plane) — so a
    side that named a knob is checked against it.  Fault injection forces the
    physical path whatever was asked; a process backend keeps its arrays in
    the workers (``procs is None``), where there is nothing to look at.
    """
    for pr in sim.procs or ():
        if fast_io is not None:
            assert pr.array.fast_data_plane is (fast_io and faults is None)
        if context_cache is not None:
            assert pr.contexts.cache is (context_cache and faults is None)


class RingShift(BSPAlgorithm):
    """Each vp sends a payload around a ring; output is what arrived."""

    def __init__(self, payload_size: int = 4, rounds: int = 1):
        self.payload_size = payload_size
        self.rounds = rounds

    def context_size(self) -> int:
        return 512 + 8 * self.payload_size

    def comm_bound(self) -> int:
        return self.payload_size + 8

    def initial_state(self, pid: int, nprocs: int):
        return {"items": [pid * 1000 + i for i in range(self.payload_size)]}

    def superstep(self, ctx: VPContext) -> None:
        if ctx.step < self.rounds:
            if ctx.step > 0:
                ctx.state["items"] = list(ctx.incoming[0].payload)
            ctx.send((ctx.pid + 1) % ctx.nprocs, ctx.state["items"])
            ctx.charge(len(ctx.state["items"]))
        else:
            ctx.state["items"] = list(ctx.incoming[0].payload)
            ctx.vote_halt()

    def output(self, pid: int, state) -> list:
        return state["items"]


class AllToAllExchange(BSPAlgorithm):
    """Every vp sends a distinct record to every vp; output = sorted arrivals."""

    def context_size(self) -> int:
        return 4096

    def comm_bound(self) -> int:
        return 256

    def initial_state(self, pid: int, nprocs: int):
        return {"got": None}

    def superstep(self, ctx: VPContext) -> None:
        if ctx.step == 0:
            for dest in range(ctx.nprocs):
                ctx.send(dest, [ctx.pid * ctx.nprocs + dest])
        else:
            ctx.state["got"] = sorted(r for m in ctx.incoming for r in m.payload)
            ctx.vote_halt()

    def output(self, pid: int, state):
        return state["got"]


class TotalExchangeSum(BSPAlgorithm):
    """Gather-to-0 then broadcast: all vps end with the global sum."""

    def context_size(self) -> int:
        return 8192

    def comm_bound(self) -> int:
        return 1024

    def initial_state(self, pid: int, nprocs: int):
        return {"value": (pid + 1) ** 2, "sum": None}

    def superstep(self, ctx: VPContext) -> None:
        if ctx.step == 0:
            ctx.send(0, [ctx.state["value"]])
        elif ctx.step == 1:
            if ctx.pid == 0:
                total = sum(r for m in ctx.incoming for r in m.payload)
                for dest in range(ctx.nprocs):
                    ctx.send(dest, [total])
        else:
            ctx.state["sum"] = ctx.incoming[0].payload[0]
            ctx.vote_halt()

    def output(self, pid: int, state):
        return state["sum"]


class MultiRoundAccumulate(BSPAlgorithm):
    """`rounds` supersteps of neighbour exchange with growing state."""

    def __init__(self, rounds: int = 4):
        self.rounds = rounds

    def context_size(self) -> int:
        return 2048 + 64 * self.rounds

    def comm_bound(self) -> int:
        return 16

    def initial_state(self, pid: int, nprocs: int):
        return {"trace": [pid]}

    def superstep(self, ctx: VPContext) -> None:
        if ctx.step > 0:
            for m in ctx.incoming:
                ctx.state["trace"].extend(m.payload)
        if ctx.step < self.rounds:
            ctx.send((ctx.pid + ctx.step + 1) % ctx.nprocs, [ctx.pid * 10 + ctx.step])
        else:
            ctx.vote_halt()

    def output(self, pid: int, state):
        return state["trace"]


class NoCommunication(BSPAlgorithm):
    """Pure local computation; checks the zero-message path."""

    def context_size(self) -> int:
        return 256

    def comm_bound(self) -> int:
        return 0

    def initial_state(self, pid: int, nprocs: int):
        return {"x": pid}

    def superstep(self, ctx: VPContext) -> None:
        ctx.state["x"] = ctx.state["x"] * 2 + 1
        ctx.charge(1)
        ctx.vote_halt()

    def output(self, pid: int, state):
        return state["x"]
