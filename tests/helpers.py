"""What test modules share (they import from here, never from each other):
the equivalent planes and their pairwise cover, small BSP algorithms, the
runs and builders several modules use, and the list-state and per-record
references the vector record plane is checked against."""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from itertools import combinations

import numpy as np

from repro import workloads as wl
from repro.algorithms.graphs.listranking import CGMListRanking, _prio
from repro.algorithms.permutation import CGMPermutation
from repro.algorithms.sorting import CGMSampleSort
from repro.bsp.program import BSPAlgorithm, VPContext
from repro.bsp.runner import run_reference
from repro.core import ParallelEMSimulation, build_params, processor
from repro.core.backend import BACKENDS
from repro.emio.disk import Block
from repro.emio.storage import STORAGE_KINDS
from repro.params import BSPParams, MachineParams, SimulationParams

__all__ = [
    "PLANE_AXES", "PLANES", "pairwise", "plane_id", "run_on", "assert_plane",
    "list_state_sort", "list_state_permutation", "leaving_per_record", "small_sort",
    "piled", "always_route", "mixed_blocks", "array_state", "PerRecordListRanking",
    "RingShift", "AllToAllExchange", "TotalExchangeSum", "MultiRoundAccumulate",
    "NoCommunication",
]


#: The fields ``repro.conform.equivalent_planes`` flips — nothing the model
#: counts may change with them — and the values each takes, the reference
#: plane's first.  Removing a plane, or turning a knob into a test oracle, is
#: an edit here.
PLANE_AXES = {
    "backend": BACKENDS,
    "storage": STORAGE_KINDS,
    "fast_io": (False, True),
    "context_cache": (False, True),
}


def pairwise(axes: dict[str, Sequence], allowed: Callable[[dict], bool] = lambda row: True):
    """Rows ``{axis: value}`` in which every two values of every two axes
    meet at least once (all-pairs cover, built greedily and
    deterministically), each row ``allowed``.  ``allowed`` judges partial
    rows too, so a constraint names the axes it ties."""
    def pairs(row):
        return {frozenset(two) for two in combinations(row.items(), 2)}

    todo = {pair for a, b in combinations(axes, 2) for x in axes[a] for y in axes[b]
            if allowed({a: x, b: y}) for pair in pairs({a: x, b: y})}
    rows = []
    while todo:
        row = dict(min(todo, key=lambda pair: sorted(map(repr, pair))))
        for name in axes:
            if name not in row:
                fits = [val for val in axes[name] if allowed({**row, name: val})]
                row[name] = max(fits, key=lambda val: len(pairs({**row, name: val}) & todo))
        rows.append({name: row[name] for name in axes})
        todo -= pairs(row)
    return rows


def plane_id(knobs: dict) -> str:
    """``backend-storage[-fast_io][-context_cache]``."""
    on = [knob for knob in ("fast_io", "context_cache") if knobs.get(knob)]
    return "-".join([knobs["backend"], knobs["storage"], *on])


#: Every pair of plane values at least once, the reference plane first: the
#: planes the equivalence harness and the part-matrices of other tests run.
PLANES = [(plane_id(knobs), knobs) for knobs in pairwise(PLANE_AXES)]


def run_on(make, p=1, D=2, B=16, k=2, v=8, **knobs):
    """``make()``'s algorithm on a ``p``-processor machine holding ``k``
    contexts: its outputs and report, and the reference runner's outputs."""
    alg = make()
    mu = alg.context_size()
    params = SimulationParams(
        machine=MachineParams(p=p, M=max(mu * k, D * B), D=D, B=B, b=B),
        bsp=BSPParams(v=v, mu=mu, gamma=max(alg.comm_bound(), 1)),
        k=k,
    )
    outputs, report = ParallelEMSimulation(alg, params, **knobs).run()
    return outputs, report, run_reference(make(), v)[0]


def assert_plane(sim, fast_io=None, context_cache=None, faults=None, **_other):
    """Fail unless ``sim``'s local processors run the plane its builder named.

    Called with the keywords the engine was built with.  A fast-vs-reference comparison says nothing once both
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


def list_state_sort(data, v: int) -> CGMSampleSort:
    """The sample sort of ``data``'s ints on the list-state path: an identity
    key keeps the order of the same values but no codec applies."""
    return CGMSampleSort([int(x) for x in data], v, key=int)


def list_state_permutation(values, perm, v: int) -> CGMPermutation:
    """The permutation of ``values``' ints on the list-state path: the codec
    is switched off after construction, so the same ints run as lists."""
    alg = CGMPermutation(values, perm, v)
    alg._codec, alg.record_mode, alg._array_out = None, "object", False
    alg.values, alg.perm = list(map(int, values)), list(map(int, perm))
    return alg


def leaving_per_record(st: dict, rnd: int, seed: int) -> list[int]:
    """List ranking's removal rule one node at a time over :func:`_prio`:
    the local indices of the active non-tail nodes whose ``(priority, id)``
    is below both neighbours'."""
    lo, pred, out = st["lo"], st["pred"], []
    for li, s in enumerate(st["succ"]):
        u = lo + li
        if s < 0 or s == u:
            continue  # contracted away, or the tail
        key = (_prio(u, rnd, seed), u)
        p = pred[li]
        if key < (_prio(s, rnd, seed), s) and (p < 0 or key < (_prio(p, rnd, seed), p)):
            out.append(li)
    return out


class PerRecordListRanking(CGMListRanking):
    """List ranking whose removal rule is :func:`leaving_per_record`, the
    per-record reference of the vector kernel; contexts and messages are the
    same lists, so every counted cost is too."""

    def _leaving(self, st, rnd):
        return leaving_per_record(st, rnd, self.seed)


def small_sort(n=64, v=4, data_seed=0):
    """A fresh tiny sample-sort instance (factory for the crash explorer)."""
    return CGMSampleSort(wl.uniform_keys(n, seed=data_seed), v)


def piled(config=None, **knobs):
    """D = 8, k = 1, identity write permutations: every vp sends one block to
    each of 8 vps in destination order, so each cycle puts destination d on
    drive d and each fetch group's 8 blocks pile onto one drive.  Read as it
    stands that is 64 ops; Algorithm 2 plus its region's fetch is 54."""
    alg = AllToAllExchange()
    params = build_params(alg, MachineParams(p=1, M=1 << 13, D=8, B=8, b=16), 8, k=1)
    return ParallelEMSimulation(alg, params, config, write_schedule="static", **knobs)


def always_route(monkeypatch):
    """Force Step 2 onto Algorithm 2 in this process (inline backend only)."""
    monkeypatch.setattr(processor, "keep_store", lambda loads, D: False)


def mixed_blocks(rng: random.Random, n: int, B: int = 16, V: int = 16) -> list[Block]:
    """Message blocks of every fill level, vector and object records mixed."""
    out = []
    for i in range(n):
        keys = [rng.randrange(1 << 40) for _ in range(rng.randrange(B + 1))]
        records = keys if i % 5 == 0 else np.asarray(keys, dtype="<i8")
        out.append(Block(records=records, dest=rng.randrange(V), src=i % V, msg=i, seq=0))
    return out


def array_state(array):
    """A disk array's op count, per-drive tallies and occupied tracks."""
    return (
        array.parallel_ops,
        [(d.reads, d.writes, d.used_tracks, d.high_water) for d in array.disks],
        [sorted(d.occupied()) for d in array.disks],
    )


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
