"""The four named workloads: what runs, on which machine, with which knobs.

A workload is pure description plus two functions of the harness's own:
``generate`` makes the input from ``--seed`` (the program receives only the
generated data, never the seed) and ``make_algorithm`` wraps that data in
the program's algorithm object.  Everything a drill needs to size itself
(``B``, ``D``, ``v``, the storage plane, the record plane) is read from
here, so no drill carries a hard-coded size.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

#: ``--smoke`` divides every input by this and runs two timed reps; the
#: self-test uses it, a measurement never does.
SMOKE_DIVISOR = 64
SMOKE_REPS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "sort" | "listrank"
    n: int
    v: int
    machine: dict[str, int]
    #: keyword arguments of ``repro.core.simulate`` beyond algorithm/machine/v
    knobs: dict[str, Any] = field(default_factory=dict)
    #: R: the most timed reps one run makes (a window usually ends it sooner).
    reps: int = 12
    #: Listed in ``BENCHMARK.json``, so the driver runs it and gates later PRs on it.
    gated: bool = True

    @property
    def storage(self) -> str:
        return self.knobs.get("storage", "memory")

    @property
    def on_file_plane(self) -> bool:
        return self.storage != "memory"

    @property
    def checkpointed(self) -> bool:
        return bool(self.knobs.get("checkpoint"))

    @property
    def scan_ops(self) -> int:
        """Parallel I/O ops of one scan of the data: ``ceil(n / (D*B))``."""
        db = self.machine["D"] * self.machine["B"]
        return -(-self.n // db)

    def smoke(self) -> "Workload":
        return replace(self, n=self.n // SMOKE_DIVISOR, reps=SMOKE_REPS)

    def generate(self, seed: int) -> Any:
        """The input, a function of ``seed`` alone."""
        rng = np.random.default_rng(seed)
        if self.kind == "sort":
            return rng.integers(0, 1 << 30, size=self.n, dtype=np.int64)
        # A linked list visiting all n nodes in random order, as a successor
        # array whose tail points at itself.
        order = rng.permutation(self.n)
        succ = np.empty(self.n, dtype=np.int64)
        succ[order[:-1]] = order[1:]
        succ[order[-1]] = order[-1]
        return succ.tolist()

    def make_algorithm(self, data: Any):
        from repro.algorithms.graphs.listranking import CGMListRanking
        from repro.algorithms.sorting import CGMSampleSort

        cls = CGMSampleSort if self.kind == "sort" else CGMListRanking
        return cls(data, v=self.v)

    def machine_params(self):
        from repro import MachineParams

        return MachineParams(**self.machine)

    def describe(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "n": self.n,
            "v": self.v,
            "machine": dict(self.machine),
            "knobs": dict(self.knobs),
            "reps": self.reps,
        }


_FAST_VECTOR = {"context_cache": True, "fast_io": True, "records": "vector"}

_SORT_MACHINE = {"p": 1, "M": 1 << 22, "D": 4, "B": 1024, "b": 2048}
#: One v for both sorts keeps them counted-cost-identical.  The issue's 256 is
#: v^2 = 65536 nearly empty message blocks, 20 s a rep on the checkout's disk.
_SORT_V = 128

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="sort_mem",
            why="10M-key vector sort on the memory plane: 4 big supersteps, all "
            "wall in kernel+layout+routing, none in storage, syscalls or checkpoints",
            kind="sort",
            n=10_000_000,
            v=_SORT_V,
            machine=_SORT_MACHINE,
            knobs={**_FAST_VECTOR},
        ),
        Workload(
            name="sort_file",
            why="byte for byte sort_mem's keys, machine, v and knobs on the file plane: "
            "same counted costs, so the whole gap to sort_mem is storage+serialize+syscalls",
            kind="sort",
            n=10_000_000,
            v=_SORT_V,
            machine=_SORT_MACHINE,
            knobs={**_FAST_VECTOR, "storage": "file", "io_overlap": False},
        ),
        Workload(
            name="listrank_par_default",
            why="list ranking with every knob at its default (Algorithm 3, p=4, object "
            "records): 47 small message-heavy supersteps, what a user gets unasked",
            kind="listrank",
            n=32768,
            v=32,
            machine={"p": 4, "M": 1 << 20, "D": 4, "B": 32, "b": 64},
            knobs={},
        ),
        Workload(
            name="listrank_file_ckpt",
            why="list ranking on the file plane with a checkpoint at all 27 barriers: "
            "durable writes beside reads, so a costlier write path shows as a loss",
            kind="listrank",
            n=131072,
            v=8,
            machine={"p": 1, "M": 1 << 22, "D": 4, "B": 256, "b": 512},
            knobs={**_FAST_VECTOR, "storage": "file", "checkpoint": True},
            # Half of a rep is pickling, and pickling follows the host's cache
            # contention: ten runs of one commit spread by 17-35% of their
            # median, twice the other workloads' and past the largest bound
            # the driver admits (README.md, "How steady").
            gated=False,
        ),
    )
}
