"""What makes a rep fail: the checks that together define ``failed_share``.

* the output differs from an oracle that shares no code with the program
  (``np.sort`` for sort; a direct pointer walk for list ranking);
* the counted costs differ from the other reps of the same run;
* a superstep fails the program's own per-superstep Theorem 1 / Lemma 2
  oracles (``repro.conform.oracles``);
* the rep leaves a scratch dir, thread, child process or open file behind.

Every check returns a list of human-readable failures (empty = pass) and
never raises on a failing check, so one bad rep reports everything it broke.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from typing import Any

import numpy as np

# -- independent output oracles ------------------------------------------------


def expected_output(kind: str, data: Any) -> np.ndarray:
    """The answer, computed without the program."""
    if kind == "sort":
        return np.sort(np.asarray(data, dtype=np.int64))
    return _pointer_walk_ranks(data)


def _pointer_walk_ranks(succ: list[int]) -> np.ndarray:
    """rank[u] = number of edges from u to the tail, by walking the list."""
    n = len(succ)
    has_pred = [False] * n
    for u, s in enumerate(succ):
        if s != u:
            has_pred[s] = True
    node = has_pred.index(False)  # the head: nobody's successor
    ranks = np.empty(n, dtype=np.int64)
    for rank in range(n - 1, -1, -1):
        ranks[node] = rank
        node = succ[node]
    return ranks


def check_output(kind: str, outputs: list[Any], expected: np.ndarray) -> list[str]:
    if kind == "sort":
        got = np.concatenate([np.asarray(o, dtype=np.int64) for o in outputs])
        if got.shape != expected.shape:
            return [f"sort output has {got.size} records, expected {expected.size}"]
        bad = np.flatnonzero(got != expected)
        if bad.size:
            return [f"sort output differs from np.sort at {bad.size} positions "
                    f"(first at {int(bad[0])})"]
        return []
    pairs = np.asarray([pair for out in outputs for pair in out], dtype=np.int64)
    pairs = pairs.reshape(-1, 2)
    nodes, ranks = pairs[:, 0], pairs[:, 1]
    if nodes.size != expected.size or not np.array_equal(
        np.sort(nodes), np.arange(expected.size)
    ):
        return [f"list-rank output covers {nodes.size} (node, rank) pairs, "
                f"not each of {expected.size} nodes once"]
    bad = np.flatnonzero(expected[nodes] != ranks)
    if bad.size:
        return [f"list ranks differ from the pointer walk at {bad.size} nodes "
                f"(first: node {int(nodes[bad[0]])})"]
    return []


# -- counted costs ---------------------------------------------------------------

PHASES = ("fetch_context", "fetch_messages", "write_messages", "write_context",
          "reorganize")


def counted_ops(report) -> dict[str, int | float]:
    """Every counted quantity of one run, as plain numbers."""
    from repro.conform.oracles import theorem1_io_bound

    led = report.ledger
    ops: dict[str, int | float] = {
        phase: sum(getattr(s.phases, phase) for s in report.supersteps)
        for phase in PHASES
    }
    faults = report.faults
    ops.update(
        io_ops=report.io_ops,
        supersteps=report.num_supersteps,
        init_io_ops=report.init_io_ops,
        output_io_ops=report.output_io_ops,
        comm_packets=led.total_comm_packets,
        comp_ops=led.total_comp,
        records_io=led.total_records_io,
        disk_tracks=report.disk_space_tracks,
        message_blocks=sum(s.message_blocks for s in report.supersteps),
        max_step_blocks=max((s.message_blocks for s in report.supersteps), default=0),
        phase1_ops=sum(s.routing.phase1_ops for s in report.supersteps if s.routing),
        phase2_ops=sum(s.routing.phase2_ops for s in report.supersteps if s.routing),
        max_load_ratio=report.max_load_ratio,
        theorem1_ratio=report.io_ops / theorem1_io_bound(report.params, report),
        checkpoints=faults.checkpoints_taken if faults else 0,
        checkpoint_io_ops=faults.checkpoint_io_ops if faults else 0,
    )
    return ops


def check_counted(ops: dict, first: dict | None) -> list[str]:
    """Phases must add up to the total, and every rep must count the same."""
    failures = []
    if sum(ops[p] for p in PHASES) != ops["io_ops"]:
        failures.append("per-phase I/O ops do not sum to the superstep total")
    if first is not None and ops != first:
        diff = {k: (first[k], ops[k]) for k in first if first[k] != ops.get(k)}
        failures.append(f"counted costs differ from the first rep: {diff}")
    return failures


def check_theory(report) -> list[str]:
    """The program's own per-superstep Theorem 1 and Lemma 2 oracles."""
    from repro.conform.oracles import check_lemma2, check_theorem1_io

    failures, _ = check_theorem1_io(report.params, report)
    lemma2, _ = check_lemma2(report.params, report)
    return [str(f) for f in (*failures, *lemma2)]


# -- leaks -------------------------------------------------------------------------


class LeakCheck:
    """Snapshot threads, children, open files and the scratch root; compare later.

    The harness points ``tempfile.tempdir`` at ``scratch_root``, so a temp
    dir the program forgot to remove shows up there too.
    """

    def __init__(self, scratch_root: str):
        self.scratch_root = scratch_root
        self.threads = set(threading.enumerate())
        self.fds = self._open_fds()

    @staticmethod
    def _open_fds() -> int | None:
        try:
            return len(os.listdir("/proc/self/fd"))
        except OSError:  # no procfs: skip the open-file check
            return None

    def failures(self) -> list[str]:
        out = []
        left = sorted(os.listdir(self.scratch_root))
        if left:
            out.append(f"scratch entries left behind: {left[:4]}")
        threads = [t.name for t in threading.enumerate() if t not in self.threads]
        if threads:
            out.append(f"threads left running: {threads[:4]}")
        children = multiprocessing.active_children()
        if children:
            out.append(f"child processes left running: {[c.pid for c in children]}")
        fds = self._open_fds()
        if fds is not None and self.fds is not None and fds > self.fds:
            out.append(f"{fds - self.fds} file descriptors left open")
        return out
