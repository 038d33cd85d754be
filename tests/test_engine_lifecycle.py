"""The barrier lifecycle is one piece of code — drive it through every shape.

``repro.core.engine.ParallelEMSimulation`` owns run/resume, checkpointing, fatal-fault
rollback, crash injection, event emission and the fault report.  These
tests push each machine shape (p=1 and p=2, inline and over worker
processes) through the lifecycle's four exits and require the same
observable result from all of them: outputs equal to the in-memory
reference runner and a ``FaultReport`` that tells the same story.  They
also pin temp roots leaked by a failed constructor, workers leaked by a
failed process-backend start-up, the meaning of ``run_finished.io_ops``,
and what a one-processor machine counts (Algorithm 1's columns).
"""

import dataclasses
import multiprocessing
import os

import numpy as np
import pytest

from repro.algorithms.graphs import CGMListRanking
from repro.algorithms.sorting import CGMSampleSort
from repro.bsp.runner import run_reference
from repro.core import backend
from repro.core.backend import ProcessBackend
from repro.core.checkpoint import SimulationAborted, scrub
from repro.core import ParallelEMSimulation, build_params
from repro.emio.disk import DiskError
from repro.emio.faults import CRASH_STAGES, CrashPlan, FaultPlan, HostCrash
from repro.emio.storage import StorageSpec
from repro.obs.live import RunEventLog, read_events
from repro.params import MachineParams, ParameterError
from repro.workloads import random_linked_list, uniform_keys

SEED = int(os.environ.get("FAULT_SEED", "0"))
V = 8
KEYS = uniform_keys(256, seed=11)

# The ids name the machine: "sequential" is the one-processor machine
# (Algorithm 1), "parallel" a two-processor one (Algorithm 3).
SHAPES = [
    pytest.param(1, "inline", id="sequential"),
    pytest.param(1, "process", id="sequential-process"),
    pytest.param(2, "inline", id="parallel-inline-p2"),
    pytest.param(2, "process", id="parallel-process-p2"),
]


def build(p, backend, **knobs):
    alg = CGMSampleSort(list(KEYS), v=V)
    machine = MachineParams(p=p, M=1 << 12, D=4, B=16, b=32)
    # k = 1: M holds every context of this sort, and a run that never swaps
    # has no drive access to kill.  One vp a group gives the dying drive 30
    # accesses or more on every shape.
    params = build_params(alg, machine, v=V, k=1)
    return ParallelEMSimulation(alg, params, backend=backend, seed=3, **knobs)


def dying_drive(p):
    """A drive of the last processor dies a few dozen accesses into the run."""
    # 20: inside a superstep on every shape, with or without checkpoints (at
    # p = 2 the drive sees 30 accesses in all without them, the last two in
    # the output unload).
    return FaultPlan(seed=SEED + 2, dead_disk=0, dead_after=20, dead_proc=p - 1)


@pytest.fixture(scope="module")
def reference():
    outputs, _ledger = run_reference(CGMSampleSort(list(KEYS), v=V), V)
    return outputs


@pytest.mark.parametrize("p,backend", SHAPES)
class TestLifecycleExits:
    def test_fatal_fault_restores_and_finishes(self, p, backend, reference):
        outputs, report = build(
            p, backend, faults=dying_drive(p), checkpoint=True
        ).run()
        assert outputs == reference
        fr = report.faults
        assert fr.disks_died == 1 and fr.recoveries >= 1
        assert fr.recovery_io_ops > 0 and fr.degraded_writes > 0
        assert fr.checkpoints_taken >= report.num_supersteps
        assert fr.resumed_from_step is None

    def test_exhausted_budget_aborts_then_fresh_engine_resumes(
        self, p, backend, reference
    ):
        doomed = build(
            p, backend,
            faults=dying_drive(p), checkpoint=True, max_recoveries=0,
        )
        with pytest.raises(SimulationAborted, match="max_recoveries") as ei:
            doomed.run()
        ckpt = ei.value.checkpoint
        assert ckpt is doomed.last_checkpoint and ckpt.nprocs == p
        outputs, report = build(p, backend).resume_from_checkpoint(ckpt)
        assert outputs == reference
        fr = report.faults
        assert fr.resumed_from_step == ckpt.step
        assert fr.recoveries == 0 and fr.recovery_io_ops > 0
        assert fr.checkpoints_taken == 0 and fr.disks_died == 0

    def test_fault_before_the_first_checkpoint_aborts(self, p, backend):
        # Without checkpointing there is never a barrier to roll back to ...
        with pytest.raises(SimulationAborted, match="no checkpoint") as ei:
            build(p, backend, faults=dying_drive(p)).run()
        assert ei.value.checkpoint is None
        # ... and with it, a fault while capturing barrier 0 (every context
        # written by load_input reads back corrupt) has none yet either.
        rotten = FaultPlan(seed=SEED, corruption_rate=1.0)
        with pytest.raises(SimulationAborted, match="before the first") as ei:
            build(p, backend, faults=rotten, checkpoint=True).run()
        assert ei.value.checkpoint is None

    def test_host_crash_scrub_attach_resume(
        self, p, backend, reference, tmp_path
    ):
        root = str(tmp_path / "tracks")
        knobs = dict(checkpoint=True, storage="file", storage_dir=root)
        # Die at the second barrier's postsync: barrier 0 is committed, the
        # track files have moved on since, barrier 1 is synced but unpublished.
        point = len(CRASH_STAGES) + CRASH_STAGES.index("postsync")
        with pytest.raises(HostCrash, match="postsync"):
            build(p, backend, crash=CrashPlan(crash_point=point), **knobs).run()
        found = scrub(root)
        assert found.checkpoint is not None and not found.quarantined
        assert found.checkpoint.step == 0 and found.checkpoint.nprocs == p
        outputs, report = build(
            p, backend, max_recoveries=0, **knobs
        ).resume_from_checkpoint(found.checkpoint)
        assert outputs == reference
        fr = report.faults
        assert fr.resumed_from_step == 0
        assert fr.recovery_io_ops == 0  # re-attached in place, not rewritten
        assert fr.recoveries == 0


def unload_accesses(p, monkeypatch):
    """The dying drive's access count when the output unload starts, and
    the accesses the unload makes of it (a run with the fault plan's
    bookkeeping but no death, inline)."""
    from repro.core.processor import RealProcessor

    seen = []
    collect = RealProcessor.collect_outputs

    def counted(self):
        accesses = self.array.injector._accesses
        seen.append(accesses.get(0, 0))
        try:
            return collect(self)
        finally:
            seen.append(accesses.get(0, 0))

    monkeypatch.setattr(RealProcessor, "collect_outputs", counted)
    plan = FaultPlan(seed=SEED, dead_disk=0, dead_after=10**9, dead_proc=p - 1)
    build(p, "inline", faults=plan, checkpoint=True).run()
    monkeypatch.undo()
    start, end = seen[-2:]  # the last processor's
    return start, end - start


@pytest.mark.parametrize("p,backend", SHAPES)
def test_a_drive_dying_in_the_output_unload_recovers_like_a_superstep(
    p, backend, reference, monkeypatch
):
    """A fatal fault in the unload restores the last checkpoint and runs on
    from it within ``max_recoveries``, and past them aborts with that
    checkpoint, which a fresh engine resumes."""
    start, unloaded = unload_accesses(p, monkeypatch)
    assert unloaded > 0
    plan = FaultPlan(seed=SEED, dead_disk=0, dead_after=start, dead_proc=p - 1)
    outputs, report = build(p, backend, faults=plan, checkpoint=True).run()
    assert outputs == reference
    fr = report.faults
    assert (fr.disks_died, fr.recoveries) == (1, 1) and fr.degraded_writes > 0
    doomed = build(p, backend, faults=plan, checkpoint=True, max_recoveries=0)
    with pytest.raises(SimulationAborted, match="max_recoveries") as ei:
        doomed.run()
    ckpt = ei.value.checkpoint
    assert ckpt is doomed.last_checkpoint and ckpt.step == report.num_supersteps - 1
    outputs, _report = build(p, backend).resume_from_checkpoint(ckpt)
    assert outputs == reference


def test_a_checkpoint_of_the_retired_sequential_engine_is_refused(tmp_path):
    """Algorithm 1's own engine kept its one RNG state bare (and its tracks
    at the storage root): such a checkpoint is refused by name."""
    knobs = dict(checkpoint=True, storage="file", storage_dir=str(tmp_path / "t"))
    sim = build(1, "inline", **knobs)
    sim.run()
    old = dataclasses.replace(sim.last_checkpoint, rng_state=sim.last_checkpoint.rng_state[0])
    with pytest.raises(ParameterError, match="bare RNG state"):
        build(1, "inline", **knobs).resume_from_checkpoint(old)


# ---------------------------------------------------------------------------
# Constructor failures must hand back what they claimed


class _Unbuildable(CGMSampleSort):
    """Fine while the params are derived; once armed, no processor (local
    or forked into a worker) can be constructed around it."""

    armed = False

    def comm_bound(self):
        if self.armed:
            raise RuntimeError("processor cannot be built")
        return super().comm_bound()


@pytest.mark.parametrize("p,backend", SHAPES)
class TestFailedConstructionLeaksNothing:
    def test_rejected_knobs(self, p, backend, private_tmpdir):
        with pytest.raises(ParameterError, match="checkpoint=True"):
            build(p, backend, storage="file", crash=CrashPlan())
        assert os.listdir(private_tmpdir) == []

    def test_processor_constructor_failure(self, p, backend, private_tmpdir):
        alg = _Unbuildable(list(KEYS), v=V)
        machine = MachineParams(p=p, M=1 << 12, D=4, B=16, b=32)
        params = build_params(alg, machine, v=V)
        alg.armed = True
        with pytest.raises(RuntimeError, match="cannot be built"):
            ParallelEMSimulation(alg, params, backend=backend, storage="file")
        assert os.listdir(private_tmpdir) == []
        assert multiprocessing.active_children() == []


def test_unknown_backend_leaks_no_storage_root(private_tmpdir):
    with pytest.raises(ValueError, match="unknown backend"):
        build(2, "bogus", storage="file")
    assert os.listdir(private_tmpdir) == []


def test_failed_process_backend_startup_reaps_its_workers(tmp_path):
    """proc1 cannot claim its sub-root (a foreign file lives there); proc0
    started fine and must not outlive the failed construction."""
    StorageSpec.create("file", tmp_path)  # the root itself is a fine, claimed one
    foreign = tmp_path / "proc1"
    foreign.mkdir()
    (foreign / "somebody-elses.dat").write_bytes(b"x")
    with pytest.raises(DiskError) as ei:
        build(2, "process", storage="file", storage_dir=str(tmp_path))
    # Checked while the exception (and through its traceback the half-built
    # backend's pipes) is still referenced: reaping must not be left to GC.
    assert multiprocessing.active_children() == []
    del ei


def test_process_backend_reaps_on_failed_startup_directly(monkeypatch):
    class Boom:
        def __init__(self, index):
            if index == 1:
                raise RuntimeError("no processor for you")

    # The forked workers build the patched class.
    monkeypatch.setattr(backend, "RealProcessor", Boom)
    with pytest.raises(RuntimeError, match="no processor") as ei:
        ProcessBackend([(0,), (1,)])
    assert multiprocessing.active_children() == []
    del ei


# ---------------------------------------------------------------------------
# run_finished.io_ops means one thing


def _streamed(tmp_path, make_sim):
    """Run ``make_sim(events)``; (emitted run_finished.io_ops, the report)."""
    log = tmp_path / "events.jsonl"
    with RunEventLog(log) as events:
        _out, rep = make_sim(events).run()
    (finished,) = [e for e in read_events(log) if e["kind"] == "run_finished"]
    return finished["io_ops"], rep


def _counted_total(rep):
    fr = rep.faults
    return (
        rep.init_io_ops
        + rep.io_ops
        + rep.output_io_ops
        + (fr.checkpoint_io_ops + fr.recovery_io_ops if fr else 0)
    )


class TestRunFinishedIoOps:
    @pytest.mark.parametrize("p", [1, 2], ids=["sequential", "parallel"])
    @pytest.mark.parametrize("faulty", [False, True], ids=["healthy", "rolled-back"])
    def test_is_the_reports_counted_total(self, tmp_path, p, faulty):
        """Everything the report accounts for — and not the I/O of a
        superstep attempt that a fatal fault rolled back."""
        knobs = {"faults": dying_drive(p)} if faulty else {}
        emitted, rep = _streamed(
            tmp_path,
            lambda ev: build(p, "inline", checkpoint=True, events=ev, **knobs),
        )
        assert bool(rep.faults.recoveries) == faulty
        assert emitted == _counted_total(rep)


# ---------------------------------------------------------------------------
# What a one-processor machine counts: Algorithm 1's columns, pinned


def _suite_list(n):
    """The benchmark suite's list: ``n`` nodes visited in a random order."""
    order = np.random.default_rng(3).permutation(n)
    succ = np.empty(n, dtype=np.int64)
    succ[order[:-1]], succ[order[-1]] = order[1:], order[-1]
    return succ.tolist()


FAST_VECTOR = dict(context_cache=True, fast_io=True)

#: Per run — its algorithm, (M, D, B, b) and knobs — the columns supersteps,
#: init, fetch_context, fetch_messages, write_messages, write_context,
#: reorganize, output, comm_packets (the virtual machine's h-relation),
#: message_blocks, disk_tracks, checkpoint_io_ops and comp_ops, as
#: Algorithm 1's own engine counted them before the engines were one — but
#: for the sorts' write_context and comp_ops, which moved when the sort
#: stopped writing its run back (it keeps its state through supersteps 0
#: and 1, and sorts again in superstep 2), and for every column the honest
#: context and message bounds moved: the context slots' layout and
#: disk_tracks follow mu and gamma, listrank_d8 runs k = 16 where it ran
#: k = 2, and the sorts' splitters are (key, position) pairs.  The two sorts
#: take a smaller M so that they still swap: smoke_sort at k = 16 like the
#: suite's full-size sort, the forced Algorithm 2 sort at k = 1 as before
#: (M = 256 since its oversampled bucket bound took mu 272 -> 155; at
#: n = 512, v = 4 each vp sends s = 32 samples where it sent 4, which moved
#: the sample superstep's message, reorganize and comp columns).
#: smoke_listrank's one batch keeps its inbox in memory (k*(mu + gamma) <=
#: M, SimulationParams.holds_inbox), so its message and checkpoint columns went
#: 25 -> 0.  List ranking's fixed-width contexts (mu 560 -> 227 for
#: listrank_d8) moved its context columns, output and disk_tracks only;
#: listrank_d8 takes M = 16*mu so that it still runs k = 16 and swaps.
#: The sorts' fetch_context went 148 -> 140 and 38 -> 33 when superstep 1,
#: which leaves every context alone, kept the batch superstep 0 ended with
#: in memory (engine.plan_rounds): superstep 2 takes it at 0 ops, where it
#: fetched it again (8 and 5 ops).  The forced Algorithm 2 sort's
#: checkpoint at barrier 2 reads that batch from memory too (76 -> 71), and
#: its reorganize went 150 -> 152: superstep 2 runs its batches from group
#: 3, not group 2, so the write cycles draw their permutations in another
#: order and Algorithm 2 meets other queues.
#: List ranking's messages at the width of their values (i16 at both sizes:
#: four values a record behind a one-value frame) moved its message columns
#: only: message blocks 87 -> 30 and 3802 -> 1493, listrank_d8's fetch /
#: write messages 604 / 513 -> 302 / 225.  comm_packets stays: at p = 1 it
#: is the virtual machine's h-relation, and every message was one packet
#: of b already.
P1_COLUMNS = {
    "smoke_sort": (
        lambda: CGMSampleSort(np.random.default_rng(3).integers(0, 1 << 30, 156_250), 128),
        (40_000, 4, 1024, 2048), FAST_VECTOR,
        (4, 56, 140, 71, 64, 92, 0, 56, 514, 240, 96, 0, 5089510)),
    "smoke_listrank": (
        lambda: CGMListRanking(_suite_list(2048), 8),
        (1 << 22, 4, 256, 512), dict(FAST_VECTOR, storage="file", checkpoint=True),
        (14, 0, 0, 0, 0, 0, 0, 0, 194, 30, 4, 0, 26887)),
    # Step 2 forced onto Algorithm 2: 15 + 260 + 15 I/O ops, 71 to checkpoint.
    "forced_algorithm_2_sort": (
        lambda: CGMSampleSort(uniform_keys(512, seed=11), 4),
        (256, 4, 8, 16), dict(seed=3, checkpoint=True),
        (4, 15, 33, 27, 25, 23, 152, 15, 35, 90, 20, 71, 11264)),
    "listrank_d8": (
        lambda: CGMListRanking(random_linked_list(8192, seed=3), 64),
        (16 * 227, 8, 32, 64), dict(seed=3),
        (24, 48, 1152, 302, 225, 1152, 0, 48, 1404, 1493, 64, 0, 188558)),
}


@pytest.mark.parametrize("case", list(P1_COLUMNS))
def test_one_processor_counts_algorithm_1s_columns(case, tmp_path, monkeypatch):
    """At p = 1 there is no network: every counted column, the streamed
    ``run_finished.io_ops`` and the exact referee agree with Algorithm 1's."""
    from repro.conform.oracles import check_theorem1_io

    from .helpers import always_route

    make, (M, D, B, b), knobs, columns = P1_COLUMNS[case]
    if case == "forced_algorithm_2_sort":
        always_route(monkeypatch)
    if knobs.get("storage") == "file":
        knobs = dict(knobs, storage_dir=str(tmp_path / "tracks"))
    alg = make()
    params = build_params(alg, MachineParams(p=1, M=M, D=D, B=B, b=b), alg.v)
    emitted, rep = _streamed(tmp_path, lambda ev: ParallelEMSimulation(alg, params, events=ev, **knobs))
    phases = ("fetch_context", "fetch_messages", "write_messages", "write_context",
              "reorganize")
    assert (
        rep.num_supersteps, rep.init_io_ops,
        *(sum(getattr(s.phases, f) for s in rep.supersteps) for f in phases),
        rep.output_io_ops, rep.ledger.total_comm_packets,
        sum(s.message_blocks for s in rep.supersteps), rep.disk_space_tracks,
        rep.faults.checkpoint_io_ops if rep.faults else 0, rep.ledger.total_comp,
    ) == columns
    assert emitted == _counted_total(rep)
    assert check_theorem1_io(rep.params, rep)[0] == []
