"""The barrier lifecycle is one piece of code — drive it through every engine.

``repro.core.engine.EMEngine`` owns run/resume, checkpointing, fatal-fault
rollback, crash injection, event emission and the fault report for both
engines.  These tests push each engine shape (sequential, parallel inline
at p=1 and p=2, parallel over worker processes) through the lifecycle's
four exits and require the same observable result from all of them:
outputs equal to the in-memory reference runner and a ``FaultReport`` that
tells the same story.  They also pin the three places where the engines'
hand-copied lifecycles had drifted apart: temp roots leaked by a failed
constructor, workers leaked by a failed process-backend start-up, and the
meaning of ``run_finished.io_ops``.
"""

import multiprocessing
import os

import pytest

from repro.algorithms.sorting import CGMSampleSort
from repro.bsp.runner import run_reference
from repro.core import ParallelEMSimulation, SequentialEMSimulation
from repro.core.backend import ProcessBackend
from repro.core.checkpoint import SimulationAborted, scrub
from repro.core.simulator import build_params, make_engine
from repro.emio.disk import DiskError
from repro.emio.faults import CRASH_STAGES, CrashPlan, FaultPlan, HostCrash
from repro.emio.storage import StorageSpec
from repro.obs.live import RunEventLog, read_events
from repro.params import MachineParams, ParameterError
from repro.workloads import uniform_keys

SEED = int(os.environ.get("FAULT_SEED", "0"))
V = 8
KEYS = uniform_keys(256, seed=11)

ENGINES = [
    pytest.param("sequential", 1, "inline", id="sequential"),
    pytest.param("parallel", 1, "inline", id="parallel-inline-p1"),
    pytest.param("parallel", 2, "inline", id="parallel-inline-p2"),
    pytest.param("parallel", 2, "process", id="parallel-process-p2"),
]


def build(engine, p, backend, **knobs):
    alg = CGMSampleSort(list(KEYS), v=V)
    machine = MachineParams(p=p, M=1 << 12, D=4, B=16, b=32)
    params = build_params(alg, machine, v=V)
    return make_engine(alg, params, engine=engine, backend=backend, seed=3, **knobs)


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


@pytest.mark.parametrize("engine,p,backend", ENGINES)
class TestLifecycleExits:
    def test_fatal_fault_restores_and_finishes(self, engine, p, backend, reference):
        outputs, report = build(
            engine, p, backend, faults=dying_drive(p), checkpoint=True
        ).run()
        assert outputs == reference
        fr = report.faults
        assert fr.disks_died == 1 and fr.recoveries >= 1
        assert fr.recovery_io_ops > 0 and fr.degraded_writes > 0
        assert fr.checkpoints_taken >= report.num_supersteps
        assert fr.resumed_from_step is None

    def test_exhausted_budget_aborts_then_fresh_engine_resumes(
        self, engine, p, backend, reference
    ):
        doomed = build(
            engine, p, backend,
            faults=dying_drive(p), checkpoint=True, max_recoveries=0,
        )
        with pytest.raises(SimulationAborted, match="max_recoveries") as ei:
            doomed.run()
        ckpt = ei.value.checkpoint
        assert ckpt is doomed.last_checkpoint and ckpt.nprocs == p
        outputs, report = build(engine, p, backend).resume_from_checkpoint(ckpt)
        assert outputs == reference
        fr = report.faults
        assert fr.resumed_from_step == ckpt.step
        assert fr.recoveries == 0 and fr.recovery_io_ops > 0
        assert fr.checkpoints_taken == 0 and fr.disks_died == 0

    def test_fault_before_the_first_checkpoint_aborts(self, engine, p, backend):
        # Without checkpointing there is never a barrier to roll back to ...
        with pytest.raises(SimulationAborted, match="no checkpoint") as ei:
            build(engine, p, backend, faults=dying_drive(p)).run()
        assert ei.value.checkpoint is None
        # ... and with it, a fault while capturing barrier 0 (every context
        # written by load_input reads back corrupt) has none yet either.
        rotten = FaultPlan(seed=SEED, corruption_rate=1.0)
        with pytest.raises(SimulationAborted, match="before the first") as ei:
            build(engine, p, backend, faults=rotten, checkpoint=True).run()
        assert ei.value.checkpoint is None

    def test_host_crash_scrub_attach_resume(
        self, engine, p, backend, reference, tmp_path
    ):
        root = str(tmp_path / "tracks")
        knobs = dict(checkpoint=True, storage="file", storage_dir=root)
        # Die at the second barrier's postsync: barrier 0 is committed, the
        # track files have moved on since, barrier 1 is synced but unpublished.
        point = len(CRASH_STAGES) + CRASH_STAGES.index("postsync")
        with pytest.raises(HostCrash, match="postsync"):
            build(engine, p, backend, crash=CrashPlan(crash_point=point), **knobs).run()
        found = scrub(root)
        assert found.checkpoint is not None and not found.quarantined
        assert found.checkpoint.step == 0 and found.checkpoint.nprocs == p
        outputs, report = build(
            engine, p, backend, max_recoveries=0, **knobs
        ).resume_from_checkpoint(found.checkpoint)
        assert outputs == reference
        fr = report.faults
        assert fr.resumed_from_step == 0
        assert fr.recovery_io_ops == 0  # re-attached in place, not rewritten
        assert fr.recoveries == 0


# ---------------------------------------------------------------------------
# Constructor failures must hand back what they claimed


@pytest.fixture
def private_tmpdir(tmp_path, monkeypatch):
    """Point ``tempfile`` at an empty directory so leaks are countable."""
    import tempfile

    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)  # drop the cached choice
    return tmp_path


class _Unbuildable(CGMSampleSort):
    """Fine while the params are derived; once armed, no processor (local
    or forked into a worker) can be constructed around it."""

    armed = False

    def comm_bound(self):
        if self.armed:
            raise RuntimeError("processor cannot be built")
        return super().comm_bound()


@pytest.mark.parametrize("engine,p,backend", ENGINES)
class TestFailedConstructionLeaksNothing:
    def test_rejected_knobs(self, engine, p, backend, private_tmpdir):
        with pytest.raises(ParameterError, match="checkpoint=True"):
            build(engine, p, backend, storage="file", crash=CrashPlan())
        assert os.listdir(private_tmpdir) == []

    def test_processor_constructor_failure(self, engine, p, backend, private_tmpdir):
        alg = _Unbuildable(list(KEYS), v=V)
        machine = MachineParams(p=p, M=1 << 12, D=4, B=16, b=32)
        params = build_params(alg, machine, v=V)
        alg.armed = True
        with pytest.raises(RuntimeError, match="cannot be built"):
            make_engine(alg, params, engine=engine, backend=backend, storage="file")
        assert os.listdir(private_tmpdir) == []
        assert multiprocessing.active_children() == []


def test_unknown_backend_leaks_no_storage_root(private_tmpdir):
    with pytest.raises(ValueError, match="unknown backend"):
        build("parallel", 2, "bogus", storage="file")
    assert os.listdir(private_tmpdir) == []


def test_failed_process_backend_startup_reaps_its_workers(tmp_path):
    """proc1 cannot claim its sub-root (a foreign file lives there); proc0
    started fine and must not outlive the failed construction."""
    StorageSpec.create("file", tmp_path)  # the root itself is a fine, claimed one
    foreign = tmp_path / "proc1"
    foreign.mkdir()
    (foreign / "somebody-elses.dat").write_bytes(b"x")
    with pytest.raises(DiskError) as ei:
        build("parallel", 2, "process", storage="file", storage_dir=str(tmp_path))
    # Checked while the exception (and through its traceback the half-built
    # backend's pipes) is still referenced: reaping must not be left to GC.
    assert multiprocessing.active_children() == []
    del ei


def test_process_backend_reaps_on_failed_startup_directly():
    class Boom:
        def __init__(self, index):
            if index == 1:
                raise RuntimeError("no processor for you")

    with pytest.raises(RuntimeError, match="no processor") as ei:
        ProcessBackend([(0,), (1,)], Boom)
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
    @pytest.mark.parametrize("engine", ["sequential", "parallel"])
    @pytest.mark.parametrize("faulty", [False, True], ids=["healthy", "rolled-back"])
    def test_is_the_reports_counted_total(self, tmp_path, engine, faulty):
        """Everything the report accounts for — and not the I/O of a
        superstep attempt that a fatal fault rolled back."""
        knobs = {"faults": dying_drive(1)} if faulty else {}
        emitted, rep = _streamed(
            tmp_path,
            lambda ev: build(engine, 1, "inline", checkpoint=True, events=ev, **knobs),
        )
        assert bool(rep.faults.recoveries) == faulty
        assert emitted == _counted_total(rep)

    def test_engines_agree_at_p1(self, tmp_path, monkeypatch):
        """On this sort Algorithm 3 at p=1 charges exactly what Algorithm 1
        does (asserted below, so the comparison stays meaningful) — and then
        the two engines must stream the same number.  The agreement is
        Algorithm 2's: a kept store holds the blocks where each engine's own
        write cycles put them, so Step 2 is forced onto Algorithm 2."""
        from .test_kept_store import always_route

        always_route(monkeypatch)

        def run(cls):
            alg = CGMSampleSort(uniform_keys(512, seed=11), v=4)
            machine = MachineParams(p=1, M=1 << 12, D=4, B=8, b=16)
            params = build_params(alg, machine, v=4)
            return _streamed(
                tmp_path / cls.__name__,
                lambda ev: cls(alg, params, seed=3, checkpoint=True, events=ev),
            )

        seq_ops, seq_rep = run(SequentialEMSimulation)
        par_ops, par_rep = run(ParallelEMSimulation)
        for rep in (seq_rep, par_rep):
            assert (
                rep.init_io_ops, rep.io_ops, rep.output_io_ops,
                rep.faults.checkpoint_io_ops,
            ) == (15, 262, 13, 69)
        # (20, 304, 20, 85) before each superstep's last group stayed in
        # memory: its write-back and the next fetch of it are gone, and the
        # cyclic group order hands Algorithm 2 the blocks in a new order.
        # (15, 272, 13, 69) before superstep 1 skipped the group of quiet vps
        # between its first and last: one fetch and one write-back of 5 ops.
        assert seq_ops == par_ops == 15 + 262 + 13 + 69
