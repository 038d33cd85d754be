"""Process-backend transparency: ``backend="process"`` must be invisible.

The parallel engine's real processors can run inline (the reference) or one
per ``multiprocessing`` worker.  Every counted quantity — outputs, ledger,
reports — must be identical, and the robustness machinery (fault recovery,
checkpoint resume, contract enforcement) must work across the process
boundary exactly as it does inline.
"""

import pytest

from repro.algorithms.sorting import CGMSampleSort
from repro.bsp.program import AlgorithmError, BSPAlgorithm, VPContext
from repro.core.backend import InlineBackend, ProcessBackend, make_backend
from repro.core.checkpoint import SimulationAborted
from repro.core.parsim import ParallelEMSimulation
from repro.core.simulator import build_params, simulate
from repro.emio.faults import FaultPlan, RetryPolicy
from repro.params import MachineParams
from repro.workloads import uniform_keys


def build(p=4, seed=0, n=512, v=8, **kwargs):
    alg = CGMSampleSort(uniform_keys(n, seed=5), v=v)
    machine = MachineParams(p=p, M=1 << 18, D=4, B=16, b=32)
    params = build_params(alg, machine, v=v)
    return ParallelEMSimulation(alg, params, seed=seed, **kwargs)


def golden(sim):
    outputs, report = sim.run()
    return {
        "outputs": outputs,
        "ledger": report.ledger.summary(),
        "supersteps": [
            (repr(s.phases), repr(s.routing), s.comm_packets, s.halted)
            for s in report.supersteps
        ],
        "init_io": report.init_io_ops,
        "output_io": report.output_io_ops,
        "tracks": report.disk_space_tracks,
    }


class GammaLiar(BSPAlgorithm):
    """Declares a tiny communication bound, then floods vp 0."""

    def context_size(self):
        return 4096

    def comm_bound(self):
        return 8

    def initial_state(self, pid, nprocs):
        return {}

    def superstep(self, ctx: VPContext):
        if ctx.step == 0:
            ctx.send(0, list(range(500)))
        ctx.vote_halt()

    def output(self, pid, state):
        return None


class TestProcessTransparency:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_matches_inline(self, p):
        assert golden(build(p=p, backend="process")) == golden(build(p=p))

    def test_matches_inline_with_checkpointing(self):
        ref = golden(build(checkpoint=True))
        assert golden(build(checkpoint=True, backend="process")) == ref


class TestProcessRobustness:
    def test_fault_recovery_inside_workers(self):
        """A disk death inside a worker rolls every worker back to the
        barrier and the run still completes correctly."""
        expected = golden(build())["outputs"]
        # v == p*k: one batch a processor, so nothing is reorganized and no
        # context is swapped; the drive sees 9 accesses in all, and death
        # after 4 lands in superstep 2.
        plan = FaultPlan(seed=0, dead_disk=0, dead_after=4, dead_proc=1)
        sim = build(
            backend="process",
            faults=plan,
            retry=RetryPolicy(max_retries=2),
            checkpoint=True,
        )
        outputs, report = sim.run()
        assert outputs == expected
        assert report.faults.recoveries >= 1
        assert report.faults.disks_died >= 1

    def test_cross_backend_checkpoint_resume(self):
        """A checkpoint written by the inline backend restores into process
        workers (and vice-versa the state layout is engine-owned)."""
        expected = golden(build())["outputs"]
        # Processor 0's drive 0 sees 9 accesses in all; the 6th is in superstep 3.
        plan = FaultPlan(seed=0, dead_disk=0, dead_after=5, dead_proc=0)
        dying = build(
            faults=plan,
            retry=RetryPolicy(max_retries=2),
            checkpoint=True,
            max_recoveries=0,
        )
        with pytest.raises(SimulationAborted) as exc_info:
            dying.run()
        ckpt = exc_info.value.checkpoint
        assert ckpt is not None
        fresh = build(backend="process", checkpoint=True)
        outputs, report = fresh.resume_from_checkpoint(ckpt)
        assert outputs == expected
        assert report.faults.resumed_from_step == ckpt.step

    def test_contract_violations_propagate(self):
        """An AlgorithmError raised inside a worker surfaces to the caller."""
        alg = GammaLiar()
        machine = MachineParams(p=4, M=1 << 18, D=4, B=16, b=32)
        params = build_params(alg, machine, v=8)
        sim = ParallelEMSimulation(alg, params, backend="process")
        with pytest.raises(AlgorithmError, match="gamma"):
            sim.run()


class TestBackendPlumbing:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("threads", [])

    def test_sequential_engine_rejects_process_backend(self):
        alg = CGMSampleSort(uniform_keys(256, seed=5), v=8)
        machine = MachineParams(p=1, M=1 << 18, D=4, B=16, b=32)
        with pytest.raises(ValueError, match="parallel engine"):
            simulate(alg, machine, v=8, engine="sequential", backend="process")

    def test_rejection_names_both_knobs_and_both_remedies(self):
        """The error must point at `backend` and `engine` by name and spell
        out both ways to fix the call."""
        alg = CGMSampleSort(uniform_keys(256, seed=5), v=8)
        machine = MachineParams(p=1, M=1 << 18, D=4, B=16, b=32)
        with pytest.raises(ValueError) as exc_info:
            simulate(alg, machine, v=8, engine="sequential", backend="process")
        msg = str(exc_info.value)
        assert "backend='process'" in msg
        assert "engine='sequential'" in msg
        assert "engine='parallel'" in msg
        assert "backend='inline'" in msg

    def test_rejection_explains_auto_resolution(self):
        """With engine='auto' on p=1 the error must say *why* the sequential
        engine was picked, so the caller knows p (not their engine arg) is
        the cause."""
        alg = CGMSampleSort(uniform_keys(256, seed=5), v=8)
        machine = MachineParams(p=1, M=1 << 18, D=4, B=16, b=32)
        with pytest.raises(ValueError) as exc_info:
            simulate(alg, machine, v=8, engine="auto", backend="process")
        msg = str(exc_info.value)
        assert "engine='auto' resolved to 'sequential'" in msg
        assert "machine.p=1" in msg

    def test_workers_shut_down_after_run(self):
        sim = build(p=2, backend="process")
        assert isinstance(sim.backend, ProcessBackend)
        workers = list(sim.backend._workers)
        sim.run()
        assert sim.backend._workers == []
        assert all(not w.is_alive() for w in workers)
        sim.backend.close()  # idempotent

    def test_inline_backend_exposes_processors(self):
        sim = build(p=2)
        assert isinstance(sim.backend, InlineBackend)
        assert len(sim.procs) == 2
        assert [pr.index for pr in sim.procs] == [0, 1]
