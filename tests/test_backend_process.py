"""The process backend: fault recovery, checkpoint resume and contract
enforcement work across the process boundary as they do inline, and the
workers go with the run.  That it counts what the inline backend counts is
``tests/test_plane_equivalence.py``'s."""

import pytest

from repro.algorithms.sorting import CGMSampleSort
from repro.bsp.program import AlgorithmError, BSPAlgorithm, VPContext
from repro.core.backend import InlineBackend, ProcessBackend, make_backend
from repro.core.checkpoint import SimulationAborted
from repro.core import ParallelEMSimulation
from repro.conform.oracles import canonical_record
from repro.core.simulator import build_params
from repro.emio.faults import FaultPlan, RetryPolicy
from repro.params import MachineParams
from repro.workloads import uniform_keys


def build(p=4, seed=0, n=512, v=8, **kwargs):
    alg = CGMSampleSort(uniform_keys(n, seed=5), v=v)
    machine = MachineParams(p=p, M=1 << 18, D=4, B=16, b=32)
    params = build_params(alg, machine, v=v)
    return ParallelEMSimulation(alg, params, seed=seed, **kwargs)


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


class TestProcessRobustness:
    def test_fault_recovery_inside_workers(self):
        """A disk death inside a worker rolls every worker back to the
        barrier and the run still completes correctly."""
        expected = build().run()[0]
        # v == p*k: one batch a processor, so nothing is reorganized and no
        # context is swapped; the drive sees 12 accesses in all, and death
        # after 4 lands in the checkpoint before superstep 2.
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
        expected = build().run()[0]
        # Processor 0's drive 0 sees 6 accesses in all (the blocks it packs for
        # its own vps of the held batch stay in memory); the 6th is in superstep 3.
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

    def test_one_processor_runs_over_a_worker_too(self):
        """``p = 1`` is the same engine: its one processor may live in a
        worker, and nothing counted or computed changes."""
        inline, worker = (canonical_record(*build(p=1, backend=kind).run())
                          for kind in ("inline", "process"))
        assert worker == inline

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
