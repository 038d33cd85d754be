"""Failure-injection tests: the simulation must fail loudly, never silently.

Violations of the model's declared bounds (context size mu, communication
bound gamma, invalid destinations, runaway algorithms) are contract
breaches; these tests pin the error behaviour of every enforcement point.
"""

import pytest

from repro.bsp.program import AlgorithmError, BSPAlgorithm, VPContext
from repro.bsp.runner import run_reference
from repro.core import ParallelEMSimulation
from repro.core.simulator import build_params, simulate
from repro.emio.disk import DiskError
from repro.params import MachineParams


class LyingContext(BSPAlgorithm):
    """Declares a tiny context, then grows its state beyond it."""

    def context_size(self) -> int:
        return 32

    def comm_bound(self) -> int:
        return 8

    def initial_state(self, pid, nprocs):
        return {"data": []}

    def superstep(self, ctx: VPContext):
        ctx.state["data"] = list(range(10_000))  # far beyond 32 records
        ctx.vote_halt()

    def output(self, pid, state):
        return None


class LyingComm(BSPAlgorithm):
    """Declares gamma=4 records, then sends 1000."""

    def context_size(self) -> int:
        return 256

    def comm_bound(self) -> int:
        return 4

    def initial_state(self, pid, nprocs):
        return {}

    def superstep(self, ctx: VPContext):
        if ctx.step == 0:
            ctx.send((ctx.pid + 1) % ctx.nprocs, list(range(1000)))
        else:
            ctx.vote_halt()

    def output(self, pid, state):
        return None


class FloodsOneReceiver(BSPAlgorithm):
    """Every vp sends gamma records to vp 0: the *receive* side bursts."""

    def context_size(self) -> int:
        return 4096

    def comm_bound(self) -> int:
        return 16

    def initial_state(self, pid, nprocs):
        return {}

    def superstep(self, ctx: VPContext):
        if ctx.step == 0:
            ctx.send(0, list(range(16)))  # within the per-sender bound
        else:
            ctx.vote_halt()

    def output(self, pid, state):
        return None


class BadDestination(BSPAlgorithm):
    def context_size(self) -> int:
        return 256

    def comm_bound(self) -> int:
        return 8

    def initial_state(self, pid, nprocs):
        return {}

    def superstep(self, ctx: VPContext):
        ctx.send(ctx.nprocs + 5, [1])

    def output(self, pid, state):
        return None


class NeverHalts(BSPAlgorithm):
    MAX_SUPERSTEPS = 25

    def context_size(self) -> int:
        return 256

    def comm_bound(self) -> int:
        return 8

    def initial_state(self, pid, nprocs):
        return {}

    def superstep(self, ctx: VPContext):
        ctx.send(ctx.pid, [ctx.step])  # keeps itself busy forever

    def output(self, pid, state):
        return None


MACHINE = MachineParams(p=1, M=1 << 13, D=2, B=16, b=16)


def params_for(alg, v=4, p=1):
    machine = MachineParams(p=p, M=max(2 * alg.context_size(), 64), D=2, B=16, b=16)
    return build_params(alg, machine, v=v, k=2)


class TestContextOverflow:
    def test_sequential_engine_rejects(self):
        with pytest.raises(DiskError, match="context"):
            ParallelEMSimulation(LyingContext(), params_for(LyingContext())).run()

    def test_parallel_engine_rejects(self):
        with pytest.raises(DiskError, match="context"):
            ParallelEMSimulation(
                LyingContext(), params_for(LyingContext(), p=2)
            ).run()


class TestGammaViolation:
    def test_send_side_rejected_in_reference(self):
        with pytest.raises(AlgorithmError, match="exceeding"):
            run_reference(LyingComm(), 4)

    def test_send_side_rejected_in_em(self):
        with pytest.raises(AlgorithmError, match="exceeding"):
            ParallelEMSimulation(LyingComm(), params_for(LyingComm())).run()

    def test_receive_side_rejected(self):
        # 8 senders x 16 records = 128 > gamma = 16 at vp 0.
        with pytest.raises(AlgorithmError, match="received"):
            ParallelEMSimulation(
                FloodsOneReceiver(), params_for(FloodsOneReceiver(), v=8)
            ).run()

    def test_enforcement_can_be_disabled(self):
        out, _ = ParallelEMSimulation(
            FloodsOneReceiver(),
            params_for(FloodsOneReceiver(), v=8),
            enforce_gamma=False,
        ).run()
        assert out == [None] * 8


class TestBadDestination:
    def test_rejected_everywhere(self):
        with pytest.raises(AlgorithmError, match="invalid destination"):
            run_reference(BadDestination(), 4)
        with pytest.raises(AlgorithmError, match="invalid destination"):
            ParallelEMSimulation(
                BadDestination(), params_for(BadDestination())
            ).run()


class TestNonHalting:
    def test_reference_guard(self):
        with pytest.raises(AlgorithmError, match="MAX_SUPERSTEPS"):
            run_reference(NeverHalts(), 4)

    def test_sequential_guard(self):
        with pytest.raises(AlgorithmError, match="MAX_SUPERSTEPS"):
            ParallelEMSimulation(NeverHalts(), params_for(NeverHalts())).run()

    def test_parallel_guard(self):
        with pytest.raises(AlgorithmError, match="MAX_SUPERSTEPS"):
            ParallelEMSimulation(
                NeverHalts(), params_for(NeverHalts(), p=2)
            ).run()


class TestSimulatorFacade:
    def test_engine_auto_selects(self):
        from tests.helpers import NoCommunication

        machine = MachineParams(p=1, M=1 << 12, D=2, B=16, b=16)
        out, rep = simulate(NoCommunication(), machine, v=4)
        assert out == [1, 3, 5, 7]
        machine2 = MachineParams(p=2, M=1 << 12, D=2, B=16, b=16)
        out2, _ = simulate(NoCommunication(), machine2, v=4, k=2)
        assert out2 == out

    def test_unknown_engine_rejected(self):
        """There is one engine: the knob that chose between two is gone and
        is refused by name."""
        from tests.helpers import NoCommunication

        machine = MachineParams(p=1, M=1 << 12, D=2, B=16, b=16)
        with pytest.raises(TypeError, match="engine"):
            simulate(NoCommunication(), machine, v=4, engine="sequential")

    def test_engine_forced_parallel_on_p1(self):
        """Algorithm 3 at p = 1 is Algorithm 1: the one engine, on groups
        of k = 2 over four vps, computes the reference's answer."""
        from tests.helpers import AllToAllExchange

        machine = MachineParams(p=1, M=1 << 13, D=2, B=16, b=16)
        ref, _ = run_reference(AllToAllExchange(), 4)
        out, _ = simulate(AllToAllExchange(), machine, v=4, k=2)
        assert out == ref

    def test_strict_mode_propagates(self):
        from repro.params import ParameterError
        from tests.helpers import NoCommunication

        machine = MachineParams(p=1, M=1 << 12, D=8, B=16, b=16)
        with pytest.raises(ParameterError, match="slackness"):
            simulate(NoCommunication(), machine, v=4, strict=True)


class TestFaultPaths:
    """Fault handling is part of the failure contract: transient faults are
    masked, fatal faults either recover through a checkpoint or abort loudly
    — and a detected corruption never degrades into silently wrong output."""

    MACHINE = MachineParams(p=1, M=1 << 13, D=4, B=16, b=16)

    def _baseline(self):
        from tests.helpers import AllToAllExchange

        out, _ = simulate(AllToAllExchange(), self.MACHINE, v=4, seed=1)
        return out

    def test_transient_fault_recovered_by_retry(self):
        from repro.emio.faults import FaultPlan
        from tests.helpers import AllToAllExchange

        plan = FaultPlan(seed=0, read_error_rate=0.1, write_error_rate=0.1)
        out, rep = simulate(
            AllToAllExchange(), self.MACHINE, v=4, seed=1, faults=plan
        )
        assert out == self._baseline()
        assert rep.faults.retry_ops > 0
        assert rep.faults.recoveries == 0  # retries sufficed, no rollback

    def test_permanent_fault_recovered_by_checkpoint(self):
        from repro.emio.faults import FaultPlan
        from tests.helpers import AllToAllExchange

        plan = FaultPlan(seed=0, dead_disk=0, dead_after=16)
        out, rep = simulate(
            AllToAllExchange(), self.MACHINE, v=4, seed=1,
            faults=plan, checkpoint=True,
        )
        assert out == self._baseline()
        assert rep.faults.disks_died == 1
        assert rep.faults.recoveries >= 1

    def test_permanent_fault_without_checkpoint_aborts(self):
        from repro.core.checkpoint import SimulationAborted
        from repro.emio.faults import FaultPlan
        from tests.helpers import AllToAllExchange

        # Without checkpoints the drive sees 14 accesses in all (one group:
        # no context swap); the 10th is in superstep 1.
        plan = FaultPlan(seed=0, dead_disk=0, dead_after=9)
        with pytest.raises(SimulationAborted):
            simulate(AllToAllExchange(), self.MACHINE, v=4, seed=1, faults=plan)

    def test_corruption_raises_never_wrong_output(self):
        """Every read of a corrupted block either retries into good data or
        fails loudly; under heavy corruption the run may abort, but whenever
        it completes the outputs are exact."""
        from repro.core.checkpoint import SimulationAborted
        from repro.emio.faults import FaultPlan
        from tests.helpers import AllToAllExchange

        baseline = self._baseline()
        for seed in range(3):
            plan = FaultPlan(seed=seed, corruption_rate=0.2)
            try:
                out, rep = simulate(
                    AllToAllExchange(), self.MACHINE, v=4, seed=1,
                    faults=plan, checkpoint=True,
                )
            except SimulationAborted:
                continue  # loud failure is acceptable; silence is not
            assert out == baseline
            assert (
                rep.faults.checksum_errors == rep.faults.corruptions_injected
            )  # every injected corruption was detected
