"""Fault-injection and recovery tests.

Covers the fault model end to end: deterministic injection streams, the
faulty-disk device semantics (transient errors, checksummed corruption,
latency spikes, death), the disk array's retry/degraded-mode behaviour, and
the engine's checkpoint/recovery loop — including the hard acceptance
criteria: under a seeded fault plan the engine, at p = 1 and p > 1, must produce outputs
*identical* to a fault-free run, and a killed run must resume from its last
checkpoint without re-running completed supersteps.

``FAULT_SEED`` (environment) shifts every plan seed, so CI can sweep a
small seed matrix without touching the tests.
"""

import os

import pytest

from repro.algorithms import CGMPermutation, CGMSampleSort
from repro.core.checkpoint import SimulationAborted, SuperstepCheckpoint
from repro.core import ParallelEMSimulation
from repro.core.simulator import build_params, simulate
from repro.emio.disk import Block
from repro.emio.diskarray import DiskArray
from repro.emio.faults import (
    ChecksumError,
    DataLossError,
    FaultPlan,
    RetryExhaustedError,
    RetryPolicy,
)
from repro.emio.linked import LinkedBuckets
from repro.emio.layout import RegionAllocator
from repro.params import MachineParams

from .helpers import RingShift

SEED = int(os.environ.get("FAULT_SEED", "0"))

SEQ = MachineParams(p=1, M=4096, D=4, B=32)
PAR = MachineParams(p=2, M=4096, D=4, B=32)
#: M holds every context of ``sort_input()`` at v = 8, and a run that never
#: swaps (and, at p = 1, keeps its one batch's inbox in memory) has no drive
#: access for a fault to land on: those tests pin a group of one vp, which
#: gives every drive 44 accesses or more.
SWAPPING_K = 1


def sort_input(n=512, seed=7):
    import random

    rnd = random.Random(seed)
    return [rnd.randrange(10**6) for _ in range(n)]


# ---------------------------------------------------------------------------
# Injection streams
# ---------------------------------------------------------------------------


class TestFaultPlanDeterminism:
    def test_same_plan_same_draws(self):
        plan = FaultPlan(
            seed=SEED, read_error_rate=0.3, corruption_rate=0.2, latency_rate=0.1
        )
        a, b = plan.injector(0), plan.injector(0)
        draws_a = [(d.fail, d.corrupt, d.stall_ops) for d in
                   (a.draw(1, "read") for _ in range(200))]
        draws_b = [(d.fail, d.corrupt, d.stall_ops) for d in
                   (b.draw(1, "read") for _ in range(200))]
        assert draws_a == draws_b

    def test_streams_are_rate_independent(self):
        """Changing one rate must not shift the other fault decisions."""
        quiet = FaultPlan(seed=SEED, read_error_rate=0.3, latency_rate=0.0)
        noisy = FaultPlan(seed=SEED, read_error_rate=0.3, latency_rate=0.9)
        iq, inz = quiet.injector(), noisy.injector()
        fails_quiet = [iq.draw(0, "read").fail for _ in range(300)]
        fails_noisy = [inz.draw(0, "read").fail for _ in range(300)]
        assert fails_quiet == fails_noisy

    def test_procs_get_independent_streams(self):
        plan = FaultPlan(seed=SEED, read_error_rate=0.5)
        i0, i1 = plan.injector(0), plan.injector(1)
        s0 = [i0.draw(0, "read").fail for _ in range(100)]
        s1 = [i1.draw(0, "read").fail for _ in range(100)]
        assert s0 != s1

    def test_disks_get_independent_streams(self):
        plan = FaultPlan(seed=SEED, read_error_rate=0.5)
        inj = plan.injector()
        s0 = [inj.draw(0, "read").fail for _ in range(100)]
        s1 = [inj.draw(1, "read").fail for _ in range(100)]
        assert s0 != s1

    def test_death_at_access_count(self):
        plan = FaultPlan(seed=SEED, dead_disk=2, dead_after=5)
        inj = plan.injector(0)
        verdicts = [inj.draw(2, "read").die for _ in range(8)]
        assert verdicts == [False] * 5 + [True] * 3
        # Other disks and other processors are unaffected.
        assert not plan.injector(0).draw(1, "read").die
        assert not plan.injector(1).draw(2, "read").die


# ---------------------------------------------------------------------------
# Device + array semantics
# ---------------------------------------------------------------------------


class TestFaultyArray:
    def test_transient_reads_masked_by_retry(self):
        plan = FaultPlan(seed=SEED, read_error_rate=0.5)
        array = DiskArray(4, 8, faults=plan)
        for d in range(4):
            array.parallel_write([(d, 0, Block(records=[d]))])
        got = [array.parallel_read([(d, 0)])[0].records for d in range(4)]
        assert got == [[0], [1], [2], [3]]
        assert array.retry_reads > 0
        assert array.stall_ops > 0  # backoff was charged

    def test_transient_writes_masked_by_retry(self):
        plan = FaultPlan(seed=SEED, write_error_rate=0.5)
        array = DiskArray(2, 8, faults=plan)
        for t in range(20):
            array.parallel_write([(0, t, Block(records=[t]))])
        assert array.retry_writes > 0
        got = [array.parallel_read([(0, t)])[0].records for t in range(20)]
        assert got == [[t] for t in range(20)]

    def test_retry_budget_exhausts(self):
        plan = FaultPlan(seed=SEED, read_error_rate=1.0)
        array = DiskArray(1, 8, faults=plan, retry=RetryPolicy(max_retries=3))
        array_ok = DiskArray(1, 8)
        array_ok.parallel_write([(0, 0, Block(records=[1]))])
        array.disks[0]._tracks[0] = Block(records=[1])  # plant data directly
        with pytest.raises(RetryExhaustedError):
            array.parallel_read([(0, 0)])

    def test_corruption_detected_and_retried(self):
        plan = FaultPlan(seed=SEED, corruption_rate=0.5)
        array = DiskArray(2, 8, faults=plan)
        array.parallel_write([(0, 0, Block(records=[1, 2, 3]))])
        for _ in range(30):  # corrupted reads redraw; data is never wrong
            blk = array.parallel_read([(0, 0)])[0]
            assert blk.records == [1, 2, 3]
        assert array.injector.stats.checksum_errors > 0

    def test_corruption_silent_without_checksums(self):
        plan = FaultPlan(seed=SEED, corruption_rate=1.0, checksums=False)
        array = DiskArray(1, 8, faults=plan)
        array.parallel_write([(0, 0, Block(records=[1, 2, 3]))])
        blk = array.parallel_read([(0, 0)])[0]
        assert blk.records != [1, 2, 3]  # the failure checksums exist to stop

    def test_corruption_always_raises_with_checksums(self):
        plan = FaultPlan(seed=SEED, corruption_rate=1.0)
        array = DiskArray(1, 8, faults=plan, retry=RetryPolicy(max_retries=2))
        array.parallel_write([(0, 0, Block(records=[9]))])
        with pytest.raises(RetryExhaustedError) as ei:
            array.parallel_read([(0, 0)])
        assert isinstance(ei.value.__cause__, ChecksumError)

    def test_released_tracks_drop_their_checksums(self):
        array = DiskArray(2, 8, faults=FaultPlan(seed=SEED))
        allocator = RegionAllocator(array)
        keep, base = allocator.allocate(2), allocator.allocate(3)
        array.parallel_write([(0, keep, Block(records=[0])), (1, keep, Block(records=[0]))])
        for t in range(base, base + 3):
            array.parallel_write([(0, t, Block(records=[t])), (1, t, Block(records=[-t]))])
        assert all(set(range(base, base + 3)) <= set(d._sums) for d in array.disks)
        allocator.release(base, 3)
        assert [sorted(d._sums) for d in array.disks] == [[keep], [keep]]
        # A track rewritten afterwards verifies against its new sum only.
        array.parallel_write([(0, base, Block(records=[7, 7]))])
        assert array.parallel_read([(0, base)])[0].records == [7, 7]
        assert sorted(array.disks[0]._sums) == [keep, base]
        array.disks[0].storage.tracks_view()[base].records[0] = 8  # rot in place
        with pytest.raises(RetryExhaustedError) as ei:
            array.parallel_read([(0, base)])
        assert isinstance(ei.value.__cause__, ChecksumError)
        array.disks[0].discard_track(base)
        assert sorted(array.disks[0]._sums) == [keep]

    def test_latency_spikes_counted(self):
        plan = FaultPlan(seed=SEED, latency_rate=0.5, latency_stall_ops=3)
        array = DiskArray(2, 8, faults=plan)
        for t in range(20):
            array.parallel_write([(0, t, Block(records=[]))])
        assert array.injector.stats.latency_spikes > 0
        assert (
            array.injector.stats.stall_ops
            == 3 * array.injector.stats.latency_spikes
        )

    def test_dead_disk_old_data_lost_new_writes_remapped(self):
        plan = FaultPlan(seed=SEED, dead_disk=1, dead_after=1)
        array = DiskArray(4, 8, faults=plan)
        array.parallel_write([(1, 0, Block(records=["old"]))])  # access #1
        with pytest.raises(DataLossError):
            array.parallel_read([(1, 0)])  # access #2 kills the drive
        assert array.dead_disks == {1}
        # Post-death writes to the dead disk's addresses are remapped ...
        array.parallel_write([(1, 5, Block(records=["new"]))])
        assert array.degraded_writes >= 1
        # ... and readable through the same logical address.
        assert array.parallel_read([(1, 5)])[0].records == ["new"]

    def test_degraded_writes_round_trip_with_extra_rounds(self):
        plan = FaultPlan(seed=SEED, dead_disk=3, dead_after=0)
        array = DiskArray(4, 8, faults=plan)
        with pytest.raises(DataLossError):
            array.parallel_read([(3, 0)])
        ops0 = array.parallel_ops
        array.parallel_write(
            [(d, 1, Block(records=[d])) for d in range(4)]
        )  # 4 logical disks onto 3 survivors: must take >= 2 physical rounds
        assert array.parallel_ops - ops0 >= 2
        got = sorted(b.records[0] for b in array.parallel_read([(d, 1) for d in range(3)]))
        got.append(array.parallel_read([(3, 1)])[0].records[0])
        assert sorted(got) == [0, 1, 2, 3]


class TestDegradedLinkedBuckets:
    def test_lemma2_balance_over_survivors(self):
        """With a dead drive, bucket writes use only the D-1 survivors and
        stay balanced over them (Lemma 2 at D-1)."""
        plan = FaultPlan(seed=SEED, dead_disk=2, dead_after=0)
        array = DiskArray(4, 8, faults=plan)
        with pytest.raises(DataLossError):
            array.parallel_read([(2, 0)])
        alloc = RegionAllocator(array)
        import random as _random

        buckets = LinkedBuckets(
            array, alloc, nbuckets=4, bucket_of=lambda d: d % 4,
            rng=_random.Random(SEED),
        )
        blocks = [Block(records=[i], dest=i % 4) for i in range(120)]
        buckets.append_blocks(blocks)
        for j in range(4):
            loads = buckets.bucket_disk_loads(j)
            assert loads[2] == 0  # nothing lands on the dead drive
            live = [loads[d] for d in (0, 1, 3)]
            assert max(live) - min(live) <= 0.5 * sum(live)  # no pile-up
        assert buckets.total_blocks == 120


# ---------------------------------------------------------------------------
# Engines under faults: outputs must be identical to the fault-free run
# ---------------------------------------------------------------------------


class TestEngineFaultTransparency:
    def test_sequential_sort_transient_faults(self):
        data = sort_input()
        baseline, _ = simulate(CGMSampleSort(list(data), v=8), SEQ, v=8, seed=3)
        plan = FaultPlan(
            seed=SEED, read_error_rate=0.05, write_error_rate=0.03,
            corruption_rate=0.02, latency_rate=0.03,
        )
        out, rep = simulate(
            CGMSampleSort(list(data), v=8), SEQ, v=8, k=SWAPPING_K, seed=3,
            faults=plan, checkpoint=True,
        )
        assert out == baseline
        assert rep.faults is not None
        assert rep.faults.retry_ops > 0
        assert rep.faults.checkpoints_taken > 0
        # The ledger sees the supersteps' retries; the fault report also
        # covers init/checkpoint/output I/O, so it can only be larger.
        assert 0 < rep.ledger.total_retry_ops <= rep.faults.retry_ops

    def test_parallel_sort_transient_faults(self):
        data = sort_input()
        baseline, _ = simulate(CGMSampleSort(list(data), v=8), PAR, v=8, seed=3)
        plan = FaultPlan(
            seed=SEED, read_error_rate=0.05, write_error_rate=0.03,
            latency_rate=0.03,
        )
        out, rep = simulate(
            CGMSampleSort(list(data), v=8), PAR, v=8, seed=3,
            faults=plan, checkpoint=True,
        )
        assert out == baseline
        assert rep.faults.retry_ops > 0

    def test_sequential_disk_death_recovers(self):
        data = sort_input()
        baseline, _ = simulate(CGMSampleSort(list(data), v=8), SEQ, v=8, seed=3)
        plan = FaultPlan(seed=SEED + 1, read_error_rate=0.01,
                         dead_disk=2, dead_after=60)
        out, rep = simulate(
            CGMSampleSort(list(data), v=8), SEQ, v=8, k=SWAPPING_K, seed=3,
            faults=plan, checkpoint=True,
        )
        assert out == baseline
        assert rep.faults.disks_died == 1
        assert rep.faults.recoveries >= 1
        assert rep.faults.degraded_writes > 0

    def test_parallel_disk_death_recovers(self):
        data = sort_input()
        baseline, _ = simulate(CGMSampleSort(list(data), v=8), PAR, v=8, seed=3)
        # Processor 1's drive 1 sees 45 accesses in all.
        plan = FaultPlan(seed=SEED + 2, read_error_rate=0.02,
                         dead_disk=1, dead_after=20, dead_proc=1)
        out, rep = simulate(
            CGMSampleSort(list(data), v=8), PAR, v=8, k=SWAPPING_K, seed=3,
            faults=plan, checkpoint=True,
        )
        assert out == baseline
        assert rep.faults.disks_died == 1
        assert rep.faults.recoveries >= 1

    def test_permutation_under_death(self, monkeypatch):
        """The death is timed inside Algorithm 2, which four drives never
        need (the store is kept), so Step 2 is forced onto it."""
        import random as _random

        from .helpers import always_route

        always_route(monkeypatch)

        vals = [f"v{i}" for i in range(256)]
        perm = list(range(256))
        _random.Random(1).shuffle(perm)
        baseline, _ = simulate(CGMPermutation(vals, perm, v=8), SEQ, v=8, seed=5)
        # Drive 2's accesses 5-12 are superstep 0's Algorithm 2 (three
        # groups of 3, 3, 2 at this M).
        plan = FaultPlan(seed=SEED + 1, read_error_rate=0.01,
                         dead_disk=2, dead_after=10)
        out, rep = simulate(
            CGMPermutation(vals, perm, v=8), SEQ, v=8, seed=5,
            faults=plan, checkpoint=True,
        )
        assert out == baseline
        assert rep.faults.recoveries >= 1

    def test_fatal_without_checkpoint_aborts(self):
        data = sort_input()
        plan = FaultPlan(seed=SEED, dead_disk=0, dead_after=10)
        with pytest.raises(SimulationAborted, match="no checkpoint"):
            simulate(CGMSampleSort(list(data), v=8), SEQ, v=8, k=SWAPPING_K, seed=3,
                     faults=plan)

    def test_recovery_budget_respected(self):
        data = sort_input()
        plan = FaultPlan(seed=SEED, dead_disk=0, dead_after=80)
        params = build_params(CGMSampleSort(list(data), v=8), SEQ, v=8, k=SWAPPING_K)
        eng = ParallelEMSimulation(
            CGMSampleSort(list(data), v=8), params, seed=3,
            faults=plan, checkpoint=True, max_recoveries=0,
        )
        with pytest.raises(SimulationAborted, match="max_recoveries"):
            eng.run()


# ---------------------------------------------------------------------------
# Mid-run kill + resume_from_checkpoint
# ---------------------------------------------------------------------------


class CountingRingShift(RingShift):
    """RingShift that counts host-side superstep invocations, so a resumed
    run can prove it did not re-execute completed supersteps."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.superstep_calls = 0

    def superstep(self, ctx):
        self.superstep_calls += 1
        super().superstep(ctx)


class TestCheckpointResume:
    def _kill_and_resume_seq(self):
        v = 8
        alg = CountingRingShift(payload_size=4, rounds=3)
        machine = MachineParams(p=1, M=4 * alg.context_size(), D=4, B=16)
        params = build_params(CountingRingShift(payload_size=4, rounds=3),
                             machine, v=v)
        baseline, base_rep = ParallelEMSimulation(
            CountingRingShift(payload_size=4, rounds=3), params, seed=2
        ).run()
        plan = FaultPlan(seed=SEED + 3, dead_disk=0, dead_after=30)
        doomed = ParallelEMSimulation(
            CountingRingShift(payload_size=4, rounds=3), params, seed=2,
            faults=plan, checkpoint=True, max_recoveries=0,
        )
        with pytest.raises(SimulationAborted) as ei:
            doomed.run()
        ckpt = ei.value.checkpoint
        assert isinstance(ckpt, SuperstepCheckpoint)
        return v, params, baseline, base_rep, ckpt

    def test_sequential_resume_reproduces_outputs(self):
        v, params, baseline, base_rep, ckpt = self._kill_and_resume_seq()
        assert ckpt.step >= 1  # the kill happened mid-run, not at the start
        fresh_alg = CountingRingShift(payload_size=4, rounds=3)
        fresh = ParallelEMSimulation(fresh_alg, params, seed=2)
        out, rep = fresh.resume_from_checkpoint(ckpt)
        assert out == baseline
        assert rep.faults.resumed_from_step == ckpt.step
        # Completed supersteps were NOT re-run: the fresh algorithm object
        # only saw the remaining supersteps.
        total_steps = base_rep.num_supersteps
        assert fresh_alg.superstep_calls == (total_steps - ckpt.step) * v
        # ... but the restored report still covers the whole run.
        assert rep.num_supersteps == total_steps

    def test_parallel_resume_reproduces_outputs(self):
        v = 8
        machine = MachineParams(p=2, M=4096, D=4, B=32)
        data = sort_input()
        params = build_params(CGMSampleSort(list(data), v=v), machine, v=v, k=SWAPPING_K)
        baseline, _ = ParallelEMSimulation(
            CGMSampleSort(list(data), v=v), params, seed=3
        ).run()
        plan = FaultPlan(seed=SEED + 2, dead_disk=1, dead_after=20, dead_proc=1)
        doomed = ParallelEMSimulation(
            CGMSampleSort(list(data), v=v), params, seed=3,
            faults=plan, checkpoint=True, max_recoveries=0,
        )
        with pytest.raises(SimulationAborted) as ei:
            doomed.run()
        ckpt = ei.value.checkpoint
        assert ckpt is not None and ckpt.nprocs == 2
        fresh = ParallelEMSimulation(CGMSampleSort(list(data), v=v), params, seed=3)
        out, rep = fresh.resume_from_checkpoint(ckpt)
        assert out == baseline
        assert rep.faults.resumed_from_step == ckpt.step

    def test_checkpoint_proc_count_validated(self):
        data = sort_input()
        params = build_params(CGMSampleSort(list(data), v=8), SEQ, v=8)
        bogus = SuperstepCheckpoint(
            step=1, rng_state=None, proc_states=[b"", b""],
            proc_incoming=[None, None], report_blob=b"",
        )
        from repro.params import ParameterError

        with pytest.raises(ParameterError, match="processors"):
            ParallelEMSimulation(
                CGMSampleSort(list(data), v=8), params, seed=3
            ).resume_from_checkpoint(bogus)

    def test_checkpoint_size_reporting(self):
        _, _, _, _, ckpt = self._kill_and_resume_seq()
        assert ckpt.size_bytes() > 0
        assert ckpt.nprocs == 1
