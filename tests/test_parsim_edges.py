"""Edge-case tests for Algorithm 3's batch/bucket geometry.

The engine partitions v virtual processors into p x (v/pk)
(processor x batch) cells and maps batches into D disk buckets; these tests
pin the corner configurations: one batch, fewer batches than disks, group
size equal to the whole per-processor share, single-vp batches.
"""

import pytest

from repro.core import ParallelEMSimulation, build_params
from repro.params import MachineParams

from .helpers import AllToAllExchange, MultiRoundAccumulate, TotalExchangeSum, run_on


class TestBatchGeometry:
    def test_single_batch(self):
        """k = v/p: one batch per compound superstep (nbatches = 1 < D)."""
        out, report, ref = run_on(AllToAllExchange, p=2, D=4, k=4, seed=3)
        assert out == ref
        for s in report.ledger.supersteps:
            assert s.syncs >= 2  # one round still has its barriers

    def test_fewer_batches_than_disks(self):
        """nbatches = 2 with D = 8: most disk buckets stay empty."""
        out, _, ref = run_on(TotalExchangeSum, p=2, D=8, seed=3)
        assert out == ref

    def test_single_vp_batches(self):
        """k = 1: the Sibeyn–Kaufmann regime inside Algorithm 3."""
        out, _, ref = run_on(lambda: MultiRoundAccumulate(rounds=2), p=2, D=4, k=1, seed=3)
        assert out == ref

    def test_p_equals_v(self):
        """One virtual processor per real processor (no multiplexing)."""
        out, _, ref = run_on(AllToAllExchange, p=4, D=4, k=1, v=4, seed=3)
        assert out == ref

    def test_single_disk_multiprocessor(self):
        out, _, ref = run_on(TotalExchangeSum, p=4, D=1, seed=3)
        assert out == ref

    def test_batch_maps(self):
        alg = AllToAllExchange()
        machine = MachineParams(p=2, M=4 * alg.context_size(), D=4, B=16, b=16)
        params = build_params(alg, machine, v=16, k=2)
        procs = ParallelEMSimulation(alg, params).procs
        pr = procs[0]
        # vp layout: processor = vp // 8, batch = (vp % 8) // 2.
        assert [pr.owner_of_vp(vp) for vp in (0, 7, 8, 15)] == [0, 0, 1, 1]
        assert [pr.vps(j) for j in range(4)] == [[0, 1], [2, 3], [4, 5], [6, 7]]
        assert procs[1].vps(0) == [8, 9] and procs[1].vps(3) == [14, 15]
        # Buckets partition the 4 batches over 4 disks evenly.
        buckets = {pr.bucket_of_vp(vp) for vp in range(16)}
        assert buckets == {0, 1, 2, 3}
        # Contiguity requirement of SimulateRouting: bucket is monotone
        # non-decreasing in the batch index.
        seq = [pr.bucket_of_vp(pr.vps(b)[0]) for b in range(pr.nbatches)]
        assert seq == sorted(seq)

    def test_init_and_output_io_accounted(self):
        _, report, _ = run_on(MultiRoundAccumulate, p=2, D=4, seed=3)
        assert report.init_io_ops > 0
        assert report.output_io_ops > 0
        assert report.disk_space_tracks > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_scatter_randomness_does_not_affect_costs_structure(self, seed):
        _, report, _ = run_on(AllToAllExchange, p=2, D=4, seed=seed)
        # Superstep count is seed-independent (control flow is deterministic).
        assert report.num_supersteps == 2
