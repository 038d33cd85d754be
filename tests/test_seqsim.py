"""Integration tests for Algorithm 1 (SeqCompoundSuperstep): the engine on a
one-processor machine.

The central property is invariant **I3** (simulation transparency): the EM
simulation must produce bit-identical outputs to the in-memory reference
runner, for every algorithm, over a grid of machine parameters.
"""

import pytest

from repro.conform.oracles import check_theorem1_io
from repro.params import MachineParams

from .helpers import (
    AllToAllExchange,
    MultiRoundAccumulate,
    NoCommunication,
    RingShift,
    TotalExchangeSum,
    run_on,
)

ALGS = [
    lambda: RingShift(payload_size=4, rounds=1),
    lambda: RingShift(payload_size=40, rounds=3),
    lambda: AllToAllExchange(),
    lambda: TotalExchangeSum(),
    lambda: MultiRoundAccumulate(rounds=4),
    lambda: NoCommunication(),
]


@pytest.mark.parametrize("alg_factory", ALGS)
@pytest.mark.parametrize("D", [1, 2, 4])
def test_transparency_vs_reference(alg_factory, D):
    em_out, _, ref_out = run_on(alg_factory, D=D, seed=1)
    assert em_out == ref_out


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_transparency_across_group_sizes(k):
    em_out, _, ref_out = run_on(AllToAllExchange, k=k, seed=3)
    assert em_out == ref_out


@pytest.mark.parametrize("B", [4, 16, 64])
def test_transparency_across_block_sizes(B):
    em_out, _, ref_out = run_on(TotalExchangeSum, D=3, B=B, seed=5)
    assert em_out == ref_out


@pytest.mark.parametrize("seed", range(5))
def test_transparency_independent_of_seed(seed):
    em_out, _, ref_out = run_on(MultiRoundAccumulate, D=4, seed=seed)
    assert em_out == ref_out


def test_pad_to_gamma_does_not_change_output():
    em_out, report, ref_out = run_on(AllToAllExchange, seed=2, pad_to_gamma=True)
    assert em_out == ref_out
    # Padding adds Lemma 3's dummy blocks, which the exact referee counts.
    assert any(d for s in report.supersteps for rnd in s.packing for _loads, d in rnd)
    assert check_theorem1_io(report.params, report)[0] == []


def test_round_robin_ablation_preserves_output():
    em_out, _, ref_out = run_on(AllToAllExchange, D=4, seed=2, write_schedule="rotate")
    assert em_out == ref_out


def test_report_phase_totals_match_ledger():
    _, report, _ = run_on(MultiRoundAccumulate)
    assert report.io_ops == report.ledger.total_io_ops
    assert report.num_supersteps == report.ledger.num_supersteps


def test_context_region_space_is_preallocated():
    _, report, _ = run_on(NoCommunication)
    # v * ceil(mu/B) blocks spread over D disks (invariant I5), plus scratch.
    min_tracks = 8 * -(-report.params.bsp.mu // 16) // 2
    assert report.disk_space_tracks >= min_tracks


def test_scales_to_large_inputs():
    """n = 65536 through the full simulation in well under a second."""
    from repro import workloads
    from repro.algorithms import CGMSampleSort
    from repro.core.simulator import simulate

    n, v = 65536, 16
    data = workloads.uniform_keys(n, seed=1)
    alg = CGMSampleSort(data, v)
    machine = MachineParams(p=1, M=2 * alg.context_size(), D=8, B=128, b=128)
    out, rep = simulate(CGMSampleSort(data, v), machine, v=v, seed=1)
    assert [x for part in out for x in part] == sorted(data)
    # A handful of data scans for lambda=4 supersteps.
    assert rep.io_ops / (n / machine.io_bandwidth) < 25
