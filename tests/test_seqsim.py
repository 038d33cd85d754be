"""Integration tests for Algorithm 1 (sequential EM simulation).

The central property is invariant **I3** (simulation transparency): the EM
simulation must produce bit-identical outputs to the in-memory reference
runner, for every algorithm, over a grid of machine parameters.
"""

import pytest

from repro.bsp.runner import run_reference
from repro.core.seqsim import SequentialEMSimulation
from repro.params import BSPParams, MachineParams, ParameterError, SimulationParams

from .helpers import (
    AllToAllExchange,
    MultiRoundAccumulate,
    NoCommunication,
    RingShift,
    TotalExchangeSum,
)


def make_params(alg, v, D=2, B=16, k=None, M=None):
    mu = alg.context_size()
    if M is None:
        M = max(mu * (k or 2), D * B)
    return SimulationParams(
        machine=MachineParams(p=1, M=M, D=D, B=B, b=B),
        bsp=BSPParams(v=v, mu=mu, gamma=max(alg.comm_bound(), 1)),
        k=k,
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
    v = 8
    ref_out, _ = run_reference(alg_factory(), v)
    params = make_params(alg_factory(), v, D=D, k=2)
    em_out, _ = SequentialEMSimulation(alg_factory(), params, seed=1).run()
    assert em_out == ref_out


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_transparency_across_group_sizes(k):
    v = 8
    alg = AllToAllExchange
    ref_out, _ = run_reference(alg(), v)
    params = make_params(alg(), v, D=2, k=k)
    em_out, _ = SequentialEMSimulation(alg(), params, seed=3).run()
    assert em_out == ref_out


@pytest.mark.parametrize("B", [4, 16, 64])
def test_transparency_across_block_sizes(B):
    v = 8
    alg = TotalExchangeSum
    ref_out, _ = run_reference(alg(), v)
    params = make_params(alg(), v, D=3, B=B, k=2)
    em_out, _ = SequentialEMSimulation(alg(), params, seed=5).run()
    assert em_out == ref_out


@pytest.mark.parametrize("seed", range(5))
def test_transparency_independent_of_seed(seed):
    v = 8
    ref_out, _ = run_reference(MultiRoundAccumulate(), v)
    params = make_params(MultiRoundAccumulate(), v, D=4, k=2)
    em_out, _ = SequentialEMSimulation(
        MultiRoundAccumulate(), params, seed=seed
    ).run()
    assert em_out == ref_out


def test_pad_to_gamma_does_not_change_output():
    v = 8
    ref_out, _ = run_reference(AllToAllExchange(), v)
    params = make_params(AllToAllExchange(), v, D=2, k=2)
    em_out, report = SequentialEMSimulation(
        AllToAllExchange(), params, seed=2, pad_to_gamma=True
    ).run()
    assert em_out == ref_out
    # Padding forces the worst-case block count per group.
    assert report.io_ops >= 0


def test_round_robin_ablation_preserves_output():
    v = 8
    ref_out, _ = run_reference(AllToAllExchange(), v)
    params = make_params(AllToAllExchange(), v, D=4, k=2)
    em_out, _ = SequentialEMSimulation(
        AllToAllExchange(), params, seed=2, write_schedule="rotate"
    ).run()
    assert em_out == ref_out


def test_report_phase_totals_match_ledger():
    v = 8
    params = make_params(MultiRoundAccumulate(), v, D=2, k=2)
    _, report = SequentialEMSimulation(MultiRoundAccumulate(), params).run()
    assert report.io_ops == report.ledger.total_io_ops
    assert report.num_supersteps == report.ledger.num_supersteps


def test_requires_single_processor():
    alg = NoCommunication()
    params = SimulationParams(
        machine=MachineParams(p=2, M=4096, D=1, B=16),
        bsp=BSPParams(v=8, mu=alg.context_size(), gamma=1),
        k=2,
    )
    with pytest.raises(ParameterError):
        SequentialEMSimulation(alg, params)


def test_context_region_space_is_preallocated():
    v = 8
    alg = NoCommunication()
    params = make_params(alg, v, D=2, B=16, k=2)
    _, report = SequentialEMSimulation(alg, params).run()
    # v * ceil(mu/B) blocks spread over D disks (invariant I5), plus scratch.
    min_tracks = v * -(-params.bsp.mu // 16) // 2
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
