"""Integration tests for Algorithm 3 (the EM simulation on p processors)."""

import pytest

from repro.params import BSPParams, MachineParams, ParameterError, SimulationParams

from .helpers import (
    AllToAllExchange,
    MultiRoundAccumulate,
    NoCommunication,
    RingShift,
    TotalExchangeSum,
    run_on,
)

ALGS = [
    lambda: RingShift(payload_size=4, rounds=2),
    lambda: AllToAllExchange(),
    lambda: TotalExchangeSum(),
    lambda: MultiRoundAccumulate(rounds=3),
    lambda: NoCommunication(),
]


@pytest.mark.parametrize("alg_factory", ALGS)
@pytest.mark.parametrize("p", [1, 2, 4])
def test_transparency_vs_reference(alg_factory, p):
    em_out, _, ref_out = run_on(alg_factory, p=p, seed=7)
    assert em_out == ref_out


@pytest.mark.parametrize("D", [1, 3])
@pytest.mark.parametrize("k", [1, 4])
def test_transparency_across_k_and_D(D, k):
    em_out, _, ref_out = run_on(AllToAllExchange, p=2, D=D, k=k, v=16, seed=11)
    assert em_out == ref_out


@pytest.mark.parametrize("seed", range(4))
def test_transparency_independent_of_seed(seed):
    em_out, _, ref_out = run_on(TotalExchangeSum, p=3, v=12, seed=seed)
    assert em_out == ref_out


def test_v_must_divide_into_whole_groups():
    alg = NoCommunication()
    with pytest.raises(ParameterError):
        SimulationParams(
            machine=MachineParams(p=3, M=4096, D=1, B=16),
            bsp=BSPParams(v=8, mu=alg.context_size(), gamma=1),
            k=2,
        )


def test_communication_is_charged():
    _, report, _ = run_on(AllToAllExchange, p=2, seed=1)
    assert report.ledger.total_comm_packets > 0


def test_io_is_charged_per_processor_max():
    _, report, _ = run_on(lambda: MultiRoundAccumulate(rounds=2), p=2, seed=1)
    assert report.io_ops > 0
    assert report.io_ops == report.ledger.total_io_ops


def test_syncs_scale_with_rounds():
    _, report, _ = run_on(lambda: MultiRoundAccumulate(rounds=2), p=2, v=16, seed=1)
    # Each compound superstep runs v/(p*k)=4 rounds with >=2 barriers each.
    for s in report.ledger.supersteps:
        assert s.syncs >= 2 * 4
    # With one processor there is no network: Step 2's barrier alone.
    _, report, _ = run_on(lambda: MultiRoundAccumulate(rounds=2), v=16, seed=1)
    assert {s.syncs for s in report.ledger.supersteps} == {1}
