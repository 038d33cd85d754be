"""The batch in memory at a barrier opens the next superstep.

Each compound superstep runs its groups (Algorithm 3: batches) in ascending
cyclic order from the group in memory
(:func:`~repro.core.engine.plan_rounds`), and the group it holds at the end
is the last whose contexts came in, or the one it started with if none did:
so the group held across the barrier is the group the next superstep runs
first.  With one group a processor no context is ever swapped.  The rule for
what a superstep moves is held in ``tests/test_state_use.py``.
"""

import itertools

import pytest

from repro import workloads as wl
from repro.algorithms.graphs.listranking import CGMListRanking
from repro.bsp.runner import run_reference
from repro.conform.oracles import check_outputs, check_theorem1_io
from repro.core import ParallelEMSimulation, build_params
from repro.core.engine import plan_rounds
from repro.params import MachineParams

from .helpers import PLANES

CTX = ("fetch_context", "write_context")


# -- the order ------------------------------------------------------------------------------


def test_the_last_group_of_a_superstep_is_the_first_of_the_next():
    for ngroups in range(1, 6):
        for resident in (None, *range(ngroups)):
            for reads in itertools.product([False, True], repeat=ngroups):
                order, holder = plan_rounds(resident, list(reads))
                assert sorted(order) == list(range(ngroups))
                assert order[0] == (resident or 0)
                assert holder == ([j for j in order if reads[j]] or [resident])[-1]
                if holder is not None:
                    assert plan_rounds(holder, list(reads))[0][0] == holder
    # Where every group's contexts come in, the order steps one group back
    # each superstep, from the input load's group 0.
    orders, resident = [], 0
    for _step in range(4):
        order, resident = plan_rounds(resident, [True] * 3)
        orders.append(order)
    assert orders == [[0, 1, 2], [2, 0, 1], [1, 2, 0], [0, 1, 2]]


# -- one group a processor: no context is ever swapped --------------------------------------

LR_N, LR_V = 512, 8


def listrank(p=2, **knobs):
    """v = p*k: one group (Algorithm 3: batch) a processor."""
    alg = CGMListRanking(wl.random_linked_list(LR_N, seed=4), LR_V)
    params = build_params(alg, MachineParams(p=p, M=1 << 16, D=4, B=8, b=16), LR_V,
                          k=LR_V // p)
    assert params.groups_per_processor == 1
    return ParallelEMSimulation(alg, params, **knobs)


def listrank_reference():
    return run_reference(CGMListRanking(wl.random_linked_list(LR_N, seed=4), LR_V), LR_V)[0]


def assert_no_context_moved(report):
    assert all(getattr(s.phases, ph) == 0 for s in report.supersteps for ph in CTX)
    assert report.init_io_ops == report.output_io_ops == 0


@pytest.mark.parametrize("p,knobs", [(1 + i % 2, knobs) for i, (_n, knobs) in enumerate(PLANES)],
                         ids=[f"p{1 + i % 2}-{name}" for i, (name, _k) in enumerate(PLANES)])
def test_one_group_a_processor_swaps_no_context(p, knobs):
    outputs, report = listrank(p, **knobs).run()
    assert check_outputs("listrank", outputs, listrank_reference()) == []
    assert_no_context_moved(report)
    assert check_theorem1_io(report.params, report)[0] == []


def test_one_group_checkpoints_read_no_context():
    """The checkpoint takes the resident group from memory: what is left is
    the incoming messages' read."""
    _out, golden = listrank().run()
    _out, report = listrank(checkpoint=True).run()
    assert report.faults.checkpoints_taken == golden.num_supersteps
    messages = sum(s.phases.fetch_messages for s in golden.supersteps)
    assert report.faults.checkpoint_io_ops == messages
