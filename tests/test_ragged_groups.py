"""Ragged groups: a processor's ``v/p`` vps go through memory in the fewest
groups of at most ``floor(M/mu)``, balanced, so where their count does not
divide ``v/p`` the last groups are one context short.

The sort with groups 6, 5, 5 (``p = 1``) and 3, 3, 2 (``p = 2``) under the
referee, with +1-op plants on the short group's context fetch and write and
a group one context past ``M``; a list ranking of groups 6, 5, 5 on the file
plane through kill-resume at barriers 1-3 and every crash point; and the
ragged draws of ``conform --seed 0``.  Every machine here is sized from the
algorithm's ``mu``, so ``k`` is the default ``floor(M/mu)``, never pinned.
"""

import dataclasses

import pytest

from repro import workloads as wl
from repro.algorithms import CGMSampleSort
from repro.algorithms.graphs.listranking import CGMListRanking
from repro.bsp.runner import run_reference
from repro.conform import REFERENCE, random_config, run_case
from repro.conform.oracles import check_outputs, check_theorem1_io
from repro.conform.strategies import DEFAULT
from repro.core import ParallelEMSimulation, build_params
from repro.crashcheck import crash_and_recover, explore
from repro.emio.faults import CRASH_STAGES, CrashPlan
from repro.params import MachineParams, ParameterError

from .test_state_use import plant, refuses


def sizes(params):
    return [len(slots) for slots in params.groups]


def machine(alg, p, fit):
    """A ``p``-processor machine whose ``M`` holds ``fit`` contexts."""
    return MachineParams(p=p, M=fit * alg.context_size(), D=4, B=8, b=16)


# -- the sort under the referee ----------------------------------------------------------------

SORT_N, SORT_V = 1024, 16
#: p -> (contexts M holds, the groups a processor)
SORT_SHAPES = {1: (6, [6, 5, 5]), 2: (3, [3, 3, 2])}


def sort_alg():
    return CGMSampleSort(wl.uniform_keys(SORT_N, seed=2), SORT_V)


def sort(p, **knobs):
    alg = sort_alg()
    params = build_params(alg, machine(alg, p, SORT_SHAPES[p][0]), SORT_V)
    assert sizes(params) == SORT_SHAPES[p][1]
    return ParallelEMSimulation(alg, params, **knobs)


@pytest.mark.parametrize("p", [1, 2])
def test_the_referee_is_exact_on_a_short_last_group(p):
    outputs, report = sort(p).run()
    assert check_outputs("sort", outputs, run_reference(sort_alg(), SORT_V)[0]) == []
    assert check_theorem1_io(report.params, report, sort_alg())[0] == []
    want = SORT_SHAPES[p][1]
    for s in report.supersteps:
        assert [len(counts[0]) for _g, _u, _f, _w, counts in s.ran] == [
            want[g] for g, *_rest in s.ran]


@pytest.mark.parametrize("p", [1, 2])
def test_the_referee_catches_one_op_planted_on_the_short_group(p):
    """+1 on the last group's context fetch, then on its context write,
    in a superstep that does both: each is caught by that group's row."""
    _out, report = sort(p).run()
    alg = sort_alg()
    last = report.params.groups_per_processor - 1
    step, f, w = next((s.index, f, w) for s in report.supersteps
                      for g, _u, f, w, _c in s.ran if g == last and f and w)
    undo = plant(report, step, last, fetched=f + 1)
    refuses(report, alg, f"superstep {step}: group {last}'s fetch_context charged")
    undo()
    undo = plant(report, step, last, wrote=w + 1)
    refuses(report, alg, f"superstep {step}: group {last}'s write_context charged",
            "block counts")
    undo()
    assert check_theorem1_io(report.params, report, alg)[0] == []


@pytest.mark.parametrize("p", [1, 2])
def test_a_group_one_context_past_memory_is_refused(p):
    alg = sort_alg()
    params = build_params(alg, machine(alg, p, SORT_SHAPES[p][0]), SORT_V)
    fit = params.machine.M // params.bsp.mu
    with pytest.raises(ParameterError, match=rf"group of k={fit + 1} .* exceeds M="):
        dataclasses.replace(params, k=fit + 1)


# -- list ranking on the file plane: kill-resume and every crash point ---------------------------

LR_N, LR_V = 128, 16
LR_GROUPS = [6, 5, 5]  # not the runs of 6, 6, 4 that cutting by k would make


def listrank():
    return CGMListRanking(wl.random_linked_list(LR_N, seed=5), LR_V)


def lr_machine():
    return machine(listrank(), 1, 6)


def lr_engine(**knobs):
    alg = listrank()
    params = build_params(alg, lr_machine(), LR_V)
    assert sizes(params) == LR_GROUPS
    return ParallelEMSimulation(alg, params, storage="file", **REFERENCE, **knobs)


def lr_checkpoints():
    sim = lr_engine(checkpoint=True)
    taken, take = [], sim._take_checkpoint
    sim._take_checkpoint = lambda step: (take(step), taken.append(sim.last_checkpoint))
    sim.run()
    return taken


@pytest.mark.parametrize("how", ["rewrite", "reference"])
@pytest.mark.parametrize("barrier", [1, 2, 3])
def test_kill_resume_on_ragged_groups_charges_what_the_run_did(barrier, how, tmp_path):
    """Resume at each barrier, by rewriting the checkpoint's contexts group
    by group onto fresh drives or by re-attaching the crashed run's track
    files: the resumed run charges, superstep for superstep, the
    uninterrupted run's phases and rows."""
    _out, golden = lr_engine().run()
    assert sum(s.phases.fetch_context for s in golden.supersteps) > 0
    if how == "rewrite":
        ckpt = lr_checkpoints()[barrier]
        outputs, report = lr_engine(checkpoint=True).resume_from_checkpoint(ckpt)
        assert report.faults.resumed_from_step == barrier
    else:
        plan = CrashPlan(seed=7, crash_point=len(CRASH_STAGES) * barrier
                         + CRASH_STAGES.index("committed"))
        run = crash_and_recover(lambda **kw: lr_engine(checkpoint=True, **kw),
                                str(tmp_path / "crashed"), plan)
        assert run.action == f"resume@{barrier}" and run.failure is None, run.failure
        assert run.report.faults.recovery_io_ops == 0
        outputs, report = run.outputs, run.report
    assert check_outputs("resumed", outputs, run_reference(listrank(), LR_V)[0]) == []
    assert check_theorem1_io(report.params, report, listrank())[0] == []
    assert [(repr(s.phases), s.ran) for s in report.supersteps] == [
        (repr(s.phases), s.ran) for s in golden.supersteps]


def test_every_crash_point_of_a_ragged_list_ranking_recovers(tmp_path):
    result = explore(listrank, lr_machine(), LR_V, tmp_path, **REFERENCE)
    assert result.total_points > 0 and result.extents_verified > 0
    assert result.passed, [o for o in result.outcomes if not o.ok]


# -- the fuzzer's ragged draws -------------------------------------------------------------------


def test_conform_seed_0_draws_ragged_groups_and_every_oracle_passes():
    """``python -m repro conform --seed 0`` (100 draws, the default
    profile) runs three configs whose last groups are short, from the
    ``k`` and ``v`` axes as drawn; each passes every oracle it is checked
    by."""
    ragged = []
    for index in range(100):
        cfg = random_config(0, index, DEFAULT)
        if not cfg.is_baseline:
            params = cfg.params()
            if params.vps_per_processor % params.groups_per_processor:
                ragged.append(cfg)
    assert len(ragged) >= 3
    checks = 0
    for cfg in ragged:
        result = run_case(cfg)
        assert result.passed, (cfg.describe(), [str(f) for f in result.failures])
        checks += result.checks["theorem1_io"]
    assert checks > 0
