"""The group in memory at a barrier opens the next superstep.

Compound superstep ``s`` runs its groups (Algorithm 3: batches) in ascending
cyclic order from group ``-s mod G``
(:func:`~repro.core.processor.group_order`), so the group it runs last is
the group ``s + 1`` runs first.  That group stays in memory across the
barrier (``ContextStore.save_group(..., hold=True)``): its write-back and its
next fetch are skipped, and with one group a processor no context is ever
swapped.  These tests hold the store to the contract, the engines to "never
dearer, same outputs", the exact Theorem 1 referee to the skipped phases, and
both recovery paths to a resident group that has no disk image.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import workloads as wl
from repro.algorithms import CGMSampleSort
from repro.algorithms.graphs.listranking import CGMListRanking
from repro.bsp.runner import run_reference
from repro.conform import REFERENCE
from repro.conform.oracles import check_outputs, check_theorem1_io
from repro.core import processor
from repro.core.checkpoint import SimulationAborted
from repro.core.context import ContextStore
from repro.core.processor import group_order
from repro.core import ParallelEMSimulation, build_params
from repro.crashcheck import crash_and_recover
from repro.emio.disk import DiskError
from repro.emio.diskarray import DiskArray
from repro.emio.faults import CRASH_STAGES, CrashPlan, FaultPlan, RetryPolicy
from repro.emio.layout import RegionAllocator
from repro.params import MachineParams

from .helpers import PLANES, AllToAllExchange

CTX = ("fetch_context", "write_context")


def write_everything_back(monkeypatch):
    """The engines as they were before: every group is written back at the
    barrier and fetched again (inline backend only)."""
    save = ContextStore.save_group
    monkeypatch.setattr(
        ContextStore, "save_group",
        lambda self, slots, states, hold=False: save(self, slots, states),
    )


# -- the order ------------------------------------------------------------------------------


def test_the_last_group_of_a_superstep_is_the_first_of_the_next():
    for ngroups in range(1, 7):
        for step in range(6):
            order = group_order(step, ngroups)
            assert sorted(order) == list(range(ngroups))
            assert group_order(step + 1, ngroups)[0] == order[-1]
    assert [group_order(s, 3) for s in range(4)] == [[0, 1, 2], [2, 0, 1], [1, 2, 0], [0, 1, 2]]


# -- the store ------------------------------------------------------------------------------


def store(cache=False):
    array = DiskArray(4, 8)
    return array, ContextStore(array, RegionAllocator(array), 6, mu=256, B=8, cache=cache)


@pytest.mark.parametrize("cache", [False, True])
def test_a_held_group_costs_nothing_and_comes_back_as_it_was(cache):
    array, cs = store(cache)
    cs.save_group([0, 1], [{"a": 1}, {"b": 2}])
    states = [list(range(40)), list(range(50))]
    ops = array.parallel_ops
    cs.save_group([2, 3], states, hold=True)
    back = cs.load_group([2, 3])
    assert array.parallel_ops == ops
    assert all(x is y for x, y in zip(back, states))
    assert cs._used[2] > 1 and cs._used[3] > 1  # measured all the same
    assert cs.load_group([0, 1]) == [{"a": 1}, {"b": 2}]
    assert array.parallel_ops > ops


def test_a_held_group_is_still_refused_past_mu():
    _array, cs = store()
    with pytest.raises(DiskError, match="exceeds declared bound"):
        cs.save_group([0, 1], [list(range(10_000)), []], hold=True)


def test_one_group_is_resident_at_a_time_and_a_load_may_not_straddle_it():
    _array, cs = store()
    cs.save_group([0, 1], [0, 1], hold=True)
    with pytest.raises(DiskError, match="second group"):
        cs.save_group([2, 3], [2, 3], hold=True)
    with pytest.raises(DiskError, match="straddle"):
        cs.load_group([1, 2])
    cs.save_group([0, 1], [0, 1], hold=True)  # the same group again is fine


def test_writing_the_resident_group_back_or_dropping_it_ends_its_residency():
    array, cs = store()
    cs.save_group([0, 1], ["x", "y"], hold=True)
    cs.save_group([0, 1], ["x", "y"])
    ops = array.parallel_ops
    assert cs.load_group([0, 1]) == ["x", "y"] and array.parallel_ops > ops
    cs.save_group([2, 3], ["z", "w"], hold=True)
    cs.invalidate_cache()
    assert not cs._resident


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


# -- never dearer, same outputs -------------------------------------------------------------


def _workload(kind, v, n_per):
    if kind == "alltoall":
        return AllToAllExchange()
    if kind == "listrank":
        return CGMListRanking(wl.random_linked_list(n_per * v, seed=v + n_per), v)
    return CGMSampleSort(wl.uniform_keys(max(v * v, n_per * v), seed=v + n_per), v)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(["alltoall", "sort", "listrank"]),
    p=st.sampled_from([1, 2]),
    v=st.sampled_from([4, 8, 16]),
    kdiv=st.sampled_from([1, 2, 4]),
    D=st.integers(2, 6),
    B=st.sampled_from([4, 8]),
    n_per=st.integers(8, 40),
)
def test_holding_a_group_saves_context_swaps_and_changes_nothing_else(
    kind, p, v, kdiv, D, B, n_per
):
    """Against the same run writing every group back: identical outputs and
    message phases; every context phase, the input load and the output
    unload are strictly cheaper (each skips one group), and 0 with one group
    a processor."""
    k = max(1, v // p // kdiv)

    def run(write_back):
        alg = _workload(kind, v, n_per)
        params = build_params(alg, MachineParams(p=p, M=1 << 16, D=D, B=B, b=2 * B), v, k=k)
        with pytest.MonkeyPatch.context() as mp:
            if write_back:
                write_everything_back(mp)
            return ParallelEMSimulation(alg, params).run()

    out, rep = run(False)
    out_all, rep_all = run(True)
    assert out == out_all
    assert check_theorem1_io(rep.params, rep)[0] == []
    assert check_theorem1_io(rep_all.params, rep_all)[0] == []
    for s, t in zip(rep.supersteps, rep_all.supersteps, strict=True):
        for phase in ("fetch_messages", "write_messages", "reorganize"):
            assert getattr(s.phases, phase) == getattr(t.phases, phase)
        for phase in CTX:
            assert getattr(s.phases, phase) < getattr(t.phases, phase)
    assert rep.init_io_ops < rep_all.init_io_ops
    assert rep.output_io_ops < rep_all.output_io_ops
    if v == p * k:
        assert_no_context_moved(rep)


# -- the exact referee ------------------------------------------------------------------------

SORT_N, SORT_V, SORT_K = 1024, 16, 2


def sort(**knobs):
    alg = CGMSampleSort(wl.uniform_keys(SORT_N, seed=2), SORT_V)
    params = build_params(alg, MachineParams(p=1, M=1 << 16, D=4, B=8, b=16), SORT_V, k=SORT_K)
    assert params.groups_per_processor == 8
    return ParallelEMSimulation(alg, params, **knobs)


@pytest.mark.parametrize("build", [sort, listrank], ids=["8-groups-p1", "1-group-p2"])
def test_theorem1_oracle_catches_one_context_op_planted(build):
    _outputs, report = build().run()
    assert check_theorem1_io(report.params, report)[0] == []
    steps = report.supersteps
    plants = [
        (steps[1].phases, "fetch_context", "writing those contexts back"),
        (steps[1].phases, "write_context", "writing those contexts back"),
        (report, "init_io_ops", "input load"),
        (report, "output_io_ops", "output unload"),
    ]
    for obj, field, message in plants:
        setattr(obj, field, getattr(obj, field) + 1)
        fails = check_theorem1_io(report.params, report)[0]
        assert any(f.oracle == "theorem1_io" and message in f.message for f in fails), field
        setattr(obj, field, getattr(obj, field) - 1)


# -- recovery: the resident group has no disk image -------------------------------------------


@pytest.mark.parametrize("backend", ["inline", "process"])
def test_kill_resume_holds_the_resident_group_again(backend):
    """A drive dies mid-run; the portable checkpoint's states hold the
    resident batch again, and the resumed run charges, superstep for
    superstep, what the uninterrupted run did: still no context moves."""
    _out, golden = listrank().run()
    dying = listrank(
        checkpoint=True, max_recoveries=0, retry=RetryPolicy(max_retries=2),
        faults=FaultPlan(seed=0, dead_disk=1, dead_after=130, dead_proc=1),
    )
    with pytest.raises(SimulationAborted) as exc_info:
        dying.run()
    ckpt = exc_info.value.checkpoint
    assert ckpt is not None and ckpt.step >= 2
    outputs, report = listrank(checkpoint=True, backend=backend).resume_from_checkpoint(ckpt)
    assert check_outputs("resumed", outputs, listrank_reference()) == []
    assert report.faults.resumed_from_step == ckpt.step
    assert_no_context_moved(report)
    assert check_theorem1_io(report.params, report)[0] == []
    assert [repr(s.phases) for s in report.supersteps] == [
        repr(s.phases) for s in golden.supersteps
    ]


@pytest.mark.parametrize("build", [sort, listrank], ids=["8-groups", "1-group"])
def test_crash_resume_by_reference_takes_the_resident_group_from_the_checkpoint(
    build, tmp_path, monkeypatch
):
    """On the reference file plane the disk image is authoritative — except
    for the resident group, which never reached it.  Attaching by reference
    holds it again from the checkpoint's states, at zero I/O.  An attach that
    trusted the context region instead reads what the group held a superstep
    or more earlier (the sort's, before its buckets arrived), or nothing at
    all (one group: no context was ever written)."""
    def engine(**kw):
        return build(storage="file", checkpoint=True, **REFERENCE, **kw)

    golden_out, golden_rep = engine(storage_dir=str(tmp_path / "golden")).run()
    committed = len(CRASH_STAGES) * 3 + CRASH_STAGES.index("committed")
    plan = CrashPlan(seed=7, crash_point=committed)
    run = crash_and_recover(engine, str(tmp_path / "crashed"), plan)
    assert run.action == "resume@3" and run.failure is None, run.failure
    assert run.report.faults.recovery_io_ops == 0
    assert run.outputs == golden_out
    assert run.report.ledger.summary() == golden_rep.ledger.summary()
    assert check_theorem1_io(run.report.params, run.report)[0] == []

    monkeypatch.setattr(processor.RealProcessor, "_hold_resident", lambda *a: None)
    run = crash_and_recover(engine, str(tmp_path / "trusting"), plan)
    assert run.action == "resume@3"
    assert run.failure is not None or run.outputs != golden_out
