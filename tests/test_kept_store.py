"""Step 2 keeps the bucket store wherever Algorithm 2 cannot beat it.

``RealProcessor.deliver`` counts, from the store's tables, what each fetch
group would pay to read the store as it stands (``group_loads``) and keeps it
when that is no more than a lower bound on Algorithm 2's two phases plus the
fetch of the region Algorithm 2 would lay out (``routing.keep_store``).
These tests hold the rule to its promise — never dearer than Algorithm 2,
same outputs — exercise the fallback where traffic piles onto one drive, and
follow a multi-group kept store through the exact Theorem 1 referee, a
portable kill-resume and a crash-resume by reference.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import workloads as wl
from repro.algorithms import CGMSampleSort
from repro.bsp.runner import run_reference
from repro.conform import REFERENCE
from repro.conform.oracles import (
    canonical_record,
    check_outputs,
    check_theorem1_io,
    record_bytes,
)
from repro.core import processor
from repro.core.checkpoint import SimulationAborted
from repro.core.routing import keep_store
from repro.core.simulator import build_params, make_engine
from repro.crashcheck import crash_and_recover
from repro.emio.disk import Block
from repro.emio.diskarray import DiskArray
from repro.emio.faults import CRASH_STAGES, CrashPlan, FaultPlan, RetryPolicy
from repro.emio.layout import RegionAllocator
from repro.emio.linked import WRITE_SCHEDULES, LinkedBuckets
from repro.params import MachineParams

from .helpers import AllToAllExchange

FAST = dict(fast_io=True, context_cache=True)


def always_route(monkeypatch):
    """Force Step 2 onto Algorithm 2 in this process (inline backend only)."""
    monkeypatch.setattr(processor, "keep_store", lambda loads, D: False)


# -- the rule ---------------------------------------------------------------------------

loads_st = st.integers(1, 8).flatmap(
    lambda D: st.tuples(
        st.just(D),
        st.lists(st.lists(st.integers(0, 40), min_size=D, max_size=D), min_size=1, max_size=12),
    )
)


@settings(max_examples=200, deadline=None)
@given(loads_st)
def test_rule_keeps_every_store_on_five_drives_or_fewer(case):
    """The left side is at most N, the right at least 5*N/D."""
    D, loads = case
    if D <= 5:
        assert keep_store(loads, D)


def test_rule_keeps_one_group_filled_by_one_append():
    """One group, one append on a healthy array: ceil(n/D) on a drive."""
    for D in range(1, 17):
        for n in range(0, 60):
            row = [n // D + (d < n % D) for d in range(D)]
            assert keep_store([row], D)


def test_rule_routes_a_store_piled_onto_one_drive_a_group():
    assert not keep_store([[8 if d == g else 0 for d in range(8)] for g in range(8)], 8)
    assert keep_store([[1] * 8 for _ in range(8)], 8)


# -- the fallback: traffic that piles each group onto one drive -----------------------


def piled(engine="auto", **knobs):
    """D = 8, k = 1, identity write permutations: every vp sends one block to
    each of 8 vps in destination order, so each cycle puts destination d on
    drive d and each fetch group's 8 blocks pile onto one drive.  Read as it
    stands that is 64 ops; Algorithm 2 plus its region's fetch is 54."""
    alg = AllToAllExchange()
    params = build_params(alg, MachineParams(p=1, M=1 << 13, D=8, B=8, b=16), 8, k=1)
    return make_engine(alg, params, engine=engine, write_schedule="static", **knobs)


@pytest.mark.parametrize("engine", ["sequential", "parallel"])
def test_fallback_runs_algorithm_2_where_the_store_piles(engine):
    want = run_reference(AllToAllExchange(), 8)[0]
    records = set()
    for knobs in (dict(storage="memory", **REFERENCE), dict(storage="memory", **FAST),
                  dict(storage="file", **FAST)):
        outputs, report = piled(engine, **knobs).run()
        assert check_outputs(engine, outputs, want) == []
        first = report.supersteps[0]
        (routing,) = first.routing_stats()
        assert not routing.kept and routing.io_ops == first.phases.reorganize == 46
        assert routing.group_loads == tuple(
            tuple(8 if d == g else 0 for d in range(8)) for g in range(8)
        )
        assert report.supersteps[1].phases.fetch_messages == 8  # one op a group
        assert check_theorem1_io(report.params, report)[0] == []  # the Algorithm 2 cross-check
        records.add(record_bytes(canonical_record(outputs, report)))
    assert len(records) == 1


def test_fallback_is_cheaper_than_the_kept_store_it_refused(monkeypatch):
    def step2(report):  # the routing superstep's Step 2 plus the fetch it feeds
        first, second = report.supersteps[:2]
        return first.phases.reorganize + second.phases.fetch_messages

    routed_out, routed = piled().run()
    monkeypatch.setattr(processor, "keep_store", lambda loads, D: True)
    kept_out, kept = piled().run()
    assert kept_out == routed_out
    assert (step2(routed), step2(kept)) == (46 + 8, 64)


# -- never dearer than Algorithm 2 ----------------------------------------------------------


def _workload(kind, v, n_per):
    if kind == "alltoall":
        return AllToAllExchange()
    return CGMSampleSort(wl.uniform_keys(max(v * v, n_per * v), seed=v + n_per), v)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(["alltoall", "sort"]),
    v=st.sampled_from([4, 8, 16]),
    kdiv=st.sampled_from([1, 2, 4, 8]),
    D=st.integers(2, 9),
    B=st.sampled_from([2, 4, 8]),
    schedule=st.sampled_from(WRITE_SCHEDULES),
    engine=st.sampled_from(["sequential", "parallel"]),
    n_per=st.integers(8, 40),
)
def test_no_superstep_pays_more_than_algorithm_2(kind, v, kdiv, D, B, schedule, engine, n_per):
    """Against the same run with Step 2 forced onto Algorithm 2: identical
    outputs and other phases; each Step 2 plus the fetch of what it left
    costs no more, and neither does the run up to any superstep."""
    k = max(1, v // kdiv)

    def run(route):
        alg = _workload(kind, v, n_per)
        params = build_params(alg, MachineParams(p=1, M=1 << 16, D=D, B=B, b=2 * B), v, k=k)
        with pytest.MonkeyPatch.context() as mp:
            if route:
                always_route(mp)
            return make_engine(alg, params, engine=engine, write_schedule=schedule).run()

    out, rep = run(False)
    out_a2, rep_a2 = run(True)
    assert out == out_a2
    assert check_theorem1_io(rep.params, rep)[0] == []
    assert check_theorem1_io(rep_a2.params, rep_a2)[0] == []
    steps, steps_a2 = rep.supersteps, rep_a2.supersteps
    assert len(steps) == len(steps_a2)
    for s, t in zip(steps, steps_a2):
        for phase in ("fetch_context", "write_messages", "write_context"):
            assert getattr(s.phases, phase) == getattr(t.phases, phase)
    step2 = [s.phases.reorganize + n.phases.fetch_messages for s, n in zip(steps, steps[1:])]
    step2_a2 = [s.phases.reorganize + n.phases.fetch_messages
                for s, n in zip(steps_a2, steps_a2[1:])]
    assert all(a <= b for a, b in zip(step2, step2_a2)), (step2, step2_a2)
    total = total_a2 = 0
    for s, t in zip(steps, steps_a2):
        total, total_a2 = total + s.phases.total, total_a2 + t.phases.total
        assert total <= total_a2
    if D <= 5:
        assert all(r.kept for s in steps for r in s.routing_stats())


# -- a kept store with many groups: the sort at k < v ------------------------------------------

SORT_N, SORT_V, SORT_K = 1024, 16, 2
SORT_MACHINE = MachineParams(p=1, M=1 << 16, D=4, B=8, b=16)


def sort(**knobs):
    alg = CGMSampleSort(wl.uniform_keys(SORT_N, seed=2), SORT_V)
    params = build_params(alg, SORT_MACHINE, SORT_V, k=SORT_K)
    assert params.groups_per_processor == 8
    return make_engine(alg, params, **knobs)


def sort_reference():
    return run_reference(CGMSampleSort(wl.uniform_keys(SORT_N, seed=2), SORT_V), SORT_V)[0]


def test_the_sort_keeps_every_store_and_reads_it_at_its_heaviest_drives():
    outputs, report = sort().run()
    assert check_outputs("sort", outputs, sort_reference()) == []
    assert all(r.kept and r.io_ops == 0 for s in report.supersteps for r in s.routing_stats())
    assert sum(s.phases.reorganize for s in report.supersteps) == 0
    assert check_theorem1_io(report.params, report)[0] == []
    (big,) = [s for s in report.supersteps if s.message_blocks > 100]
    (routing,) = big.routing_stats()
    after = report.supersteps[big.index + 1]
    assert after.phases.fetch_messages == sum(map(max, routing.group_loads))
    # 261 blocks before each group's messages were packed into full blocks.
    assert len(routing.group_loads) == 8 and sum(map(sum, routing.group_loads)) == 156


def test_theorem1_oracle_catches_one_op_planted_in_a_multi_group_kept_store():
    _outputs, report = sort().run()
    assert check_theorem1_io(report.params, report)[0] == []
    step = next(s for s in report.supersteps if s.phases.fetch_messages > 20)
    step.phases.fetch_messages += 1
    fails = check_theorem1_io(report.params, report)[0]
    assert any(f.oracle == "theorem1_io" and "heaviest drive" in f.message for f in fails)
    step.phases.fetch_messages -= 1
    report.supersteps[step.index - 1].phases.reorganize += 1
    fails = check_theorem1_io(report.params, report)[0]
    assert any("kept its store" in f.message for f in fails)


@pytest.mark.parametrize("backend", ["inline", "process"])
def test_kill_resume_writes_a_kept_store_back_on_its_drives(backend):
    """A disk death aborts the sort after a barrier whose incoming set is a
    kept store of eight groups.  The portable checkpoint keeps each block's
    drive, so the resumed run charges, superstep for superstep, what the
    uninterrupted run charged — and the exact referee passes."""
    engine = "parallel" if backend == "process" else "auto"
    _out, golden = sort(engine=engine).run()
    dying = sort(
        engine=engine, checkpoint=True, max_recoveries=0, retry=RetryPolicy(max_retries=2),
        faults=FaultPlan(seed=0, dead_disk=1, dead_after=400),
    )
    with pytest.raises(SimulationAborted) as exc_info:
        dying.run()
    ckpt = exc_info.value.checkpoint
    assert ckpt is not None and ckpt.step >= 3
    outputs, report = sort(engine=engine, checkpoint=True, backend=backend).resume_from_checkpoint(ckpt)
    assert check_outputs("resumed", outputs, sort_reference()) == []
    assert report.faults.resumed_from_step == ckpt.step
    assert report.faults.recovery_io_ops > 0  # written back, not attached
    assert check_theorem1_io(report.params, report)[0] == []
    assert [repr(s.phases) for s in report.supersteps] == [
        repr(s.phases) for s in golden.supersteps
    ]


def test_restore_puts_every_block_back_on_its_drive():
    """The choice pinned: a kept store comes back as a store, not a region."""
    D, v = 4, 8
    rng = random.Random(5)
    array = DiskArray(D, 4)
    alloc = RegionAllocator(array)
    store = LinkedBuckets(array, alloc, nbuckets=D, bucket_of=lambda d: d * D // v,
                          rng=random.Random(3))
    for _ in range(3):  # three groups' appends
        store.append_blocks([Block(records=[i], dest=rng.randrange(v)) for i in range(11)])
    store.retain(v, lambda d: d)
    blocks = store.read_slots(range(v))
    again = LinkedBuckets.rewrite(array, alloc, store.slot_drives(), blocks)
    assert again.slot_drives() == store.slot_drives()
    assert again.slot_sizes == store.slot_sizes
    assert again.read_slots(range(v)) == blocks
    for ngroups in (1, 2, 4, 8):
        assert again.group_loads(ngroups) == store.group_loads(ngroups)


@pytest.mark.parametrize("knobs", [REFERENCE, dict(records="vector", **FAST)],
                         ids=["reference", "fast-vector"])
def test_crash_resume_attaches_a_multi_group_kept_store_at_zero_io(knobs, tmp_path):
    def engine(**kw):
        return sort(storage="file", checkpoint=True, **knobs, **kw)

    golden_out, golden_rep = engine(storage_dir=str(tmp_path / "golden")).run()
    committed = len(CRASH_STAGES) * 3 + CRASH_STAGES.index("committed")
    run = crash_and_recover(engine, str(tmp_path / "crashed"),
                            CrashPlan(seed=7, crash_point=committed))
    assert run.action == "resume@3" and run.failure is None, run.failure
    assert [ref["incoming"][0] for ref in run.scrub.checkpoint.storage_refs] == ["store"]
    assert run.report.faults.recovery_io_ops == 0
    assert run.outputs == golden_out
    assert run.report.ledger.summary() == golden_rep.ledger.summary()
    assert check_theorem1_io(run.report.params, run.report)[0] == []
