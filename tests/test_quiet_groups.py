"""A group of quiet vps that receives nothing is not swapped.

An algorithm declares vp ``pid`` quiet in superstep ``step``
(``BSPAlgorithm.quiet``): with an empty inbox it sends nothing, charges
nothing, leaves its state unchanged and does not vote halt.  The engine
then skips each group (batch) whose vps are all quiet and which receives
nothing — no fetch, no compute, no write-back, no packing — except the
first and last groups of the superstep's order, which carry the resident
group across the barriers.  These tests hold the reference runner to
checking the declaration, the engine to "same outputs, never dearer" against
the same algorithm with nothing declared, the restated Theorem 1 referee to
miscounts planted across a skip, the recovery paths to skipped groups, and the
conformance fuzzer to catching a wrong declaration.
"""

import dataclasses
import pickle

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import workloads as wl
from repro.algorithms import CGMPrefixSums, CGMSampleSort
from repro.bsp.program import AlgorithmError, BSPAlgorithm, VPContext
from repro.bsp.runner import run_reference
from repro.conform import REFERENCE
from repro.conform.oracles import check_outputs, check_theorem1_io, plain_outputs
from repro.conform.runner import fuzz, run_case
from repro.conform.strategies import QUICK
from repro.core.checkpoint import SimulationAborted
from repro.core.processor import group_order
from repro.core.simulator import build_params, make_engine
from repro.crashcheck import crash_and_recover, explore
from repro.emio.faults import CRASH_STAGES, CrashPlan, FaultPlan, RetryPolicy
from repro.params import MachineParams

from .helpers import TotalExchangeSum

CTX = ("fetch_context", "write_context")


class Gather(TotalExchangeSum):
    """Gather to vp 0, broadcast back: superstep 1 is vp 0's alone.  ``lie``
    makes vp 1 break its quiet declaration in one way."""

    def __init__(self, lie: str | None = None):
        self.lie = lie

    def quiet(self, step: int, pid: int) -> bool:
        return step == 1 and pid != 0

    def superstep(self, ctx: VPContext) -> None:
        super().superstep(ctx)
        if ctx.step == 1 and ctx.pid == 1:
            if self.lie == "send":
                ctx.send(0, [1])
            elif self.lie == "charge":
                ctx.charge(1)
            elif self.lie == "state":
                ctx.state["value"] += 1
            elif self.lie == "halt":
                ctx.vote_halt()


class Broadcast(BSPAlgorithm):
    """vp 0 sends every vp a value in superstep 0, while the rest wait: the
    skipped groups' first fetch comes a superstep after the input load."""

    def context_size(self) -> int:
        return 4096

    def comm_bound(self) -> int:
        return 256

    def initial_state(self, pid: int, nprocs: int):
        return {"pad": [pid] * 40, "got": None}

    def quiet(self, step: int, pid: int) -> bool:
        return step == 0 and pid != 0

    def superstep(self, ctx: VPContext) -> None:
        if ctx.step == 0:
            if ctx.pid == 0:
                for dest in range(ctx.nprocs):
                    ctx.send(dest, [7 * dest])
        else:
            ctx.state["got"] = ctx.incoming[0].payload[0]
            ctx.vote_halt()

    def output(self, pid: int, state):
        return state["got"]


class LateQuiet(TotalExchangeSum):
    """Declared quiet from superstep 1 on, but every vp receives in
    superstep 2: a declaration covers only a vp with an empty inbox."""

    def quiet(self, step: int, pid: int) -> bool:
        return step >= 1 and pid != 0


def declared_nothing(alg: BSPAlgorithm) -> BSPAlgorithm:
    """The oracle: the same algorithm with nothing declared quiet."""
    alg.quiet = lambda step, pid: False
    return alg


# -- the declaration is checked, not trusted ------------------------------------------------


def test_nothing_is_quiet_unless_declared():
    assert not any(TotalExchangeSum().quiet(s, pid) for s in range(3) for pid in range(4))
    sort = CGMSampleSort(wl.uniform_keys(64, seed=0), 4)
    assert [pid for pid in range(4) if sort.quiet(1, pid)] == [1, 2, 3]
    assert not any(sort.quiet(s, pid) for s in (0, 2, 3) for pid in range(4))


def test_honest_declarations_pass_the_reference_runner():
    for alg in (Gather(), Broadcast(), LateQuiet()):
        run_reference(alg, 8)
    run_reference(CGMSampleSort(wl.uniform_keys(256, seed=1), 8), 8)
    run_reference(CGMPrefixSums(wl.uniform_keys(256, seed=1, hi=100), 8), 8)


@pytest.mark.parametrize("lie,what", [
    ("send", "sent messages"),
    ("charge", "charged operations"),
    ("state", "changed its state"),
    ("halt", "voted halt"),
])
def test_the_reference_runner_refuses_a_quiet_vp_that_acts(lie, what):
    with pytest.raises(AlgorithmError, match=f"vp 1 is declared quiet in superstep 1.*{what}"):
        run_reference(Gather(lie), 8)


# -- same outputs, never dearer --------------------------------------------------------------


def _workload(kind: str, v: int, n_per: int) -> BSPAlgorithm:
    n = max(v * v, n_per * v)
    if kind == "sort":
        return CGMSampleSort(wl.uniform_keys(n, seed=v + n_per), v)
    if kind == "prefix":
        return CGMPrefixSums(wl.uniform_keys(n, seed=v + n_per, hi=1000), v)
    return {"gather": Gather, "broadcast": Broadcast, "late": LateQuiet}[kind]()


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(["sort", "prefix", "gather", "broadcast", "late"]),
    p=st.sampled_from([1, 2]),
    v=st.sampled_from([8, 16]),
    kdiv=st.sampled_from([1, 2, 4]),
    D=st.integers(2, 5),
    B=st.sampled_from([4, 8]),
    storage=st.sampled_from(["memory", "file"]),
    records=st.sampled_from(["object", "vector"]),
    n_per=st.integers(8, 40),
)
def test_skipping_quiet_groups_changes_nothing_but_the_context_swaps(
    kind, p, v, kdiv, D, B, storage, records, n_per
):
    """Against the same algorithm with nothing declared: byte-identical
    outputs, the same messages, packets, blocks and operations superstep for
    superstep, context swaps never dearer — strictly cheaper in a superstep
    that skips a group — and the exact referee on both sides."""
    assume(records in _workload(kind, v, n_per).RECORD_MODES)
    k = max(1, v // p // kdiv)

    def run(declared: bool):
        alg = _workload(kind, v, n_per)
        if not declared:
            declared_nothing(alg)
        params = build_params(alg, MachineParams(p=p, M=1 << 18, D=D, B=B, b=2 * B), v, k=k)
        return make_engine(alg, params, storage=storage, records=records).run()

    (out, rep), (out_all, rep_all) = run(True), run(False)
    assert pickle.dumps(plain_outputs(out)) == pickle.dumps(plain_outputs(out_all))
    assert check_theorem1_io(rep.params, rep)[0] == []
    assert check_theorem1_io(rep_all.params, rep_all)[0] == []
    ngroups = v // p // k
    for s, t, c, c_all in zip(
        rep.supersteps, rep_all.supersteps, rep.ledger.supersteps,
        rep_all.ledger.supersteps, strict=True,
    ):
        for phase in ("fetch_messages", "write_messages", "reorganize"):
            assert getattr(s.phases, phase) == getattr(t.phases, phase)
        assert (s.message_blocks, s.comm_packets, s.halted) == (
            t.message_blocks, t.comm_packets, t.halted)
        assert (c.comp_ops, c.comm_packets, c.records_sent) == (
            c_all.comp_ops, c_all.comm_packets, c_all.records_sent)
        assert [g for g, _f, _w in t.ran] == group_order(s.index, ngroups)
        skipped = len(s.ran) < ngroups
        for phase in CTX:
            assert getattr(s.phases, phase) <= getattr(t.phases, phase)
        if skipped:
            assert s.phases.fetch_context + s.phases.write_context < (
                t.phases.fetch_context + t.phases.write_context)
    total = rep.init_io_ops + rep.io_ops + rep.output_io_ops
    assert total <= rep_all.init_io_ops + rep_all.io_ops + rep_all.output_io_ops
    assert (rep.init_io_ops, rep.output_io_ops) == (rep_all.init_io_ops, rep_all.output_io_ops)


def test_a_quiet_vp_that_receives_still_runs():
    """LateQuiet declares every vp but 0 quiet from superstep 1 on; in
    superstep 2 each receives the sum, so no group is skipped there."""
    alg = LateQuiet()
    params = build_params(alg, MachineParams(p=1, M=1 << 16, D=2, B=4, b=8), 16, k=2)
    outputs, report = make_engine(alg, params).run()
    assert check_outputs("late", outputs, run_reference(LateQuiet(), 16)[0]) == []
    assert [len(s.ran) for s in report.supersteps] == [8, 3, 8]


# -- the sort: five interior groups skip at superstep 1 --------------------------------------

SORT_N, SORT_V, SORT_K = 1024, 16, 2


def sort(p=1, declared=True, **knobs):
    alg = CGMSampleSort(wl.uniform_keys(SORT_N, seed=2), SORT_V)
    if not declared:
        declared_nothing(alg)
    machine = MachineParams(p=p, M=1 << 16, D=4, B=8, b=16)
    params = build_params(alg, machine, SORT_V, k=SORT_K)
    return make_engine(alg, params, **knobs)


def sort_reference():
    return run_reference(CGMSampleSort(wl.uniform_keys(SORT_N, seed=2), SORT_V), SORT_V)[0]


@pytest.mark.parametrize("p", [1, 2], ids=["1-sequential", "2-parallel"])
def test_the_sort_runs_only_the_groups_that_work_at_superstep_1(p):
    """Superstep 1 runs its first and last groups and vp 0's; with one
    processor that skips five of eight, with two one batch of four."""
    _out, report = sort(p).run()
    _out, every = sort(p, declared=False).run()
    ngroups = SORT_V // p // SORT_K
    order = group_order(1, ngroups)
    ran = [g for g, _f, _w in report.supersteps[1].ran]
    assert ran == [order[0], 0, order[-1]]
    for s, t in zip(report.supersteps, every.supersteps, strict=True):
        if s.index != 1:
            assert s.ran == t.ran
    assert report.io_ops < every.io_ops
    assert report.ledger.summary()["comm_packets"] == every.ledger.summary()["comm_packets"]


# -- the restated referee: each group's fetch is pinned to its last write ----------------------


@pytest.mark.parametrize("p", [1, 2])
def test_the_referee_pins_a_fetch_to_the_write_before_the_skip(p):
    """A group skipped at superstep 1 is fetched at superstep 2 as superstep 0
    wrote it back.  A miscount planted on that fetch, or on that write, is
    caught — and the old rule (each fetch equals the superstep before's
    write-back) no longer holds on an honest run."""
    _outputs, report = sort(p).run()
    assert check_theorem1_io(report.params, report)[0] == []
    s0, s1, s2 = report.supersteps[:3]
    assert s2.phases.fetch_context != s1.phases.write_context
    skipped = next(g for g, _f, _w in s0.ran if g not in {g for g, _f, _w in s1.ran})

    def plant(step, col, phase):
        i = next(i for i, row in enumerate(step.ran) if row[0] == skipped)
        row = list(step.ran[i])
        row[col] += 1
        step.ran[i] = tuple(row)
        setattr(step.phases, phase, getattr(step.phases, phase) + 1)
        fails = check_theorem1_io(report.params, report)[0]
        row[col] -= 1
        step.ran[i] = tuple(row)
        setattr(step.phases, phase, getattr(step.phases, phase) - 1)
        return [f.message for f in fails if f.oracle == "theorem1_io"]

    want = f"superstep 2: group {skipped}'s fetch_context charged"
    for step, col, phase in ((s2, 1, "fetch_context"), (s0, 2, "write_context")):
        messages = plant(step, col, phase)
        assert any(m.startswith(want) and "in superstep 0" in m for m in messages), messages
    assert check_theorem1_io(report.params, report)[0] == []


def test_the_referee_pins_the_input_load_to_first_fetches_after_a_skip():
    """Broadcast skips groups at superstep 0: their first fetch is at
    superstep 1, and the input load still equals the first fetches."""
    alg = Broadcast()
    params = build_params(alg, MachineParams(p=1, M=1 << 16, D=2, B=4, b=8), 16, k=2)
    _out, report = make_engine(alg, params).run()
    assert [g for g, _f, _w in report.supersteps[0].ran] == [0, 7]
    assert check_theorem1_io(report.params, report)[0] == []
    report.init_io_ops += 1
    fails = check_theorem1_io(report.params, report)[0]
    assert any("input load" in f.message for f in fails)


# -- recovery across skipped groups ------------------------------------------------------------


@pytest.mark.parametrize("backend", ["inline", "process"])
def test_kill_resume_across_skipped_groups_charges_what_the_run_did(backend):
    """A drive dies after superstep 1 skipped its groups; the resumed run
    charges, superstep for superstep, what the uninterrupted run did."""
    _out, golden = sort(2).run()
    dying = sort(
        2, checkpoint=True, max_recoveries=0,
        retry=RetryPolicy(max_retries=2),
        faults=FaultPlan(seed=0, dead_disk=1, dead_after=120, dead_proc=1),
    )
    with pytest.raises(SimulationAborted) as exc_info:
        dying.run()
    ckpt = exc_info.value.checkpoint
    assert ckpt is not None and ckpt.step >= 2
    outputs, report = sort(
        2, checkpoint=True, backend=backend
    ).resume_from_checkpoint(ckpt)
    assert check_outputs("resumed", outputs, sort_reference()) == []
    assert report.faults.resumed_from_step == ckpt.step
    assert check_theorem1_io(report.params, report)[0] == []
    assert [(repr(s.phases), s.ran) for s in report.supersteps] == [
        (repr(s.phases), s.ran) for s in golden.supersteps
    ]


def test_crash_resume_by_reference_after_a_skip(tmp_path):
    """Crash at the barrier after superstep 1 on the reference file plane and
    re-attach: the skipped groups' contexts are where superstep 0 left them."""
    def engine(**kw):
        return sort(storage="file", checkpoint=True, **REFERENCE, **kw)

    golden_out, golden_rep = engine(storage_dir=str(tmp_path / "golden")).run()
    plan = CrashPlan(seed=7, crash_point=len(CRASH_STAGES) * 2 + CRASH_STAGES.index("committed"))
    run = crash_and_recover(engine, str(tmp_path / "crashed"), plan)
    assert run.action == "resume@2" and run.failure is None, run.failure
    assert run.outputs == golden_out
    assert run.report.ledger.summary() == golden_rep.ledger.summary()
    assert check_theorem1_io(run.report.params, run.report)[0] == []


def test_every_crash_point_of_the_sort_recovers(tmp_path):
    machine = MachineParams(p=1, M=1 << 16, D=4, B=8, b=16)
    result = explore(
        lambda: CGMSampleSort(wl.uniform_keys(SORT_N, seed=2), SORT_V),
        machine, SORT_V, tmp_path, k=SORT_K,
    )
    assert result.total_points > 0
    assert result.passed, [o for o in result.outcomes if not o.ok]


# -- the fuzzer catches a wrong declaration ----------------------------------------------------


def test_the_fuzzer_catches_and_shrinks_a_wrong_declaration(monkeypatch):
    """Planted: the prefix sums declare every vp quiet in superstep 0, where
    each sends its total to vp 0.  The reference runner refuses it, and the
    fuzzer shrinks the failing config to a replayable ReproCase."""
    monkeypatch.setattr(CGMPrefixSums, "quiet", lambda self, step, pid: step == 0)
    profile = dataclasses.replace(QUICK, workloads=("prefix",), baseline_rate=0.0)
    stats = fuzz(seed=0, budget=5, profile=profile, shrink_budget=20)
    assert not stats.passed
    case = stats.failures[0]
    assert case.oracle == "no_crash" and "declared quiet" in case.message
    assert case.config.workload == "prefix"
    assert case.original is not None and case.config.n < case.original.n
    assert any("declared quiet" in f.message for f in run_case(case.config).failures)
