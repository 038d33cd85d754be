"""One rule for what a superstep moves of the contexts.

Each vp declares what it does with its state in a superstep
(``BSPAlgorithm.state_use``: ``"none"``, ``"read"`` or ``"write"``).  The
engine skips a batch whose vps are all ``"none"`` and which receives
nothing, fetches a batch's contexts only if some vp reads, marks a
``"write"`` vp's slot dirty, and runs the batches in ascending cyclic order
from the one in memory, which leaves memory only when another batch's
contexts come in, writing its dirty slots and dropping its clean ones: the
last batch whose contexts came in, or the one already there, stays in
memory across the barrier.  These tests hold the reference runner to
checking the declarations, the store to the rule, the engine to "same
outputs, never dearer" against the same algorithm declaring ``"write"``
everywhere, run to the same plan, and holding nothing, the Theorem 1 referee to faults planted in
the rows it replays and in the engine's plan, the recovery paths to the
batch a checkpoint records, and the fuzzer to a wrong declaration.
"""

import dataclasses
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import workloads as wl
from repro.algorithms import CGMPrefixSums, CGMSampleSort
from repro.algorithms.graphs.listranking import CGMListRanking
from repro.bsp.program import AlgorithmError, BSPAlgorithm, VPContext, state_uses
from repro.bsp.runner import run_reference
from repro.conform import REFERENCE
from repro.conform.config import ConformConfig
from repro.conform.oracles import check_outputs, check_theorem1_io, plain_outputs
from repro.conform.runner import fuzz, run_case
from repro.conform.strategies import QUICK
from repro.core import ParallelEMSimulation, build_params, engine, processor
from repro.core.checkpoint import freeze, thaw
from repro.core.context import ContextStore
from repro.crashcheck import crash_and_recover, explore
from repro.emio.disk import DiskError
from repro.emio.diskarray import DiskArray
from repro.emio.faults import CRASH_STAGES, CrashPlan
from repro.emio.layout import RegionAllocator
from repro.params import MachineParams

from .helpers import PLANES, TotalExchangeSum, list_state_sort

CTX = ("fetch_context", "write_context")


class Gather(TotalExchangeSum):
    """Gather to vp 0, broadcast back: superstep 1 is vp 0's alone, and it
    needs only its inbox.  ``lie`` makes vp 1 (empty inbox) or, setting its
    state, vp 0 (receiving) break the declaration."""

    def __init__(self, lie: str | None = None):
        self.lie = lie

    def state_use(self, step: int, pid: int) -> str:
        return "none" if step == 1 else "write"

    def superstep(self, ctx: VPContext) -> None:
        super().superstep(ctx)
        if ctx.step != 1 or ctx.pid != (0 if self.lie == "state" else 1):
            return
        if self.lie == "send":
            ctx.send(0, [1])
        elif self.lie == "charge":
            ctx.charge(1)
        elif self.lie == "halt":
            ctx.vote_halt()
        elif self.lie == "state":
            ctx.state = {"value": 0, "sum": None}


class Broadcast(BSPAlgorithm):
    """vp 0 sends every vp a value in superstep 0, while the rest wait: the
    skipped batches' first fetch comes a superstep after the input load."""

    def context_size(self) -> int:
        return 4096

    def comm_bound(self) -> int:
        return 256

    def initial_state(self, pid: int, nprocs: int):
        return {"pad": [pid] * 40, "got": None}

    def state_use(self, step: int, pid: int) -> str:
        return "none" if step == 0 and pid != 0 else "write"

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


class SortReadingTheResult(CGMSampleSort):
    """A wrong declaration: superstep 3 stores the result, declared read."""

    def state_use(self, step: int, pid: int) -> str:
        return "read" if step == 3 else super().state_use(step, pid)


class SortHalfWriting(CGMSampleSort):
    """The upper half of the vps declare ``"write"`` in superstep 0: with
    several processors every batch mixes readers and writers."""

    def state_use(self, step: int, pid: int) -> str:
        return "write" if step == 0 and pid >= self.v // 2 else super().state_use(step, pid)


def writing_everything(alg: BSPAlgorithm) -> BSPAlgorithm:
    """The oracle: the same algorithm declaring ``"write"`` everywhere."""
    alg.state_use = lambda step, pid: "write"
    return alg


def holding_nothing(monkeypatch) -> None:
    """The engines without the batch in memory: nothing is held across a
    barrier, the input load's batch included, while the rounds run in the
    order the plan gives a run that holds it (inline backend only)."""
    end_round = ContextStore.end_round
    monkeypatch.setattr(ContextStore, "end_round", lambda self, slots, states, wrote, hold:
                        end_round(self, slots, states, wrote, False))
    plan, would_hold = engine.plan_rounds, [0]

    def same_order(_resident, reads):
        order, would_hold[0] = plan(would_hold[0], reads)
        return order, would_hold[0]
    monkeypatch.setattr(engine, "plan_rounds", same_order)


def recording_the_plan(monkeypatch, plans: list) -> None:
    """Log each superstep's plan, ``(order, holder)``, as the engine makes it."""
    plan = engine.plan_rounds

    def logged(resident, reads):
        plans.append(plan(resident, reads))
        return plans[-1]
    monkeypatch.setattr(engine, "plan_rounds", logged)


def replaying_the_plan(monkeypatch, plans: list) -> None:
    """Run each superstep to the plan another run logged: its rounds' order
    and the batch held across the barrier, whatever this run reads."""
    replay = iter(plans)
    monkeypatch.setattr(engine, "plan_rounds", lambda _resident, _reads: next(replay))


def dropping_the_batch_in_memory(monkeypatch) -> None:
    """A planted regression in the plan: a superstep in which no batch's
    contexts come in drops the batch in memory, so the next superstep starts
    at batch 0 and fetches it again."""
    plan = engine.plan_rounds

    def dropping(resident, reads):
        order, holder = plan(resident, reads)
        return order, holder if any(reads) else None
    monkeypatch.setattr(engine, "plan_rounds", dropping)


def rounds_run(report) -> list[int]:
    return [len(s.packing) for s in report.supersteps]


# -- the declaration is checked, not trusted ------------------------------------------------


def test_every_vp_writes_unless_declared():
    assert [state_uses(TotalExchangeSum(), s, range(4)) for s in range(3)] == ["wwww"] * 3
    alg = TotalExchangeSum()
    alg.state_use = lambda step, pid: "keep"
    with pytest.raises(AlgorithmError, match="'none', 'read' or 'write'"):
        state_uses(alg, 0, [0])


def test_the_sort_and_the_prefix_sums_declare_what_they_leave_alone():
    sort = CGMSampleSort(wl.uniform_keys(64, seed=0), 4)
    assert [state_uses(sort, s, range(4)) for s in range(4)] == ["rrrr", "nnnn", "wwww", "wwww"]
    prefix = CGMPrefixSums(wl.uniform_keys(64, seed=0), 4)
    assert [state_uses(prefix, s, range(4)) for s in range(3)] == ["wwww", "nnnn", "wwww"]


def test_honest_declarations_pass_the_reference_runner():
    for alg in (Gather(), Broadcast(), CGMPrefixSums(wl.uniform_keys(256, seed=1, hi=100), 8)):
        run_reference(alg, 8)


@pytest.mark.parametrize("records", ["object", "vector"])
def test_the_sort_leaves_its_items_alone_until_superstep_2(records):
    """Honest on every path: the reference runner checks each declared vp —
    on int keys (the vector plane, or the list-state path by an identity
    key) and on strings (the list-state path)."""
    keys = wl.uniform_keys(256, seed=1)
    strings = [str(x) for x in keys]
    ints = CGMSampleSort(keys, 8) if records == "vector" else list_state_sort(keys, 8)
    assert ints.record_mode == records
    for alg, data in ((ints, keys), (CGMSampleSort(strings, 8), strings)):
        outputs, _ledger = run_reference(alg, 8)
        assert [x for part in plain_outputs(outputs) for x in part] == sorted(data)


@pytest.mark.parametrize("alg,what", [
    (Gather("send"), "'none' in superstep 1, but sent messages"),
    (Gather("charge"), "'none' in superstep 1, but charged operations"),
    (Gather("halt"), "'none' in superstep 1, but voted halt"),
    (Gather("state"), "'none' in superstep 1, but set its state"),
    (SortReadingTheResult(wl.uniform_keys(256, seed=1), 8),
     "'read' in superstep 3, but changed its state"),
], ids=["send", "charge", "halt", "state", "read"])
def test_the_reference_runner_refuses_a_broken_declaration(alg, what):
    with pytest.raises(AlgorithmError, match=f"vp [0-9]+ declares state use {what}"):
        run_reference(alg, 8)


def test_conform_reports_a_broken_declaration_as_a_crash(monkeypatch):
    real = CGMSampleSort.state_use
    monkeypatch.setattr(CGMSampleSort, "state_use", lambda self, step, pid:
                        "read" if step == 3 else real(self, step, pid))
    failures = run_case(ConformConfig(workload="sort", n=64, v=4)).failures
    assert [f.oracle for f in failures] == ["no_crash"]
    assert "'read' in superstep 3" in failures[0].message


# -- the store ------------------------------------------------------------------------------


def store(cache=False):
    array = DiskArray(4, 8)
    return array, ContextStore(array, RegionAllocator(array), 6, mu=256, B=8, cache=cache)


@pytest.mark.parametrize("cache", [False, True])
def test_a_held_batch_costs_nothing_and_comes_back_as_it_was(cache):
    array, cs = store(cache)
    cs.save_group([0, 1], [{"a": 1}, {"b": 2}])
    states = [list(range(40)), list(range(50))]
    ops = array.parallel_ops
    assert cs.end_round([2, 3], states, [True, True], hold=True) == [0, 0]
    assert cs.held() == ((2, 3), (2, 3))
    back = cs.load_group([2, 3])
    assert array.parallel_ops == ops and all(x is y for x, y in zip(back, states))
    assert cs._used[2] > 1 and cs._used[3] > 1  # measured all the same
    assert cs.load_group([0, 1]) == [{"a": 1}, {"b": 2}]
    assert array.parallel_ops > ops


def test_a_held_batch_is_still_refused_past_mu():
    _array, cs = store()
    with pytest.raises(DiskError, match="exceeds declared bound"):
        cs.end_round([4, 5], [list(range(10_000)), []], [True, False], hold=True)


def test_one_batch_is_held_at_a_time_and_a_load_may_not_straddle_it():
    _array, cs = store()
    cs.end_round([0, 1], [0, 1], [True, True], hold=True)
    with pytest.raises(DiskError, match="second batch"):
        cs.end_round([2, 3], [2, 3], [True, True], hold=True)
    with pytest.raises(DiskError, match="straddle"):
        cs.load_group([1, 2])
    cs.end_round([0, 1], None, [False, True], hold=True)  # the same batch again is fine
    assert cs.held() == ((0, 1), (0, 1))


def test_leaving_memory_writes_the_dirty_slots_and_drops_the_clean_ones():
    """Both slots dirty, both written; then only the one a round rewrote,
    the clean one dropped at no I/O; a batch not in memory moves nothing,
    and dropping the cache drops the batch in memory too."""
    array, cs = store()
    states = [list(range(40)), list(range(50))]
    cs.end_round([2, 3], states, [True, True], hold=True)
    ops = array.parallel_ops
    assert cs.end_round([2, 3], None, [False, False], hold=False) == cs._used[2:4]
    assert cs.held() is None and array.parallel_ops > ops
    assert cs.load_group([2, 3]) == states
    cs.end_round([2, 3], cs.load_group([2, 3]), [False, True], hold=True)
    assert cs.held() == ((2, 3), (3,))
    ops = array.parallel_ops
    assert cs.end_round([2, 3], None, [False, False], hold=False) == [0, cs._used[3]]
    assert array.parallel_ops > ops
    assert cs.end_round([4, 5], None, [False, False], hold=False) == [0, 0]
    cs.end_round([4, 5], ["z", "w"], [True, True], hold=True)
    cs.invalidate_cache()
    assert cs.held() is None


def test_a_restore_writes_the_clean_slots_and_holds_the_batch_again():
    array, cs = store()
    states = [[s] * 30 for s in range(6)]
    cs.import_all(states, [range(0, 2), range(2, 4), range(4, 6)], held=((2, 3), (3,)))
    assert cs.held() == ((2, 3), (3,))
    cs.end_round([2, 3], None, [False, False], hold=False)
    assert cs.load_group(range(6)) == states


# -- same outputs, never dearer --------------------------------------------------------------


def _workload(kind: str, v: int, n_per: int) -> BSPAlgorithm:
    n = max(v * v, n_per * v)
    if kind == "sort":
        return CGMSampleSort(wl.uniform_keys(n, seed=v + n_per), v)
    if kind == "prefix":
        return CGMPrefixSums(wl.uniform_keys(n, seed=v + n_per, hi=1000), v)
    return {"gather": Gather, "broadcast": Broadcast}[kind]()


def _run(kind, p, v, kdiv, D, B, n_per, declared: bool, held: bool, patch=None):
    alg = _workload(kind, v, n_per)
    if not declared:
        writing_everything(alg)
    k = max(1, v // p // kdiv)
    params = build_params(alg, MachineParams(p=p, M=1 << 18, D=D, B=B, b=2 * B), v, k=k)
    with pytest.MonkeyPatch.context() as mp:
        if not held:
            holding_nothing(mp)
        if patch is not None:
            patch(mp)
        return ParallelEMSimulation(alg, params).run()


def _same_but_the_context(rep, other):
    """The same messages, packets, blocks and operations superstep for superstep."""
    for s, t in zip(rep.supersteps, other.supersteps, strict=True):
        for phase in ("fetch_messages", "write_messages", "reorganize"):
            assert getattr(s.phases, phase) == getattr(t.phases, phase)
        assert (s.message_blocks, s.comm_packets, s.halted) == (
            t.message_blocks, t.comm_packets, t.halted)
    assert [c.comp_ops for c in rep.ledger.supersteps] == [
        c.comp_ops for c in other.ledger.supersteps]


shapes = given(
    kind=st.sampled_from(["sort", "prefix", "gather", "broadcast"]),
    p=st.sampled_from([1, 2]),
    v=st.sampled_from([8, 16]),
    kdiv=st.sampled_from([1, 2, 4]),
    D=st.integers(2, 5),
    B=st.sampled_from([4, 8]),
    n_per=st.integers(8, 40),
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@shapes
def test_the_declarations_change_nothing_but_the_context_phases(kind, p, v, kdiv, D, B, n_per):
    """Against the same algorithm declaring ``"write"`` everywhere, run to
    the declared run's plan (each superstep's round order and the batch it
    holds across the barrier): byte-identical outputs, the same messages,
    packets, blocks and operations superstep for superstep, the same input
    load and output unload, and each context phase never dearer over the
    run.  The replay holds a batch through rounds that fetch others, off the
    rule by construction; run to its own plan, which holds the last batch
    of every superstep, the write-everywhere run is exact under the referee
    as the declared run is, with the same outputs and operations, and it is
    never cheaper either."""
    plans: list = []
    shape = (kind, p, v, kdiv, D, B, n_per)
    out, rep = _run(*shape, True, True, lambda mp: recording_the_plan(mp, plans))
    out_all, rep_all = _run(*shape, False, True, lambda mp: replaying_the_plan(mp, plans))
    out_own, rep_own = _run(*shape, False, True)
    for other in (out_all, out_own):
        assert pickle.dumps(plain_outputs(out)) == pickle.dumps(plain_outputs(other))
    _same_but_the_context(rep, rep_all)
    assert (rep.init_io_ops, rep.output_io_ops) == (rep_all.init_io_ops, rep_all.output_io_ops)
    for r in (rep, rep_own):
        assert check_theorem1_io(r.params, r)[0] == []
    assert [c.comp_ops for c in rep.ledger.supersteps] == [
        c.comp_ops for c in rep_own.ledger.supersteps]
    for phase in CTX:  # a fetch may move to a later superstep, never cost more
        for other in (rep_all, rep_own):
            assert (sum(getattr(s.phases, phase) for s in rep.supersteps)
                    <= sum(getattr(s.phases, phase) for s in other.supersteps))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@shapes
def test_holding_the_last_batch_changes_nothing_but_the_context_phases(
    kind, p, v, kdiv, D, B, n_per
):
    """Every vp declaring ``"write"``, against that run holding nothing
    across a barrier: identical outputs and messages; every context phase,
    the input load and the output unload strictly cheaper (each skips one
    batch), and nothing moved at one batch a processor."""
    (out, rep), (out_none, rep_none) = (
        _run(kind, p, v, kdiv, D, B, n_per, False, held) for held in (True, False))
    assert out == out_none
    assert check_theorem1_io(rep.params, rep)[0] == []
    _same_but_the_context(rep, rep_none)
    for s, u in zip(rep.supersteps, rep_none.supersteps, strict=True):
        for phase in CTX:
            assert getattr(s.phases, phase) < getattr(u.phases, phase)
    assert rep.init_io_ops < rep_none.init_io_ops and rep.output_io_ops < rep_none.output_io_ops
    if rep.params.groups_per_processor == 1:
        assert all(getattr(s.phases, ph) == 0 for s in rep.supersteps for ph in CTX)
        assert rep.init_io_ops == rep.output_io_ops == 0


def test_a_none_vp_that_receives_still_runs():
    """Gather declares ``"none"`` for superstep 1, where vp 0 receives: its
    batch runs, without fetching, and every other is skipped."""
    alg = Gather()
    params = build_params(alg, MachineParams(p=1, M=1 << 16, D=2, B=4, b=8), 16, k=2)
    outputs, report = ParallelEMSimulation(alg, params).run()
    assert check_outputs("gather", outputs, run_reference(Gather(), 16)[0]) == []
    assert rounds_run(report) == [8, 1, 8]
    assert [f for _g, _u, f, _w, _c in report.supersteps[1].ran] == [None] * 8


# -- the sort -------------------------------------------------------------------------------

SORT_N, SORT_V, SORT_K = 1024, 16, 2


def make(cls=CGMSampleSort):
    return cls(wl.uniform_keys(SORT_N, seed=2), SORT_V)


def sort(p=1, cls=CGMSampleSort, k=SORT_K, **knobs):
    alg = make(cls)
    params = build_params(alg, MachineParams(p=p, M=1 << 16, D=4, B=8, b=16), SORT_V, k=k)
    return ParallelEMSimulation(alg, params, **knobs)


def sort_reference():
    return run_reference(make(), SORT_V)[0]


def moved(report, step):
    """Each row of a superstep as (group, fetched, written)."""
    return [(g, f is not None, w is not None) for g, _u, f, w, _c in report.supersteps[step].ran]


@pytest.mark.parametrize("p", [1, 2, 4])
def test_the_sort_moves_only_what_it_declares(p):
    """Superstep 0 reads every batch from batch 0 and writes back only the
    one the input load held; superstep 1 runs vp 0's batch alone and moves
    no context, so it keeps the batch superstep 0 ended with; superstep 2
    starts there, fetches every batch and writes back all but the last,
    held; superstep 3 starts with that one.  Each first fetch costs 0."""
    outputs, report = sort(p).run()
    assert check_outputs("sort", outputs, sort_reference()) == []
    assert check_theorem1_io(report.params, report, make())[0] == []
    G = SORT_V // p // SORT_K
    order = [[(g - back) % G for g in range(G)] for back in (0, 1, 1, 2)]
    assert moved(report, 0) == [(0, True, True)] + [(g, True, False) for g in order[0][1:]]
    assert moved(report, 1) == [(g, False, False) for g in order[1]]
    assert rounds_run(report)[1] == 1
    for s in (2, 3):
        assert moved(report, s) == [(g, True, g != order[s][-1]) for g in order[s]]
    assert report.supersteps[2].ran[0][2] == report.supersteps[3].ran[0][2] == 0


@pytest.mark.parametrize("p", [2, 4])
def test_a_batch_is_fetched_for_any_reader_and_writes_only_its_writers(p):
    """Between the input load's batch (all dirty) and the last (held), each
    batch of superstep 0 writes back exactly its writers' slots."""
    _out, report = sort(p, SortHalfWriting).run()
    alg = make(SortHalfWriting)
    assert check_theorem1_io(report.params, report, alg)[0] == []
    rows = report.supersteps[0].ran
    assert all(fetched is not None for _g, _u, fetched, _w, _c in rows)
    for _g, uses, _f, _w, counts in rows[1:-1]:
        assert [n > 0 for c in counts for n in c] == [u == "w" for u in uses]
    assert not any(n for c in rows[-1][4] for n in c)


@pytest.mark.parametrize("p,plane", [((1, 2, 4)[i % 3], knobs)
                                     for i, (_n, knobs) in enumerate(PLANES)],
                         ids=[name for name, _k in PLANES])
def test_every_plane_moves_what_the_reference_plane_moves(p, plane):
    _out, golden = sort(p, **REFERENCE).run()
    outputs, report = sort(p, **plane).run()
    assert check_outputs("sort", outputs, sort_reference()) == []
    assert [s.ran for s in report.supersteps] == [s.ran for s in golden.supersteps]


# -- the referee replays the rule -------------------------------------------------------------


def plant(report, step, group, fetched=None, wrote=None, counts=None):
    """Rewrite one row of ``report`` (and its superstep's phases) in place;
    returns the undo."""
    s = report.supersteps[step]
    i = next(i for i, row in enumerate(s.ran) if row[0] == group)
    row = s.ran[i]
    phases = (s.phases.fetch_context, s.phases.write_context)
    new = list(row)
    for col, value in ((2, fetched), (3, wrote), (4, counts)):
        if value is not None:
            new[col] = None if value == "none" else value
    assert tuple(new) != row, f"the plant leaves superstep {step}'s row for group {group} as it was"
    s.ran[i] = tuple(new)
    s.phases.fetch_context += (new[2] or 0) - (row[2] or 0)
    s.phases.write_context += (new[3] or 0) - (row[3] or 0)

    def undo():
        s.ran[i] = row
        s.phases.fetch_context, s.phases.write_context = phases
    return undo


def refuses(report, algorithm, *needles):
    for alg in (None, algorithm):
        fails = [f.message for f in check_theorem1_io(report.params, report, alg)[0]]
        assert all(any(n in m for m in fails) for n in needles), (alg, fails)


@pytest.mark.parametrize("fault", ["dirty-unwritten", "clean-written", "none-fetched"])
@pytest.mark.parametrize("p", [1, 2])
def test_the_referee_catches_a_planted_move(fault, p):
    """With and without the algorithm."""
    _out, report = sort(p).run()
    alg = make()
    assert check_theorem1_io(report.params, report, alg)[0] == []
    s0, s1, s2 = report.supersteps[:3]
    if fault == "dirty-unwritten":  # superstep 2's first batch leaves memory unwritten
        g, _u, _f, _w, counts = s2.ran[0]
        undo = plant(report, 2, g, wrote="none", counts=tuple((0,) * len(c) for c in counts))
        needles = (f"superstep 2: group {g} left memory with dirty",)
    elif fault == "clean-written":  # superstep 0 writes back a batch it only read
        g = s0.ran[1][0]  # with what superstep 2, which holds another, wrote of it
        _h, _u, _f, ops, counts = next(row for row in s2.ran if row[0] == g)
        undo = plant(report, 0, g, wrote=ops, counts=counts)
        needles = (f"superstep 0: group {g} wrote (processor, slot)",)
    else:  # superstep 1 fetches a batch none of whose vps reads
        g = s1.ran[1][0]
        undo = plant(report, 1, g, fetched=5)
        needles = (f"superstep 1: group {g}'s contexts were fetched at 5 ops, but none",)
    refuses(report, alg, *needles)
    undo()
    assert check_theorem1_io(report.params, report, alg)[0] == []


@pytest.mark.parametrize("p", [1, 2])
def test_the_referee_catches_a_miscounted_write_or_fetch(p):
    """+1 on a write, and +1 on a fetch of what superstep 2 wrote back:
    each is caught by the batch's own row."""
    _out, report = sort(p).run()
    alg = make()
    s0, s3 = report.supersteps[0], report.supersteps[3]
    g, _u, _f, w, _c = s0.ran[0]
    undo = plant(report, 0, g, wrote=w + 1)
    refuses(report, alg, f"superstep 0: group {g}'s write_context charged", "block counts")
    undo()
    g, _u, f, _w, _c = s3.ran[1]
    undo = plant(report, 3, g, fetched=f + 1)
    refuses(report, alg, f"superstep 3: group {g}'s fetch_context charged",
            "superstep 2's write-back")
    undo()
    assert check_theorem1_io(report.params, report, alg)[0] == []


@pytest.mark.parametrize("p", [1, 2])
def test_the_referee_pins_a_fetch_after_a_skip_to_the_input_load(p):
    """A batch superstep 0 only read and superstep 1 skipped is fetched at
    superstep 2 as the input load wrote it: +1 on that fetch, or on
    superstep 0's of the same contexts, is caught.  The batch superstep 0
    ended with, kept through superstep 1, opens superstep 2 from memory:
    a fetch charged for it there is caught too."""
    _out, report = sort(p).run()
    alg = make()
    s0, s2 = report.supersteps[0], report.supersteps[2]
    kept, _u, f, _w, _c = s2.ran[0]
    assert kept == s0.ran[-1][0] and f == 0
    written0 = {h for h, _u, _f, w, _c in s0.ran if w is not None}
    g = next(h for h, _u, _f, _w, _c in s2.ran[1:] if h not in written0)
    for step in (2, 0):
        f = next(f for h, _u, f, _w, _c in report.supersteps[step].ran if h == g)
        undo = plant(report, step, g, fetched=f + 1)
        refuses(report, alg, f"superstep {step}: group {g}'s fetch_context charged",
                "the input load")
        undo()
    undo = plant(report, 2, kept, fetched=1)
    refuses(report, alg, f"superstep 2: group {kept}'s fetch_context charged 1 ops",
            "the barrier, in memory")
    undo()
    assert check_theorem1_io(report.params, report, alg)[0] == []


def listrank(p=2):
    """One batch a processor: every context stays in memory."""
    alg = CGMListRanking(wl.random_linked_list(512, seed=4), 8)
    params = build_params(alg, MachineParams(p=p, M=1 << 16, D=4, B=8, b=16), 8, k=8 // p)
    return ParallelEMSimulation(alg, params)


@pytest.mark.parametrize("build", [sort, listrank], ids=["8-groups-p1", "1-group-p2"])
def test_theorem1_oracle_catches_one_context_op_planted(build):
    """+1 on a context phase's total, on the input load and on the output
    unload, with no row changed."""
    _out, report = build().run()
    assert report.params.groups_per_processor == (8 if build is sort else 1)
    assert check_theorem1_io(report.params, report)[0] == []
    phases = report.supersteps[1].phases
    for obj, field, needle in ((phases, "fetch_context", "writing those contexts back"),
                               (phases, "write_context", "writing those contexts back"),
                               (report, "init_io_ops", "input load"),
                               (report, "output_io_ops", "output unload")):
        setattr(obj, field, getattr(obj, field) + 1)
        refuses(report, None, needle)
        setattr(obj, field, getattr(obj, field) - 1)
    assert check_theorem1_io(report.params, report)[0] == []


@pytest.mark.parametrize("p", [1, 2])
def test_the_referee_holds_the_rows_to_the_declarations(p):
    """An engine run on a wrong declaration (the result declared read) keeps
    its rows consistent with it, so only the referee told the honest
    algorithm names them; on the uncached file plane the output is lost."""
    _out, report = sort(p, SortReadingTheResult).run()
    assert check_theorem1_io(report.params, report)[0] == []
    fails = [f.message for f in check_theorem1_io(report.params, report, make())[0]]
    assert any("superstep 3: group" in m and "but its vps declare" in m for m in fails), fails
    outputs, _report = sort(p, SortReadingTheResult, storage="file", **REFERENCE).run()
    assert check_outputs("lost", outputs, sort_reference()) != []


def test_the_referee_pins_the_input_load_to_first_fetches_after_a_skip():
    """Broadcast skips seven of eight batches at superstep 0: their first
    fetch, at superstep 1, is what the input load wrote."""
    alg = Broadcast()
    params = build_params(alg, MachineParams(p=1, M=1 << 16, D=2, B=4, b=8), 16, k=2)
    _out, report = ParallelEMSimulation(alg, params).run()
    assert rounds_run(report)[0] == 1
    assert check_theorem1_io(report.params, report, Broadcast())[0] == []
    g, _u, f, _w, _c = report.supersteps[1].ran[2]
    plant(report, 1, g, fetched=f + 1)
    refuses(report, Broadcast(), f"superstep 1: group {g}'s fetch_context", "the input load")


# -- recovery: the batch a checkpoint records -------------------------------------------------


def checkpoints(p=2, **knobs):
    """Run the sort with a checkpoint at every barrier; return them all."""
    sim = sort(p, checkpoint=True, **knobs)
    taken, take = [], sim._take_checkpoint
    sim._take_checkpoint = lambda step: (take(step), taken.append(sim.last_checkpoint))
    sim.run()
    return taken


#: What each barrier holds: the input load's batch, dirty; after superstep 0
#: a batch it only read, which superstep 1, leaving every context alone,
#: keeps; after superstep 2 a dirty one.
HELD = {0: "dirty", 1: "clean", 2: "clean", 3: "dirty"}


def held(ckpt):
    rec = thaw(ckpt.proc_states[0])[1]
    return rec and ("dirty" if rec[1] else "clean")


@pytest.mark.parametrize("backend", ["inline", "process"])
@pytest.mark.parametrize("how", ["rewrite-memory", "reference-file"])
@pytest.mark.parametrize("barrier", [1, 2, 3])
def test_kill_resume_charges_what_the_run_did(barrier, how, backend, tmp_path):
    """Resume at each barrier, by rewrite on the memory plane or by
    reference on the file plane: the resumed run charges, superstep for
    superstep, the uninterrupted run's phases and rows."""
    _out, golden = sort(2).run()
    if how == "rewrite-memory":
        ckpt = checkpoints()[barrier]
        assert held(ckpt) == HELD[barrier]
        outputs, report = sort(2, checkpoint=True, backend=backend).resume_from_checkpoint(ckpt)
        assert report.faults.resumed_from_step == barrier
    else:
        def engine(**kw):
            return sort(2, storage="file", checkpoint=True, backend=backend, **REFERENCE, **kw)

        plan = CrashPlan(seed=7, crash_point=len(CRASH_STAGES) * barrier
                         + CRASH_STAGES.index("committed"))
        run = crash_and_recover(engine, str(tmp_path / "crashed"), plan)
        assert run.action == f"resume@{barrier}" and run.failure is None, run.failure
        assert run.report.faults.recovery_io_ops == 0
        outputs, report = run.outputs, run.report
    assert check_outputs("resumed", outputs, sort_reference()) == []
    assert check_theorem1_io(report.params, report, make())[0] == []
    assert [(repr(s.phases), s.ran) for s in report.supersteps] == [
        (repr(s.phases), s.ran) for s in golden.supersteps]


@pytest.mark.parametrize("backend", ["inline", "process"])
def test_a_resume_after_a_superstep_that_left_the_contexts_alone_holds_its_batch(backend):
    """A 4-group sort at p = 1 resumed at the barrier after superstep 1 (at
    p = 2, barrier 2 of the matrix above): the checkpoint records the clean
    batch superstep 0 ended with, and the resumed run takes it from memory
    at superstep 2, charging superstep for superstep what the uninterrupted
    run did."""
    p = 1
    k = SORT_V // p // 4
    _out, golden = sort(p, k=k).run()
    ckpt = checkpoints(p, k=k)[2]
    assert held(ckpt) == "clean"
    outputs, report = sort(p, k=k, checkpoint=True, backend=backend).resume_from_checkpoint(ckpt)
    assert report.faults.resumed_from_step == 2
    assert check_outputs("resumed", outputs, sort_reference()) == []
    assert check_theorem1_io(report.params, report, make())[0] == []
    assert report.supersteps[2].ran[0][2] == 0
    assert [(repr(s.phases), s.ran) for s in report.supersteps] == [
        (repr(s.phases), s.ran) for s in golden.supersteps]


@pytest.mark.parametrize("p", [1, 2])
def test_the_referee_catches_a_batch_dropped_across_a_superstep_that_left_it_alone(
    p, monkeypatch
):
    """Planted in the engine's plan: superstep 1, in which no batch's
    contexts come in, drops the batch in memory, and superstep 2 starts at
    batch 0 and fetches it again.  The outputs are right and the run is
    dearer; the referee names the order and the fetch, with and without the
    algorithm."""
    _out, golden = sort(p).run()
    dropping_the_batch_in_memory(monkeypatch)
    outputs, report = sort(p).run()
    assert check_outputs("sort", outputs, sort_reference()) == []
    assert report.supersteps[2].phases.fetch_context > golden.supersteps[2].phases.fetch_context
    kept = golden.supersteps[2].ran[0][0]
    refuses(report, make(), "superstep 2 ran its groups in the order",
            f"superstep 2: group {kept}'s fetch_context charged", "the barrier, in memory")


def test_a_restore_holds_the_batch_the_checkpoint_records():
    """Erase the record of a dirty batch: the restore writes it out and the
    resumed superstep fetches it from disk — same outputs, dearer."""
    ckpt = checkpoints()[3]
    records = [thaw(b) for b in ckpt.proc_states]
    tampered = dataclasses.replace(
        ckpt, proc_states=[freeze((s, None, inbox)) for s, _held, inbox in records])
    honest = sort(2, checkpoint=True).resume_from_checkpoint(ckpt)
    erased = sort(2, checkpoint=True).resume_from_checkpoint(tampered)
    assert plain_outputs(honest[0]) == plain_outputs(erased[0])
    assert honest[1].supersteps[3].ran[0][2] == 0 < erased[1].supersteps[3].ran[0][2]


def test_every_crash_point_of_the_sort_recovers(tmp_path):
    machine = MachineParams(p=1, M=1 << 16, D=4, B=8, b=16)
    result = explore(
        make,
        machine, SORT_V, tmp_path, k=SORT_K,
    )
    assert result.total_points > 0
    assert result.passed, [o for o in result.outcomes if not o.ok]


# -- the fuzzer ------------------------------------------------------------------------------


def test_the_fuzzer_catches_and_shrinks_a_wrong_declaration(monkeypatch):
    """Planted: the prefix sums declare every vp ``"read"`` in superstep 0,
    which sets each vp's prefix.  The reference runner refuses it, and the
    fuzzer shrinks the failing config to a replayable ReproCase."""
    monkeypatch.setattr(CGMPrefixSums, "state_use",
                        lambda self, step, pid: "read" if step == 0 else "write")
    profile = dataclasses.replace(QUICK, workloads=("prefix",), baseline_rate=0.0)
    stats = fuzz(seed=0, budget=5, profile=profile, shrink_budget=20)
    assert not stats.passed
    case = stats.failures[0]
    assert case.oracle == "no_crash" and "declares state use 'read'" in case.message
    assert case.original is not None and case.config.n < case.original.n
    assert any("declares state use" in f.message for f in run_case(case.config).failures)


@pytest.mark.parametrize("p", [1, 2])
def test_the_fuzzer_catches_and_shrinks_a_planted_context_write(monkeypatch, p):
    """Planted: every context write charged one op more than its blocks
    cost.  The write predictor catches it, and the fuzzer shrinks the case
    to a replayable one that still fails there."""
    write = processor.RealProcessor.write

    def plus_one(self, *args):
        out = write(self, *args)
        return (*out[:4], out[4] + 1 if out[4] else out[4], out[5])

    monkeypatch.setattr(processor.RealProcessor, "write", plus_one)
    profile = dataclasses.replace(
        QUICK, p_choices=(p,), baseline_rate=0.0, crash_rate=0.0,
        fault_weights=(1.0, 0.0, 0.0),
    )
    stats = fuzz(seed=0, budget=5, profile=profile, shrink_budget=20)
    assert not stats.passed
    case = stats.failures[0]
    assert case.oracle == "theorem1_io" and case.original is not None
    assert any("write_context charged" in f.message and "block counts" in f.message
               for f in run_case(case.config).failures)
