"""What fits in ``M`` stays in memory: the held batch keeps its inbox.

Where a processor's ``k`` held contexts and the at most ``k*gamma`` records
bound for them fit in ``M`` (``SimulationParams.holds_inbox``), the blocks a
processor packs in Step 1(d) for its own vps of the superstep's last batch
stay in memory across the barrier, and that batch's next fetch takes them
from there.  At one batch and ``p = 1`` that is every message, so the run
does no superstep I/O.  These tests hold the predicate to its truth table,
the engine to the run that writes every block (same outputs, packets and
blocks; only the message I/O moves), the Theorem 1 referee to faults planted
in the held inbox, the two ways a held inbox could be lost (a batch skipped
for an empty slot, a halt that does not count held blocks), and the
checkpoint paths to carrying it.
"""

import dataclasses

import pytest

from repro import workloads as wl
from repro.algorithms import CGMPrefixSums
from repro.algorithms.graphs.listranking import CGMListRanking
from repro.bsp.program import BSPAlgorithm, VPContext
from repro.bsp.runner import run_reference
from repro.conform import REFERENCE
from repro.conform.oracles import check_outputs, check_theorem1_io
from repro.core import ParallelEMSimulation, build_params
from repro.core.checkpoint import freeze, thaw
from repro.core.processor import RealProcessor
from repro.crashcheck import crash_and_recover
from repro.emio.faults import CRASH_STAGES, CrashPlan
from repro.params import MachineParams

from .helpers import AllToAllExchange

LR_N, LR_V = 128, 4
MESSAGE = ("fetch_messages", "write_messages")


def engine(alg, v, p=1, held=True, k=None, **knobs):
    """``alg`` on a ``p``-processor machine whose ``M`` holds the held
    inbox, or (``held`` False) only the group's ``k`` contexts."""
    k = k or v // p
    M = 1 << 16 if held else k * alg.context_size()
    params = build_params(alg, MachineParams(p=p, M=M, D=4, B=8, b=16), v, k=k)
    return ParallelEMSimulation(alg, params, **knobs)


def listrank():
    return CGMListRanking(wl.random_linked_list(LR_N, seed=3), LR_V)


def listrank_reference():
    return run_reference(listrank(), LR_V)[0]


def total(report, phase):
    return sum(getattr(s.phases, phase) for s in report.supersteps)


# -- the predicate --------------------------------------------------------------------------


def test_the_predicate_charges_the_held_contexts_and_their_inbox():
    alg = listrank()
    mu, gamma, k = alg.context_size(), alg.comm_bound(), 2
    fits = build_params(alg, MachineParams(p=2, M=k * (mu + gamma), D=4, B=8, b=16), LR_V, k=k)
    short = build_params(alg, MachineParams(p=2, M=k * (mu + gamma) - 1, D=4, B=8, b=16),
                         LR_V, k=k)
    assert fits.holds_inbox and not short.holds_inbox
    assert ParallelEMSimulation(alg, fits).report.inbox_held
    assert not ParallelEMSimulation(alg, short).report.inbox_held
    # Lemma 3's padding charges the analysis' worst case: it holds no inbox.
    one = build_params(alg, MachineParams(p=1, M=k * (mu + gamma), D=4, B=8, b=16), LR_V, k=k)
    padded = ParallelEMSimulation(alg, one, pad_to_gamma=True)
    assert one.holds_inbox and not padded.report.inbox_held
    assert not any(pr.holds_inbox for pr in padded.procs)


# -- the engine against the run that writes every block ----------------------------------------


@pytest.mark.parametrize("p", [1, 2])
def test_only_the_message_io_moves(p):
    """Against the machine whose ``M`` holds only the contexts: the same
    outputs, rows, packing, context phases, packets and blocks (the kept
    blocks' write cycles draw their permutations, so the deal offsets drawn
    after them do not move); at p = 1 no message I/O at all, at p = 2 less
    of it (the blocks for the other processor's vps still go to disk)."""
    want = listrank_reference()
    (out, rep), (out_w, rep_w) = (engine(listrank(), LR_V, p, held).run() for held in (True, False))
    assert rep.inbox_held and not rep_w.inbox_held
    for outputs, report in ((out, rep), (out_w, rep_w)):
        assert check_outputs("listrank", outputs, want) == []
        assert check_theorem1_io(report.params, report, listrank())[0] == []
    assert [s.ran for s in rep.supersteps] == [s.ran for s in rep_w.supersteps]
    for phase in ("fetch_context", "write_context", "reorganize"):
        assert total(rep, phase) == total(rep_w, phase) == 0
    assert sum(s.message_blocks for s in rep.supersteps) > 0
    assert rep.ledger.summary()["comm_packets"] == rep_w.ledger.summary()["comm_packets"]
    assert [s.message_blocks for s in rep.supersteps] == [
        s.message_blocks for s in rep_w.supersteps]
    if p == 1:
        assert all(getattr(s.phases, ph) == 0 for s in rep.supersteps for ph in MESSAGE)
    else:
        assert 0 < total(rep, "write_messages") < total(rep_w, "write_messages")


def test_several_batches_hold_the_last_ones_inbox():
    """Four batches: the superstep's last keeps its inbox, the other three
    write theirs, and the run matches the one that writes every block."""
    want = listrank_reference()
    (out, rep), (out_w, rep_w) = (engine(listrank(), LR_V, 1, held, k=1).run()
                                  for held in (True, False))
    assert check_outputs("listrank", out, want) == check_outputs("listrank", out_w, want) == []
    assert check_theorem1_io(rep.params, rep, listrank())[0] == []
    assert 0 < total(rep, "write_messages") < total(rep_w, "write_messages")
    assert 0 < total(rep, "fetch_messages") < total(rep_w, "fetch_messages")


# -- the referee, on faults planted in the held inbox -----------------------------------------


def test_an_inbox_held_where_it_does_not_fit_is_caught():
    """The report says the inbox was held on a machine whose ``M`` holds
    only the contexts."""
    _outputs, report = engine(listrank(), LR_V, held=False).run()
    assert not report.params.holds_inbox and check_theorem1_io(report.params, report)[0] == []
    report.inbox_held = True
    fails = check_theorem1_io(report.params, report)[0]
    assert any("held an inbox" in f.message and "exceed M" in f.message for f in fails), fails


@pytest.mark.parametrize("with_algorithm", [False, True])
def test_a_held_block_charged_as_a_write_is_caught(with_algorithm):
    """The processors write and fetch every block while the report says
    the inbox was held: the packed write charges ops the referee predicts
    none for."""
    sim = engine(listrank(), LR_V)
    for pr in sim.procs:
        pr.holds_inbox = False
    outputs, report = sim.run()
    assert check_outputs("listrank", outputs, listrank_reference()) == []
    assert report.inbox_held and total(report, "write_messages") > 0
    fails = check_theorem1_io(report.params, report, listrank() if with_algorithm else None)[0]
    assert any("packed write" in f.message and "held inbox" in f.message for f in fails), fails


@pytest.mark.parametrize("with_algorithm", [False, True])
def test_a_held_batchs_fetch_charged_is_caught(with_algorithm):
    _outputs, report = engine(listrank(), LR_V).run()
    alg = listrank() if with_algorithm else None
    assert check_theorem1_io(report.params, report, alg)[0] == []
    report.supersteps[1].phases.fetch_messages += 1
    fails = check_theorem1_io(report.params, report, alg)[0]
    assert any("fetch_messages charged 1 ops" in f.message for f in fails), fails


def test_a_held_block_dropped_at_the_barrier_changes_the_outputs(monkeypatch):
    """The barrier loses one held block: nothing was charged for it either
    way, so the referee cannot see it, and the outputs do."""
    deliver = RealProcessor.deliver

    def lossy(self, step, holder):
        if self.keeping:
            self.keeping.pop()
        return deliver(self, step, holder)

    monkeypatch.setattr(RealProcessor, "deliver", lossy)
    outputs, _report = engine(AllToAllExchange(), 8).run()
    assert check_outputs("alltoall", outputs, run_reference(AllToAllExchange(), 8)[0]) != []


@pytest.mark.parametrize("with_algorithm", [False, True])
def test_a_held_block_dropped_uncounted_is_caught(monkeypatch, with_algorithm):
    """Step 1(d) loses one held block and does not count it: the referee's
    block count from the packed records does."""
    write = RealProcessor.write

    def lossy(self, j, holder, packets):
        nblocks, *rest = write(self, j, holder, packets)
        if self.keeping:
            self.keeping.pop()
            nblocks -= 1
        return (nblocks, *rest)

    monkeypatch.setattr(RealProcessor, "write", lossy)
    _outputs, report = engine(AllToAllExchange(), 8).run()
    alg = AllToAllExchange() if with_algorithm else None
    fails = check_theorem1_io(report.params, report, alg)[0]
    assert any("message blocks" in f.message for f in fails), fails


# -- the two ways a held inbox could be lost ---------------------------------------------------


class LastWord(BSPAlgorithm):
    """Every vp sends its successor one record and votes halt at once: the
    run's only messages, all held at one batch, must still be delivered."""

    def context_size(self) -> int:
        return 64

    def comm_bound(self) -> int:
        return 8

    def initial_state(self, pid: int, nprocs: int):
        return {"got": None}

    def superstep(self, ctx: VPContext) -> None:
        if ctx.step == 0:
            ctx.send((ctx.pid + 1) % ctx.nprocs, [ctx.pid])
        else:
            ctx.state["got"] = ctx.incoming[0].payload[0]
        ctx.vote_halt()

    def output(self, pid: int, state):
        return state["got"]


def test_a_none_batch_whose_only_messages_are_held_runs(monkeypatch):
    """The prefix sums declare ``"none"`` for superstep 1, where vp 0
    receives every total: its batch's incoming slot is empty and its inbox
    is held, and it must run.  Told only the slots, the engine skips it."""
    vals = list(range(1, 41))
    want = run_reference(CGMPrefixSums(vals, 4), 4)[0]
    outputs, report = engine(CGMPrefixSums(vals, 4), 4).run()
    assert check_outputs("prefix", outputs, want) == []
    assert check_theorem1_io(report.params, report, CGMPrefixSums(vals, 4))[0] == []
    assert report.supersteps[1].ran[0][2] is None  # ran, and fetched no context
    assert all(getattr(s.phases, ph) == 0 for s in report.supersteps for ph in MESSAGE)

    begin = RealProcessor.begin_superstep

    def slots_only(self):
        marks = begin(self)
        sizes = [n - len(self.inbox.get(j, ())) for j, n in enumerate(marks[2])]
        return (*marks[:2], sizes, marks[3])

    monkeypatch.setattr(RealProcessor, "begin_superstep", slots_only)
    with pytest.raises(IndexError):  # superstep 2 finds no offset from vp 0
        engine(CGMPrefixSums(vals, 4), 4).run()


def test_a_run_whose_last_messages_are_held_does_not_halt_early(monkeypatch):
    want = run_reference(LastWord(), 4)[0]
    outputs, report = engine(LastWord(), 4).run()
    assert check_outputs("lastword", outputs, want) == []
    assert report.num_supersteps == 2 and report.io_ops == 0

    write = RealProcessor.write

    def written_only(self, j, holder, packets):  # message_blocks without the held ones
        nblocks, *rest = write(self, j, holder, packets)
        return (nblocks - len(self.keeping), *rest)

    monkeypatch.setattr(RealProcessor, "write", written_only)
    outputs, report = engine(LastWord(), 4).run()
    assert report.num_supersteps == 1
    assert check_outputs("lastword", outputs, want) != []


# -- checkpoints carry the held inbox -----------------------------------------------------------


def checkpoints(p, **knobs):
    """The list ranking with a checkpoint at every barrier; return them all."""
    sim = engine(listrank(), LR_V, p, checkpoint=True, **knobs)
    taken, take = [], sim._take_checkpoint
    sim._take_checkpoint = lambda step: (take(step), taken.append(sim.last_checkpoint))
    _outputs, report = sim.run()
    return taken, report


def held_blocks(ckpt):
    return sum(len(blocks) for blob in ckpt.proc_states for blocks in thaw(blob)[2].values())


@pytest.mark.parametrize("p", [1, 2])
def test_a_checkpoint_freezes_the_held_inbox_from_memory(p):
    taken, report = checkpoints(p)
    _outputs, unchecked = engine(listrank(), LR_V, p).run()
    assert [repr(s.phases) for s in report.supersteps] == [
        repr(s.phases) for s in unchecked.supersteps]
    assert held_blocks(taken[0]) == 0 and all(held_blocks(c) > 0 for c in taken[1:4])
    if p == 1:  # one batch held, contexts and inbox: nothing on disk to read
        assert report.faults.checkpoint_io_ops == 0


BARRIER = 2


@pytest.mark.parametrize("backend", ["inline", "process"])
@pytest.mark.parametrize("how", ["rewrite-memory", "reference-file"])
@pytest.mark.parametrize("p", [1, 2])
def test_kill_resume_at_a_held_inbox_charges_what_the_run_did(p, how, backend, tmp_path):
    """Resume at a barrier whose held inbox is not empty, by rewrite on the
    memory plane or by reference on the file plane: the resumed run charges,
    superstep for superstep, the uninterrupted run's phases and rows."""
    _out, golden = engine(listrank(), LR_V, p).run()
    if how == "rewrite-memory":
        ckpt = checkpoints(p)[0][BARRIER]
        assert held_blocks(ckpt) > 0
        outputs, report = engine(listrank(), LR_V, p, checkpoint=True,
                                 backend=backend).resume_from_checkpoint(ckpt)
        assert report.faults.resumed_from_step == BARRIER
    else:
        def build(**kw):
            return engine(listrank(), LR_V, p, storage="file", checkpoint=True,
                          backend=backend, **REFERENCE, **kw)

        plan = CrashPlan(seed=7, crash_point=len(CRASH_STAGES) * BARRIER
                         + CRASH_STAGES.index("committed"))
        run = crash_and_recover(build, str(tmp_path / "crashed"), plan)
        assert run.action == f"resume@{BARRIER}" and run.failure is None, run.failure
        assert run.report.faults.recovery_io_ops == 0
        outputs, report = run.outputs, run.report
    assert check_outputs("resumed", outputs, listrank_reference()) == []
    assert check_theorem1_io(report.params, report, listrank())[0] == []
    assert [(repr(s.phases), s.ran) for s in report.supersteps] == [
        (repr(s.phases), s.ran) for s in golden.supersteps]


def test_a_restore_without_the_held_inbox_loses_its_messages():
    """Erase the held inbox from the checkpoint after the exchange: the
    resumed run receives nothing, so the record is what carries it."""
    sim = engine(AllToAllExchange(), 8, checkpoint=True)
    sim.run()
    ckpt = sim.last_checkpoint
    assert ckpt.step == 1 and held_blocks(ckpt) > 0
    erased = dataclasses.replace(ckpt, proc_states=[
        freeze((states, held, {})) for states, held, _inbox in map(thaw, ckpt.proc_states)])
    want = run_reference(AllToAllExchange(), 8)[0]
    honest, _report = engine(AllToAllExchange(), 8, checkpoint=True).resume_from_checkpoint(ckpt)
    lost, _report = engine(AllToAllExchange(), 8, checkpoint=True).resume_from_checkpoint(erased)
    assert check_outputs("honest", honest, want) == []
    assert lost == [[]] * 8
