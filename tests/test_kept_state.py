"""A group whose vps all keep their state is not written back.

An algorithm declares that vp ``pid`` keeps its state in superstep ``step``
(``BSPAlgorithm.keeps_state``): whatever it receives, its state pickles to
the same bytes after the superstep as before, though it may still send,
charge and vote halt.  The engine then skips the context write-back of each
group (batch) whose vps all declare it, on every processor alike — except
the first group of the superstep's order, held in memory across the barrier
with a stale disk image, and the last, which stays in memory.  The sample
sort declares it for supersteps 0 and 1.

These tests hold the reference runner and the fuzzer to checking the
declaration, the engine to "same outputs, fewer context writes" against the
same algorithm with nothing declared (at p = 1, 2 and 4, on both backends
and on the reference and fast planes), the decision to being collective, and
the Theorem 1 referee to miscounts planted on a write or on a kept group's
fetch and to an engine that skips a write nobody declared.
"""

import dataclasses
import pickle

import pytest

from repro import workloads as wl
from repro.algorithms import CGMSampleSort
from repro.bsp.program import AlgorithmError
from repro.bsp.runner import run_reference
from repro.conform import REFERENCE
from repro.conform.config import ConformConfig
from repro.conform.oracles import check_outputs, check_theorem1_io, plain_outputs
from repro.conform.runner import fuzz, run_case
from repro.conform.strategies import QUICK
from repro.core import ParallelEMSimulation, build_params, processor
from repro.core.processor import group_order
from repro.params import MachineParams

from .helpers import TotalExchangeSum, list_state_sort


class SortKeepingNothing(CGMSampleSort):
    """The oracle: the same sort with nothing declared kept."""

    def keeps_state(self, step: int, pid: int) -> bool:
        return False


class SortKeepingHalf(CGMSampleSort):
    """Only the first half of the vps declare: on two or more processors no
    batch has every vp declaring, so none may be kept."""

    def keeps_state(self, step: int, pid: int) -> bool:
        return super().keeps_state(step, pid) and pid < self.v // 2


class SortKeepingTheResult(CGMSampleSort):
    """A wrong declaration: superstep 3 stores the result, declared kept."""

    def keeps_state(self, step: int, pid: int) -> bool:
        return step in (0, 1, 3)


def make(cls=CGMSampleSort, v=16):
    return cls(wl.uniform_keys(max(1024, v * v), seed=2), v)


def sort(cls=CGMSampleSort, p=1, v=16, k=2, **knobs):
    alg = make(cls, v)
    params = build_params(alg, MachineParams(p=p, M=1 << 16, D=4, B=8, b=16), v, k=k)
    return ParallelEMSimulation(alg, params, **knobs)


def sort_reference(v=16):
    return run_reference(make(v=v), v)[0]


def kept_groups(report, step):
    return [g for g, _f, put, _c in report.supersteps[step].ran if put is None]


# -- the declaration is checked, not trusted ------------------------------------------------


def test_nothing_keeps_its_state_unless_declared():
    assert not any(TotalExchangeSum().keeps_state(s, pid) for s in range(3) for pid in range(4))
    alg = CGMSampleSort(wl.uniform_keys(64, seed=0), 4)
    assert [s for s in range(4) if all(alg.keeps_state(s, pid) for pid in range(4))] == [0, 1]


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


def test_the_reference_runner_refuses_a_vp_that_changes_a_kept_state():
    with pytest.raises(AlgorithmError, match="vp 0 declares that it keeps its state in "
                       "superstep 3, but changed it"):
        run_reference(SortKeepingTheResult(wl.uniform_keys(256, seed=1), 8), 8)


def test_conform_reports_a_broken_declaration_as_a_crash(monkeypatch):
    monkeypatch.setattr(CGMSampleSort, "keeps_state", SortKeepingTheResult.keeps_state)
    failures = run_case(ConformConfig(workload="sort", n=64, v=4)).failures
    assert [f.oracle for f in failures] == ["no_crash"]
    assert "keeps its state in superstep 3" in failures[0].message


# -- same outputs, fewer writes; collective ----------------------------------------------------


@pytest.mark.parametrize("p,v,backend,plane", [
    (1, 16, "inline", REFERENCE),
    (2, 16, "process", REFERENCE),
    (2, 16, "inline", dict(storage="file")),
    (4, 32, "inline", dict(context_cache=True, fast_io=True)),
    (4, 32, "process", dict(storage="file", **REFERENCE)),
])
def test_kept_groups_change_nothing_but_the_context_writes(p, v, backend, plane):
    """Against the sort with nothing declared: byte-identical outputs; the
    same messages, packets, computation and fetches superstep for
    superstep; fewer context writes exactly where groups are kept — every
    inner group of supersteps 0 and 1 that runs — and the exact referee,
    told the declarations, on both sides."""
    (out, rep), (out_all, rep_all) = (
        sort(cls, p, v, backend=backend, **plane).run()
        for cls in (CGMSampleSort, SortKeepingNothing)
    )
    assert pickle.dumps(plain_outputs(out)) == pickle.dumps(plain_outputs(out_all))
    assert check_outputs("kept", out, sort_reference(v)) == []
    assert check_theorem1_io(rep.params, rep, make(v=v))[0] == []
    assert check_theorem1_io(rep_all.params, rep_all, make(SortKeepingNothing, v))[0] == []
    ngroups = rep.params.groups_per_processor
    assert ngroups >= 4
    for s, t, c, c_all in zip(rep.supersteps, rep_all.supersteps, rep.ledger.supersteps,
                              rep_all.ledger.supersteps, strict=True):
        for phase in ("fetch_context", "fetch_messages", "write_messages", "reorganize"):
            assert getattr(s.phases, phase) == getattr(t.phases, phase)
        assert (s.message_blocks, s.comm_packets, c.comp_ops) == (
            t.message_blocks, t.comm_packets, c_all.comp_ops)
        order = group_order(s.index, ngroups)
        kept = [g for g, _f, put, counts in s.ran if put is None]
        assert kept == ([g for g, *_ in s.ran if g not in (order[0], order[-1])]
                        if s.index in (0, 1) else [])
        # Collective: no processor writes a kept group's contexts.
        assert all(counts == ((),) * p for _g, _f, put, counts in s.ran if put is None)
        assert all(put is not None for _g, _f, put, _c in t.ran)
        assert (s.phases.write_context < t.phases.write_context) == bool(kept)
    assert (rep.init_io_ops, rep.output_io_ops) == (rep_all.init_io_ops, rep_all.output_io_ops)


@pytest.mark.parametrize("p", [2, 4])
def test_a_group_is_kept_only_if_every_processor_declares(p):
    _out, rep = sort(SortKeepingHalf, p, v=32).run()
    assert all(put is not None for s in rep.supersteps for _g, _f, put, _c in s.ran)
    assert check_theorem1_io(rep.params, rep, make(SortKeepingHalf, 32))[0] == []
    _out, whole = sort(p=p, v=32).run()
    assert kept_groups(whole, 0)


# -- the referee ------------------------------------------------------------------------------


@pytest.mark.parametrize("p", [1, 2])
def test_the_referee_catches_a_miscounted_write_or_kept_fetch(p):
    """+1 on a context write, and +1 on the fetch of a group superstep 0
    kept: each is caught by the group's own row."""
    _out, report = sort(p=p).run()
    alg = make()
    assert check_theorem1_io(report.params, report, alg)[0] == []
    s0, s1 = report.supersteps[:2]
    written = next(g for g, _f, put, _c in s0.ran if put)
    kept = next(g for g in kept_groups(report, 0) if g in {g for g, *_ in s1.ran})

    def plant(step, group, col, phase):
        i = next(i for i, row in enumerate(step.ran) if row[0] == group)
        row = step.ran[i]
        step.ran[i] = row[:col] + (row[col] + 1,) + row[col + 1:]
        setattr(step.phases, phase, getattr(step.phases, phase) + 1)
        fails = [f.message for f in check_theorem1_io(report.params, report, alg)[0]]
        step.ran[i] = row
        setattr(step.phases, phase, getattr(step.phases, phase) - 1)
        return fails

    fails = plant(s0, written, 2, "write_context")
    assert any(m.startswith(f"superstep 0: group {written}'s write_context charged") and
               "block counts" in m for m in fails), fails
    fails = plant(s1, kept, 1, "fetch_context")
    assert any(m.startswith(f"superstep 1: group {kept}'s fetch_context charged") and
               "the input load" in m for m in fails), fails
    assert check_theorem1_io(report.params, report, alg)[0] == []


@pytest.mark.parametrize("p", [1, 2])
def test_the_referee_catches_an_engine_that_skips_a_changed_write(p):
    """An engine told a wrong declaration skips superstep 3's write-back of
    the results: the referee, told the honest one, names the undeclared
    skips, and a declared group charged a write is named too.  On the
    uncached file plane the skipped results are lost from the output."""
    honest = make()
    _out, report = sort(SortKeepingTheResult, p).run()
    fails = [f.message for f in check_theorem1_io(report.params, report, honest)[0]]
    assert kept_groups(report, 3)
    for g in kept_groups(report, 3):
        assert f"superstep 3: group {g} was not written back, but not all its vps " \
               "declare keeps_state" in fails
    _out, nothing = sort(SortKeepingNothing, p).run()
    fails = [f.message for f in check_theorem1_io(nothing.params, nothing, honest)[0]]
    assert any(m.startswith("superstep 0: group ") and "but all its vps declare "
               "keeps_state" in m for m in fails), fails
    outputs, _report = sort(SortKeepingTheResult, p, storage="file", **REFERENCE).run()
    assert check_outputs("skipped", outputs, sort_reference()) != []


def test_without_the_algorithm_the_referee_still_refuses_keeping_the_first_group():
    _out, report = sort().run()
    assert check_theorem1_io(report.params, report)[0] == []
    s0 = report.supersteps[0]
    first = s0.ran[0]
    s0.ran[0] = (first[0], first[1], None, ((),))
    s0.phases.write_context -= first[2]
    fails = [f.message for f in check_theorem1_io(report.params, report)[0]]
    assert f"superstep 0: group {first[0]} was not written back, but it opens or " \
           "closes the superstep" in fails


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
