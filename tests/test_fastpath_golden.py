"""Golden equivalence suite for the context-swap/disk fast path.

The fast path (``fast_io=True`` data-plane short-circuits plus
``context_cache=True`` held-object context caching) is allowed to change *host
wall-clock only*.  Everything the model counts — outputs, the cost ledger,
per-superstep phase breakdowns, routing statistics, and even the physical
I/O trace — must be byte-identical to the reference path.  These tests pin
that invariant at p = 1 and p = 4, across seeds, checkpointing, fault
injection, and mid-run kill-and-resume.

Left alone, both knobs follow the storage plane (fast in the heap), so each
side of a comparison names its plane — ``**FAST`` or ``**REFERENCE`` — and
``build`` checks that the engine it built is on it.
"""

import pytest

from repro.algorithms.graphs.listranking import CGMListRanking
from repro.algorithms.permutation import CGMPermutation
from repro.algorithms.sorting import CGMSampleSort
from repro.conform import REFERENCE
from repro.core.checkpoint import SimulationAborted
from repro.core import ParallelEMSimulation
from repro.core.simulator import build_params
from repro.emio.faults import FaultPlan, RetryPolicy
from repro.emio.trace import IOTrace
from repro.params import MachineParams
from repro.workloads import random_linked_list, random_permutation, uniform_keys

from .helpers import assert_plane

FAST = {"context_cache": True, "fast_io": True}


def make_sort(n=512, v=8):
    return CGMSampleSort(uniform_keys(n, seed=5), v=v), v


def make_listrank(n=192, v=8):
    return CGMListRanking(random_linked_list(n, seed=5), v=v), v


def make_permute(n=512, v=8):
    return CGMPermutation(
        uniform_keys(n, seed=5), random_permutation(n, seed=5), v=v
    ), v


WORKLOADS = [make_sort, make_listrank, make_permute]


def build(make, p, seed=0, **kwargs):
    alg, v = make()
    machine = MachineParams(p=p, M=1 << 18, D=4, B=16, b=32)
    params = build_params(alg, machine, v=v)
    sim = ParallelEMSimulation(alg, params, seed=seed, **kwargs)
    assert_plane(sim, **kwargs)
    return sim


def golden(sim):
    """Everything the model counts, as one comparable value — down to every
    drive's access tallies where the arrays are local (a miscount that stays
    inside one drive moves no ledger line)."""
    outputs, report = sim.run()
    image = {
        "outputs": outputs,
        "ledger": report.ledger.summary(),
        "supersteps": [
            (repr(s.phases), repr(s.routing), s.comm_packets, s.message_blocks, s.halted)
            for s in report.supersteps
        ],
        "init_io": report.init_io_ops,
        "output_io": report.output_io_ops,
        "tracks": report.disk_space_tracks,
    }
    if sim.procs is not None:
        image["drives"] = [
            [(d.reads, d.writes, d.high_water) for d in pr.array.disks]
            for pr in sim.procs
        ]
    return image


def ledger_only(image):
    """``golden``'s image less the per-drive tallies, for comparing against a
    process-backend run, whose arrays live and die in the workers."""
    return {key: val for key, val in image.items() if key != "drives"}


class TestSequentialGolden:
    @pytest.mark.parametrize("make", WORKLOADS)
    @pytest.mark.parametrize("seed", [0, 3])
    def test_fast_equals_reference(self, make, seed):
        ref = golden(build(make, 1, seed=seed, **REFERENCE))
        fast = golden(build(make, 1, seed=seed, **FAST))
        assert fast == ref

    def test_fast_equals_reference_with_checkpointing(self):
        ref = golden(build(make_sort, 1, checkpoint=True, **REFERENCE))
        fast = golden(build(make_sort, 1, checkpoint=True, **FAST))
        assert fast == ref

    def test_fast_io_alone_with_checkpointing(self):
        """fast_io without context_cache, under checkpointing: the data-plane
        short-circuit must not disturb what checkpoints read back."""
        ref = golden(build(make_sort, 1, checkpoint=True, **REFERENCE))
        fast = golden(
            build(
                make_sort, 1, checkpoint=True,
                fast_io=True, context_cache=False,
            )
        )
        assert fast == ref

    def test_trace_byte_identical(self):
        """With a trace attached the fast path must take the physical route,
        producing the exact reference operation stream."""
        sims, traces = [], []
        for kwargs in (REFERENCE, FAST):
            sim = build(make_sort, 1, **kwargs)
            traces.append(IOTrace.attach(sim.procs[0].array))
            sims.append(sim)
        ref_g = golden(sims[0])
        fast_g = golden(sims[1])
        assert fast_g == ref_g
        ref_ops, fast_ops = [
            [(op.kind, op.disks, op.tracks, op.retry) for op in t.ops] for t in traces
        ]
        assert fast_ops == ref_ops
        assert traces[0].counts() == traces[1].counts()


class TestParallelGolden:
    @pytest.mark.parametrize("make", WORKLOADS)
    def test_fast_inline_equals_reference(self, make):
        ref = golden(build(make, 4, **REFERENCE))
        fast = golden(build(make, 4, **FAST))
        assert fast == ref

    def test_fast_process_equals_reference(self):
        for make in WORKLOADS:
            ref = golden(build(make, 4, **REFERENCE))
            fast = golden(build(make, 4, backend="process", **FAST))
            assert fast == ledger_only(ref), make.__name__

    def test_context_cache_alone_over_process_backend(self):
        """context_cache without fast_io, with workers in real subprocesses:
        each worker's cache is private, so the counted run must still match
        the inline reference byte for byte."""
        ref = golden(build(make_sort, 4, **REFERENCE))
        cached = golden(
            build(
                make_sort, 4, backend="process",
                context_cache=True, fast_io=False,
            )
        )
        assert cached == ledger_only(ref)

    def test_trace_byte_identical_per_processor(self):
        sims, traces = [], []
        for kwargs in (REFERENCE, FAST):
            sim = build(make_sort, 4, **kwargs)
            traces.append([IOTrace.attach(pr.array) for pr in sim.procs])
            sims.append(sim)
        assert golden(sims[1]) == golden(sims[0])
        for t_ref, t_fast in zip(*traces):
            assert [
                (op.kind, op.disks, op.tracks, op.retry) for op in t_fast.ops
            ] == [(op.kind, op.disks, op.tracks, op.retry) for op in t_ref.ops]


class TestFaultInteraction:
    def test_cache_refused_under_fault_injection(self):
        """The disk image is authoritative when faults can corrupt it."""
        plan = FaultPlan(seed=0, corruption_rate=0.05)
        sim = build(make_sort, 1, faults=plan, retry=RetryPolicy(), **FAST)
        assert sim.procs[0].contexts.cache is False
        assert sim.procs[0].array.fast_data_plane is False

    def test_faulty_run_equal_with_fast_knobs(self):
        """With injection active the knobs are inert: identical runs."""
        def run(**kwargs):
            plan = FaultPlan(seed=1, read_error_rate=0.05, write_error_rate=0.05)
            return golden(
                build(
                    make_sort,
                    1,
                    faults=plan,
                    retry=RetryPolicy(),
                    checkpoint=True,
                    **kwargs,
                )
            )

        assert run(**FAST) == run(**REFERENCE)

    def test_kill_and_resume_under_fast_path(self):
        """A run killed by a dead disk resumes on a fast-path engine: the
        restore must invalidate and then re-warm the context cache."""
        expected = golden(build(make_sort, 1, **REFERENCE))["outputs"]
        plan = FaultPlan(seed=0, dead_disk=0, dead_after=22)
        dying = build(
            make_sort,
            1,
            faults=plan,
            retry=RetryPolicy(max_retries=2),
            checkpoint=True,
            max_recoveries=0,
        )
        with pytest.raises(SimulationAborted) as exc_info:
            dying.run()
        ckpt = exc_info.value.checkpoint
        assert ckpt is not None

        fresh = build(make_sort, 1, checkpoint=True, **FAST)
        outputs, report = fresh.resume_from_checkpoint(ckpt)
        assert outputs == expected
        assert report.faults.resumed_from_step == ckpt.step
        # The restore re-cached every slot; the fast plane is live again.
        assert fresh.procs[0].contexts.cache is True
        assert all(b is not None for b in fresh.procs[0].contexts._cached)
