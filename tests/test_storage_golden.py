"""Golden equivalence suite for the block-storage planes.

Counted I/O is defined by the model and charged before any data moves
(DESIGN §8), so *where* block images live — heap dicts, pread/pwrite track
files, or mmap — must be invisible to everything the model counts: outputs,
the cost ledger, per-superstep phase breakdowns, routing statistics, and
the physical I/O trace.  These tests pin that invariant over the same
matrix as ``test_fastpath_golden.py``: p = 1 and p = 4 x backends x
fast-path knobs x fault injection x checkpoint/kill-resume, for each
non-memory plane.
"""

import pytest

from repro.core.checkpoint import SimulationAborted
from repro.emio.faults import FaultPlan, RetryPolicy
from repro.emio.trace import IOTrace

from repro.conform import REFERENCE

from .test_fastpath_golden import (
    FAST,
    WORKLOADS,
    build,
    golden,
    ledger_only,
    make_sort,
)

PLANES = ("file", "mmap")


class TestSequentialPlanes:
    @pytest.mark.parametrize("make", WORKLOADS)
    @pytest.mark.parametrize("plane", PLANES)
    def test_plane_equals_memory(self, make, plane):
        ref = golden(build(make, 1, **REFERENCE))
        got = golden(build(make, 1, storage=plane))
        assert got == ref

    @pytest.mark.parametrize("plane", PLANES)
    def test_plane_with_fast_knobs(self, plane):
        ref = golden(build(make_sort, 1, **REFERENCE))
        got = golden(build(make_sort, 1, storage=plane, **FAST))
        assert got == ref

    @pytest.mark.parametrize("plane", PLANES)
    def test_plane_with_checkpointing(self, plane):
        ref = golden(build(make_sort, 1, checkpoint=True, **REFERENCE))
        got = golden(build(make_sort, 1, checkpoint=True, storage=plane))
        assert got == ref

    @pytest.mark.parametrize("plane", PLANES)
    def test_trace_byte_identical(self, plane):
        """The physical operation stream itself is plane-independent."""
        sims, traces = [], []
        for kwargs in (REFERENCE, {"storage": plane}):
            sim = build(make_sort, 1, **kwargs)
            traces.append(IOTrace.attach(sim.procs[0].array))
            sims.append(sim)
        assert golden(sims[1]) == golden(sims[0])
        ref_ops, got_ops = [
            [(op.kind, op.disks, op.tracks, op.retry) for op in t.ops] for t in traces
        ]
        assert got_ops == ref_ops
        assert traces[0].counts() == traces[1].counts()


class TestParallelPlanes:
    @pytest.mark.parametrize("make", WORKLOADS)
    @pytest.mark.parametrize("plane", PLANES)
    def test_plane_inline_equals_memory(self, make, plane):
        ref = golden(build(make, 4, **REFERENCE))
        got = golden(build(make, 4, storage=plane))
        assert got == ref

    @pytest.mark.parametrize("plane", PLANES)
    def test_plane_over_process_backend(self, plane):
        """Each worker claims its own per-processor storage subdirectory;
        the counted run must still match the inline memory reference."""
        for make in WORKLOADS:
            ref = golden(build(make, 4, **REFERENCE))
            got = golden(build(make, 4, backend="process", storage=plane))
            assert got == ledger_only(ref), make.__name__

    def test_plane_process_fast_knobs_together(self):
        ref = golden(build(make_sort, 4, **REFERENCE))
        got = golden(
            build(make_sort, 4, backend="process", storage="file", **FAST)
        )
        assert got == ledger_only(ref)


class TestFaultsOnPlanes:
    @pytest.mark.parametrize("plane", PLANES)
    def test_transient_faults_identical(self, plane):
        """The fault stream is drawn per counted op, so injected faults and
        retries land identically on every plane."""
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

        assert run(storage=plane) == run(**REFERENCE)

    @pytest.mark.parametrize("plane", PLANES)
    def test_corruption_detected_on_plane(self, plane):
        """Checksummed corruption must stay observable through the file
        round-trip (images are re-pickled, not shared objects)."""
        def run(**kwargs):
            plan = FaultPlan(seed=3, corruption_rate=0.05)
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

        assert run(storage=plane) == run(**REFERENCE)

    @pytest.mark.parametrize("plane", PLANES)
    def test_kill_and_resume_onto_plane(self, plane):
        """A run killed on the memory plane resumes onto a file/mmap engine
        via the portable checkpoint blobs (different root: no re-attach)."""
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

        fresh = build(make_sort, 1, checkpoint=True, storage=plane)
        outputs, report = fresh.resume_from_checkpoint(ckpt)
        assert outputs == expected
        assert report.faults.resumed_from_step == ckpt.step

    @pytest.mark.parametrize("plane", PLANES)
    def test_kill_on_plane_resume_on_memory(self, plane):
        """The reverse direction: checkpoints taken on a non-memory plane
        stay portable (the pickled state blobs are plane-independent)."""
        expected = golden(build(make_sort, 1, **REFERENCE))["outputs"]
        plan = FaultPlan(seed=0, dead_disk=0, dead_after=22)
        dying = build(
            make_sort,
            1,
            faults=plan,
            retry=RetryPolicy(max_retries=2),
            checkpoint=True,
            max_recoveries=0,
            storage=plane,
        )
        with pytest.raises(SimulationAborted) as exc_info:
            dying.run()
        ckpt = exc_info.value.checkpoint
        assert ckpt is not None

        fresh = build(make_sort, 1, checkpoint=True)
        outputs, report = fresh.resume_from_checkpoint(ckpt)
        assert outputs == expected
        assert report.faults.resumed_from_step == ckpt.step


class TestObservability:
    @pytest.mark.parametrize("plane", PLANES)
    def test_storage_byte_counters_flow(self, plane):
        """Non-memory planes report moved bytes; the memory plane stays 0."""
        sim = build(make_sort, 1, storage=plane)
        sim.run()
        assert sim.procs[0].array.storage_read_bytes > 0
        assert sim.procs[0].array.storage_write_bytes > 0

    def test_memory_plane_counters_zero(self):
        sim = build(make_sort, 1)
        sim.run()
        assert sim.procs[0].array.storage_read_bytes == 0
        assert sim.procs[0].array.storage_write_bytes == 0
