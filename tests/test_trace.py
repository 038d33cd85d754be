"""Tests for the I/O trace recorder/visualizer."""

from repro.bsp.runner import run_reference
from repro.core.simulator import build_params, make_engine
from repro.emio.disk import Block
from repro.emio.diskarray import DiskArray
from repro.emio.trace import IOTrace
from repro.params import MachineParams

from .helpers import AllToAllExchange


class TestIOTrace:
    def test_records_ops(self):
        array = DiskArray(D=4, B=8)
        trace = IOTrace.attach(array)
        array.parallel_write([(0, 0, Block(records=[1])), (1, 0, Block(records=[2]))])
        array.parallel_read([(0, 0)])
        assert len(trace.ops) == 2
        assert trace.ops[0].kind == "W" and trace.ops[0].disks == (0, 1)
        assert trace.ops[1].kind == "R" and trace.ops[1].disks == (0,)

    def test_counting_still_works_through_wrapper(self):
        array = DiskArray(D=2, B=8)
        IOTrace.attach(array)
        array.parallel_write([(0, 0, Block(records=[1]))])
        assert array.parallel_ops == 1

    def test_utilization(self):
        array = DiskArray(D=4, B=8)
        trace = IOTrace.attach(array)
        array.parallel_write([(d, 0, Block(records=[d])) for d in range(4)])
        array.parallel_read([(0, 0)])
        assert trace.utilization() == (4 + 1) / (2 * 4)

    def test_render_shape(self):
        array = DiskArray(D=3, B=8)
        trace = IOTrace.attach(array)
        array.parallel_write([(0, 0, Block(records=[])), (2, 0, Block(records=[]))])
        text = trace.render()
        lines = text.splitlines()
        assert len(lines) == 4  # 3 disks + footer
        assert lines[0].startswith("disk  0 |W|")
        assert lines[1].startswith("disk  1 |.|")

    def test_counts_summary(self):
        array = DiskArray(D=2, B=8)
        trace = IOTrace.attach(array)
        array.parallel_write([(0, 0, Block(records=[]))])
        array.parallel_read([(0, 0), (1, 0)])
        c = trace.counts()
        assert c["ops"] == 2 and c["reads"] == 1 and c["writes"] == 1
        assert c["disk_accesses"] == 3

    def test_trace_full_simulation(self):
        """Attach to a live engine: the simulation's I/O is fully visible."""
        alg = AllToAllExchange()
        machine = MachineParams(p=1, M=2 * alg.context_size(), D=4, B=16, b=16)
        params = build_params(AllToAllExchange(), machine, v=8, k=2)
        sim = make_engine(AllToAllExchange(), params, seed=1)
        proc = sim.procs[0]  # the machine's one processor
        trace = IOTrace.attach(proc.array)
        out, report = sim.run()
        ref, _ = run_reference(AllToAllExchange(), 8)
        assert out == ref
        # Every counted op was traced (init + supersteps + output).
        assert len(trace.ops) == proc.array.parallel_ops
        # Exactly the utilization the counted phases imply.  Every context
        # pickles into one block, and the context region's stride (mu/B = 256
        # blocks a slot, a multiple of D) puts them all on drive 0: a context
        # op moves one block.  Each message block is written once and fetched
        # once, the writes in full cycles of D.
        assert proc.contexts._used == [1] * 8
        ctx_ops = report.init_io_ops + report.output_io_ops + sum(
            s.phases.fetch_context + s.phases.write_context for s in report.supersteps
        )
        moved = ctx_ops + 2 * sum(s.message_blocks for s in report.supersteps)
        assert trace.utilization() == moved / (4 * proc.array.parallel_ops)
        assert trace.counts()["disk_accesses"] == moved == 68

    def test_limit_stops_recording(self):
        array = DiskArray(D=1, B=8)
        trace = IOTrace.attach(array, limit=3)
        for t in range(5):
            array.parallel_write([(0, t, Block(records=[]))])
        assert len(trace.ops) == 3
        assert array.parallel_ops == 5  # counting unaffected

    def test_dropped_ops_counted_and_flagged(self):
        array = DiskArray(D=1, B=8)
        trace = IOTrace.attach(array, limit=3)
        for t in range(5):
            array.parallel_write([(0, t, Block(records=[]))])
        assert trace.dropped == 2
        c = trace.counts()
        assert c["ops"] == 3 and c["dropped"] == 2
        assert "(2 ops dropped past limit)" in trace.render()
        # An untruncated trace carries no noise in the footer.
        clean = IOTrace.attach(DiskArray(D=1, B=8))
        assert clean.dropped == 0 and "dropped" not in clean.render()

    def test_detach_restores_array(self):
        array = DiskArray(D=2, B=8, fast_io=True)
        orig_read = array._attempt_read
        orig_write = array._attempt_write
        assert array.fast_data_plane is True
        trace = IOTrace.attach(array)
        assert array.hooked is True and array.fast_data_plane is False
        array.parallel_write([(0, 0, Block(records=[1]))])
        trace.detach()
        assert array.hooked is False and array.fast_data_plane is True
        assert array._attempt_read == orig_read
        assert array._attempt_write == orig_write
        # Post-detach operations are executed and counted but not recorded.
        array.parallel_read([(0, 0)])
        assert len(trace.ops) == 1 and array.parallel_ops == 2
        trace.detach()  # idempotent
        IOTrace(D=2).detach()  # never-attached detach is safe

    def test_context_manager_detaches(self):
        array = DiskArray(D=2, B=8)
        with IOTrace.attach(array) as trace:
            array.parallel_write([(0, 0, Block(records=[1]))])
            assert array.hooked is True
        assert array.hooked is False
        assert len(trace.ops) == 1
        array.parallel_read([(0, 0)])
        assert len(trace.ops) == 1  # no longer recording


class TestFaultTracing:
    def test_retried_ops_recorded_distinctly(self):
        """Retry rounds appear as separate trace entries with retry=True,
        rendered lowercase, and counted in counts()['retries']."""
        from repro.emio.faults import FaultPlan

        plan = FaultPlan(seed=0, read_error_rate=0.5)
        array = DiskArray(D=2, B=8, faults=plan)
        trace = IOTrace.attach(array)
        array.parallel_write([(0, 0, Block(records=[1])), (1, 0, Block(records=[2]))])
        for _ in range(20):
            got = array.parallel_read([(0, 0), (1, 0)])
            assert [b.records for b in got] == [[1], [2]]
        c = trace.counts()
        assert c["retries"] > 0
        assert array.retry_reads == c["retries"] - array.retry_writes
        # Trace sees every physical attempt, not just logical operations.
        assert c["ops"] == array.parallel_ops
        retried = [op for op in trace.ops if op.retry]
        assert all(op.kind in ("R", "W") for op in retried)
        assert "r" in trace.render()  # lowercase marks the retry rounds

    def test_fresh_and_retry_rounds_never_mixed(self):
        from repro.emio.faults import FaultPlan

        plan = FaultPlan(seed=1, read_error_rate=0.4, write_error_rate=0.4)
        array = DiskArray(D=4, B=8, faults=plan)
        trace = IOTrace.attach(array)
        for t in range(10):
            array.parallel_write([(d, t, Block(records=[d])) for d in range(4)])
            array.parallel_read([(d, t) for d in range(4)])
        # A retry round only re-touches disks whose access failed, so it can
        # never be wider than the fresh round that spawned it.
        for op in trace.ops:
            if op.retry:
                assert len(op.disks) <= 4

    def test_utilization_in_degraded_mode(self):
        """With one dead drive, a 4-slot logical write takes two physical
        rounds over 3 survivors: utilization reflects the real occupancy."""
        from repro.emio.faults import DataLossError, FaultPlan

        import pytest

        plan = FaultPlan(seed=0, dead_disk=3, dead_after=0)
        array = DiskArray(D=4, B=8, faults=plan)
        with pytest.raises(DataLossError):
            array.parallel_read([(3, 0)])  # kills the drive
        trace = IOTrace.attach(array)
        array.parallel_write([(d, 1, Block(records=[d])) for d in range(4)])
        # 4 logical targets on 3 survivors: one full round of 3 + one of 1.
        assert len(trace.ops) == 2
        assert sorted(len(op.disks) for op in trace.ops) == [1, 3]
        assert trace.utilization() == (3 + 1) / (2 * 4)
        for op in trace.ops:
            assert 3 not in op.disks  # the dead drive never participates
