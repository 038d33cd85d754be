"""Unit tests for core components: ContextStore, stats, report bounds."""

import pytest

from repro.core.context import ContextStore
from repro.core.stats import PhaseBreakdown, SimulationReport, SuperstepReport
from repro.core.routing import RoutingStats
from repro.costs import CostLedger
from repro.emio.disk import DiskError
from repro.emio.diskarray import DiskArray
from repro.emio.layout import RegionAllocator
from repro.params import BSPParams, MachineParams, SimulationParams


def make_store(nslots=4, mu=256, B=16, D=2):
    array = DiskArray(D, B)
    alloc = RegionAllocator(array)
    return array, ContextStore(array, alloc, nslots, mu, B)


class TestContextStore:
    def test_save_load_roundtrip(self):
        _, store = make_store()
        store.save_group([0], [{"a": [1, 2, 3]}])
        store.save_group([3], [("x", 4.5)])
        assert store.load_group([0])[0] == {"a": [1, 2, 3]}
        assert store.load_group([3])[0] == ("x", 4.5)

    def test_group_roundtrip(self):
        _, store = make_store()
        states = [{"pid": i, "data": list(range(i * 3))} for i in range(4)]
        store.save_group(range(4), states)
        assert store.load_group(range(4)) == states

    def test_only_used_blocks_transferred(self):
        array, store = make_store(mu=1024, B=16)
        store.save_group([0], [7])  # tiny context: one block
        array.reset_stats()
        store.load_group([0])[0]
        assert array.parallel_ops == 1

    def test_shrinking_context_reads_correctly(self):
        _, store = make_store(mu=1024)
        store.save_group([1], [list(range(500))])  # many blocks
        store.save_group([1], ["small"])  # fewer blocks; stale ones must be ignored
        assert store.load_group([1])[0] == "small"

    def test_mu_enforced(self):
        _, store = make_store(mu=8)
        with pytest.raises(DiskError):
            store.save_group([0], [list(range(10_000))])

    def test_area_preallocated(self):
        array, store = make_store(nslots=8, mu=256, B=16, D=2)
        # ceil(256/16) = 16 blocks per context, 8 slots over 2 disks.
        assert store.tracks_per_disk == 8 * 16 // 2


def make_report(io_per_step=(10, 20)):
    machine = MachineParams(p=1, M=1024, D=2, B=16, G=3.0)
    params = SimulationParams(
        machine=machine, bsp=BSPParams(v=8, mu=64, gamma=32), k=2
    )
    ledger = CostLedger(machine)
    report = SimulationReport(params=params, ledger=ledger)
    for i, io in enumerate(io_per_step):
        ledger.begin_superstep()
        ledger.charge_io(io)
        report.supersteps.append(
            SuperstepReport(
                index=i,
                phases=PhaseBreakdown(fetch_context=io),
                routing=RoutingStats(total_blocks=5, max_load_ratio=1.0 + i),
            )
        )
    ledger.close()
    return report


class TestSimulationReport:
    def test_io_totals(self):
        report = make_report()
        assert report.io_ops == 30
        assert report.io_time == 90.0  # G = 3
        assert report.num_supersteps == 2

    def test_max_load_ratio_is_worst(self):
        assert make_report().max_load_ratio == 2.0

    def test_theoretical_bound(self):
        report = make_report()
        # lambda * (v/p) * mu / (B*D) = 2 * 8 * 64 / 32 = 32.
        assert report.theoretical_io_bound() == 32.0
        assert report.io_efficiency() == pytest.approx(30 / 32)

    def test_summary_keys(self):
        s = make_report().summary()
        assert {"io_ops_supersteps", "theory_io_bound", "max_load_ratio"} <= set(s)

    def test_phase_breakdown_total(self):
        ph = PhaseBreakdown(
            fetch_context=1, fetch_messages=2, write_messages=3,
            write_context=4, reorganize=5,
        )
        assert ph.total == 15
