"""Coverage for the remaining small surfaces: collectives, trace windows,
strict-mode reporting, Sibeyn cells accounting, non-numeric records."""

from repro import workloads
from repro.algorithms import CGMSampleSort
from repro.bsp.collectives import merge_sorted, regular_samples
from repro.bsp.runner import run_reference
from repro.core.simulator import build_params, simulate
from repro.emio.disk import Block
from repro.emio.diskarray import DiskArray
from repro.emio.trace import IOTrace
from repro.params import BSPParams, MachineParams, SimulationParams


class TestCollectivesMisc:
    def test_merge_sorted_plain(self):
        assert merge_sorted([[1, 4], [2, 3], [0]]) == [0, 1, 2, 3, 4]

    def test_merge_sorted_with_key(self):
        runs = [[(3, "c"), (1, "a")][::-1], [(2, "b")]]
        got = merge_sorted(runs, key=lambda t: t[0])
        assert [x[1] for x in got] == ["a", "b", "c"]

    def test_regular_samples_spacing(self):
        samples = regular_samples(list(range(100)), 4)
        # Near-evenly spaced: quantiles at 20, 40, 60, 80.
        assert samples == [20, 40, 60, 80]

    def test_regular_samples_short_input(self):
        assert regular_samples([7], 5) == [7]
        assert regular_samples([], 5) == []


class TestStrictMode:
    def test_check_list_returned(self):
        machine = MachineParams(M=1 << 12, B=16, b=16, D=2)
        params = SimulationParams(
            machine=machine, bsp=BSPParams(v=1 << 10, mu=64, gamma=32), k=4
        )
        checked = params.check_theorem1()
        assert len(checked) == 4
        assert any("slackness" not in c for c in checked)

    def test_strict_end_to_end(self):
        """A configuration satisfying all Theorem 1 conditions runs strict."""
        n, v = 4096, 64
        data = workloads.uniform_keys(n, seed=1)
        alg = CGMSampleSort(data, v)
        machine = MachineParams(
            p=1, M=2 * alg.context_size(), D=2, B=16, b=16
        )
        assert build_params(alg, machine, v, k=2).check_theorem1()
        out, report = simulate(CGMSampleSort(data, v), machine, v=v, k=2, seed=1)
        assert [x for part in out for x in part] == sorted(data)


class TestNonNumericRecords:
    def test_sort_strings_through_em(self):
        rng_words = [f"w{i:04d}" for i in workloads.random_permutation(256, seed=2)]
        alg = CGMSampleSort(rng_words, 4)
        machine = MachineParams(p=1, M=2 * alg.context_size(), D=2, B=32, b=32)
        out, _ = simulate(CGMSampleSort(rng_words, 4), machine, v=4)
        assert [x for part in out for x in part] == sorted(rng_words)

    def test_tuples_with_key(self):
        data = [(i % 5, f"item{i}") for i in range(64)]
        out, _ = run_reference(CGMSampleSort(data, 4, key=lambda t: t[0]), 4)
        flat = [x for part in out for x in part]
        assert [t[0] for t in flat] == sorted(t[0] for t in data)


class TestTraceWindows:
    def test_render_start_offset(self):
        array = DiskArray(D=2, B=8)
        trace = IOTrace.attach(array)
        for t in range(10):
            array.parallel_write([(t % 2, t, Block(records=[]))])
        text = trace.render(start=8, width=5)
        assert "ops 8..10 of 10" in text

    def test_empty_trace_renders(self):
        array = DiskArray(D=2, B=8)
        trace = IOTrace.attach(array)
        assert "utilization 0%" in trace.render()


class TestSibeynCellsAccounting:
    def test_cells_charged_per_cell(self):
        from .helpers import AllToAllExchange
        from repro.baselines import SibeynKaufmannSimulation

        machine = MachineParams(p=1, M=4096, D=2, B=16, b=16)
        sim = SibeynKaufmannSimulation(AllToAllExchange(), 4, machine, mode="cells")
        _, stats = sim.run()
        # Every non-empty (src, dst) cell transfer charges ceil(3*mu/B).
        cell_blocks = -(-3 * AllToAllExchange().context_size() // 16)
        assert stats.cell_blocks_charged % cell_blocks == 0
        assert stats.cell_blocks_charged >= 16 * cell_blocks  # 4x4 sends

    def test_io_ops_match_disk_accesses(self):
        from .helpers import TotalExchangeSum
        from repro.baselines import SibeynKaufmannSimulation

        machine = MachineParams(p=1, M=1 << 13, D=4, B=16, b=16)
        sim = SibeynKaufmannSimulation(TotalExchangeSum(), 4, machine)
        _, stats = sim.run()
        assert sim.array.parallel_ops == stats.io_ops


class TestDiskArrayStats:
    def test_used_and_high_water_per_disk(self):
        array = DiskArray(D=3, B=8)
        array.parallel_write([(0, 5, Block(records=[])), (2, 1, Block(records=[]))])
        assert array.used_tracks_per_disk == [1, 0, 1]
        assert array.high_water_per_disk == [5, -1, 1]
        assert array.total_accesses == 2
        array.reset_stats()
        assert array.parallel_ops == 0 and array.total_accesses == 0
