"""Unit tests for parameters (S1) and the cost model."""

import pytest

from repro.costs import CostLedger, SuperstepCost, packets_for
from repro.params import (
    BSPParams,
    MachineParams,
    ParameterError,
    SimulationParams,
    log_MB,
)


class TestMachineParams:
    def test_defaults_valid(self):
        m = MachineParams()
        assert m.p == 1 and m.M >= m.D * m.B

    def test_memory_must_hold_one_block_per_disk(self):
        with pytest.raises(ParameterError):
            MachineParams(M=16, D=4, B=8)

    @pytest.mark.parametrize("field,value", [("p", 0), ("D", 0), ("B", 0), ("b", 0)])
    def test_positive_fields(self, field, value):
        with pytest.raises(ParameterError):
            MachineParams(**{field: value})

    def test_negative_costs_rejected(self):
        with pytest.raises(ParameterError):
            MachineParams(G=-1)

    def test_io_bandwidth(self):
        assert MachineParams(D=4, B=16, M=128).io_bandwidth == 64

    def test_with_(self):
        m = MachineParams(D=2, B=16, M=1024)
        m2 = m.with_(D=4)
        assert m2.D == 4 and m2.B == 16 and m.D == 2

    def test_log_MB(self):
        assert log_MB(1024, 64) == 4.0
        assert log_MB(64, 64) == 1.0  # clamped
        with pytest.raises(ParameterError):
            log_MB(0, 4)


class TestSimulationParams:
    def bsp(self, v=16, mu=64, gamma=32):
        return BSPParams(v=v, mu=mu, gamma=gamma)

    def test_default_k_is_memory_bound(self):
        p = SimulationParams(machine=MachineParams(M=256, B=16), bsp=self.bsp(mu=64))
        assert p.k == 4  # floor(256/64), divides 16

    def test_default_k_clamped_to_vpp(self):
        p = SimulationParams(
            machine=MachineParams(M=1 << 20, B=16), bsp=self.bsp(v=8, mu=64)
        )
        assert p.k == 8

    @staticmethod
    def sizes(params):
        return [len(slots) for slots in params.groups]

    @pytest.mark.parametrize("fit,sizes", [(6, [6, 5, 5]), (5, [4, 4, 4, 4])],
                             ids=["6-5-5", "4x4"])
    def test_default_k_is_the_fewest_groups_that_fit(self, fit, sizes):
        """``v/p = 16`` in ``ceil(16/floor(M/mu))`` balanced groups, ``k``
        the largest: 6 fit gives 6, 5, 5 (no divisor of 16 needed), 5 fit
        gives 4x4."""
        p = SimulationParams(
            machine=MachineParams(M=64 * fit, B=16), bsp=self.bsp(v=16, mu=64)
        )
        assert self.sizes(p) == sizes and p.k == sizes[0]
        slots = [s for group in p.groups for s in group]
        assert slots == list(range(16))
        assert [p.group_of_slot(s) for s in slots] == [
            j for j, n in enumerate(sizes) for _ in range(n)]

    def test_explicit_k_validated(self):
        with pytest.raises(ParameterError, match=r"k\*mu=192\) exceeds M=128"):
            SimulationParams(
                machine=MachineParams(M=128, B=16), bsp=self.bsp(mu=64), k=3
            )

    def test_explicit_k_need_not_divide_vpp(self):
        p = SimulationParams(
            machine=MachineParams(M=64 * 3, B=16), bsp=self.bsp(v=16, mu=64), k=3
        )
        assert self.sizes(p) == [3, 3, 3, 3, 2, 2] and p.k == 3
        again = SimulationParams(machine=p.machine, bsp=p.bsp, k=p.k)
        assert self.sizes(again) == self.sizes(p)

    def test_v_must_split_evenly_over_processors(self):
        with pytest.raises(ParameterError, match="multiple of p=3"):
            SimulationParams(machine=MachineParams(p=3, M=1 << 12, B=16), bsp=self.bsp())

    def test_group_must_fit_memory(self):
        with pytest.raises(ParameterError):
            SimulationParams(
                machine=MachineParams(M=128, B=16), bsp=self.bsp(mu=64), k=4
            )

    def test_context_too_big(self):
        with pytest.raises(ParameterError):
            SimulationParams(
                machine=MachineParams(M=128, B=16), bsp=self.bsp(mu=512)
            )

    def test_strict_slackness(self):
        machine = MachineParams(M=256, B=16, D=8)
        with pytest.raises(ParameterError):
            SimulationParams(
                machine=machine, bsp=self.bsp(v=16, mu=64), k=2
            ).check_theorem1()

    def test_strict_accepts_valid(self):
        machine = MachineParams(M=1 << 12, B=16, b=16, D=2)
        bsp = BSPParams(v=1 << 10, mu=64, gamma=32)
        p = SimulationParams(machine=machine, bsp=bsp, k=4)
        assert p.check_theorem1()

    def test_strict_requires_b_ge_B(self):
        machine = MachineParams(M=1 << 12, B=64, b=16, D=1)
        with pytest.raises(ParameterError):
            SimulationParams(
                machine=machine, bsp=BSPParams(v=1 << 10, mu=64, gamma=32), k=2
            ).check_theorem1()

    def test_derived_quantities(self):
        p = SimulationParams(
            machine=MachineParams(M=256, B=16, D=2, p=2),
            bsp=BSPParams(v=32, mu=64, gamma=40),
            k=4,
        )
        assert p.groups_per_processor == 4
        assert p.vps_per_processor == 16
        assert p.context_blocks_per_vp == 4
        assert p.message_blocks_per_vp == 3
        assert p.theoretical_io_ops_per_superstep() == 16 * 64 / 32


class TestCosts:
    def test_packets_for(self):
        assert packets_for(0, 8) == 0
        assert packets_for(1, 8) == 1
        assert packets_for(8, 8) == 1
        assert packets_for(9, 8) == 2

    def test_superstep_total(self):
        m = MachineParams(g=2.0, G=3.0, L=5.0, M=1024, B=16, b=4)
        c = SuperstepCost(comp_ops=10, comm_packets=4, io_ops=2)
        assert c.comm_time(m) == 8.0
        assert c.io_time(m) == 6.0
        assert c.total_time(m) == 10 + 8 + 6 + 5

    def test_comm_floor_L(self):
        m = MachineParams(g=0.1, L=5.0)
        c = SuperstepCost(comm_packets=1)
        assert c.comm_time(m) == 5.0

    def test_zero_comm_free(self):
        m = MachineParams(L=5.0)
        assert SuperstepCost().comm_time(m) == 0.0

    def test_syncs_multiply_L(self):
        m = MachineParams(L=5.0)
        c = SuperstepCost(syncs=3)
        assert c.total_time(m) == 15.0

    def test_ledger_accumulates(self):
        led = CostLedger(MachineParams())
        led.begin_superstep("a")
        led.charge_comp(5)
        led.charge_io(2)
        led.charge_comm_records(100)
        led.begin_superstep("b")
        led.charge_comp(7)
        led.close()
        assert led.num_supersteps == 2
        assert led.total_comp == 12
        assert led.total_io_ops == 2
        assert led.total_comm_packets == packets_for(100, MachineParams().b)

    def test_merge_max(self):
        m = MachineParams()
        a, b = CostLedger(m), CostLedger(m)
        for led, comp in ((a, 5), (b, 9)):
            led.begin_superstep()
            led.charge_comp(comp)
            led.close()
        a.merge_max(b)
        assert a.total_comp == 9

    def test_merge_mismatched_rejected(self):
        m = MachineParams()
        a, b = CostLedger(m), CostLedger(m)
        a.begin_superstep()
        a.close()
        with pytest.raises(ValueError):
            a.merge_max(b)

    def test_summary_keys(self):
        led = CostLedger(MachineParams())
        led.begin_superstep()
        led.close()
        s = led.summary()
        assert {"supersteps", "io_ops", "comm_packets", "total_time"} <= set(s)
