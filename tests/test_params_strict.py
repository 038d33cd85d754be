"""Theorem 1 side conditions, each violated in isolation.

``SimulationParams.check_theorem1()`` enforces the four side conditions of
Theorem 1.  Each test here builds a configuration that satisfies three of
them and breaks exactly one, so a regression in any single check (or in
the order they run) is pinned to its own test.  The happy path asserts
the ``checked`` list names all four, so a silently skipped condition also
fails loudly.  Every rejection must carry the full parameter tuple
(``describe()``) so a failing config is self-describing — the conformance
fuzzer's repro cases rely on that.
"""

import pytest

from repro.params import (
    BSPParams,
    MachineParams,
    ParameterError,
    SimulationParams,
)


def params(machine, v, mu, k=1, strict=True):
    sp = SimulationParams(machine=machine, bsp=BSPParams(v=v, mu=mu, gamma=mu), k=k)
    if strict:
        sp.check_theorem1()
    return sp


class TestEachConditionInIsolation:
    def test_slackness_violated_alone(self):
        # log(M/B) = log2(256) = 8, so k*p*D*log(M/B) = 32 > v = 4.
        # b=16 >= B=16; p=1 skips M/B >= p^eps; b*log(M/B) = 128 <= 4M.
        machine = MachineParams(p=1, M=4096, D=4, B=16, b=16)
        with pytest.raises(ParameterError, match="slackness violated") as ei:
            params(machine, v=4, mu=16)
        assert "v=4" in str(ei.value)
        assert "k*p*D*log(M/B)=32.0" in str(ei.value)

    def test_packet_smaller_than_block_alone(self):
        # log(M/B) = log2(32) = 5, slack = 5 <= v = 8; b*log(M/B) = 80 <= 4M.
        machine = MachineParams(p=1, M=1024, D=1, B=32, b=16)
        with pytest.raises(
            ParameterError, match="packet size b=16 must be >= block size B=32"
        ):
            params(machine, v=8, mu=16)

    def test_memory_too_small_for_p_alone(self):
        # M/B = 1 < p^0.5 = 2.  log(M/B) = 0 kills the slackness and
        # b*log(M/B) terms, and b=64 >= B=64.
        machine = MachineParams(p=4, M=64, D=1, B=64, b=64)
        with pytest.raises(ParameterError, match=r"M/B=1\.0 < p\^eps=2\.0"):
            params(machine, v=4, mu=16)

    def test_memory_condition_skipped_for_single_processor(self):
        # The same M/B = 1 is fine on p=1: the condition is p > 1 only.
        machine = MachineParams(p=1, M=64, D=1, B=64, b=64)
        sp = params(machine, v=4, mu=16)
        assert sp.check_theorem1()

    def test_packet_log_term_not_linear_in_M_alone(self):
        # b*log(M/B) = 64*4 = 256 > 4M = 64; slack = 4 <= v = 4; b >= B = 1.
        machine = MachineParams(p=1, M=16, D=1, B=1, b=64)
        with pytest.raises(
            ParameterError, match=r"b\*log\(M/B\)=256 must be O\(M\)=16"
        ):
            params(machine, v=4, mu=4)


class TestHappyPath:
    def test_checked_list_names_all_four_conditions(self):
        machine = MachineParams(p=2, M=4096, D=2, B=16, b=16)
        sp = params(machine, v=32, mu=16)
        checked = sp.check_theorem1()
        assert len(checked) == 4
        assert checked[0].startswith("v >= k*p*D*log(M/B)")
        assert checked[1].startswith("b >= B")
        assert checked[2] == "M/B >= p^eps"
        assert checked[3] == "b*log(M/B) = O(M)"

    def test_strict_false_accepts_the_same_violations(self):
        machine = MachineParams(p=1, M=4096, D=4, B=16, b=16)
        sp = params(machine, v=4, mu=16, strict=False)
        assert sp.k == 1  # structurally valid, just not Theorem-1-sized


class TestSelfDescribingErrors:
    def test_theorem1_rejection_carries_full_tuple(self):
        machine = MachineParams(p=1, M=4096, D=4, B=16, b=16)
        with pytest.raises(ParameterError) as ei:
            params(machine, v=4, mu=16)
        msg = str(ei.value)
        assert "[machine(p=1, M=4096, D=4, B=16, b=16" in msg
        assert "bsp(v=4, mu=16, gamma=16) k=1]" in msg

    def test_structural_rejection_carries_full_tuple(self):
        machine = MachineParams(p=1, M=64, D=1, B=16, b=16)
        with pytest.raises(ParameterError) as ei:
            params(machine, v=4, mu=128, k=None, strict=False)
        msg = str(ei.value)
        assert "cannot hold one virtual context" in msg
        assert "[machine(p=1, M=64, D=1, B=16, b=16" in msg
