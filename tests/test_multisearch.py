"""Tests for CGM multisearch and the direct EM batched-search baseline."""

import bisect

import pytest

from repro import workloads
from repro.algorithms import CGMMultisearch
from repro.baselines import EMBatchedSearch
from repro.bsp.runner import run_reference
from repro.core.simulator import simulate
from repro.params import MachineParams

MACHINE = MachineParams(p=1, M=1 << 14, D=4, B=32, b=32)


def oracle(keys, queries):
    return [bisect.bisect_right(keys, q) - 1 for q in queries]


def collect(outputs):
    got = {}
    for part in outputs:
        got.update(dict(part))
    return got


class TestCGMMultisearch:
    @pytest.mark.parametrize("n,m,v", [(16, 8, 4), (200, 60, 4), (128, 128, 8)])
    def test_matches_oracle(self, n, m, v):
        keys = sorted(workloads.uniform_keys(n, seed=n, hi=10 * n))
        queries = workloads.uniform_keys(m, seed=m + 1, hi=11 * n)
        out, _ = run_reference(CGMMultisearch(keys, queries, v), v)
        got = collect(out)
        want = oracle(keys, queries)
        assert [got[i] for i in range(m)] == want

    def test_queries_below_all_keys(self):
        keys = [10, 20, 30, 40]
        out, _ = run_reference(CGMMultisearch(keys, [1, 5, 9], 2), 2)
        got = collect(out)
        assert [got[i] for i in range(3)] == [-1, -1, -1]

    def test_queries_at_and_above_keys(self):
        keys = [10, 20, 30, 40]
        out, _ = run_reference(CGMMultisearch(keys, [10, 40, 99], 2), 2)
        got = collect(out)
        assert [got[i] for i in range(3)] == [0, 3, 3]

    def test_duplicate_keys(self):
        keys = [5, 5, 5, 7, 7, 9]
        out, _ = run_reference(CGMMultisearch(keys, [5, 6, 7, 9], 2), 2)
        got = collect(out)
        assert [got[i] for i in range(4)] == [2, 2, 4, 5]

    def test_rejects_unsorted_keys(self):
        with pytest.raises(ValueError):
            CGMMultisearch([3, 1, 2], [1], 2)

    def test_lambda_is_log_n(self):
        n = 1024
        keys = list(range(n))
        queries = [3, 700, 1023]
        _, ledger = run_reference(CGMMultisearch(keys, queries, 4), 4)
        # Theta(log n) supersteps — the sublinear regime of Section 7.
        assert n.bit_length() - 2 <= ledger.num_supersteps <= n.bit_length() + 3

    def test_em_sequential_matches(self):
        keys = sorted(workloads.uniform_keys(100, seed=4, hi=1000))
        queries = workloads.uniform_keys(40, seed=5, hi=1100)
        out, report = simulate(CGMMultisearch(keys, queries, 4), MACHINE, v=4, k=1)
        got = collect(out)
        assert [got[i] for i in range(40)] == oracle(keys, queries)
        assert report.io_ops > 0

    def test_em_parallel_matches(self):
        keys = sorted(workloads.uniform_keys(64, seed=6, hi=1000))
        queries = workloads.uniform_keys(24, seed=7, hi=1100)
        machine = MachineParams(p=2, M=1 << 14, D=2, B=32, b=32)
        out, _ = simulate(CGMMultisearch(keys, queries, 4), machine, v=4, k=2)
        got = collect(out)
        assert [got[i] for i in range(24)] == oracle(keys, queries)


class TestEMBatchedSearch:
    @pytest.mark.parametrize("n,m", [(16, 8), (300, 100), (64, 200)])
    def test_matches_oracle(self, n, m):
        keys = sorted(workloads.uniform_keys(n, seed=n * 3, hi=10 * n))
        queries = workloads.uniform_keys(m, seed=m * 5, hi=11 * n)
        ans, stats = EMBatchedSearch(MACHINE).search(keys, queries)
        assert ans == oracle(keys, queries)
        assert stats.io_ops > 0

    def test_empty_queries(self):
        ans, _ = EMBatchedSearch(MACHINE).search([1, 2, 3], [])
        assert ans == []

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            EMBatchedSearch(MACHINE).search([2, 1], [1])

    def test_single_scan_io(self):
        """The baseline's key-scan I/O is one pass: <= ~n/(DB) + sort(m)."""
        n, m = 4096, 64
        keys = list(range(n))
        queries = list(range(0, n, n // m))[:m]
        _, stats = EMBatchedSearch(MACHINE).search(keys, queries)
        one_scan = n / (MACHINE.D * MACHINE.B)
        assert stats.io_ops <= 4 * one_scan + 64
