"""Tests for Group A CGM algorithms: sorting, permutation, matrix transpose.

Each algorithm is checked (a) for correctness on the reference runner,
(b) for transparency through both EM engines, and (c) for its CGM round
structure (lambda = O(1) supersteps).
"""

import pytest

from repro import workloads
from repro.algorithms import CGMMatrixTranspose, CGMPermutation, CGMSampleSort
from repro.bsp.runner import run_reference
from repro.core.simulator import simulate
from repro.params import MachineParams


def flat(outputs):
    return [x for part in outputs for x in part]


SMALL_MACHINE = MachineParams(p=1, M=1 << 15, D=2, B=32, b=32)
PAR_MACHINE = MachineParams(p=2, M=1 << 15, D=2, B=32, b=32)


class TestSampleSort:
    @pytest.mark.parametrize("n,v", [(16, 4), (100, 4), (256, 8), (64, 8)])
    def test_sorts_reference(self, n, v):
        data = workloads.uniform_keys(n, seed=n + v)
        out, ledger = run_reference(CGMSampleSort(data, v), v)
        assert flat(out) == sorted(data)

    def test_constant_supersteps(self):
        data = workloads.uniform_keys(100, seed=1)
        _, ledger = run_reference(CGMSampleSort(data, 4), 4)
        assert ledger.num_supersteps == CGMSampleSort.LAMBDA

    def test_duplicates(self):
        data = [5] * 30 + [3] * 30 + [9] * 40
        out, _ = run_reference(CGMSampleSort(data, 4), 4)
        assert flat(out) == sorted(data)

    def test_already_sorted(self):
        data = list(range(64))
        out, _ = run_reference(CGMSampleSort(data, 4), 4)
        assert flat(out) == data

    def test_reverse_sorted(self):
        data = list(range(64, 0, -1))
        out, _ = run_reference(CGMSampleSort(data, 4), 4)
        assert flat(out) == sorted(data)

    def test_with_key(self):
        data = [(-x, x) for x in range(32)]
        out, _ = run_reference(CGMSampleSort(data, 4, key=lambda t: t[1]), 4)
        assert flat(out) == sorted(data, key=lambda t: t[1])

    def test_requires_coarseness(self):
        with pytest.raises(ValueError):
            CGMSampleSort([1, 2, 3], v=4)

    def test_em_sequential_matches(self):
        data = workloads.uniform_keys(128, seed=3)
        out, report = simulate(CGMSampleSort(data, 4), SMALL_MACHINE, v=4, k=1, seed=9)
        assert flat(out) == sorted(data)
        assert report.io_ops > 0

    def test_em_parallel_matches(self):
        data = workloads.uniform_keys(128, seed=4)
        out, _ = simulate(CGMSampleSort(data, 4), PAR_MACHINE, v=4, k=2, seed=9)
        assert flat(out) == sorted(data)

    def test_balance_bound(self):
        # Regular sampling: no vp receives more than ~2n/v items.
        data = workloads.uniform_keys(400, seed=5)
        v = 4
        out, _ = run_reference(CGMSampleSort(data, v), v)
        assert max(len(part) for part in out) <= 2 * (400 // v) + v


class TestPermutation:
    @pytest.mark.parametrize("n,v", [(32, 4), (100, 4), (128, 8)])
    def test_random_permutation(self, n, v):
        vals = [f"x{i}" for i in range(n)]
        perm = workloads.random_permutation(n, seed=n)
        out, _ = run_reference(CGMPermutation(vals, perm, v), v)
        y = flat(out)
        assert all(y[perm[i]] == vals[i] for i in range(n))

    def test_identity(self):
        vals = list(range(40))
        out, _ = run_reference(CGMPermutation(vals, list(range(40)), 4), 4)
        assert flat(out) == vals

    def test_reversal(self):
        n, v = 64, 4
        vals = list(range(n))
        out, _ = run_reference(
            CGMPermutation(vals, workloads.reversing_permutation(n), v), v
        )
        assert flat(out) == vals[::-1]

    def test_bit_reversal(self):
        perm = workloads.bit_reversal_permutation(6)
        n = len(perm)
        vals = list(range(n))
        out, _ = run_reference(CGMPermutation(vals, perm, 4), 4)
        y = flat(out)
        assert all(y[perm[i]] == i for i in range(n))

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            CGMPermutation([1, 2], [0, 0], 2)

    def test_constant_supersteps(self):
        perm = workloads.random_permutation(64, seed=0)
        _, ledger = run_reference(CGMPermutation(list(range(64)), perm, 4), 4)
        assert ledger.num_supersteps == CGMPermutation.LAMBDA

    def test_em_sequential_matches(self):
        n, v = 96, 4
        perm = workloads.random_permutation(n, seed=7)
        vals = list(range(1000, 1000 + n))
        out, _ = simulate(CGMPermutation(vals, perm, v), SMALL_MACHINE, v=v)
        y = flat(out)
        assert all(y[perm[i]] == vals[i] for i in range(n))

    def test_em_parallel_matches(self):
        n, v = 96, 4
        perm = workloads.random_permutation(n, seed=8)
        vals = list(range(n))
        out, _ = simulate(CGMPermutation(vals, perm, v), PAR_MACHINE, v=v, k=2)
        y = flat(out)
        assert all(y[perm[i]] == vals[i] for i in range(n))


class TestMatrixTranspose:
    @pytest.mark.parametrize("r,c,v", [(8, 8, 4), (4, 16, 4), (16, 4, 8), (5, 7, 5)])
    def test_transpose(self, r, c, v):
        entries = workloads.matrix_entries(r, c, seed=r * c)
        out, _ = run_reference(CGMMatrixTranspose(entries, r, c, v), v)
        got = flat(out)
        for row in range(r):
            for col in range(c):
                assert got[col * r + row] == entries[row * c + col]

    def test_single_row(self):
        entries = list(range(12))
        out, _ = run_reference(CGMMatrixTranspose(entries, 1, 12, 4), 4)
        assert flat(out) == entries  # 1 x c transpose = same sequence

    def test_wrong_entry_count_rejected(self):
        with pytest.raises(ValueError):
            CGMMatrixTranspose([1, 2, 3], 2, 2, 2)

    def test_constant_supersteps(self):
        entries = workloads.matrix_entries(8, 8, seed=0)
        _, ledger = run_reference(CGMMatrixTranspose(entries, 8, 8, 4), 4)
        assert ledger.num_supersteps == CGMMatrixTranspose.LAMBDA

    def test_em_sequential_matches(self):
        r, c, v = 8, 12, 4
        entries = workloads.matrix_entries(r, c, seed=2)
        out, _ = simulate(CGMMatrixTranspose(entries, r, c, v), SMALL_MACHINE, v=v)
        got = flat(out)
        for row in range(r):
            for col in range(c):
                assert got[col * r + row] == entries[row * c + col]

    def test_em_parallel_matches(self):
        r, c, v = 8, 8, 4
        entries = workloads.matrix_entries(r, c, seed=3)
        out, _ = simulate(
            CGMMatrixTranspose(entries, r, c, v), PAR_MACHINE, v=v, k=2
        )
        got = flat(out)
        for row in range(r):
            for col in range(c):
                assert got[col * r + row] == entries[row * c + col]

    def test_double_transpose_is_identity(self):
        r, c, v = 6, 10, 4
        entries = workloads.matrix_entries(r, c, seed=4)
        out1, _ = run_reference(CGMMatrixTranspose(entries, r, c, v), v)
        out2, _ = run_reference(CGMMatrixTranspose(flat(out1), c, r, v), v)
        assert flat(out2) == entries
