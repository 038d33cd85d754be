"""The vector record plane (DESIGN §10).

The input picks the plane: int64 input runs the vector kernels, anything
else the list-state path.  The vector plane must be *invisible to the
model*: its outputs equal the list-state path's on the same values
(``test_vector_flavour.py``, and the digests here), and its counted columns are the ones the object plane committed (the
equivalence harness's ``GOLDEN``, ``tests/test_plane_equivalence.py``, which
also holds them across machines, backends and storage kinds).  These tests
pin the outputs, the eligibility gate, the exact numpy <-> pure-Python
kernel equivalences the algorithm ports rely on, and the plumbing the plane
rides on (ndarray-aware blocks, batched track writes, coalesced frame
verification, ndarray fault corruption).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms._vec import (
    int64_array,
    owners_of_indices,
    sample_positions,
)
from repro.algorithms.permutation import CGMPermutation
from repro.algorithms.sorting import CGMSampleSort
from repro.bsp.collectives import (
    owner_of_index,
    regular_samples,
    share_bounds,
)
from repro.bsp.program import AlgorithmError
from repro.bsp.runner import run_reference
from repro.core import simulate
from repro.emio.disk import Block
from repro.emio.faults import _corrupted_copy, block_checksum
from repro.emio.storage import FileStorage, verify_extents
from repro.outofcore import OutOfCoreSort, share_stream, verify_digests
from repro.params import MachineParams

from .helpers import list_state_sort

N, V = 4096, 8
MACHINE = MachineParams(p=1, M=1 << 20, D=4, B=32, b=64)


def test_outofcore_digests_are_the_list_state_paths():
    """``OutOfCoreSort``'s share digests on the vector plane equal the ones
    computed per record from the list-state path (an identity key) over the
    same stream."""
    stream = [x for pid in range(V) for x in share_stream(5, pid, N // V)]
    want = [
        {"count": len(run), "sorted": run == sorted(run), "lo": run[0], "hi": run[-1],
         "sum": sum(run), "sq": sum(x * x for x in run)}
        for run in run_reference(list_state_sort(stream, V), V)[0]
    ]
    outputs = run_reference(OutOfCoreSort(N, V, seed=5), V)[0]
    verify_digests(outputs, 5, N, V)
    assert outputs == want


class TestEligibility:
    def test_custom_key_disables_vector_mode(self):
        alg = CGMSampleSort(list(range(100)), 4, key=lambda x: -x)
        assert alg.record_mode == "object"
        with pytest.raises(AlgorithmError, match="'object'"):
            alg.set_record_mode("vector")

    def test_non_int_records_disable_vector_mode(self):
        assert int64_array(["a", "b"]) is None
        assert int64_array([1, 2.5]) is None
        assert int64_array([True, False]) is None  # bool is not int
        assert int64_array([1, 1 << 80]) is None  # overflow
        assert int64_array(np.zeros((2, 2), dtype="<i8")) is None
        assert int64_array(np.array([1.0])) is None

    def test_int64_array_accepts_ints_and_signed_ndarrays(self):
        assert int64_array([1, -2, 3]).dtype == np.dtype("<i8")
        assert int64_array((1, -2, 3)).tolist() == [1, -2, 3]
        assert int64_array(range(4)).tolist() == [0, 1, 2, 3]
        assert int64_array((1, True)) is None and int64_array(range(1 << 63, (1 << 63) + 1)) is None
        arr = int64_array(np.array([5, 6], dtype=np.int32))
        assert arr is not None and arr.dtype.itemsize == 8

    def test_tuples_and_ranges_of_ints_run_the_vector_plane_with_list_out(self):
        perm = CGMPermutation(tuple(range(64)), range(63, -1, -1), 4)
        assert perm.record_mode == CGMSampleSort(range(64), 4).record_mode == "vector"
        outputs, _ = simulate(perm, MACHINE, v=4)
        assert outputs == [list(range(63 - 16 * j, 47 - 16 * j, -1)) for j in range(4)]

    def test_bytes_records_keep_the_legacy_plane(self):
        assert OutOfCoreSort(256, 4, seed=0, reclen=16).record_mode == "object"
        assert OutOfCoreSort(256, 4, seed=0).record_mode == "vector"


class TestKernelEquivalence:
    def test_sample_positions_matches_regular_samples(self):
        for n in (0, 1, 2, 7, 40, 41, 64):
            for count in (0, 1, 3, 5, 8, 64):
                items = list(range(1000, 1000 + n))
                assert [items[i] for i in sample_positions(n, count)] == \
                    regular_samples(items, count)

    def test_sort_sample_ranks_match_the_per_vp_regular_samples(self):
        """vp 0's array arithmetic for the samples' global positions is
        ``regular_samples`` of each sender's index range, sender by sender."""
        for n, v in ((64, 4), (568, 8), (576, 8), (1000, 7), (4352, 16)):
            alg = CGMSampleSort(np.zeros(n, np.int64), v)
            srcs = list(range(v))[::-1]
            want = []
            for r in srcs:
                lo, hi = share_bounds(n, v, r)
                want += regular_samples(list(range(lo, hi)), alg.samples_per_vp())
            assert alg._sample_ranks(srcs, v).tolist() == want

    def test_owners_of_indices_matches_owner_of_index(self):
        for n in (1, 7, 16, 65):
            for v in (1, 2, 5, 16):
                idx = np.arange(n)
                assert owners_of_indices(idx, n, v).tolist() == [
                    owner_of_index(i, n, v) for i in range(n)
                ]


class TestVectorPlumbing:
    def test_nrecords_counts_memoryview_and_ndarray(self):
        assert Block(records=b"x" * 17).nrecords() == 3
        assert Block(records=memoryview(b"x" * 17)).nrecords() == 3
        assert Block(records=memoryview(b"")).nrecords() == 0
        assert Block(records=np.arange(5)).nrecords() == 5
        assert Block(records=[1, 2]).nrecords() == 2

    def test_checksum_invariant_under_payload_flavour(self):
        arr = np.arange(8, dtype="<i8")
        base = block_checksum(Block(records=arr))
        assert block_checksum(Block(records=arr[::1].copy())) == base
        view = np.concatenate([arr, arr])[:8]
        assert block_checksum(Block(records=view)) == base
        raw = arr.tobytes()
        assert block_checksum(Block(records=memoryview(raw))) == \
            block_checksum(Block(records=raw))

    def test_corrupted_copy_changes_ndarray_payloads(self):
        for records in (np.arange(6, dtype="<i8"), np.empty(0, "<i8"),
                        memoryview(b"abcdefgh")):
            block = Block(records=records)
            bad = _corrupted_copy(block)
            assert block_checksum(bad) != block_checksum(block)

    def test_file_storage_roundtrips_ndarray_blocks(self, tmp_path):
        store = FileStorage(tmp_path / "d0.trk", B=16)
        try:
            structured = np.array([(1, 2), (3, 4)],
                                  dtype=[("k", "<i8"), ("v", "<i8")])
            blocks = [
                Block(records=np.arange(10, dtype="<i8"), dest=1, src=2,
                      msg=3, seq=4),
                Block(records=structured),
                Block(records=[1, "two", 3.0]),  # pickle fallback
                Block(records=np.arange(4, dtype="<i8")[::2].copy(),
                      dummy=True),
            ]
            for t, blk in enumerate(blocks):
                store.put(t, blk)
            for t, blk in enumerate(blocks):
                got = store.get(t)
                out = got.records
                if isinstance(blk.records, np.ndarray):
                    assert np.array_equal(out, blk.records)
                    assert out.dtype == blk.records.dtype
                else:
                    assert out == blk.records
                assert (got.dest, got.src, got.msg, got.seq, got.dummy) == (
                    blk.dest, blk.src, blk.msg, blk.seq, blk.dummy
                )
        finally:
            store.close()

    def test_put_many_coalesces_adjacent_slots(self, tmp_path, monkeypatch):
        store = FileStorage(tmp_path / "d1.trk", B=8)
        try:
            writes = []
            real = FileStorage._write_at

            def spy(self, offset, data):
                writes.append((offset, len(data)))
                return real(self, offset, data)

            monkeypatch.setattr(FileStorage, "_write_at", spy)
            items = [
                (t, Block(records=np.arange(8, dtype="<i8"))) for t in range(6)
            ]
            prev = store.put_many(items)
            assert prev == [False] * 6
            # Six fresh adjacent tracks: one coalesced pwrite.
            assert len(writes) == 1
            for t, blk in items:
                assert np.array_equal(store.get(t).records, blk.records)
            # Overwrites report presence; a disjoint pair stays two writes.
            writes.clear()
            prev = store.put_many([
                (0, Block(records=np.arange(8, dtype="<i8"))),
                (5, Block(records=np.arange(8, dtype="<i8"))),
            ])
            assert prev == [True, True]
            assert len(writes) == 2
        finally:
            store.close()

    def test_verify_extents_covers_the_snapshot(self, tmp_path):
        path = tmp_path / "d2.trk"
        store = FileStorage(path, B=8)
        try:
            store.put_many([
                (t, Block(records=np.arange(8, dtype="<i8") + t))
                for t in range(5)
            ])
            store.sync()
            snap = store.snapshot()
        finally:
            store.close()
        assert verify_extents(path, snap) == 5
