"""Golden discipline of the vector record plane (DESIGN §10).

The input picks the plane: int64 input runs the vector kernels, anything
else the list-state path.  The vector plane must be *invisible to the
model*: its outputs equal the list-state path's on the same values, and its
counted columns across machines, backends and storage kinds are the ones the
object plane committed (``GOLDEN``).  These tests pin that, the exact numpy
<-> pure-Python kernel equivalences the algorithm ports rely on, and the
plumbing the plane rides on (ndarray-aware blocks, batched track writes,
coalesced frame verification, ndarray fault corruption).
"""

from __future__ import annotations

import random

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
)
from repro.bsp.program import AlgorithmError
from repro.bsp.runner import run_reference
from repro.conform import REFERENCE
from repro.core import ParallelEMSimulation, build_params, simulate
from repro.emio.disk import Block
from repro.emio.faults import _corrupted_copy, block_checksum
from repro.emio.storage import FileStorage, verify_extents
from repro.outofcore import OutOfCoreSort, share_stream, verify_digests
from repro.params import MachineParams

from .helpers import assert_plane, list_state_sort

SEED = 3
N, V = 4096, 8

#: machine x backend x storage x fast-path corners of the golden matrix, as
#: ``(p, knobs)``; a knob a corner does not name is the reference plane's
#: (see ``_run``).  The ids name the machine: "sequential" is p = 1.
MATRIX = [
    (1, dict(backend="inline", storage="memory")),
    (1, dict(backend="inline", storage="file", fast_io=True, context_cache=True)),
    (2, dict(backend="inline", storage="memory")),
    (2, dict(backend="inline", storage="file", fast_io=True)),
    (2, dict(backend="process", storage="memory")),
    (2, dict(backend="process", storage="file", fast_io=True)),
]

#: The counted columns io_ops, comm_packets, comp_ops, disk tracks, message
#: blocks and supersteps, per machine size ``p``, of the n = 4096, v = 8 sort
#: and of the n = 1024 permutation, as the object plane counted them before
#: the input picked the plane.
GOLDEN = {
    1: (68, 45, 102848.0, 66, 134, 4),
    2: (38, 107, 52276.0, 33, 136, 4),
    "permutation": (32, 16, 2048.0, 18, 64, 2),
}
MACHINE = MachineParams(p=1, M=1 << 20, D=4, B=32, b=64)


def _run(corner):
    """One corner of the matrix.  A corner's unnamed knobs are
    ``REFERENCE``'s, not the storage plane's default, so the matrix keeps a
    reference-plane memory row next to its fast file rows."""
    p, cfg = corner
    alg = OutOfCoreSort(N, V, seed=5)
    knobs = {**REFERENCE, **cfg}
    machine = MachineParams(p=p, M=1 << 20, D=4, B=32, b=64)
    sim = ParallelEMSimulation(alg, build_params(alg, machine, v=V), seed=SEED, **knobs)
    assert_plane(sim, **knobs)
    return sim.run()


def _columns(report):
    return (report.io_ops, report.ledger.total_comm_packets, report.ledger.total_comp,
            report.disk_space_tracks, sum(s.message_blocks for s in report.supersteps),
            report.num_supersteps)


def _list_state_digests():
    """``OutOfCoreSort``'s share digests, computed per record from the
    list-state path (an identity key) over the same stream."""
    stream = [x for pid in range(V) for x in share_stream(5, pid, N // V)]
    return [
        {"count": len(run), "sorted": run == sorted(run), "lo": run[0], "hi": run[-1],
         "sum": sum(run), "sq": sum(x * x for x in run)}
        for run in run_reference(list_state_sort(stream, V), V)[0]
    ]


class TestGoldenMatrix:
    @pytest.mark.parametrize("cfg", MATRIX, ids=lambda c: "-".join(
        [("sequential", "parallel")[c[0] > 1], *map(str, c[1].values())]))
    def test_outofcore_sort_object_vs_vector(self, cfg):
        """The vector plane counts what the object plane committed."""
        outputs, report = _run(cfg)
        verify_digests(outputs, 5, N, V)
        assert _columns(report) == GOLDEN[cfg[0]]

    def test_matrix_configs_agree_on_outputs(self):
        """Every corner's digests are the list-state path's on the stream."""
        want = _list_state_digests()
        for cfg in MATRIX:
            assert _run(cfg)[0] == want

    def test_sample_sort_golden_and_plain_int_outputs(self):
        rng = random.Random(17)
        data = [rng.randrange(1 << 30) for _ in range(N)]
        outputs, report = simulate(CGMSampleSort(list(data), V), MACHINE, v=V, seed=SEED)
        keyed, _ = simulate(list_state_sort(data, V), MACHINE, v=V, seed=SEED)
        assert outputs == keyed
        assert [x for out in outputs for x in out] == sorted(data)
        assert all(type(x) is int for out in outputs for x in out)
        assert _columns(report) == GOLDEN[1]

    def test_permutation_golden(self):
        rng = random.Random(23)
        n = 1024
        vals = [rng.randrange(1 << 30) for _ in range(n)]
        perm = list(range(n))
        rng.shuffle(perm)
        outputs, report = simulate(CGMPermutation(vals, perm, V), MACHINE, v=V, seed=SEED)
        # A tuple is no list or ndarray: the same values on the list-state path.
        listed = CGMPermutation(tuple(vals), tuple(perm), V)
        assert listed.record_mode == "object"
        assert outputs == simulate(listed, MACHINE, v=V, seed=SEED)[0]
        expect = [None] * n
        for i in range(n):
            expect[perm[i]] = vals[i]
        assert [x for out in outputs for x in out] == expect
        assert _columns(report) == GOLDEN["permutation"]


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
        arr = int64_array(np.array([5, 6], dtype=np.int32))
        assert arr is not None and arr.dtype.itemsize == 8

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
