"""Golden discipline of the vectorized record plane (DESIGN §10).

The vector mode must be *invisible to the model*: counted costs
(``io_ops``/``records_io``/``comm_packets``/``comp_ops``), the full report
summary with its ledgers and Lemma 2 ratios, and the outputs must be
byte-identical to the object plane across machines, backends, and storage
kinds.  These tests pin that matrix, the exact numpy <-> pure-Python kernel
equivalences the algorithm ports rely on, and the plumbing the plane rides
on (ndarray-aware blocks, batched track writes, coalesced frame
verification, ndarray fault corruption).
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
from repro.conform import REFERENCE
from repro.core import ParallelEMSimulation, build_params, simulate
from repro.emio.disk import Block
from repro.emio.faults import _corrupted_copy, block_checksum
from repro.emio.storage import FileStorage, verify_extents
from repro.outofcore import OutOfCoreSort, verify_digests
from repro.params import MachineParams

from .helpers import assert_plane

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


def _run(corner, mode):
    """One corner of the matrix on record plane ``mode``.  A corner's unnamed
    knobs are ``REFERENCE``'s, not the storage plane's default, so the matrix
    keeps a reference-plane memory row next to its fast file rows."""
    p, cfg = corner
    alg = OutOfCoreSort(N, V, seed=5)
    alg.set_record_mode(mode)
    knobs = {**REFERENCE, **cfg}
    machine = MachineParams(p=p, M=1 << 20, D=4, B=32, b=64)
    sim = ParallelEMSimulation(alg, build_params(alg, machine, v=V), seed=SEED, **knobs)
    assert_plane(sim, **knobs)
    return sim.run()


def _counted(outputs, report):
    """Everything the golden discipline pins, as one comparable image.

    ``repr`` rather than ``pickle.dumps``: pickle memoizes on object
    *identity*, so two value-identical output lists can pickle to different
    bytes depending on which backend materialized them.  ``repr`` of the
    plain-Python outputs is identity-insensitive and type-strict enough
    (``1`` vs ``np.int64(1)`` vs ``True`` all render differently).
    """
    return repr((outputs, report.io_ops, report.summary()))


class TestGoldenMatrix:
    @pytest.mark.parametrize("cfg", MATRIX, ids=lambda c: "-".join(
        [("sequential", "parallel")[c[0] > 1], *map(str, c[1].values())]))
    def test_outofcore_sort_object_vs_vector(self, cfg):
        images = {}
        for mode in ("object", "vector"):
            outputs, report = _run(cfg, mode)
            verify_digests(outputs, 5, N, V)
            images[mode] = _counted(outputs, report)
        assert images["object"] == images["vector"]

    def test_matrix_configs_agree_on_outputs(self):
        outs = []
        for cfg in MATRIX:
            outputs, _ = _run(cfg, "vector")
            outs.append(repr(outputs))
        assert len(set(outs)) == 1

    def test_sample_sort_golden_and_plain_int_outputs(self):
        rng = random.Random(17)
        data = [rng.randrange(1 << 30) for _ in range(N)]
        images = {}
        for mode in ("object", "vector"):
            outputs, report = simulate(
                CGMSampleSort(list(data), V), MachineParams(p=1, M=1 << 20,
                D=4, B=32, b=64), v=V, seed=SEED, records=mode,
            )
            images[mode] = _counted(outputs, report)
            flat = [x for out in outputs for x in out]
            assert flat == sorted(data)
            assert all(type(x) is int for x in flat)
        assert images["object"] == images["vector"]

    def test_permutation_golden(self):
        rng = random.Random(23)
        n = 1024
        vals = [rng.randrange(1 << 30) for _ in range(n)]
        perm = list(range(n))
        rng.shuffle(perm)
        images = {}
        for mode in ("object", "vector"):
            outputs, report = simulate(
                CGMPermutation(list(vals), list(perm), V),
                MachineParams(p=1, M=1 << 20, D=4, B=32, b=64),
                v=V, seed=SEED, records=mode,
            )
            images[mode] = _counted(outputs, report)
        assert images["object"] == images["vector"]
        outputs, _ = simulate(
            CGMPermutation(list(vals), list(perm), V),
            MachineParams(p=1, M=1 << 20, D=4, B=32, b=64),
            v=V, seed=SEED, records="vector",
        )
        expect = [None] * n
        for i in range(n):
            expect[perm[i]] = vals[i]
        assert [x for out in outputs for x in out] == expect


class TestEligibility:
    def test_custom_key_disables_vector_mode(self):
        alg = CGMSampleSort(list(range(100)), 4, key=lambda x: -x)
        assert alg.RECORD_MODES == ("object",)
        with pytest.raises(AlgorithmError):
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
        alg = OutOfCoreSort(256, 4, seed=0, reclen=16)
        assert alg.RECORD_MODES == ("object",)


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
