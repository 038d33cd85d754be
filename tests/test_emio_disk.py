"""Unit tests for the simulated disk and disk array (S2)."""

import pytest

from repro.emio.disk import Block, Disk, DiskError
from repro.emio.diskarray import DiskArray


class TestBlock:
    def test_nrecords_list(self):
        assert Block(records=[1, 2, 3]).nrecords() == 3

    def test_nrecords_bytes_rounds_up(self):
        assert Block(records=b"x" * 9).nrecords() == 2  # 9 bytes -> 2 records

    def test_validate_rejects_overfull(self):
        with pytest.raises(DiskError):
            Block(records=list(range(10))).validate(B=4)

    def test_validate_accepts_full(self):
        Block(records=list(range(4))).validate(B=4)


class TestDisk:
    def test_read_write_roundtrip(self):
        d = Disk(0, B=4)
        blk = Block(records=[1, 2])
        d.write_track(7, blk)
        assert d.read_track(7) is blk
        assert d.reads == 1 and d.writes == 1

    def test_unwritten_track_reads_none(self):
        d = Disk(0, B=4)
        assert d.read_track(3) is None

    def test_capacity_enforced(self):
        d = Disk(0, B=4, ntracks=2)
        d.write_track(1, Block(records=[]))
        with pytest.raises(DiskError):
            d.write_track(2, Block(records=[]))

    def test_negative_track_rejected(self):
        d = Disk(0, B=4)
        with pytest.raises(DiskError):
            d.read_track(-1)

    def test_used_tracks_and_high_water(self):
        d = Disk(0, B=4)
        d.write_track(0, Block(records=[1]))
        d.write_track(5, Block(records=[2]))
        d.write_track(5, None)
        assert d.used_tracks == 1
        assert d.high_water == 5

    def test_peek_free_of_charge(self):
        d = Disk(0, B=4)
        d.write_track(0, Block(records=[1]))
        d.reset_stats()
        assert d.peek(0).records == [1]
        assert d.accesses == 0


class TestDiskArray:
    """The model's rules for one array, on the physical path by name; the
    ``FastPlane`` twin below holds the fast data plane to the same rules."""

    FAST_IO = False

    def test_parallel_read_counts_one_op(self):
        da = DiskArray(D=4, B=4, fast_io=self.FAST_IO)
        da.parallel_write([(0, 0, Block(records=[1])), (1, 0, Block(records=[2]))])
        got = da.parallel_read([(0, 0), (1, 0)])
        assert [b.records for b in got] == [[1], [2]]
        assert da.parallel_ops == 2  # one write + one read

    def test_same_disk_twice_in_one_op_rejected(self):
        da = DiskArray(D=4, B=4, fast_io=self.FAST_IO)
        with pytest.raises(DiskError):
            da.parallel_read([(1, 0), (1, 1)])

    def test_too_many_tracks_in_one_op_rejected(self):
        da = DiskArray(D=2, B=4, fast_io=self.FAST_IO)
        with pytest.raises(DiskError):
            da.parallel_read([(0, 0), (1, 0), (0, 1)])

    def test_empty_op_is_free(self):
        da = DiskArray(D=2, B=4, fast_io=self.FAST_IO)
        assert da.parallel_read([]) == []
        da.parallel_write([])
        assert da.parallel_ops == 0

    def test_read_batched_preserves_order(self):
        da = DiskArray(D=3, B=4, fast_io=self.FAST_IO)
        for d in range(3):
            for t in range(2):
                da.disks[d].write_track(t, Block(records=[d * 10 + t]))
        got = da.read_batched([(2, 1), (0, 0), (2, 0), (1, 1)])
        assert [b.records[0] for b in got] == [21, 0, 20, 11]

    def test_read_batched_packs_distinct_disks_into_one_op(self):
        da = DiskArray(D=4, B=4, fast_io=self.FAST_IO)
        for d in range(4):
            da.disks[d].write_track(0, Block(records=[d]))
        da.parallel_ops = 0
        da.read_batched([(0, 0), (1, 0), (2, 0), (3, 0)])
        assert da.parallel_ops == 1

    def test_read_batched_same_disk_needs_multiple_ops(self):
        da = DiskArray(D=4, B=4, fast_io=self.FAST_IO)
        for t in range(3):
            da.disks[0].write_track(t, Block(records=[t]))
        da.parallel_ops = 0
        da.read_batched([(0, 0), (0, 1), (0, 2)])
        assert da.parallel_ops == 3

    def test_write_batched_returns_op_count(self):
        da = DiskArray(D=2, B=4, fast_io=self.FAST_IO)
        n = da.write_batched(
            [(0, 0, Block(records=[])), (1, 0, Block(records=[])), (0, 1, Block(records=[]))]
        )
        assert n == 2


class TestDiskArrayFastPlane(TestDiskArray):
    FAST_IO = True


class TestStoragePlaneDurability:
    """Barrier durability and directory-safety of the file storage plane."""

    @staticmethod
    def _simulate(tmp_path=None, **kwargs):
        from repro.algorithms.sorting import CGMSampleSort
        from repro.core.simulator import simulate
        from repro.params import MachineParams
        from repro.workloads import uniform_keys

        alg = CGMSampleSort(uniform_keys(256, seed=0), v=8)
        machine = MachineParams(p=1, M=1 << 18, D=4, B=16, b=32)
        return simulate(alg, machine, v=8, seed=0, **kwargs)

    def test_checkpoint_barriers_fsync_file_plane(self, tmp_path, monkeypatch):
        """Every checkpoint barrier flushes all track files to stable media
        (one fsync per drive); without that the checkpoint's storage
        references could point at data still sitting in page cache."""
        import os as _os

        synced = []
        real_fsync = _os.fsync
        monkeypatch.setattr(_os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd))
        self._simulate(checkpoint=True, storage="file", storage_dir=tmp_path / "t")
        assert len(synced) >= 4  # >= one barrier x D=4 drives

    def test_memory_plane_never_fsyncs(self, monkeypatch):
        import os as _os

        synced = []
        monkeypatch.setattr(_os, "fsync", lambda fd: synced.append(fd))
        self._simulate(checkpoint=True)
        assert synced == []

    def test_nonempty_storage_dir_refused_by_name(self, tmp_path):
        """Pointing storage_dir at a directory holding foreign files must
        fail loudly, naming the path, before any track file is created."""
        root = tmp_path / "not-mine"
        root.mkdir()
        (root / "data.csv").write_text("precious")
        with pytest.raises(DiskError) as exc_info:
            self._simulate(storage="file", storage_dir=root)
        assert str(root) in str(exc_info.value)
        assert sorted(p.name for p in root.iterdir()) == ["data.csv"]

    def test_marked_storage_dir_is_adopted(self, tmp_path):
        """A directory from a previous run (carrying the marker) is reused —
        that is what crash-resume on the same storage_dir requires."""
        root = tmp_path / "tracks"
        out1, _ = self._simulate(storage="file", storage_dir=root)
        out2, _ = self._simulate(storage="file", storage_dir=root)
        assert out1 == out2

    def test_other_format_version_refused_naming_both(self, tmp_path):
        """Track files of another on-disk format version would misread
        (slot unit, vector image): adopting their directory is a typed
        error naming both versions, raised before any file is touched.
        A fresh directory and a same-version one are accepted (the crash
        sweeps resume on such a directory at every crash point)."""
        import json

        from repro.emio.storage import STORAGE_MARKER, STORAGE_VERSION, StorageSpec

        old = tmp_path / "v1"
        old.mkdir()
        (old / STORAGE_MARKER).write_text('{"format": "em-storage", "version": 1}')
        (old / "disk0.dat").write_bytes(b"old-format tracks")
        with pytest.raises(DiskError) as exc_info:
            self._simulate(storage="file", storage_dir=old)
        message = str(exc_info.value)
        assert "version 1" in message and f"version {STORAGE_VERSION}" in message
        assert (old / "disk0.dat").read_bytes() == b"old-format tracks"

        (old / STORAGE_MARKER).write_text("not json")
        with pytest.raises(DiskError, match="unreadable"):
            StorageSpec.create("file", old)

        fresh = tmp_path / "fresh"
        spec = StorageSpec.create("mmap", fresh)
        assert json.loads((fresh / STORAGE_MARKER).read_text())["version"] == STORAGE_VERSION
        assert StorageSpec.create("mmap", fresh).root == spec.root  # same version: adopted
        assert spec.for_proc(1).root == spec.for_proc(1).root  # sub-roots too

    def test_short_pwrite_is_completed(self, tmp_path, monkeypatch):
        """``pwrite`` may land fewer bytes than asked; the tail must follow
        instead of surfacing later as a CRC failure far from the cause."""
        import os as _os

        import numpy as np

        from repro.emio.storage import FileStorage

        real_pwrite = _os.pwrite
        calls = []

        def half_pwrite(fd, data, offset):
            calls.append(len(data))
            return real_pwrite(fd, bytes(data[: max(1, len(data) // 2)]), offset)

        store = FileStorage(tmp_path / "d0.dat", B=1024)
        try:
            monkeypatch.setattr(_os, "pwrite", half_pwrite)
            items = [(t, Block(records=np.full(1024, t, dtype="<i8"))) for t in range(8)]
            store.put_many(items)  # adjacent runs: one merged transfer
            written = store.write_bytes
            assert len(calls) > 1 and calls[0] > written // 2
            monkeypatch.setattr(_os, "pwrite", real_pwrite)
            for t, blk in items:
                assert np.array_equal(store.get(t).records, blk.records)
        finally:
            store.close()
        whole = FileStorage(tmp_path / "d1.dat", B=1024)
        try:
            whole.put_many(items)
            assert whole.write_bytes == written
        finally:
            whole.close()
        assert (tmp_path / "d0.dat").read_bytes() == (tmp_path / "d1.dat").read_bytes()

    def test_pwrite_without_progress_is_a_typed_error(self, tmp_path, monkeypatch):
        import os as _os

        from repro.emio.storage import FileStorage

        store = FileStorage(tmp_path / "d0.dat", B=16)
        try:
            monkeypatch.setattr(_os, "pwrite", lambda fd, data, offset: 0)
            with pytest.raises(DiskError) as exc_info:
                store.put(3, Block(records=list(range(16))))
            message = str(exc_info.value)
            assert store.path in message and "offset 0" in message
            assert "bytes not written" in message
        finally:
            store.close()
