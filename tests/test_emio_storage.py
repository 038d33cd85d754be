"""Unit tests for the block-storage planes (:mod:`repro.emio.storage`).

The equivalence harness (``test_plane_equivalence.py``) proves the planes
equivalent end to end; these tests pin the mechanisms that make it work — slot-run
allocation and neighbour-coalescing frees, copy-on-write pinning around
snapshots, crash-reattach via snapshot/restore, the storage-dir marker
protocol — plus the failure modes (corrupt images, mismatched slot sizes,
foreign directories) that must surface as :class:`DiskError`.
"""

import os
import pickle

import pytest

from repro.emio.disk import Block, DiskError
from repro.emio.storage import (
    STORAGE_MARKER,
    FileStorage,
    MemoryStorage,
    MmapStorage,
    StorageSpec,
    resolve_storage,
)

IMPLS = (FileStorage, MmapStorage)


def blk(tag, n=1):
    return Block(records=[tag] * n, dest=tag)


def make(impl, tmp_path, **kw):
    kw.setdefault("slot_bytes", 64)
    return impl(tmp_path / f"{impl.__name__}.dat", B=4, **kw)


class TestMemoryStorage:
    def test_identity_preserving(self):
        s = MemoryStorage()
        b = blk(1)
        assert s.put(7, b) is False
        assert s.get(7) is b  # the very same object, no pickle round-trip
        assert s.put(7, blk(2)) is True

    def test_none_value_keeps_key_but_hides_track(self):
        s = MemoryStorage()
        s.put(3, None)
        assert list(s.tracks()) == []
        assert 3 in s.tracks_view()
        assert s.discard(3) is False  # a None placeholder is not a block

    def test_snapshot_is_none_and_restore_refuses(self):
        s = MemoryStorage()
        assert s.snapshot() is None
        with pytest.raises(DiskError):
            s.restore(None)

    def test_byte_counters_stay_zero(self):
        s = MemoryStorage()
        s.put(1, blk(1))
        s.get(1)
        assert (s.read_bytes, s.write_bytes) == (0, 0)


@pytest.mark.parametrize("impl", IMPLS)
class TestFilePlaneBasics:
    def test_pickle_roundtrip_not_identity(self, impl, tmp_path):
        s = make(impl, tmp_path)
        b = blk(1, n=3)
        assert s.put(5, b) is False
        got = s.get(5)
        assert got == b and got is not b
        s.close()

    def test_put_get_discard_presence(self, impl, tmp_path):
        s = make(impl, tmp_path)
        assert s.get(9) is None
        assert s.discard(9) is False
        s.put(9, blk(1))
        assert 9 in list(s.tracks())
        assert s.put(9, None) is True  # deletion via None, like the dict plane
        assert s.get(9) is None
        s.close()

    def test_sparse_shadow_tracks(self, impl, tmp_path):
        """Track ids from the shadow namespace (1 << 40) must not imply a
        positional file offset — the map makes addressing explicit."""
        s = make(impl, tmp_path)
        shadow = (1 << 40) + 17
        s.put(shadow, blk(2))
        assert s.get(shadow) == blk(2)
        assert os.path.getsize(s.path) < (1 << 20)
        s.close()

    def test_read_write_byte_counters(self, impl, tmp_path):
        s = make(impl, tmp_path)
        s.put(1, blk(1))
        wrote = s.write_bytes
        assert wrote > 0
        s.peek(1)
        assert s.read_bytes == 0  # peek is free of observability accounting
        s.get(1)
        assert s.read_bytes > 0
        s.close()

    def test_oversized_image_spans_slots(self, impl, tmp_path):
        s = make(impl, tmp_path)
        big = Block(records=list(range(200)))
        s.put(1, big)
        assert s._map[1][1] > 1
        assert s.get(1) == big
        s.close()


class TestSlotAllocation:
    def test_adjacent_frees_coalesce_and_shrink_tail(self, tmp_path):
        s = make(FileStorage, tmp_path)
        for t in (1, 2, 3):
            s.put(t, blk(t))
        ext = {t: s._map[t][:2] for t in (1, 2, 3)}
        # Free the middle run first, then its neighbours: every release path
        # (lone, merge-with-successor, merge-with-predecessor-at-tail) fires.
        s.discard(2)
        assert s._free_start == {ext[2][0]: ext[2][1]}
        s.discard(1)
        assert s._free_start == {ext[1][0]: ext[1][1] + ext[2][1]}
        s.discard(3)
        assert s._free_start == {} and s._free_end == {}
        assert s._next_slot == ext[1][0]
        s.close()

    def test_freed_run_is_reused_best_fit(self, tmp_path):
        s = make(FileStorage, tmp_path)
        big = Block(records=list(range(200)))
        s.put(1, big)        # multi-slot run
        s.put(10, blk(10))   # guard: keeps the two holes from coalescing
        s.put(2, blk(2))     # short run
        s.put(11, blk(11))   # guard: keeps the short hole off the file tail
        hole_big, hole_small = s._map[1][0], s._map[2][0]
        s.discard(1)
        s.discard(2)
        s.put(4, blk(4))
        # Best fit picks the short hole, not the first (larger) one.
        assert s._map[4][0] == hole_small
        s.put(5, big)
        assert s._map[5][0] == hole_big
        s.close()

    def test_split_remainder_stays_free(self, tmp_path):
        s = make(FileStorage, tmp_path)
        big = Block(records=list(range(200)))
        s.put(1, big)
        base, nslots = s._map[1][:2]
        s.put(2, blk(2))  # tail guard
        s.discard(1)
        s.put(3, blk(3))  # short run carved from the front of the hole
        carved = s._map[3][1]
        assert s._map[3][0] == base
        assert s._free_start == {base + carved: nslots - carved}
        s.close()

    def test_same_size_overwrite_in_place(self, tmp_path):
        s = make(FileStorage, tmp_path)
        s.put(1, blk(1))
        base = s._map[1][0]
        s.put(1, blk(9))
        assert s._map[1][0] == base
        assert s.get(1) == blk(9)
        s.close()


class TestSnapshotRestore:
    @pytest.mark.parametrize("impl", IMPLS)
    def test_reattach_after_close(self, impl, tmp_path):
        """The crash-resume path: snapshot, drop the process state, reopen
        the same file, restore — every track readable again."""
        s = make(impl, tmp_path)
        for t in range(4):
            s.put(t, blk(t, n=2))
        s.sync()
        snap = s.snapshot()
        path = s.path
        s.close()

        r = impl(path, B=4, slot_bytes=64)
        r.restore(snap)
        for t in range(4):
            assert r.get(t) == blk(t, n=2)
        r.close()

    def test_snapshot_is_picklable_metadata(self, tmp_path):
        s = make(FileStorage, tmp_path)
        s.put(1, blk(1))
        snap = s.snapshot()
        assert pickle.loads(pickle.dumps(snap)) == snap
        s.close()

    def test_restore_none_refuses(self, tmp_path):
        s = make(FileStorage, tmp_path)
        with pytest.raises(DiskError, match="no storage"):
            s.restore(None)
        s.close()

    def test_restore_slot_size_mismatch_refuses(self, tmp_path):
        s = make(FileStorage, tmp_path)
        snap = s.snapshot()
        s.close()
        other = FileStorage(tmp_path / "other.dat", B=4, slot_bytes=128)
        with pytest.raises(DiskError, match="slot size"):
            other.restore(snap)
        other.close()

    def test_cow_pinning_preserves_snapshot_reads(self, tmp_path):
        """Overwrites after a snapshot go to fresh slots, so a checkpoint
        that references the snapshot reads the *old* images."""
        s = make(FileStorage, tmp_path)
        s.put(1, blk(1))
        ext = tuple(s._map[1][:2])
        snap = s.snapshot()
        s.put(1, blk(8))
        assert tuple(s._map[1][:2])[0] != ext[0]
        assert ext in s._deferred  # released, but parked until superseded
        s.sync()

        r = FileStorage(s.path, B=4, slot_bytes=64)
        r.restore(snap)
        assert r.get(1) == blk(1)  # the pre-overwrite image
        r.close()
        s.close()

    def test_superseding_snapshot_releases_deferred(self, tmp_path):
        """The pin window is two snapshots deep (scrub's fallback barrier
        must stay readable), so a deferred extent frees only once TWO
        later snapshots no longer pin it."""
        s = make(FileStorage, tmp_path)
        s.put(1, blk(1))
        s.snapshot()
        s.put(1, blk(8))
        assert s._deferred
        s.snapshot()
        assert s._deferred  # still pinned by the previous snapshot
        s.snapshot()
        assert s._deferred == []
        s.close()

    def test_restored_extents_are_pinned(self, tmp_path):
        """After restore the checkpoint stays the rollback target: further
        overwrites must not scribble over the restored extents."""
        s = make(FileStorage, tmp_path)
        s.put(1, blk(1))
        snap = s.snapshot()
        s.close()
        r = FileStorage(s.path, B=4, slot_bytes=64)
        r.restore(snap)
        base = r._map[1][0]
        r.put(1, blk(9))
        assert r._map[1][0] != base
        r.close()


class TestCorruption:
    def test_corrupt_length_prefix_raises(self, tmp_path):
        s = make(FileStorage, tmp_path)
        s.put(1, blk(1))
        base = s._map[1][0]
        with open(s.path, "r+b") as fh:
            fh.seek(base * s.slot_bytes)
            fh.write(b"\xff" * 8)
        with pytest.raises(DiskError, match="corrupt image"):
            s.get(1)
        s.close()


class TestTracksView:
    def test_dict_flavoured_window(self, tmp_path):
        s = make(FileStorage, tmp_path)
        view = s.tracks_view()
        assert len(view) == 0
        view[4] = blk(4)
        assert 4 in view
        assert view[4] == blk(4)
        assert view.get(5) is None
        assert view.get(5, "dflt") == "dflt"
        assert len(view) == 1
        s.close()


class TestStorageSpec:
    def test_memory_spec_has_no_root(self):
        spec = StorageSpec.create("memory")
        assert (spec.kind, spec.root, spec.owned) == ("memory", None, False)
        assert spec.for_proc(3) is spec
        assert isinstance(spec.make(0, B=4), MemoryStorage)

    def test_unknown_kind_refused(self):
        with pytest.raises(DiskError, match="unknown storage kind"):
            StorageSpec.create("cloud")

    def test_owned_tempdir_cleanup(self):
        spec = StorageSpec.create("file")
        assert spec.owned and os.path.isdir(spec.root)
        assert os.path.exists(os.path.join(spec.root, STORAGE_MARKER))
        spec.cleanup()
        assert not os.path.exists(spec.root)

    def test_explicit_dir_survives_cleanup(self, tmp_path):
        root = tmp_path / "tracks"
        spec = StorageSpec.create("file", root)
        assert not spec.owned
        spec.cleanup()
        assert os.path.isdir(root)

    def test_foreign_nonempty_dir_refused_with_path(self, tmp_path):
        root = tmp_path / "precious"
        root.mkdir()
        (root / "thesis.tex").write_text("irreplaceable")
        with pytest.raises(DiskError) as exc_info:
            StorageSpec.create("file", root)
        assert str(root) in str(exc_info.value)
        assert (root / "thesis.tex").read_text() == "irreplaceable"

    def test_marked_dir_is_reused(self, tmp_path):
        root = tmp_path / "tracks"
        first = StorageSpec.create("file", root)
        first.make(0, B=4).close()
        again = StorageSpec.create("file", root)  # crash-resume reclaim
        assert again.root == first.root

    def test_file_path_refused(self, tmp_path):
        f = tmp_path / "afile"
        f.write_text("x")
        with pytest.raises(DiskError, match="not a directory"):
            StorageSpec.create("file", f)

    def test_for_proc_claims_marked_subdir(self, tmp_path):
        spec = StorageSpec.create("file", tmp_path / "root")
        sub = spec.for_proc(1)
        assert sub.root == spec.proc_root(1)
        assert not sub.owned  # engine root owns cleanup, workers never do
        assert os.path.exists(os.path.join(sub.root, STORAGE_MARKER))

    def test_resolve_storage_passthrough_and_create(self, tmp_path):
        spec = StorageSpec.create("file", tmp_path / "r")
        assert resolve_storage(spec, None) is spec
        assert resolve_storage(None, None).kind == "memory"
        assert resolve_storage("mmap", tmp_path / "m").kind == "mmap"
