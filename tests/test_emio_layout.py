"""Unit tests for disk layouts (S3): consecutive/striped regions, allocator."""

import pytest

from repro.emio.disk import Block, DiskError
from repro.emio.diskarray import DiskArray
from repro.emio.layout import (
    ConsecutiveRegion,
    RegionAllocator,
    StripedRegion,
    blocks_needed,
    blocks_to_object,
    pack_records,
    pickle_to_blocks,
    unpack_records,
)


class TestHelpers:
    def test_blocks_needed(self):
        assert blocks_needed(0, 8) == 0
        assert blocks_needed(1, 8) == 1
        assert blocks_needed(8, 8) == 1
        assert blocks_needed(9, 8) == 2

    def test_pack_unpack_roundtrip(self):
        records = list(range(23))
        blocks = pack_records(records, B=8, dest=5)
        assert len(blocks) == 3
        assert all(b.dest == 5 for b in blocks)
        assert unpack_records(blocks) == records

    def test_unpack_reorders_by_seq(self):
        blocks = pack_records(list(range(16)), B=4)
        assert unpack_records(reversed(blocks)) == list(range(16))

    def test_unpack_skips_dummies_and_gaps(self):
        blocks = pack_records([1, 2], B=4)
        blocks.append(Block(records=[99], dummy=True, seq=9))
        assert unpack_records(blocks + [None]) == [1, 2]

    def test_pickle_roundtrip(self):
        obj = {"a": [1, 2, 3], "b": ("x", 4.5)}
        blocks = pickle_to_blocks(obj, B=4)
        assert blocks_to_object(blocks) == obj

    def test_pickle_respects_mu(self):
        with pytest.raises(DiskError):
            pickle_to_blocks(list(range(10000)), B=4, max_records=4)

    def test_pickle_unordered_blocks(self):
        obj = list(range(500))
        blocks = pickle_to_blocks(obj, B=2)
        assert len(blocks) > 2
        assert blocks_to_object(list(reversed(blocks))) == obj


class TestRegionAllocator:
    def test_sequential_allocation(self):
        alloc = RegionAllocator(DiskArray(2, 8))
        assert alloc.allocate(4) == 0
        assert alloc.allocate(2) == 4
        assert alloc.high_water == 6

    def test_release_and_reuse(self):
        alloc = RegionAllocator(DiskArray(2, 8))
        a = alloc.allocate(4)
        b = alloc.allocate(4)
        alloc.release(a, 4)
        c = alloc.allocate(4)
        assert c == a  # reused
        assert alloc.high_water == 8

    def test_tail_release_shrinks(self):
        alloc = RegionAllocator(DiskArray(1, 8))
        a = alloc.allocate(4)
        b = alloc.allocate(4)
        alloc.release(b, 4)
        assert alloc.high_water == 4
        alloc.release(a, 4)
        assert alloc.high_water == 0

    def test_release_clears_tracks(self):
        array = DiskArray(1, 8)
        alloc = RegionAllocator(array)
        base = alloc.allocate(2)
        array.disks[0].write_track(base, Block(records=[1]))
        alloc.release(base, 2)
        assert array.disks[0].peek(base) is None

    def test_bounded_space_under_alternation(self):
        # Alternating alloc/release of same-size regions must not grow.
        alloc = RegionAllocator(DiskArray(2, 8))
        keep = alloc.allocate(10)
        for _ in range(50):
            a = alloc.allocate(7)
            b = alloc.allocate(3)
            alloc.release(a, 7)
            alloc.release(b, 3)
        assert alloc.high_water <= 10 + 10 + 7 + 3


class TestStripedRegion:
    def test_definition2_invariant(self):
        array = DiskArray(3, 8)
        region = StripedRegion(array, RegionAllocator(array), [2, 5, 0, 3], "t")
        region.check_standard_consecutive()

    def test_consecutive_region_matches_paper_striping(self):
        # Block i of item j on disk (i + j*bpi) mod D.
        array = DiskArray(4, 8)
        region = ConsecutiveRegion(array, RegionAllocator(array), 5, 3, "ctx")
        for j in range(5):
            for i in range(3):
                d, t = region.addr(j, i)
                assert d == (i + j * 3) % 4
                assert t == (i + j * 3) // 4

    def test_slot_roundtrip(self):
        array = DiskArray(3, 4)
        region = StripedRegion(array, RegionAllocator(array), [2, 3], "m")
        blocks = [Block(records=[1, 2]), Block(records=[3])]
        region.write_slot(0, blocks)
        got = region.read_slot(0)
        assert [b.records for b in got if b] == [[1, 2], [3]]

    def test_group_read_is_fully_parallel(self):
        # Reading consecutive slots uses ceil(total/D) parallel ops.
        array = DiskArray(4, 4)
        region = ConsecutiveRegion(array, RegionAllocator(array), 8, 2, "c")
        for j in range(8):
            region.write_slot(j, [Block(records=[j]), Block(records=[j])])
        array.reset_stats()
        region.read_slots([2, 3, 4, 5])  # 8 blocks over 4 disks
        assert array.parallel_ops == 2

    def test_overfull_slot_rejected(self):
        array = DiskArray(2, 4)
        region = StripedRegion(array, RegionAllocator(array), [1], "m")
        with pytest.raises(DiskError):
            region.write_slot(0, [Block(records=[]), Block(records=[])])

    def test_out_of_range_rejected(self):
        array = DiskArray(2, 4)
        region = StripedRegion(array, RegionAllocator(array), [1, 1], "m")
        with pytest.raises(DiskError):
            region.addr(2, 0)
        with pytest.raises(DiskError):
            region.addr(0, 1)

    def test_use_after_free_rejected(self):
        array = DiskArray(2, 4)
        region = StripedRegion(array, RegionAllocator(array), [1], "m")
        region.free()
        with pytest.raises(DiskError):
            region.read_slot(0)

    def test_empty_region(self):
        array = DiskArray(2, 4)
        region = StripedRegion(array, RegionAllocator(array), [], "empty")
        assert region.tracks_per_disk == 0
        region.check_standard_consecutive()
