"""Unit tests for the linked bucket store (S3) and SimulateRouting (S5).

They were written against the disk array's physical path, which an array
built with no knob no longer takes (in the heap it is on the fast data
plane).  So each class names the physical path, and a ``...FastPlane`` twin
at the bottom reruns every test of it on the fast one: the store and the
routing must count and deliver the same on both.
"""

import random

import pytest

from repro.emio.disk import Block, DiskError
from repro.emio.diskarray import DiskArray
from repro.emio.layout import RegionAllocator
from repro.emio.linked import LinkedBuckets
from repro.core.routing import simulate_routing


class _OnPlane:
    """Builds every test's array on the plane the class names."""

    FAST_IO = False

    def make_store(self, D=4, B=8, v=16, seed=0, schedule="random"):
        array = DiskArray(D, B, fast_io=self.FAST_IO)
        assert array.fast_data_plane is self.FAST_IO
        alloc = RegionAllocator(array)
        store = LinkedBuckets(
            array,
            alloc,
            nbuckets=D,
            bucket_of=lambda dest: dest * D // v,
            rng=random.Random(seed),
            schedule=schedule,
        )
        return array, alloc, store


def blocks_for(dests, B=8):
    return [Block(records=[d], dest=d, src=0, msg=d, seq=0) for d in dests]


class TestLinkedBuckets(_OnPlane):
    def test_append_counts_cycles(self):
        array, _, store = self.make_store(D=4)
        ops = store.append_blocks(blocks_for(range(10)))
        assert ops == 3  # ceil(10/4)
        assert store.total_blocks == 10

    def test_bucket_assignment(self):
        _, _, store = self.make_store(D=4, v=16)
        store.append_blocks(blocks_for(range(16)))
        for b in range(4):
            assert store.bucket_size(b) == 4

    def test_each_cycle_hits_distinct_disks(self):
        array, _, store = self.make_store(D=4)
        store.append_blocks(blocks_for(range(4)))
        # One cycle: every disk got exactly one block.
        assert [d.writes for d in array.disks] == [1, 1, 1, 1]

    def test_rotate_mode_deterministic(self):
        _, _, s1 = self.make_store(D=4, seed=1, schedule="rotate")
        _, _, s2 = self.make_store(D=4, seed=2, schedule="rotate")
        s1.append_blocks(blocks_for(range(12)))
        s2.append_blocks(blocks_for(range(12)))
        assert s1.table == s2.table

    def test_max_load_ratio_reasonable(self):
        _, _, store = self.make_store(D=4, v=16, seed=3)
        store.append_blocks(blocks_for(list(range(16)) * 25))  # 400 blocks
        assert 1.0 <= store.max_load_ratio() <= 2.5  # Lemma 2: near-even whp

    def test_free_returns_space(self):
        array, alloc, store = self.make_store(D=2)
        store.append_blocks(blocks_for([i % 16 for i in range(40)]))
        hw = alloc.high_water
        store.free()
        assert alloc.high_water < hw or alloc.high_water == 0


class TestSimulateRouting(_OnPlane):
    @pytest.mark.parametrize("D", [1, 2, 4, 8])
    @pytest.mark.parametrize("nblocks", [0, 1, 7, 64, 200])
    def test_all_blocks_delivered(self, D, nblocks):
        v = 16
        array, alloc, store = self.make_store(D=D, v=v, seed=D + nblocks)
        dests = [(i * 7) % v for i in range(nblocks)]
        store.append_blocks(blocks_for(dests))
        region, stats = simulate_routing(
            array, alloc, store, nslots=v, slot_of=lambda d: d
        )
        assert stats.total_blocks == nblocks
        # Every block landed in its destination slot.
        for slot in range(v):
            want = sorted(d for d in dests if d == slot)
            got = sorted(
                b.dest for b in region.read_slot(slot) if b is not None
            )
            assert got == want

    def test_region_is_standard_consecutive(self):
        v = 8
        array, alloc, store = self.make_store(D=4, v=v, seed=5)
        store.append_blocks(blocks_for([i % v for i in range(50)]))
        region, _ = simulate_routing(array, alloc, store, v, lambda d: d)
        region.check_standard_consecutive()

    def test_io_ops_linear_in_blocks(self):
        v, D = 16, 4
        ops = {}
        for nblocks in (100, 400):
            array, alloc, store = self.make_store(D=D, v=v, seed=nblocks)
            store.append_blocks(blocks_for([i % v for i in range(nblocks)]))
            _, stats = simulate_routing(array, alloc, store, v, lambda d: d)
            ops[nblocks] = stats.io_ops
        # 4x blocks -> ~4x ops (within the Lemma 2 constant).
        assert 2.5 <= ops[400] / ops[100] <= 6

    def test_io_ops_scale_down_with_D(self):
        v, nblocks = 16, 256
        ops = {}
        for D in (1, 4):
            array, alloc, store = self.make_store(D=D, v=v, seed=7)
            store.append_blocks(blocks_for([i % v for i in range(nblocks)]))
            _, stats = simulate_routing(array, alloc, store, v, lambda d: d)
            ops[D] = stats.io_ops
        assert ops[4] < ops[1] / 2  # parallel disks pay off

    def test_batched_slot_mapping(self):
        # Parallel engine use-case: many vps share one batch slot.
        v, nslots = 16, 4
        array, alloc, store = self.make_store(D=2, v=v, seed=9)
        dests = [i % v for i in range(40)]
        store.append_blocks(blocks_for(dests))
        region, _ = simulate_routing(
            array, alloc, store, nslots, slot_of=lambda d: d * nslots // v
        )
        for slot in range(nslots):
            want = sorted(d for d in dests if d * nslots // v == slot)
            got = sorted(b.dest for b in region.read_slot(slot) if b is not None)
            assert got == want

    def test_copy_region_released(self):
        v = 8
        array, alloc, store = self.make_store(D=2, v=v, seed=11)
        store.append_blocks(blocks_for([i % v for i in range(30)]))
        region, _ = simulate_routing(array, alloc, store, v, lambda d: d)
        store.free()
        # Only the new incoming region (and bucket-chunk leftovers) remain.
        assert alloc.high_water <= region.tracks_per_disk + 64

    def test_phase2_cost_tight(self):
        """Phase 2 costs one read + one write op per round: <= 2(R_max + D)."""
        v, D = 32, 8
        array, alloc, store = self.make_store(D=D, v=v, seed=13)
        store.append_blocks(blocks_for([i % v for i in range(512)]))
        _, stats = simulate_routing(array, alloc, store, v, lambda d: d)
        r_max = 512 // D + D  # balanced buckets whp
        assert stats.phase2_ops <= 2 * (2 * r_max + D)

    @pytest.mark.parametrize("why", ["more buckets than disks", "targets not contiguous"])
    def test_refused_call_allocates_and_charges_nothing(self, why):
        """Both refusals come before the region exists: nothing to leak."""
        v, D = 8, 2
        array = DiskArray(D, 8, fast_io=self.FAST_IO)
        alloc = RegionAllocator(array)
        if why == "more buckets than disks":
            store = LinkedBuckets(array, alloc, nbuckets=D + 1, rng=random.Random(0),
                                  bucket_of=lambda dest: dest * (D + 1) // v)
        else:  # bucket_of does not factor through slot_of monotonically
            store = LinkedBuckets(array, alloc, nbuckets=D, rng=random.Random(0),
                                  bucket_of=lambda dest: dest % D)
        store.append_blocks(blocks_for([i % v for i in range(24)]))
        before = (alloc.next_track, list(alloc._free), array.parallel_ops,
                  [(d.reads, d.writes, d.high_water, d.used_tracks) for d in array.disks])
        with pytest.raises(DiskError, match="nbuckets|not contiguous"):
            simulate_routing(array, alloc, store, v, lambda d: d)
        assert before == (
            alloc.next_track, list(alloc._free), array.parallel_ops,
            [(d.reads, d.writes, d.high_water, d.used_tracks) for d in array.disks])

    @pytest.mark.parametrize("slot", [-1, 8, 1 << 40])
    def test_slot_outside_the_region_is_refused_before_any_allocation(self, slot):
        """``slot_sizes[slot_of(dest)]`` unchecked: -1 wrapped silently into
        the last slot and misrouted, a large one was a bare IndexError."""
        v, D = 8, 2
        array, alloc, store = self.make_store(D=D, v=v, seed=3)
        store.append_blocks(blocks_for([i % v for i in range(24)]))

        def state():
            return (
                alloc.next_track, list(alloc._free), array.parallel_ops,
                [(d.reads, d.writes, d.used_tracks, d.high_water) for d in array.disks],
                [sorted(d.occupied()) for d in array.disks],
            )

        before = state()
        with pytest.raises(DiskError, match=rf"bucket 1: dest 5 maps to slot {slot}, outside 0\.\.7"):
            simulate_routing(array, alloc, store, v, lambda d: slot if d == 5 else d)
        assert state() == before
        region, stats = simulate_routing(array, alloc, store, v, lambda d: d)
        assert stats.total_blocks == 24 and region.slot_sizes == [3] * v


class TestLinkedBucketsFastPlane(TestLinkedBuckets):
    FAST_IO = True


class TestSimulateRoutingFastPlane(TestSimulateRouting):
    FAST_IO = True
