"""One batch-transfer path (DESIGN §6): ``read_batched``, ``write_batched``
and ``charge_batched`` group a batch by drive once, check it once and charge
it once.

Two things are pinned here.  A batch naming an address no drive has is
refused with a ``DiskError`` before any counter or byte moves, on every
plane.  And ``LinkedBuckets.append_blocks``, which hands ``write_batched``
whole chunks of write cycles, gets back exactly its cycles: one parallel
write each, in cycle order, with the same counters, track maps and track
files on the fast plane as on the reference plane.
"""

import hashlib
import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emio.disk import Block, DiskError
from repro.emio.diskarray import DiskArray
from repro.emio.layout import RegionAllocator
from repro.emio.linked import WRITE_SCHEDULES, LinkedBuckets
from repro.emio.storage import StorageSpec
from repro.emio.trace import IOTrace

from .helpers import array_state, mixed_blocks

B = V = 16  # mixed_blocks' block size and vp count

# -- a bad address moves nothing ------------------------------------------------------

#: A disk past the end, a negative disk (which must not wrap to the last
#: drive), a negative track.
BAD_ADDRS = [(2, 1), (-1, 1), (0, -1)]

OPS = {
    "read": lambda array, addrs: array.read_batched(addrs),
    "write": lambda array, addrs: array.write_batched(
        [(d, t, Block(records=[t])) for d, t in addrs]),
    "charge_R": lambda array, addrs: array.charge_batched("R", addrs),
    "charge_W": lambda array, addrs: array.charge_batched("W", addrs),
    "parallel_read": lambda array, addrs: array.parallel_read(addrs[-1:]),
    "parallel_write": lambda array, addrs: array.parallel_write(
        [(d, t, Block(records=[t])) for d, t in addrs[-1:]]),
}


def _whole_state(array: DiskArray):
    return array_state(array), array.storage_read_bytes, array.storage_write_bytes


@pytest.mark.parametrize("bad", BAD_ADDRS, ids=str)
@pytest.mark.parametrize("op", sorted(OPS))
@pytest.mark.parametrize("plane", ["memory", "file"])
@pytest.mark.parametrize("fast", [True, False], ids=["fast", "reference"])
def test_bad_address_is_refused_before_anything_moves(tmp_path, fast, plane, op, bad):
    spec = StorageSpec.create(plane, tmp_path / "arr" if plane != "memory" else None)
    array = DiskArray(2, B, fast_io=fast, storage=spec, M=1 << 20)
    try:
        assert array.fast_data_plane == fast
        array.write_batched([(d, t, Block(records=[t])) for t in range(3) for d in (0, 1)])
        before = _whole_state(array)
        # The bad address comes after good ones on its drive: a round-by-round
        # loop would have moved those first.
        with pytest.raises(DiskError):
            OPS[op](array, [(0, 0), (1, 0), (0, 1), (1, 1), bad])
        assert _whole_state(array) == before
    finally:
        array.close_storage()


def test_capacity_of_a_bounded_array_is_checked_per_batch():
    array = DiskArray(2, B, ntracks=4)
    array.write_batched([(0, 0, Block(records=[0])), (0, 1, Block(records=[1]))])
    before = _whole_state(array)
    with pytest.raises(DiskError, match="capacity 4"):
        array.write_batched([(0, 2, Block(records=[2])), (1, 4, Block(records=[4]))])
    assert _whole_state(array) == before


def test_an_oversized_block_is_refused_before_anything_moves():
    for fast in (True, False):
        array = DiskArray(2, 2, fast_io=fast)
        with pytest.raises(DiskError, match="exceeds block size"):
            array.write_batched([(0, t, Block(records=[t] * (1 + t))) for t in range(3)])
        assert _whole_state(array) == (
            (0, [(0, 0, 0, -1), (0, 0, 0, -1)], [[], []]), 0, 0)


# -- append_blocks writes its cycles ----------------------------------------------------


class _ChunkedReference(DiskArray):
    """The reference plane handed the fast plane's chunks: its batches hold
    several cycles, so the greedy packing of ``write_batched`` is what turns
    them back into rounds."""

    @property
    def rounds_in_flight(self) -> int:
        return self._chunk_rounds


def _image(array: DiskArray) -> dict:
    blocks = [
        {t: (b.dest, b.msg, [int(r) for r in b.records]) for t in sorted(d.occupied())
         for b in [d.peek(t)]}
        for d in array.disks
    ]
    image = {"state": _whole_state(array), "blocks": blocks}
    if array.storage_spec.kind != "memory":
        array.sync_storage()
        image["maps"] = [dict(d.storage._map) for d in array.disks]
        image["files"] = []
        for d in array.disks:
            with open(d.storage.path, "rb") as fh:
                image["files"].append(hashlib.sha256(fh.read()).hexdigest())
    return image


@settings(max_examples=25, deadline=None)
@given(
    D=st.sampled_from([1, 2, 4, 8]),
    schedule=st.sampled_from(WRITE_SCHEDULES),
    plane=st.sampled_from(["memory", "file"]),
    in_flight=st.integers(1, 3),
    dead=st.integers(-1, 7),
    seed=st.integers(0, 2**16),
    sizes=st.lists(st.integers(0, 40), min_size=1, max_size=3),
)
def test_append_blocks_writes_exactly_its_cycles(
    D, schedule, plane, in_flight, dead, seed, sizes
):
    dead = dead if 0 <= dead < D and D > 1 else None  # a degraded array, or not
    rng = random.Random(seed)
    groups = [mixed_blocks(rng, n) for n in sizes]
    M = in_flight * 4 * D * B
    images, cycles = {}, {}
    with tempfile.TemporaryDirectory() as root:
        for name, cls, fast in (
            ("fast", DiskArray, True),
            ("reference", DiskArray, False),
            ("chunked", _ChunkedReference, False),
        ):
            path = None if plane == "memory" else os.path.join(root, name)
            spec = StorageSpec.create(plane, path)
            array = cls(D, B, fast_io=fast, storage=spec, M=M)
            try:
                if dead is not None:
                    array.mark_dead(dead)
                live = len(array.live_disks)
                trace = None if fast else IOTrace.attach(array)
                buckets = LinkedBuckets(
                    array, RegionAllocator(array), nbuckets=D,
                    bucket_of=lambda dest: dest * D // V, rng=random.Random(seed),
                    chunk=2, schedule=schedule,
                )
                placed = cycles[name] = []
                place = buckets._place_cycle

                def recording(cycle, live_disks):
                    writes = place(cycle, live_disks)
                    placed.append((tuple(d for d, _, _ in writes), tuple(t for _, t, _ in writes)))
                    return writes

                buckets._place_cycle = recording
                for group in groups:
                    before = array.parallel_ops
                    assert buckets.append_blocks(group) == -(-len(group) // live)
                    assert array.parallel_ops - before == -(-len(group) // live)
                if trace is not None:
                    assert all(op.kind == "W" and not op.retry for op in trace.ops)
                    assert [(op.disks, op.tracks) for op in trace.ops] == placed
                    trace.detach()
                images[name] = _image(array)
            finally:
                array.close_storage()
    assert cycles["fast"] == cycles["reference"] == cycles["chunked"]
    assert images["fast"] == images["reference"] == images["chunked"]
