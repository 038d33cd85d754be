"""A relay schedule is five integer arrays (DESIGN §6, "Scheduled rounds").

``simulate_routing`` builds both of Algorithm 2's phases in closed form, as
``RelaySchedule`` arrays, and ``DiskArray.move_rounds`` checks, charges and
composes them without touching a row in Python.  The generators they
replaced — ``routing._phase1_rounds`` / ``_phase2_rounds``, one round of
Python tuples at a time off per-bucket FIFOs — are kept here as the oracle:
over random bucket tables the arrays must iterate to the very same rounds,
in the same order, as Python ints.  The second half is the refusal table:
every rule a round can break, in either form and either schedule, at the
first, a middle and the last round, leaves the array untouched.
"""

import random
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.routing import simulate_routing
from repro.emio.disk import Block, DiskError
from repro.emio.diskarray import DiskArray, RelaySchedule
from repro.emio.layout import RegionAllocator
from repro.emio.linked import LinkedBuckets
from repro.emio.storage import StorageSpec

from .test_routing_schedule import _state
from .test_sealed_relay import SCRATCH, TARGET, B, _gather_and_stripe

V = 32  # destinations; every bucket and batch boundary below divides it


# -- the oracle: SimulateRouting's schedules as they were generated up to PR 23 ------


def _phase1_rounds(queues, D, copy_base):
    """Round ``j`` reads bucket ``d``'s next block off disk ``(d + j) mod D``
    and writes it to its sorted position in bucket ``d``'s copy on disk ``d``.

    ``queues[d][disk]`` is the FIFO of ``(track, copy position)`` pairs of
    bucket ``d``'s blocks on ``disk``.
    """
    remaining = sum(len(fifo) for per_disk in queues for fifo in per_disk)
    heads = [[0] * D for _ in queues]
    j = 0
    while remaining > 0:
        reads, write_addrs = [], []
        for d, per_disk in enumerate(queues):
            src = (d + j) % D
            if heads[d][src] < len(per_disk[src]):
                track, copy_pos = per_disk[src][heads[d][src]]
                heads[d][src] += 1
                reads.append((src, track))
                write_addrs.append((d, copy_base + copy_pos))
        j += 1
        if reads:
            remaining -= len(reads)
            yield reads, write_addrs


def _phase2_rounds(bucket_range, D, copy_base, region_base):
    """Round ``j`` reads the next block of every bucket's sorted copy and
    writes it to its final place in the striped region; bucket ``d`` starts
    ``(offset_d - d) mod D`` rounds late."""
    shifts = [(off - d) % D if size else 0 for d, (off, size) in enumerate(bucket_range)]
    total_rounds = max(
        (shift + size for shift, (_, size) in zip(shifts, bucket_range)), default=0
    )
    for j in range(total_rounds):
        reads, write_addrs = [], []
        for d, (off, size) in enumerate(bucket_range):
            q = j - shifts[d]
            if 0 <= q < size:
                reads.append((d, copy_base + q))
                tgt = off + q
                write_addrs.append((tgt % D, region_base + tgt // D))
        if reads:
            yield reads, write_addrs


def _oracle(table, D, nslots, slot_of, copy_base, region_base):
    """The old metadata walk over the bucket tables: slot sizes, and both
    phases' rounds from the generators above."""
    slot_sizes = [0] * nslots
    triples = []
    for per_disk in table:
        ts = []
        for disk, fifo in enumerate(per_disk):
            for track, dest in fifo:
                slot_sizes[slot_of(dest)] += 1
                ts.append((disk, track, slot_of(dest)))
        triples.append(ts)
    cursors = list(accumulate(slot_sizes, initial=0))
    queues, bucket_range = [], []
    for ts in triples:
        entries = []
        for disk, track, s in ts:
            entries.append((disk, track, cursors[s]))
            cursors[s] += 1
        off = min((tgt for _, _, tgt in entries), default=0)
        per_disk = [[] for _ in range(D)]
        for disk, track, tgt in entries:
            per_disk[disk].append((track, tgt - off))
        queues.append(per_disk)
        bucket_range.append((off, len(entries)))
    return (
        slot_sizes,
        list(_phase1_rounds(queues, D, copy_base)),
        list(_phase2_rounds(bucket_range, D, copy_base, region_base)),
    )


@st.composite
def _tables(draw):
    """Random bucket tables: empty buckets, one-block buckets, a bucket — or
    everything — on one disk, tracks with gaps."""
    D = draw(st.sampled_from([1, 2, 4, 8]))
    nb = draw(st.sampled_from([n for n in (1, 2, 4, 8) if n <= D]))
    rng = random.Random(draw(st.integers(0, 1 << 30)))
    shape = draw(st.sampled_from(["uniform", "sparse", "one disk", "one bucket one disk"]))
    # "sparse": some buckets empty, the others at a block or two.
    live = [b for b in range(nb) if shape != "sparse" or rng.random() < 0.6] or [0]
    nblocks = draw(st.integers(0, 2 * len(live) if shape == "sparse" else 120))
    table = [[[] for _ in range(D)] for _ in range(nb)]
    next_track = [rng.randrange(4) for _ in range(D)]
    pinned = rng.randrange(D)
    for _ in range(nblocks):
        b = rng.choice(live)
        dest = rng.randrange(b * V // nb, (b + 1) * V // nb)
        on_one = shape == "one disk" or (shape == "one bucket one disk" and b == live[0])
        disk = pinned if on_one else rng.randrange(D)
        table[b][disk].append((next_track[disk], dest))
        next_track[disk] += rng.randint(1, 3)
    k = draw(st.sampled_from([1, 2, 4]))  # vps per batch slot
    return D, nb, table, k


@settings(max_examples=150, deadline=None)
@given(tables=_tables(), fast=st.booleans())
def test_array_schedules_iterate_to_the_generated_rounds(tables, fast):
    D, nb, table, k = tables
    nslots = V // k
    slot_of = (lambda dest: dest) if k == 1 else (lambda dest: dest // k)  # batch_of_vp
    array = DiskArray(D, 8, fast_io=fast, M=1 << 12)
    allocator = RegionAllocator(array)
    allocator.allocate(400)  # the bucket store's own tracks: 120 blocks, gaps of up to 3
    buckets = LinkedBuckets(
        array, allocator, nbuckets=nb, bucket_of=lambda dest: dest * nb // V,
        rng=random.Random(0),
    )
    buckets.table = table
    for b, per_disk in enumerate(table):
        for disk, fifo in enumerate(per_disk):
            for track, dest in fifo:
                array.disks[disk]._store(track, Block(records=[dest], dest=dest))

    handed, bases = [], []
    move_rounds, allocate = array.move_rounds, allocator.allocate

    def spy(rounds, then=()):
        handed.extend([rounds, then])
        return move_rounds(rounds, then)

    def noted(tracks_per_disk):
        bases.append(allocate(tracks_per_disk))
        return bases[-1]

    array.move_rounds, allocator.allocate = spy, noted
    region, stats = simulate_routing(array, allocator, buckets, nslots, slot_of)
    total = sum(len(fifo) for per_disk in table for fifo in per_disk)
    assert stats.total_blocks == total
    if not total:
        assert not handed and region.total_blocks == 0
        return
    region_base, copy_base = bases
    assert region.base == region_base
    slot_sizes, want1, want2 = _oracle(table, D, nslots, slot_of, copy_base, region_base)
    assert region.slot_sizes == slot_sizes
    assert all(type(n) is int for n in region.slot_sizes)
    phase1, phase2 = handed
    assert isinstance(phase1, RelaySchedule) and isinstance(phase2, RelaySchedule)
    for schedule, want in ((phase1, want1), (phase2, want2)):
        got = list(schedule)
        assert got == want
        assert got == list(schedule)  # a schedule starts over on every walk
        assert all(
            type(x) is int for reads, writes in got for addr in (*reads, *writes) for x in addr
        )
        assert schedule.nrounds == len(want)
    assert (stats.phase1_ops, stats.phase2_ops) == (2 * len(want1), 2 * len(want2))
    assert type(stats.phase1_ops) is int and type(stats.phase2_ops) is int
    # Every block arrived, slot by slot, and the scratch copy is gone again.
    delivered = [sorted(b.dest for b in slot) for slot in region.read_slots(range(nslots))]
    wanted = [[] for _ in range(nslots)]
    for per_disk in table:
        for fifo in per_disk:
            for _, dest in fifo:
                wanted[slot_of(dest)].append(dest)
    assert delivered == [sorted(w) for w in wanted]


def test_from_rounds_round_trips_and_iterates_python_ints():
    rounds = [([(0, 3), (2, 9)], [(1, 50), (0, 51)]), ([(1, 4)], [(2, 52)])]
    schedule = RelaySchedule.from_rounds(rounds)
    assert list(schedule) == rounds and schedule.nrounds == 2
    assert schedule.round.tolist() == [0, 0, 1]
    assert RelaySchedule.from_rounds([]).nrounds == 0 and list(RelaySchedule.from_rounds([])) == []


# -- the refusal table ---------------------------------------------------------------

def _array(tmp_path, plane: str) -> DiskArray:
    """A loaded 2-disk array on the fast file plane, the fast heap or the
    reference plane."""
    if plane == "fast file":
        array = DiskArray(2, B, fast_io=True, storage=StorageSpec.create("file", tmp_path / "a"),
                          M=1 << 20)
    else:
        array = DiskArray(2, B, fast_io=plane == "fast memory", M=1 << 20)
    assert array.fast_data_plane is plane.startswith("fast")
    array.write_batched([(d, t, Block(records=[10 * t + d])) for t in range(4) for d in range(2)])
    return array


def _as_arrays(rounds) -> RelaySchedule:
    """``rounds`` in array form whatever is wrong with them: an empty round
    is a skipped id, a round that writes fewer blocks than it reads leaves
    the write columns short."""
    ids = [i for i, (reads, _) in enumerate(rounds) for _ in reads]
    reads = [addr for round_reads, _ in rounds for addr in round_reads]
    writes = [addr for _, round_writes in rounds for addr in round_writes]
    return RelaySchedule(
        ids, [d for d, _ in reads], [t for _, t in reads],
        [d for d, _ in writes], [t for _, t in writes],
    )


_SCRATCH9 = [(0, SCRATCH + 9), (1, SCRATCH + 9)]
BROKEN = {
    "empty round": ([], []),
    "more than D tracks": ([(0, 3), (1, 3), (0, 2)], [*_SCRATCH9, (0, SCRATCH + 8)]),
    "a disk read twice": ([(0, 3), (0, 2)], _SCRATCH9),
    "a disk written twice": ([(0, 3), (1, 3)], [(1, SCRATCH + 9), (1, SCRATCH + 8)]),
    "a block read and not written": ([(0, 3), (1, 3)], _SCRATCH9[:1]),
    "a disk read that the array has not": ([(0, 3), (2, 3)], _SCRATCH9),
    "a negative disk written": ([(0, 3), (1, 3)], [(0, SCRATCH + 9), (-1, SCRATCH + 9)]),
}


@pytest.mark.parametrize("plane", ["fast file", "fast memory", "reference"])
@pytest.mark.parametrize("broken", sorted(BROKEN))
def test_broken_round_anywhere_in_either_schedule_moves_nothing(tmp_path, plane, broken):
    array = _array(tmp_path, plane)
    try:
        before = _state(array)
        n = 3
        for which in (0, 1):
            for at in (0, n // 2 + 1, n):  # first, middle, last round
                schedules = [list(s) for s in _gather_and_stripe(2, n)]
                schedules[which].insert(at, BROKEN[broken])
                refusals = []
                # In arrays an empty round is a skipped id: there is no last one.
                expressible = broken != "empty round" or at < n
                for form in (list, _as_arrays) if expressible else (list,):
                    with pytest.raises(DiskError) as refused:
                        array.move_rounds(*(form(s) for s in schedules))
                    assert _state(array) == before
                    refusals.append(str(refused.value))
                # Checked in bulk, refused in the words of the round-by-round
                # rule (short write columns shift every later round's writes).
                if broken != "a block read and not written":
                    assert refusals[0] == refusals[-1]
        first, then = _gather_and_stripe(2, n)
        assert array.move_rounds(_as_arrays(first), _as_arrays(then)) == (2 * n, 2 * n)
        assert array.parallel_ops == before[0] + 4 * n
        got = array.read_batched([(d, TARGET + t) for t in range(n) for d in range(2)])
        assert [b.records for b in got] == [[10 * t + d] for t in range(n) for d in range(2)]
    finally:
        array.close_storage()


@pytest.mark.parametrize("plane", ["fast memory", "reference"])
def test_one_schedule_as_arrays_and_the_other_as_a_list(tmp_path, plane):
    array, twin = _array(tmp_path, plane), _array(tmp_path, plane)
    first, then = _gather_and_stripe(2, 3)
    assert array.move_rounds(RelaySchedule.from_rounds(first), then) == (6, 6)
    assert twin.move_rounds(first, RelaySchedule.from_rounds(then)) == (6, 6)
    assert _state(array)[:2] == _state(twin)[:2]
    for t in range(3):
        for d in range(2):
            assert array.disks[d].peek(TARGET + t).records == twin.disks[d].peek(TARGET + t).records


def test_compose_keeps_the_last_write_and_the_unread_in_order():
    """The join the tuple-walking ``_compose`` did with ``dict(zip(writes,
    reads))``: of two writes of one scratch track the later is the source,
    a scratch track nobody reads is stored as it stands, a read of a track
    the first schedule never wrote is loaded as it stands."""
    array = DiskArray(2, B, fast_io=True, M=1 << 20)
    first = RelaySchedule.from_rounds([
        ([(0, 0)], [(1, SCRATCH)]),
        ([(0, 1)], [(1, SCRATCH)]),  # overwrites the copy of (0, 0)
        ([(0, 2)], [(1, SCRATCH + 1)]),  # never read by ``then``
    ])
    then = RelaySchedule.from_rounds([
        ([(1, SCRATCH), (0, 3)], [(0, TARGET + 1), (1, TARGET)]),
    ])
    hops = [column.tolist() for column in array._compose(first, then)]
    assert list(zip(*hops)) == [
        (0, 2, 1, SCRATCH + 1),  # kept: source, then target
        (0, 3, 1, TARGET),  # targets in (track, disk) order
        (0, 1, 0, TARGET + 1),
    ]
    assert all(isinstance(column, np.ndarray) for column in array._compose(first, then))
