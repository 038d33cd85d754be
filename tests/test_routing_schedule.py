"""Algorithm 2 moves data by schedule, one round at a time (DESIGN §6, §8).

``simulate_routing`` reads both phases off the bucket tables in closed form
and hands them to ``DiskArray.move_rounds``, which checks every round and
then runs them read, write, read, write on every plane.  These tests pin the
planner against the paper's generated rounds, what a malformed or damaged
schedule may not do, what the binary vector image promises on its own, the
heap bound of a forced Algorithm 2 on the file plane and its crash windows.
"""

import random
import tracemalloc
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.routing import simulate_routing
from repro.core.simulator import simulate
from repro.crashcheck import explore
from repro.emio.codec import codecs
from repro.emio.disk import Block, DiskError
from repro.emio.diskarray import DiskArray
from repro.emio.faults import ChecksumError, RetryExhaustedError
from repro.emio.layout import RegionAllocator
from repro.emio.linked import LinkedBuckets
from repro.emio.storage import FRAME_BYTES, FileStorage, StorageSpec
from repro.emio.trace import IOTrace
from repro.outofcore import OutOfCoreSort, serialized_size, verify_digests
from repro.params import MachineParams

from .helpers import always_route, array_state, mixed_blocks, small_sort

B = V = 16
NDEST = 32  # the planner property's destinations; every bucket and batch boundary divides it


# -- (a) the planner is the paper's loop -------------------------------------------


def _two_supersteps(array: DiskArray, supersteps: list[list[list[Block]]]):
    """Append each superstep's groups and reorganize; the second superstep
    reuses the slots the first one freed."""
    allocator = RegionAllocator(array)
    D = array.D
    stats, region = [], None
    for groups in supersteps:
        buckets = LinkedBuckets(
            array, allocator, nbuckets=D, bucket_of=lambda dest: dest * D // V,
            rng=random.Random(1),
        )
        for group in groups:
            buckets.append_blocks(group)
        new_region, st_ = simulate_routing(
            array, allocator, buckets, nslots=V, slot_of=lambda dest: dest
        )
        buckets.free()
        if region is not None:
            region.free()
        region = new_region
        stats.append(st_)
    delivered = [
        [(b.dest, b.msg, [int(r) for r in b.records]) for b in slot]
        for slot in region.read_slots(range(V))
    ]
    array.sync_storage()
    return stats, delivered


def _phase1_rounds(queues, D, copy_base):
    """The oracle of phase 1, as the paper generates it: round ``j`` reads
    bucket ``d``'s next block off disk ``(d + j) mod D`` and writes it to its
    sorted position in bucket ``d``'s copy on disk ``d``.  ``queues[d][disk]``
    is the FIFO of ``(track, copy position)`` pairs of bucket ``d`` on ``disk``.
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
    """The oracle of phase 2: round ``j`` reads the next block of every
    bucket's sorted copy and writes it to its final place in the striped
    region; bucket ``d`` starts ``(offset_d - d) mod D`` rounds late."""
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
    """Slot sizes and both phases' rounds by a walk over the bucket tables."""
    slot_sizes = [0] * nslots
    for per_disk in table:
        for fifo in per_disk:
            for _, dest in fifo:
                slot_sizes[slot_of(dest)] += 1
    cursors = list(accumulate(slot_sizes, initial=0))
    queues, bucket_range = [], []
    for per_disk in table:
        entries = []
        for disk, fifo in enumerate(per_disk):
            for track, dest in fifo:
                entries.append((disk, track, cursors[slot_of(dest)]))
                cursors[slot_of(dest)] += 1
        off = min((tgt for _, _, tgt in entries), default=0)
        fifos = [[] for _ in range(D)]
        for disk, track, tgt in entries:
            fifos[disk].append((track, tgt - off))
        queues.append(fifos)
        bucket_range.append((off, len(entries)))
    return (
        slot_sizes,
        list(_phase1_rounds(queues, D, copy_base)),
        list(_phase2_rounds(bucket_range, D, copy_base, region_base)),
    )


@st.composite
def _tables(draw):
    """Random bucket tables over ``NDEST`` destinations: empty buckets,
    one-block buckets, a bucket — or everything — on one disk, tracks with
    gaps."""
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
        dest = rng.randrange(b * NDEST // nb, (b + 1) * NDEST // nb)
        on_one = shape == "one disk" or (shape == "one bucket one disk" and b == live[0])
        disk = pinned if on_one else rng.randrange(D)
        table[b][disk].append((next_track[disk], dest))
        next_track[disk] += rng.randint(1, 3)
    k = draw(st.sampled_from([1, 2, 4]))  # vps per batch slot
    return D, nb, table, k


@settings(max_examples=150, deadline=None)
@given(tables=_tables(), fast=st.booleans())
def test_planned_rounds_are_the_generated_rounds(tables, fast):
    """Over random bucket tables the closed-form plan iterates to the very
    rounds the paper's loop generates, in the same order, as Python ints,
    afresh on every walk; each round costs two operations and every block
    arrives in its slot."""
    D, nb, table, k = tables
    nslots = NDEST // k
    slot_of = (lambda dest: dest) if k == 1 else (lambda dest: dest // k)  # one slot a group of k
    array = DiskArray(D, 8, fast_io=fast, M=1 << 12)
    allocator = RegionAllocator(array)
    allocator.allocate(400)  # the bucket store's own tracks: 120 blocks, gaps of up to 3
    buckets = LinkedBuckets(
        array, allocator, nbuckets=nb, bucket_of=lambda dest: dest * nb // NDEST,
        rng=random.Random(0),
    )
    buckets.table = table
    for per_disk in table:
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
    for phase, want in zip(handed, (want1, want2)):
        got = list(phase)
        assert got == want == list(phase)
        assert all(
            type(x) is int for reads, writes in got for addr in (*reads, *writes) for x in addr
        )
    assert (stats.phase1_ops, stats.phase2_ops) == (2 * len(want1), 2 * len(want2))
    assert type(stats.phase1_ops) is int and type(stats.phase2_ops) is int
    delivered = [sorted(b.dest for b in slot) for slot in region.read_slots(range(nslots))]
    wanted = [[] for _ in range(nslots)]
    for per_disk in table:
        for fifo in per_disk:
            for _, dest in fifo:
                wanted[slot_of(dest)].append(dest)
    assert delivered == [sorted(w) for w in wanted]


def test_traced_array_keeps_round_by_round_order(tmp_path):
    """A traced array runs the reference plane's attempts, fast knob or
    not: its trace is the reference plane's, attempt for attempt."""
    supersteps = [[mixed_blocks(random.Random(5), 40)]]
    traces = []
    for fast in (True, False):
        spec = StorageSpec.create("file", tmp_path / f"fast{fast}")
        array = DiskArray(4, B, fast_io=fast, storage=spec, M=1 << 20)
        trace = IOTrace.attach(array)
        try:
            assert array.rounds_in_flight == 1
            _two_supersteps(array, supersteps)
        finally:
            array.close_storage()
        traces.append([(op.kind, op.disks, op.tracks) for op in trace.ops])
    assert traces[0] == traces[1]
    kinds = "".join(op[0] for op in traces[0])
    assert "RWRW" in kinds  # routing reads and writes round by round


# -- (b) a malformed schedule moves nothing ------------------------------------------


def _loaded_array(tmp_path, fast: bool) -> DiskArray:
    spec = StorageSpec.create("file" if fast else "memory", tmp_path / "arr" if fast else None)
    array = DiskArray(2, B, fast_io=fast, storage=spec, M=1 << 20)
    array.write_batched([(d, t, Block(records=[-t if d else t])) for t in range(3) for d in (0, 1)])
    return array


@pytest.mark.parametrize("fast", [True, False])
def test_malformed_round_is_refused_before_data_moves(tmp_path, fast):
    array = _loaded_array(tmp_path, fast)
    try:
        assert array.parallel_ops == 3
        before = array_state(array)
        good_r = [(0, 0), (1, 0)]
        good_w = [(0, 5, Block(records=[5])), (1, 5, Block(records=[5]))]
        good_moves = [(good_r, [(1, 5), (0, 5)]), ([(1, 2)], [(0, 6)])]
        for bad_addr in ((2, 1), (-1, 1), (0, -1)):  # anywhere in a batch
            with pytest.raises(DiskError):
                array.write_batched([*good_w, (*bad_addr, Block(records=[0])), *good_w])
            assert array_state(array) == before
        for bad in ([(0, 1), (0, 2)], [(0, 1), (1, 1), (0, 2)], []):
            # A bad read round, a bad write round: anywhere in either phase.
            for bad_move in ((bad, [(0, 7), (1, 7)][: len(bad)]), ([(0, 1), (1, 1)], bad)):
                for which in (0, 1):
                    for at in range(len(good_moves) + 1):
                        phases = [good_moves, good_moves]
                        phases[which] = [*good_moves[:at], bad_move, *good_moves[at:]]
                        with pytest.raises(DiskError):
                            array.move_rounds(*phases)
                        assert array_state(array) == before
        with pytest.raises(DiskError):  # a round writes every block it reads
            array.move_rounds(good_moves, [*good_moves, (good_r, [(0, 7)])])
        with pytest.raises(TypeError):  # checked in one walk, run in another
            array.move_rounds(good_moves, iter(good_moves))
        assert array_state(array) == before
        array.move_rounds(good_moves)
        moved = array.parallel_read([(1, 5), (0, 5)]), array.parallel_read([(0, 6)])
        assert [[b.records for b in r] for r in moved] == [[[0], [0]], [[-2]]]
        assert array.parallel_ops == 3 + 4 + 2
        assert [d.used_tracks for d in array.disks] == [5, 4]
    finally:
        array.close_storage()


@pytest.mark.parametrize("plane", ["file", "mmap"])
def test_damaged_bucket_store_frame_is_a_checksum_error(tmp_path, plane):
    """Algorithm 2 reads every block it moves through the frame check: a
    flipped payload byte in the bucket store surfaces as the ``ChecksumError``
    behind the read's exhausted retry budget (none, with no retry policy) —
    a fatal I/O fault the engines answer with checkpoint recovery."""
    array = DiskArray(2, B, fast_io=True, storage=StorageSpec.create(plane, tmp_path / "a"))
    try:
        allocator = RegionAllocator(array)
        buckets = LinkedBuckets(
            array, allocator, nbuckets=2, bucket_of=lambda dest: dest * 2 // V,
            rng=random.Random(3),
        )
        buckets.append_blocks([b for b in mixed_blocks(random.Random(3), 24) if len(b.records)])
        array.sync_storage()
        track = next(fifo[0][0] for per_disk in buckets.table if (fifo := per_disk[1]))
        store = array.disks[1].storage
        base, _n, length, _g = store._map[track]
        with open(store.path, "r+b") as fh:
            fh.seek(base * store.slot_bytes + FRAME_BYTES + length // 2)
            byte = fh.read(1)
            fh.seek(-1, 1)
            fh.write(bytes([byte[0] ^ 0x04]))
        with pytest.raises(RetryExhaustedError) as refused:
            simulate_routing(array, allocator, buckets, nslots=V, slot_of=lambda dest: dest)
        assert isinstance(refused.value.__cause__, ChecksumError)
    finally:
        array.close_storage()


# -- (c) the vector image ------------------------------------------------------------


def _file_storage(tmp_path) -> FileStorage:
    return StorageSpec.create("file", tmp_path / "st").make(0, B)


@pytest.mark.parametrize("codec", sorted(codecs()))
def test_vector_image_round_trip(tmp_path, codec):
    dtype = codecs()[codec].dtype
    full = np.arange(2 * B).view(dtype)[:B] if dtype.names else np.arange(B).astype(dtype)
    cases = {
        0: Block(records=full, dest=3, src=2, msg=7, seq=1),
        1: Block(records=full[:0], dest=0, src=0),  # empty block
        2: Block(records=full[:5], dest=-1, src=-1, dummy=True),
        3: Block(records=full[1:4], dest=1 << 40, src=5, msg=(1 << 62), seq=1 << 33),
    }
    store = _file_storage(tmp_path)
    try:
        store.put_many(list(cases.items()))
        for track, want in cases.items():
            for got in (store.get(track), store.get_many([track])[0]):
                assert got.records.dtype == dtype
                assert got.records.tolist() == want.records.tolist()
                assert (got.dest, got.src, got.msg, got.seq, got.dummy) == (
                    want.dest, want.src, want.msg, want.seq, want.dummy)
    finally:
        store.close()


def test_vector_image_is_little_endian_and_aligned(tmp_path):
    store = _file_storage(tmp_path)
    try:
        store.put(0, Block(records=np.arange(B, dtype=">i8"), dest=1))
        got = store.get(0).records
        assert got.dtype == np.dtype("<i8") and got.tolist() == list(range(B))
        assert got.flags.aligned
    finally:
        store.close()


def test_flipped_header_byte_is_a_checksum_error(tmp_path):
    store = _file_storage(tmp_path)
    try:
        store.put(0, Block(records=np.arange(B, dtype="<i8"), dest=1))
        store.sync()
        base = store._map[0][0] * store.slot_bytes
        for offset in (0, 1, 5, 13, 37, 40):  # tag, count, dest, src, dummy, descr
            with open(store.path, "r+b") as fh:
                fh.seek(base + FRAME_BYTES + offset)
                byte = fh.read(1)
                fh.seek(base + FRAME_BYTES + offset)
                fh.write(bytes([byte[0] ^ 0x01]))
            with pytest.raises(ChecksumError):
                store.get(0)
            with open(store.path, "r+b") as fh:
                fh.seek(base + FRAME_BYTES + offset)
                fh.write(byte)
            assert store.get(0).dest == 1
    finally:
        store.close()


# -- (d) the fast plane stays out of core --------------------------------------------


def test_fast_file_plane_peak_heap_quarter_of_dataset(monkeypatch):
    """The fast-plane twin of ``test_storage_oom``'s reference-plane bound,
    with Step 2 forced onto Algorithm 2: the peak heap of the whole run —
    both phases' index arrays, one round of blocks in flight, the append
    batches and the held contexts — stays within a quarter of the dataset.
    Anything proportional to the dataset breaks it."""
    N, V_, SEED, RECLEN = 320_000, 64, 0, 64
    alg = OutOfCoreSort(N, V_, seed=SEED, reclen=RECLEN)
    machine = MachineParams(p=1, M=alg.context_size(), D=8, B=1024)
    serialized = serialized_size(SEED, N, V_, RECLEN)
    always_route(monkeypatch)  # D = 8 keeps this sort's stores otherwise
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        out, report = simulate(alg, machine, v=V_, seed=SEED, storage="file", fast_io=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    verify_digests(out, SEED, N, V_, RECLEN)
    assert sum(s.phases.reorganize for s in report.supersteps) == 2364
    assert 4 * peak <= serialized, (
        f"peak heap {peak} exceeds 1/4 of the {serialized}-byte dataset"
    )


# -- crash coverage of the plane the benchmark runs ----------------------------------


@pytest.mark.parametrize("plane", ["file", "mmap"])
def test_fast_vector_plane_recovers_every_crash_point(tmp_path, plane):
    machine = MachineParams(p=1, M=1 << 14, D=2, B=16, b=16)
    res = explore(
        small_sort, machine, 4, tmp_path, storage=plane,
        fast_io=True, context_cache=True,
    )
    assert res.total_points > 0
    assert res.passed, [str(o) for o in res.failures]
    actions = {o.action for o in res.outcomes}
    assert "restart" in actions and any(a.startswith("resume@") for a in actions)


@pytest.mark.parametrize("plane", ["file", "mmap"])
def test_crash_between_two_rounds_of_phase_2_resumes(tmp_path, monkeypatch, plane):
    """The window inside a reorganize: some targets of phase 2 written, the
    rest still only in the bucket copies.  Nothing in it is referenced by a
    committed barrier, so losing unsynced writes there and resuming must
    reproduce the golden outputs and ledger, for every reorganize of the run
    whose phase 2 has two rounds or more."""
    from repro.core import ParallelEMSimulation, build_params
    from repro.crashcheck import crash_and_recover
    from repro.emio.faults import CrashPlan, HostCrash

    machine = MachineParams(p=1, M=1 << 14, D=2, B=16, b=16)
    always_route(monkeypatch)  # two drives keep every store otherwise

    def build(storage_dir, crash=None, max_recoveries=8):
        alg = small_sort()
        return ParallelEMSimulation(
            alg, build_params(alg, machine, 4, k=2), seed=0, checkpoint=True,
            max_recoveries=max_recoveries, storage=plane, storage_dir=storage_dir,
            crash=crash, fast_io=True, context_cache=True,
        )

    rounds_of: list[int] = []  # per reorganize of the run, phase 2's rounds
    die_at = [None]  # (reorganize, round) before which the host dies, once
    move_rounds = DiskArray.move_rounds

    def crashing(self, rounds, then=()):
        then = list(then)
        rounds_of.append(len(then))
        if die_at[0] is None or die_at[0][0] != len(rounds_of) - 1:
            return move_rounds(self, rounds, then)
        cut, die_at[0] = die_at[0][1], None
        walks = []

        class Phase2:  # its second walk is the one that moves blocks
            def __iter__(_):
                walks.append(None)
                for j, move in enumerate(then):
                    if len(walks) == 2 and j == cut:
                        self.crash_storage("lost")
                        raise HostCrash("injected host crash between two rounds of phase 2")
                    yield move

        return move_rounds(self, rounds, Phase2())

    monkeypatch.setattr(DiskArray, "move_rounds", crashing)
    golden_out, golden_rep = build(str(tmp_path / "golden")).run()
    reorganizes = [(i, n) for i, n in enumerate(rounds_of) if n >= 2]
    assert reorganizes and golden_rep.faults.checkpoints_taken >= 2
    never = CrashPlan(seed=7, crash_point=10**6)  # arms the write log; never fires itself
    actions = set()
    for i, n in reorganizes:
        del rounds_of[:]
        die_at[0] = (i, n // 2)
        run = crash_and_recover(build, str(tmp_path / f"reorganize{i}"), never)
        assert die_at[0] is None and run.failure is None, run.failure
        assert run.action not in ("no-crash", "scrub")
        assert run.outputs == golden_out
        assert run.report.ledger.summary() == golden_rep.ledger.summary()
        actions.add(run.action.split("@")[0])
    assert "resume" in actions
