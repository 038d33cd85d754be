"""``DiskArray.move_rounds``: a relayed block travels sealed (DESIGN §6, §8).

SimulateRouting never looks inside the blocks it moves, so on the fast data
plane a chunk of rounds goes ``get_sealed`` -> ``put_sealed``: the frame as
read, checked but neither decoded nor re-encoded.  The loop it replaced —
one ``parallel_read`` plus one ``parallel_write`` per round, every block
decoded and encoded again — is kept here as the oracle, on a twin array:
blocks, counters, maps and the bytes of the track files must agree.

Two schedules handed over together — SimulateRouting's two phases — are
*composed*: charged as two, moved as one hop per block.  The same loop, run
phase by phase, is the oracle of that too (second half of this file).
"""

import hashlib
import os
import pickle
import random
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.routing import simulate_routing
from repro.emio.disk import Block, DiskError
from repro.emio.diskarray import DiskArray
from repro.emio.faults import ChecksumError, FaultPlan
from repro.emio.layout import RegionAllocator
from repro.emio.linked import LinkedBuckets
from repro.emio.storage import FRAME_BYTES, StorageSpec, verify_extents
from repro.emio.trace import IOTrace

B = 8
TARGET = 100  # first target track: a relay reads below it and writes from it up


def _old_loop(array: DiskArray, rounds) -> None:
    """``routing._move_rounds`` as it was on an array that holds one round."""
    for reads, write_addrs in rounds:
        blocks = array.parallel_read(reads)
        array.parallel_write([(d, t, blk) for (d, t), blk in zip(write_addrs, blocks)])


def _relay(array: DiskArray, rounds, cuts=()) -> None:
    """The schedule through ``move_rounds``, cut into calls at ``cuts``."""
    edges = [0, *sorted(cuts), len(rounds)]
    for lo, hi in zip(edges, edges[1:]):
        if lo < hi:
            array.move_rounds(rounds[lo:hi])


def _block(rng: random.Random, i: int) -> Block:
    """Vector, list and bytes payloads; empty, partial, full and dummy blocks."""
    fill = rng.choice([0, 1, rng.randrange(B + 1), B])
    keys = [rng.randrange(-(1 << 40), 1 << 40) for _ in range(fill)]
    flavour = i % 4
    if flavour == 0:
        records = keys
    elif flavour == 1:
        records = pickle.dumps(keys)[: B * Block.BYTES_PER_RECORD]
    elif flavour == 2:
        records = np.asarray(list(zip(keys, keys[::-1])), dtype=[("k", "<i8"), ("v", "<i8")])
    else:
        records = np.asarray(keys, dtype="<i8")
    return Block(
        records=records, dest=rng.randrange(64), src=i, msg=i * 7, seq=i % 3,
        dummy=rng.random() < 0.2,
    )


def _plain(block: Block | None):
    if block is None:
        return None
    records = block.records
    if isinstance(records, np.ndarray):
        records = (str(records.dtype), records.tolist())
    return (records, block.dest, block.src, block.msg, block.seq, block.dummy)


@st.composite
def _schedules(draw):
    """A loaded source area, a partly loaded target area, and rounds between
    them: ragged (1..D tracks), re-reading sources, reading empty tracks,
    overwriting targets — twice in one schedule now and then."""
    D = draw(st.sampled_from([1, 2, 4, 8]))
    rng = random.Random(draw(st.integers(0, 1 << 30)))
    depth = draw(st.integers(1, 6))
    loads = [
        (d, t, _block(rng, d * depth + t))
        for d in range(D) for t in range(depth) if rng.random() < 0.85
    ]
    loads += [
        (d, TARGET + t, _block(rng, 1000 + d * depth + t))
        for d in range(D) for t in range(depth) if rng.random() < 0.4
    ]
    rounds = []
    for _ in range(draw(st.integers(0, 12))):
        width = rng.randint(1, D)
        reads = [(d, rng.randrange(depth)) for d in rng.sample(range(D), width)]
        writes = [(d, TARGET + rng.randrange(depth + 2)) for d in rng.sample(range(D), width)]
        rounds.append((reads, writes))
    cuts = sorted({rng.randrange(len(rounds) + 1) for _ in range(rng.randrange(3))})
    return D, loads, rounds, cuts


def _array(D: int, plane: str, root, M: int = 1 << 20, **kw) -> DiskArray:
    spec = StorageSpec.create(plane, None if plane == "memory" else root)
    return DiskArray(D, B, fast_io=True, storage=spec, M=M, **kw)


def _file_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _state(array: DiskArray, physical: bool = True) -> dict:
    """Counters and every live track's decoded block; ``physical`` adds what
    depends on how often a block was carried: bytes moved, maps, files."""
    array.sync_storage()
    state = {
        "parallel_ops": array.parallel_ops,
        "disks": [(d.reads, d.writes, d.high_water, d.used_tracks) for d in array.disks],
        "blocks": [{t: _plain(d.peek(t)) for t in sorted(d.occupied())} for d in array.disks],
    }
    if physical:
        state["io_bytes"] = (array.storage_read_bytes, array.storage_write_bytes)
    if physical and array.storage_spec.kind != "memory":
        inner = [getattr(d.storage, "_inner", d.storage) for d in array.disks]
        state["maps"] = [dict(s._map) for s in inner]
        state["free"] = [dict(s._free_start) for s in inner]
        state["files"] = [hashlib.sha256(_file_bytes(s.path)).hexdigest() for s in inner]
    return state


# -- the relay is the old loop -------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    schedule=_schedules(),
    plane=st.sampled_from(["memory", "file", "mmap"]),
    snapshot=st.booleans(),
)
def test_relay_equals_the_old_loop(schedule, plane, snapshot):
    D, loads, rounds, cuts = schedule
    with tempfile.TemporaryDirectory() as root:
        new = _array(D, plane, os.path.join(root, "new"))
        old = _array(D, plane, os.path.join(root, "old"))
        try:
            assert new.fast_data_plane
            new.write_batched(loads), old.write_batched(loads)
            if snapshot:  # every frame ages a generation, every extent is pinned
                new.snapshot_storage(), old.snapshot_storage()
            _relay(new, rounds, cuts)
            _old_loop(old, rounds)
            assert _state(new) == _state(old)
            if plane == "memory":  # the block itself is what travelled
                held = {id(blk) for _, _, blk in loads}
                for disk in new.disks:
                    assert all(id(disk.peek(t)) in held for t in disk.occupied())
        finally:
            new.close_storage(), old.close_storage()


@pytest.mark.parametrize("plane", ["file", "mmap"])
def test_relay_neither_decodes_nor_encodes(tmp_path, plane, monkeypatch):
    """What the saving is made of: not one codec call, and the bytes that
    come off one track file are the bytes that go onto the other."""
    from repro.emio import storage as storage_mod

    array = _array(2, plane, tmp_path / "a")
    try:
        rng = random.Random(0)
        array.write_batched([(d, t, _block(rng, 2 * t + d)) for d in range(2) for t in range(4)])
        array.sync_storage()
        frames = {}
        for d, disk in enumerate(array.disks):
            raw = _file_bytes(disk.storage.path)
            for t, (base, _n, length, _g) in disk.storage._map.items():
                off = base * disk.storage.slot_bytes
                frames[d, t] = raw[off : off + FRAME_BYTES + length]

        def refuse(*_a):
            raise AssertionError("a relayed frame was opened up")

        monkeypatch.setattr(storage_mod, "_encode_block", refuse)
        monkeypatch.setattr(storage_mod, "_decode_block", refuse)
        array.move_rounds([([(0, t), (1, t)], [(1, TARGET + t), (0, TARGET + t)]) for t in range(4)])
        monkeypatch.undo()
        array.sync_storage()
        for d, disk in enumerate(array.disks):
            raw = _file_bytes(disk.storage.path)
            for t in range(4):
                base, _n, length, _g = disk.storage._map[TARGET + t]
                off = base * disk.storage.slot_bytes
                assert raw[off : off + FRAME_BYTES + length] == frames[1 - d, t]
    finally:
        array.close_storage()


# -- write generations and pinned extents --------------------------------------------


@pytest.mark.parametrize("plane", ["file", "mmap"])
def test_snapshot_between_put_and_relay_restamps(tmp_path, plane):
    rng = random.Random(1)
    loads = [(d, t, _block(rng, 3 * t + d)) for d in range(2) for t in range(3)]
    loads += [(d, TARGET, _block(rng, 50 + d)) for d in range(2)]  # pinned targets
    rounds = [([(0, t), (1, t)], [(1, TARGET + t), (0, TARGET + t)]) for t in range(3)]
    new, old = _array(2, plane, tmp_path / "new"), _array(2, plane, tmp_path / "old")
    try:
        snaps = {}
        for name, array in (("new", new), ("old", old)):
            array.write_batched(loads)
            array.sync_storage()
            snaps[name] = array.snapshot_storage()
        _relay(new, rounds)
        _old_loop(old, rounds)
        assert _state(new) == _state(old)
        for array, snap in ((new, snaps["new"]), (old, snaps["old"])):
            after = array.snapshot_storage()
            for disk, before_d, after_d in zip(array.disks, snap, after):
                # Every relayed frame carries the generation its map entry
                # records — the one opened by the first snapshot.
                assert {after_d["map"][TARGET + t][3] for t in range(3)} == {before_d["gen"] + 1}
                assert verify_extents(disk.storage.path, after_d) == len(after_d["map"])
                # The pinned target was not overwritten in place: the first
                # snapshot still verifies, and still holds the old block.
                assert verify_extents(disk.storage.path, before_d) == len(before_d["map"])
                assert after_d["map"][TARGET][0] != before_d["map"][TARGET][0]
        for d in range(2):
            for t in range(3):
                assert _plain(new.disks[1 - d].peek(TARGET + t)) == _plain(loads[d * 3 + t][2])
    finally:
        new.close_storage(), old.close_storage()


# -- nothing is written before everything read is checked ----------------------------


@pytest.mark.parametrize("plane", ["file", "mmap"])
def test_flipped_source_byte_is_a_checksum_error_and_moves_nothing(tmp_path, plane):
    array = _array(2, plane, tmp_path / "a")
    try:
        rng = random.Random(2)
        array.write_batched([(d, t, _block(rng, 2 * t + d)) for d in range(2) for t in range(3)])
        array.write_batched([(0, TARGET + 1, _block(rng, 99))])
        array.sync_storage()
        store = array.disks[1].storage
        base, _n, length, _g = store._map[1]  # read by the second of three rounds
        rounds = [([(0, t), (1, t)], [(1, TARGET + t), (0, TARGET + t)]) for t in range(3)]
        maps = [dict(d.storage._map) for d in array.disks]
        for offset in (0, 5, FRAME_BYTES - 1, FRAME_BYTES, FRAME_BYTES + length - 1):
            with open(store.path, "r+b") as fh:  # rot on the platter
                fh.seek(base * store.slot_bytes + offset)
                byte = fh.read(1)
                fh.seek(-1, 1)
                fh.write(bytes([byte[0] ^ 0x10]))
            files = [_file_bytes(d.storage.path) for d in array.disks]
            with pytest.raises(ChecksumError):
                array.move_rounds(rounds)
            array.sync_storage()
            assert [dict(d.storage._map) for d in array.disks] == maps
            assert [_file_bytes(d.storage.path) for d in array.disks] == files
            with open(store.path, "r+b") as fh:
                fh.seek(base * store.slot_bytes + offset)
                fh.write(byte)
        array.move_rounds(rounds)
        assert sorted(array.disks[0].occupied()) == [0, 1, 2, TARGET, TARGET + 1, TARGET + 2]
    finally:
        array.close_storage()


# -- off the fast data plane: read, write, read, write -------------------------------


def _off_plane(kind: str, plane: str, root) -> DiskArray:
    kw = {}
    if kind == "faulty":
        kw["faults"] = FaultPlan(
            seed=5, read_error_rate=0.2, write_error_rate=0.2, corruption_rate=0.1,
            latency_rate=0.1,
        )
    elif kind == "bounded":
        kw["ntracks"] = TARGET + 16
    array = _array(4, plane, root, **kw)
    if kind == "degraded":
        array.mark_dead(2)
    return array


@pytest.mark.parametrize("plane", ["memory", "file"])
@pytest.mark.parametrize("kind", ["hooked", "faulty", "bounded", "degraded"])
def test_array_off_the_fast_plane_keeps_its_trace(tmp_path, kind, plane):
    rng = random.Random(3)
    loads = [(d, t, _block(rng, 4 * t + d)) for t in range(5) for d in range(4)]
    rounds = []
    for t in range(5):
        width = rng.randint(1, 4)
        reads = [(d, t) for d in rng.sample(range(4), width)]
        rounds.append((reads, [(d, TARGET + t) for d in rng.sample(range(4), width)]))
    runs = []
    for name, move in (("new", _relay), ("old", _old_loop)):
        array = _off_plane(kind, plane, tmp_path / name)
        trace = IOTrace.attach(array)
        try:
            assert array.rounds_in_flight == 1 and not array.fast_data_plane
            array.write_batched(loads)
            move(array, rounds)  # new: all five rounds in one call
            state = _state(array)
            state["robustness"] = (
                array.retry_reads, array.retry_writes, array.stall_ops,
                array.degraded_writes, sorted(array.dead_disks),
            )
            runs.append((pickle.dumps(trace.ops), state))
        finally:
            array.close_storage()
    assert runs[0] == runs[1]
    if kind != "degraded":  # whose remapped rounds may need two attempts
        kinds = "".join(op.kind for op in pickle.loads(runs[0][0]) if not op.retry)
        assert kinds.endswith("RW" * len(rounds))


# == two schedules, one hop ==========================================================
#
# ``move_rounds(rounds, then)`` on the fast data plane charges both schedules
# and carries each block once, from where ``rounds`` read it to where ``then``
# writes it.  The oracle is the same old loop, run schedule by schedule.

SCRATCH = 50  # first scratch track: ``rounds`` writes from it up, ``then`` reads it


def _frames(array: DiskArray, tracks: range) -> dict:
    """The stored frame of every live track in ``tracks``, as the file holds it."""
    array.sync_storage()
    out = {}
    for d, disk in enumerate(array.disks):
        raw = _file_bytes(disk.storage.path)
        for t, (base, _n, length, _g) in disk.storage._map.items():
            if t in tracks:
                off = base * disk.storage.slot_bytes
                out[d, t] = raw[off : off + FRAME_BYTES + length]
    return out


def _agree(new: DiskArray, old: DiskArray, targets: range) -> None:
    """What composing two schedules may not change: every counter, every
    live track's block, the frames of the ``targets`` byte for byte, and
    that every extent either array maps verifies."""
    assert _state(new, physical=False) == _state(old, physical=False)
    if new.storage_spec.kind != "memory":
        assert _frames(new, targets) == _frames(old, targets)
        for array in (new, old):
            for disk, snap in zip(array.disks, array.snapshot_storage()):
                assert verify_extents(disk.storage.path, snap) == len(snap["map"])


def _phase_by_phase(array: DiskArray):
    """``move_rounds`` as the kept loop: each schedule on its own, round by round."""

    def move(rounds, then=()):
        ops = []
        for schedule in (rounds, then):
            before = array.parallel_ops
            _old_loop(array, list(schedule))
            ops.append(array.parallel_ops - before)
        return ops[0], ops[1]

    return move


def _spy_on_scratch(array: DiskArray, move, seen: list) -> None:
    """Route ``array.move_rounds`` through ``move``, noting what the first
    schedule writes."""

    def spied(rounds, then=()):
        rounds = list(rounds)
        seen.extend(addr for _, write_addrs in rounds for addr in write_addrs)
        return move(rounds, then)

    array.move_rounds = spied


@settings(max_examples=40, deadline=None)
@given(
    D=st.sampled_from([1, 2, 4, 8]),
    plane=st.sampled_from(["memory", "file", "mmap"]),
    seed=st.integers(0, 1 << 30),
    sizes=st.lists(st.integers(0, 30), min_size=1, max_size=3),
    chunk=st.sampled_from([1, 3, 1000]),
    snapshot=st.booleans(),
)
def test_composed_routing_equals_phase_by_phase(D, plane, seed, sizes, chunk, snapshot):
    """SimulateRouting over random bucket tables, its two phases composed on
    one array and run phase by phase through the old loop on its twin:
    counters, blocks, ``RoutingStats`` and the allocator agree, and the
    scratch range ends holding nothing on both.  Whole track files no
    longer compare — the scratch slots are never written now, so every
    later frame lies elsewhere — and byte identity is asserted for the
    frames of the target region only."""
    V = 64  # ``_block`` draws destinations below it
    rng = random.Random(seed)
    groups = [[_block(rng, 100 * g + i) for i in range(n)] for g, n in enumerate(sizes)]
    with tempfile.TemporaryDirectory() as root:
        new = _array(D, plane, os.path.join(root, "new"), M=chunk * 4 * D * B)
        old = _array(D, plane, os.path.join(root, "old"), M=chunk * 4 * D * B)
        try:
            assert new.fast_data_plane and new.rounds_in_flight == chunk
            runs = []
            for array, move in ((new, new.move_rounds), (old, _phase_by_phase(old))):
                scratch: list = []
                _spy_on_scratch(array, move, scratch)
                allocator = RegionAllocator(array)
                buckets = LinkedBuckets(
                    array, allocator, nbuckets=D, bucket_of=lambda dest: dest * D // V,
                    rng=random.Random(seed),
                )
                for group in groups:
                    buckets.append_blocks(group)
                if snapshot:
                    array.snapshot_storage()
                region, stats = simulate_routing(
                    array, allocator, buckets, nslots=V, slot_of=lambda dest: dest
                )
                assert len(scratch) == stats.total_blocks == sum(sizes)
                assert all(array.disks[d].peek(t) is None for d, t in scratch)
                runs.append((stats, scratch, allocator.next_track, allocator._free, region.base))
            assert runs[0] == runs[1]
            _agree(new, old, range(region.base, region.base + region.tracks_per_disk))
        finally:
            new.close_storage(), old.close_storage()


@st.composite
def _schedule_pairs(draw):
    """Loaded sources, partly loaded scratch and target areas, a first
    schedule from the sources into the scratch area and a second out of it
    into the targets — which, unlike routing's, now and then reads a source
    or a scratch track the first never wrote, leaves some of the first's
    writes unread, and writes a target twice."""
    D = draw(st.sampled_from([1, 2, 4, 8]))
    rng = random.Random(draw(st.integers(0, 1 << 30)))
    depth = draw(st.integers(1, 6))
    loads = [
        (d, base + t, _block(rng, base * 10 + d * depth + t))
        for base, share in ((0, 0.85), (SCRATCH, 0.3), (TARGET, 0.4))
        for d in range(D) for t in range(depth) if rng.random() < share
    ]

    def rounds(read_bases, write_base, extra):
        out = []
        for _ in range(draw(st.integers(0, 10))):
            width = rng.randint(1, D)
            reads = [(d, rng.choice(read_bases) + rng.randrange(depth))
                     for d in rng.sample(range(D), width)]
            writes = [(d, write_base + rng.randrange(depth + extra))
                      for d in rng.sample(range(D), width)]
            out.append((reads, writes))
        return out

    first = rounds([0], SCRATCH, 0)
    then = rounds([SCRATCH, SCRATCH, SCRATCH, 0], TARGET, 2)
    return D, depth, loads, first, then, draw(st.sampled_from([1, 2, 1000]))


@settings(max_examples=60, deadline=None)
@given(
    pair=_schedule_pairs(),
    plane=st.sampled_from(["memory", "file", "mmap"]),
    snapshot=st.booleans(),
)
def test_composed_pair_equals_phase_by_phase(pair, plane, snapshot):
    """Any pair of relay schedules, the two cases routing never produces
    included: a write of the first that the second does not read is stored,
    a read of the second that the first did not write is loaded.  The copy
    in between — charged on both arrays, stored only by the loop — is
    scratch, and released before the arrays are compared.  Whole track
    files no longer compare (the scratch slots are never written now);
    byte identity is asserted for the frames of the target area only."""
    D, depth, loads, first, then, chunk = pair
    with tempfile.TemporaryDirectory() as root:
        new = _array(D, plane, os.path.join(root, "new"), M=chunk * 4 * D * B)
        old = _array(D, plane, os.path.join(root, "old"), M=chunk * 4 * D * B)
        try:
            new.write_batched(loads), old.write_batched(loads)
            if snapshot:
                new.snapshot_storage(), old.snapshot_storage()
            assert new.move_rounds(first, then) == (2 * len(first), 2 * len(then))
            assert _phase_by_phase(old)(first, then) == (2 * len(first), 2 * len(then))
            between = {w for _, ws in first for w in ws} & {r for rs, _ in then for r in rs}
            for array in (new, old):
                for d, t in between:
                    array.disks[d].discard_track(t)
            _agree(new, old, range(TARGET, TARGET + depth + 2))
        finally:
            new.close_storage(), old.close_storage()


# -- the checks that must not weaken -------------------------------------------------


def _gather_and_stripe(D: int, n: int):
    """Two schedules shaped like routing's: track ``t`` of every drive goes
    to the next drive's scratch copy, and from there one drive further."""
    first = [([(d, t) for d in range(D)], [((d + 1) % D, SCRATCH + t) for d in range(D)])
             for t in range(n)]
    then = [([((d + 1) % D, SCRATCH + t) for d in range(D)],
             [((d + 2) % D, TARGET + t) for d in range(D)]) for t in range(n)]
    return first, then


@pytest.mark.parametrize(
    "plane, damage, victim",
    [("file", "flip", 3), ("file", "stale", 3), ("file", "short", 5),
     ("mmap", "flip", 3), ("mmap", "stale", 2)],
)
def test_damaged_bucket_store_track_stops_the_composed_relay(tmp_path, plane, damage, victim):
    """Every frame that is physically read is still checked — magic, length,
    generation, CRC32 — and before any write of its chunk: the targets of
    the chunks before the victim's are written, none of its own or later."""
    from repro.emio import storage as storage_mod

    array = _array(2, plane, tmp_path / "a", M=2 * 4 * 2 * B)
    try:
        assert array.rounds_in_flight == 2
        array.snapshot_storage()  # sources are written in generation 1
        rng = random.Random(4)
        array.write_batched([(d, t, _block(rng, 2 * t + d)) for t in range(6) for d in range(2)])
        array.sync_storage()
        store = array.disks[1].storage
        base, _n, length, gen = store._map[victim]
        offset = base * store.slot_bytes
        if damage == "flip":  # rot in the payload
            with open(store.path, "r+b") as fh:
                fh.seek(offset + FRAME_BYTES + length // 2)
                byte = fh.read(1)
                fh.seek(-1, 1)
                fh.write(bytes([byte[0] ^ 0x04]))
        elif damage == "stale":  # a lost write: the slot holds a sound frame of an older generation
            with open(store.path, "r+b") as fh:
                fh.seek(offset)
                frame = fh.read(FRAME_BYTES + length)
                fh.seek(offset)
                fh.write(storage_mod._seal_frame(b"", [frame[FRAME_BYTES:]], gen - 1))
        else:  # the file ends inside the last frame
            assert base == max(ext[0] for ext in store._map.values())
            os.truncate(store.path, offset + FRAME_BYTES + length // 2)
        with pytest.raises(ChecksumError):
            array.move_rounds(*_gather_and_stripe(2, 6))
        written = 2 * (victim // 2)  # two target tracks a chunk, in target order
        for disk in array.disks:
            assert sorted(disk.occupied()) == [*range(6), *range(TARGET, TARGET + written)]
    finally:
        array.close_storage()


@pytest.mark.parametrize("fast", [True, False])
def test_malformed_round_in_either_schedule_refuses_the_whole_call(tmp_path, fast):
    spec = StorageSpec.create("file", tmp_path / "a")
    array = DiskArray(2, B, fast_io=fast, storage=spec, M=1 << 20)
    try:
        assert array.fast_data_plane is fast
        rng = random.Random(5)
        array.write_batched([(d, t, _block(rng, 2 * t + d)) for t in range(4) for d in range(2)])
        first, then = _gather_and_stripe(2, 3)
        before = _state(array)
        scratch = [(0, SCRATCH + 9), (1, SCRATCH + 9)]
        for bad in (
            ([(0, 3), (0, 2)], scratch),  # a disk read twice
            ([(0, 3), (1, 3)], [(1, SCRATCH + 9), (1, SCRATCH + 8)]),  # a disk written twice
            ([(0, 3), (1, 3)], scratch[:1]),  # a block read and not written
            ([(0, 3), (1, 3), (0, 2)], [*scratch, (0, SCRATCH + 8)]),  # more than D tracks
            ([], []),
        ):
            for which in (0, 1):
                for at in range(4):
                    schedules = [list(first), list(then)]
                    schedules[which].insert(at, bad)
                    with pytest.raises(DiskError):
                        array.move_rounds(*schedules)
                    assert _state(array) == before
        if not fast:  # which walks a schedule twice, and says so
            with pytest.raises(TypeError):
                array.move_rounds(first, iter(then))
            assert _state(array) == before
        assert array.move_rounds(first, then) == (6, 6)
        assert array.parallel_ops == before["parallel_ops"] + 12
    finally:
        array.close_storage()


@pytest.mark.parametrize("plane", ["memory", "file"])
@pytest.mark.parametrize("kind", ["hooked", "faulty", "bounded", "degraded"])
def test_pair_off_the_fast_plane_keeps_its_trace(tmp_path, kind, plane):
    """Composition never engages off the fast data plane: both schedules run
    as written, the first to its end and then the second, and the trace is
    the old loop's attempt for attempt."""
    rng = random.Random(6)
    loads = [(d, t, _block(rng, 4 * t + d)) for t in range(5) for d in range(4)]
    first, then = _gather_and_stripe(4, 5)
    runs = []
    for name in ("new", "old"):
        array = _off_plane(kind, plane, tmp_path / name)
        trace = IOTrace.attach(array)
        try:
            assert not array.fast_data_plane
            array.write_batched(loads)
            move = array.move_rounds if name == "new" else _phase_by_phase(array)
            ops = move(first, then)
            state = _state(array)
            state["robustness"] = (
                array.retry_reads, array.retry_writes, array.stall_ops,
                array.degraded_writes, sorted(array.dead_disks),
            )
            runs.append((pickle.dumps(trace.ops), state, ops))
            if kind != "degraded":  # where a dead drive's copies live on the others
                assert all(len(blocks) == 15 for blocks in state["blocks"])  # the copy is stored
        finally:
            array.close_storage()
    assert runs[0] == runs[1]
    if kind != "degraded":  # whose remapped rounds may need two attempts
        kinds = "".join(op.kind for op in pickle.loads(runs[0][0]) if not op.retry)
        assert kinds.endswith("RW" * (len(first) + len(then)))
