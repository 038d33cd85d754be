"""``DiskArray.move_rounds``: a relayed block travels sealed (DESIGN §6, §8).

SimulateRouting never looks inside the blocks it moves, so on the fast data
plane a chunk of rounds goes ``get_sealed`` -> ``put_sealed``: the frame as
read, checked but neither decoded nor re-encoded.  The loop it replaced —
one ``parallel_read`` plus one ``parallel_write`` per round, every block
decoded and encoded again — is kept here as the oracle, on a twin array:
blocks, counters, maps and the bytes of the track files must agree.
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

from repro.emio.disk import Block
from repro.emio.diskarray import DiskArray
from repro.emio.faults import ChecksumError, FaultPlan
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


def _array(D: int, plane: str, root, **kw) -> DiskArray:
    spec = StorageSpec.create(plane, None if plane == "memory" else root)
    return DiskArray(D, B, fast_io=True, storage=spec, M=1 << 20, **kw)


def _file_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _state(array: DiskArray) -> dict:
    array.sync_storage()
    state = {
        "parallel_ops": array.parallel_ops,
        "disks": [(d.reads, d.writes, d.high_water, d.used_tracks) for d in array.disks],
        "io_bytes": (array.storage_read_bytes, array.storage_write_bytes),
        "blocks": [{t: _plain(d.peek(t)) for t in sorted(d.occupied())} for d in array.disks],
    }
    if array.storage_spec.kind != "memory":
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
