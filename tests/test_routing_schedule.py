"""The file plane moves data by schedule (DESIGN §6, §8).

``simulate_routing`` and ``LinkedBuckets.append_blocks`` hand whole chunks
of rounds to ``DiskArray.move_rounds`` / ``write_batched``; on the fast data
plane a chunk reaches each drive as one transfer.  These tests pin what
that must not change — counted costs, track maps, the bytes of the track
files — and what the primitives, the tight slots and the binary vector
image promise on their own.
"""

import hashlib
import os
import random
import tempfile
import tracemalloc

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
from repro.emio.faults import ChecksumError
from repro.emio.layout import RegionAllocator
from repro.emio.linked import LinkedBuckets
from repro.emio.storage import FRAME_BYTES, FileStorage, StorageSpec
from repro.emio.trace import IOTrace
from repro.outofcore import OutOfCoreSort, serialized_size, verify_digests
from repro.params import MachineParams

from .test_crash_consistency import small_sort
from .test_kept_store import always_route

B = 16
V = 16


# -- (a) chunked == round by round ---------------------------------------------------


def _blocks(rng: random.Random, n: int) -> list[Block]:
    """Message blocks of every fill level, vector and object records mixed."""
    out = []
    for i in range(n):
        fill = rng.randrange(B + 1)
        keys = [rng.randrange(1 << 40) for _ in range(fill)]
        records = keys if i % 5 == 0 else np.asarray(keys, dtype="<i8")
        out.append(Block(records=records, dest=rng.randrange(V), src=i % V, msg=i, seq=0))
    return out


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


def _fingerprint(array: DiskArray) -> dict:
    files = []
    for disk in array.disks:
        with open(disk.storage.path, "rb") as fh:
            files.append(hashlib.sha256(fh.read()).hexdigest())
    return {
        "parallel_ops": array.parallel_ops,
        "reads": [d.reads for d in array.disks],
        "writes": [d.writes for d in array.disks],
        "high_water": array.high_water_per_disk,
        "used_tracks": array.used_tracks_per_disk,
        "maps": [dict(d.storage._map) for d in array.disks],
        "free": [dict(d.storage._free_start) for d in array.disks],
        "io_bytes": (array.storage_read_bytes, array.storage_write_bytes),
        "files": files,
    }


@settings(max_examples=20, deadline=None)
@given(
    D=st.sampled_from([1, 2, 4, 8]),
    plane=st.sampled_from(["file", "mmap"]),
    seed=st.integers(0, 2**16),
    sizes=st.lists(st.lists(st.integers(0, 40), min_size=1, max_size=3),
                   min_size=2, max_size=2),
)
def test_chunked_equals_round_by_round(D, plane, seed, sizes):
    rng = random.Random(seed)
    supersteps = [[_blocks(rng, n) for n in groups] for groups in sizes]
    runs = {}
    with tempfile.TemporaryDirectory() as root:
        # M=None holds one round in flight: the round-by-round execution.
        for name, M in (("chunked", 1 << 20), ("rounds", None)):
            spec = StorageSpec.create(plane, os.path.join(root, name))
            array = DiskArray(D, B, fast_io=True, storage=spec, M=M)
            try:
                assert array.rounds_in_flight == (1 if M is None else M // (4 * D * B))
                stats, delivered = _two_supersteps(array, supersteps)
                runs[name] = (stats, delivered, _fingerprint(array))
            finally:
                array.close_storage()
    assert runs["chunked"] == runs["rounds"]


def test_traced_array_keeps_round_by_round_order(tmp_path):
    """A hooked array never takes the chunked path: its trace is the
    reference plane's, attempt for attempt."""
    supersteps = [[_blocks(random.Random(5), 40)]]
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


def _state(array: DiskArray):
    return (
        array.parallel_ops,
        [(d.reads, d.writes, d.used_tracks, d.high_water) for d in array.disks],
        [sorted(d.occupied()) for d in array.disks],
    )


@pytest.mark.parametrize("fast", [True, False])
def test_malformed_round_is_refused_before_data_moves(tmp_path, fast):
    array = _loaded_array(tmp_path, fast)
    try:
        assert array.parallel_ops == 3
        before = _state(array)
        good_r = [(0, 0), (1, 0)]
        good_w = [(0, 5, Block(records=[5])), (1, 5, Block(records=[5]))]
        good_moves = [(good_r, [(1, 5), (0, 5)]), ([(1, 2)], [(0, 6)])]
        for bad_addr in ((2, 1), (-1, 1), (0, -1)):  # anywhere in a batch
            with pytest.raises(DiskError):
                array.write_batched([*good_w, (*bad_addr, Block(records=[0])), *good_w])
            assert _state(array) == before
        for bad in ([(0, 1), (0, 2)], [(0, 1), (1, 1), (0, 2)], []):
            # A bad read round, a bad write round: anywhere in a chunk.
            for bad_move in ((bad, [(0, 7), (1, 7)][: len(bad)]), ([(0, 1), (1, 1)], bad)):
                for at in range(len(good_moves) + 1):
                    chunk = [*good_moves[:at], bad_move, *good_moves[at:]]
                    with pytest.raises(DiskError):
                        array.move_rounds(chunk)
                    assert _state(array) == before
        with pytest.raises(DiskError):  # a round writes every block it reads
            array.move_rounds([*good_moves, (good_r, [(0, 7)])])
        assert _state(array) == before
        array.move_rounds(good_moves)
        moved = array.parallel_read([(1, 5), (0, 5)]), array.parallel_read([(0, 6)])
        assert [[b.records for b in r] for r in moved] == [[[0], [0]], [[-2]]]
        assert array.parallel_ops == 3 + 4 + 2
        assert [d.used_tracks for d in array.disks] == [5, 4]
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
    """The fast-plane twin of ``test_storage_oom``'s reference-plane bound.

    This workload's dataset is about the size of its declared ``M``, so the
    quarter of ``M`` a schedule may hold in flight is not small beside the
    quarter-of-dataset bound.  The chunk is therefore measured — the heap
    one chunk of the composed relay (``DiskArray._relay_sealed``) holds at
    its worst: the sealed frames of its rounds (``tracemalloc`` sees the
    reads they are views of) plus one write buffer — and allowed once;
    everything else, the two schedules' index arrays and the hop arrays
    ``move_rounds`` composes them into included, obeys the reference
    plane's bound.  A second chunk kept alive, a decoded copy of the first,
    or anything proportional to the dataset, breaks it.
    """
    N, V_, SEED, RECLEN = 320_000, 64, 0, 64
    alg = OutOfCoreSort(N, V_, seed=SEED, reclen=RECLEN)
    machine = MachineParams(p=1, M=alg.context_size(), D=8, B=1024)
    serialized = serialized_size(SEED, N, V_, RECLEN)
    chunk_heap, peak_before = [0], [0]
    relay_sealed = DiskArray._relay_sealed

    def measured(self, *hops):
        assert len({len(column) for column in hops}) == 1
        assert len(hops[0]) <= self.rounds_in_flight * self.D
        before, peak = tracemalloc.get_traced_memory()
        peak_before[0] = max(peak_before[0], peak)
        tracemalloc.reset_peak()
        relay_sealed(self, *hops)
        chunk_heap[0] = max(chunk_heap[0], tracemalloc.get_traced_memory()[1] - before)

    monkeypatch.setattr(DiskArray, "_relay_sealed", measured)
    # The measured chunk is Algorithm 2's; force it where the store would be kept.
    always_route(monkeypatch)
    tracemalloc.start()
    tracemalloc.reset_peak()
    out, _report = simulate(alg, machine, v=V_, seed=SEED, storage="file", fast_io=True)
    peak = max(peak_before[0], tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
    verify_digests(out, SEED, N, V_, RECLEN)
    assert chunk_heap[0] > 0
    assert 4 * (peak - chunk_heap[0]) <= serialized, (
        f"peak heap {peak} less one chunk of {chunk_heap[0]} exceeds 1/4 of "
        f"the {serialized}-byte dataset"
    )


# -- crash coverage of the plane the benchmark runs ----------------------------------


@pytest.mark.parametrize("plane", ["file", "mmap"])
def test_fast_vector_plane_recovers_every_crash_point(tmp_path, plane):
    machine = MachineParams(p=1, M=1 << 14, D=2, B=16, b=16)
    res = explore(
        small_sort, machine, 4, tmp_path, storage=plane,
        fast_io=True, context_cache=True, records="vector",
    )
    assert res.total_points > 0
    assert res.passed, [str(o) for o in res.failures]
    actions = {o.action for o in res.outcomes}
    assert "restart" in actions and any(a.startswith("resume@") for a in actions)


def test_crash_between_two_chunks_of_a_composed_relay_resumes(tmp_path, monkeypatch):
    """The window the composed relay opens: some targets of a reorganize
    written, the rest still only in the bucket store, and — unlike the
    two-hop relay — no scratch copy anywhere.  Nothing in it is referenced
    by a committed barrier, so losing unsynced writes there and resuming
    must reproduce the golden outputs and ledger, for every relay of the
    run that has a second chunk."""
    from repro.core.simulator import build_params, make_engine
    from repro.crashcheck import crash_and_recover
    from repro.emio.faults import CrashPlan, HostCrash

    machine = MachineParams(p=1, M=1 << 14, D=2, B=16, b=16)
    # One round in flight, so that a relay of this small sort has chunks to
    # crash between; counted costs do not depend on the chunk.  Two drives
    # keep every store, so Step 2 is forced onto Algorithm 2.
    monkeypatch.setattr(DiskArray, "rounds_in_flight", property(lambda self: 1))
    always_route(monkeypatch)

    def build(storage_dir, crash=None, max_recoveries=8):
        alg = small_sort()
        alg.set_record_mode("vector")
        return make_engine(
            alg, build_params(alg, machine, 4, k=2), seed=0, checkpoint=True,
            max_recoveries=max_recoveries, storage="file", storage_dir=storage_dir,
            crash=crash, fast_io=True, context_cache=True,
        )

    relay_sealed = DiskArray._relay_sealed
    chunks_of: list[int] = []  # per relay of the run, how many chunks it moved
    die_at = [None]  # (relay, chunk) after which the host dies, once

    def relay(self, *hops):
        relay_sealed(self, *hops)
        chunks_of[-1] += 1
        if die_at[0] == (len(chunks_of) - 1, chunks_of[-1]):
            die_at[0] = None
            self.crash_storage("lost")
            raise HostCrash("injected host crash between two chunks of a relay")

    move_rounds = DiskArray.move_rounds

    def counted(self, rounds, then=()):
        chunks_of.append(0)
        return move_rounds(self, rounds, then)

    monkeypatch.setattr(DiskArray, "_relay_sealed", relay)
    monkeypatch.setattr(DiskArray, "move_rounds", counted)
    golden_out, golden_rep = build(str(tmp_path / "golden")).run()
    relays = [(i, n) for i, n in enumerate(chunks_of) if n >= 2]
    assert relays and golden_rep.faults.checkpoints_taken >= 2
    never = CrashPlan(seed=7, crash_point=10**6)  # arms the write log; never fires itself
    actions = set()
    for i, n in relays:
        del chunks_of[:]
        die_at[0] = (i, n // 2)
        run = crash_and_recover(build, str(tmp_path / f"relay{i}"), never)
        assert die_at[0] is None and run.failure is None, run.failure
        assert run.action != "no-crash" and run.action != "scrub"
        assert run.outputs == golden_out
        assert run.report.ledger.summary() == golden_rep.ledger.summary()
        actions.add(run.action.split("@")[0])
    assert "resume" in actions
