"""Array in, array out (DESIGN §10) and the memory plane's batch primitives (§8).

A codec-eligible sort or permutation answers in the flavour it was asked
in: an ndarray in gives read-only ``<i8`` array shares out, a Python
sequence in gives lists of plain ``int``s out — whatever the record mode,
engine, backend or storage plane, and with every counted cost untouched.
The second half pins ``get_many`` / ``put_many`` / ``discard_range`` to the
per-track calls they batch.
"""

from __future__ import annotations

import os
import pickle
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.permutation import CGMPermutation
from repro.algorithms.sorting import CGMSampleSort
from repro.bsp.runner import run_reference
from repro.conform.oracles import canonical_record, check_outputs, plain_outputs
from repro.core.simulator import simulate
from repro.emio.disk import Block, Disk
from repro.emio.diskarray import DiskArray
from repro.emio.faults import FaultPlan, FaultyDisk
from repro.emio.layout import RegionAllocator, StripedRegion
from repro.emio.storage import FileStorage, MemoryStorage
from repro.params import MachineParams

N, V = 1024, 8

ENGINES = {
    "sequential": dict(engine="sequential", backend="inline"),
    "parallel-inline": dict(engine="parallel", backend="inline"),
    "parallel-process": dict(engine="parallel", backend="process"),
}


def _keys() -> np.ndarray:
    return np.random.default_rng(3).integers(-(1 << 40), 1 << 40, size=N, dtype=np.int64)


def _perm() -> np.ndarray:
    return np.random.default_rng(4).permutation(N).astype(np.int64)


def _make(task: str, as_array: bool, dtype=np.int64):
    keys, perm = _keys().astype(dtype), _perm()
    if not as_array:
        keys, perm = keys.tolist(), perm.tolist()
    if task == "sort":
        return CGMSampleSort(keys, v=V)
    return CGMPermutation(keys, perm, v=V)


def _run(task, as_array, records, engine, storage, **kw):
    machine = MachineParams(
        p=1 if engine == "sequential" else 2, M=1 << 20, D=4, B=32, b=64
    )
    return simulate(
        _make(task, as_array, **kw), machine, v=V, seed=1, records=records,
        storage=storage, **ENGINES[engine],
    )


def _assert_array_shares(outputs, v=V):
    assert len(outputs) == v
    for out in outputs:
        assert isinstance(out, np.ndarray) and out.ndim == 1
        assert out.dtype == np.dtype("<i8")


class TestFlavourMatrix:
    @pytest.mark.parametrize("storage", ["memory", "file"])
    @pytest.mark.parametrize("engine", list(ENGINES))
    @pytest.mark.parametrize("records", ["object", "vector"])
    @pytest.mark.parametrize("task", ["sort", "permutation"])
    def test_array_in_array_out_and_nothing_else_moves(
        self, task, records, engine, storage
    ):
        arr_out, arr_rep = _run(task, True, records, engine, storage)
        lst_out, lst_rep = _run(task, False, records, engine, storage)
        _assert_array_shares(arr_out)
        # List in is what it always was: lists of plain ints.
        assert all(type(o) is list for o in lst_out)
        assert all(type(x) is int for o in lst_out for x in o)
        assert [o.tolist() for o in arr_out] == lst_out
        assert arr_rep.summary() == lst_rep.summary()
        assert arr_rep.ledger.summary() == lst_rep.ledger.summary()
        assert arr_rep.io_ops == lst_rep.io_ops
        # Writing into an output raises (a view of immutable result bytes),
        # or the share is the caller's own copy (it crossed a process pipe).
        for out in arr_out:
            if engine != "parallel-process":
                assert not out.flags.writeable
                if len(out):
                    with pytest.raises(ValueError):
                        out[0] = 0

    @pytest.mark.parametrize("task", ["sort", "permutation"])
    def test_record_planes_agree_byte_for_byte(self, task):
        images = {
            (as_array, records): pickle.dumps(
                [np.asarray(o).tobytes() for o in _run(
                    task, as_array, records, "sequential", "memory")[0]]
            )
            for as_array in (True, False)
            for records in ("object", "vector")
        }
        assert len(set(images.values())) == 1

    @pytest.mark.parametrize("task", ["sort", "permutation"])
    def test_reference_runner_follows_the_flavour(self, task):
        arr_out, arr_led = run_reference(_make(task, True), V)
        lst_out, lst_led = run_reference(_make(task, False), V)
        _assert_array_shares(arr_out)
        assert [o.tolist() for o in arr_out] == lst_out
        assert arr_led.summary() == lst_led.summary()

    @pytest.mark.parametrize("task", ["sort", "permutation"])
    def test_int32_in_gives_i8_out(self, task):
        outputs, _ = _run(task, True, "vector", "sequential", "memory", dtype=np.int32)
        _assert_array_shares(outputs)
        wide, _ = _run(task, True, "vector", "sequential", "memory")
        want = [o.astype(np.int32).astype("<i8").tolist() for o in wide]
        if task == "permutation":
            assert [o.tolist() for o in outputs] == want
        else:
            flat = np.concatenate(outputs)
            assert np.array_equal(flat, np.sort(_keys().astype(np.int32)))

    def test_empty_share_is_an_empty_array(self):
        # Every key equal: regular sampling routes all of them to one vp.
        for records in ("object", "vector"):
            outputs, _ = simulate(
                CGMSampleSort(np.zeros(64, dtype=np.int64), v=4),
                MachineParams(p=1, M=1 << 20, D=2, B=8, b=16), v=4, records=records,
            )
            _assert_array_shares(outputs, v=4)
            assert sorted(len(o) for o in outputs) == [0, 0, 0, 64]
            as_lists, _ = simulate(
                CGMSampleSort([0] * 64, v=4),
                MachineParams(p=1, M=1 << 20, D=2, B=8, b=16), v=4, records=records,
            )
            assert [o.tolist() for o in outputs] == as_lists
            assert [] in as_lists

    def test_unfinished_share_follows_the_flavour(self):
        alg = CGMSampleSort(_keys(), v=V)
        out = alg.output(0, alg.initial_state(0, V))
        assert isinstance(out, np.ndarray) and out.dtype == "<i8" and len(out) == 0
        alg = CGMSampleSort(_keys().tolist(), v=V)
        assert alg.output(0, alg.initial_state(0, V)) == []

    def test_key_and_non_int_data_are_untouched(self):
        machine = MachineParams(p=1, M=1 << 20, D=4, B=32, b=64)
        keyed, _ = simulate(CGMSampleSort(_keys(), v=V, key=lambda x: -x), machine, v=V)
        assert all(type(o) is list for o in keyed)
        assert [x for o in keyed for x in o] == sorted(_keys().tolist(), reverse=True)
        floats = np.random.default_rng(5).random(N)
        as_float, _ = simulate(CGMSampleSort(floats, v=V), machine, v=V)
        assert all(type(o) is list for o in as_float)
        assert [x for o in as_float for x in o] == sorted(floats.tolist())
        # A list of values under an ndarray perm: the values decide.
        vals = [f"r{i}" for i in range(N)]
        moved, _ = simulate(CGMPermutation(vals, _perm(), v=V), machine, v=V)
        assert all(type(o) is list for o in moved)
        mixed, _ = simulate(
            CGMPermutation(_keys().tolist(), _perm(), v=V), machine, v=V,
            records="vector",
        )
        assert all(type(o) is list for o in mixed)


class TestConformCanonicaliser:
    def test_array_flavoured_run_is_compared_by_value(self):
        machine = MachineParams(p=1, M=1 << 20, D=4, B=32, b=64)
        outputs, report = simulate(CGMSampleSort(_keys(), v=V), machine, v=V)
        reference, _ = run_reference(CGMSampleSort(_keys().tolist(), v=V), V)
        assert check_outputs("array", outputs, reference) == []
        assert check_outputs("array", reference, outputs) == []
        wrong = [o.copy() for o in outputs]
        wrong[3][0] += 1
        (failure,) = check_outputs("array", wrong, reference)
        assert "[3]" in failure.message
        record = canonical_record(outputs, report)
        assert record["outputs"] == reference
        import json

        json.dumps(record["outputs"])

    def test_list_shares_pass_through_as_the_same_objects(self):
        shares = [[1, 2], [(0, "a"), (1, "b")], [], None, 7]
        assert all(new is old for new, old in zip(plain_outputs(shares), shares))

    def test_arrays_inside_a_share_are_reached(self):
        a = np.arange(3, dtype=np.int64)
        nested = [[a, a + 3], (a, [a, 5]), a]
        assert plain_outputs(nested) == [
            [[0, 1, 2], [3, 4, 5]], ([0, 1, 2], [[0, 1, 2], 5]), [0, 1, 2],
        ]
        assert check_outputs("nested", nested, plain_outputs(nested)) == []


# -- the memory plane's batch primitives ----------------------------------------

_TRACKS = st.integers(0, 11)
_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"),
            st.lists(st.tuples(_TRACKS, st.one_of(st.none(), st.integers(0, 5))),
                     min_size=1, max_size=8),
        ),
        st.tuples(st.just("get"), st.lists(_TRACKS, max_size=8)),
        st.tuples(st.just("drop"), _TRACKS, st.integers(0, 13)),
    ),
    max_size=12,
)


def _block(track: int, fill: int | None) -> Block | None:
    return None if fill is None else Block(records=[track] * fill, seq=fill)


def _apply(disk: Disk, ops, batched: bool) -> list:
    """Drive one disk through ``ops``; returns everything the calls answered."""
    storage, seen = disk.storage, []
    for op in ops:
        if op[0] == "put":
            items = [(t, _block(t, fill)) for t, fill in op[1]]
            if batched:
                seen.append(storage.put_many(items))
                # Disk's occupancy bookkeeping rides on the same flags.
                for (_t, blk), prev in zip(items, seen[-1]):
                    if prev != (blk is not None):
                        disk._occupied += 1 if not prev else -1
            else:
                flags = []
                for t, blk in items:
                    prev = storage.put(t, blk)
                    if prev != (blk is not None):
                        disk._occupied += 1 if not prev else -1
                    flags.append(prev)
                seen.append(flags)
        elif op[0] == "get":
            got = storage.get_many(op[1]) if batched else [storage.get(t) for t in op[1]]
            seen.append(got)
        else:
            _kind, lo, hi = op
            if batched:
                disk.discard_range(lo, hi)
            else:
                for t in range(lo, hi):
                    disk.discard_track(t)
        seen.append(disk.used_tracks)
    return seen


def _image(disk: Disk) -> tuple:
    storage = disk.storage
    image = (
        disk.used_tracks,
        sorted(storage.tracks()),
        [storage.peek(t) for t in range(14)],
    )
    if isinstance(storage, FileStorage):
        image += (dict(storage._free_start), storage._next_slot, dict(storage._map))
    return image


@settings(max_examples=150, deadline=None)
@given(_OPS)
def test_memory_batch_primitives_are_the_per_track_calls(ops):
    one, many = Disk(0, B=8, storage=MemoryStorage()), Disk(0, B=8, storage=MemoryStorage())
    assert _apply(many, ops, batched=True) == _apply(one, ops, batched=False)
    assert _image(many) == _image(one)
    assert many.used_tracks == len(list(many.occupied()))
    # put(track, None) keeps its placeholder key on both.
    assert many.storage.tracks_view() == one.storage.tracks_view()


@settings(max_examples=40, deadline=None)
@given(_OPS)
def test_file_range_discard_is_the_per_track_calls(ops):
    with tempfile.TemporaryDirectory() as root:
        one = Disk(0, B=8, storage=FileStorage(os.path.join(root, "one"), B=8, slot_bytes=64))
        many = Disk(0, B=8, storage=FileStorage(os.path.join(root, "many"), B=8, slot_bytes=64))
        try:
            assert _apply(many, ops, batched=True) == _apply(one, ops, batched=False)
            assert _image(many) == _image(one)
        finally:
            one.storage.close()
            many.storage.close()


def test_store_many_and_load_many_keep_the_occupancy_counter():
    disk = Disk(0, B=8)
    disk._store_many([(3, _block(3, 2)), (4, None), (3, _block(3, 1)), (9, _block(9, 0))])
    assert disk.used_tracks == 2 and sorted(disk.occupied()) == [3, 9]
    assert disk._load_many([9, 4, 3, 7]) == [_block(9, 0), None, _block(3, 1), None]
    disk._store_many([(3, None), (5, None)])
    assert disk.used_tracks == 1
    disk.discard_range(0, 20)
    assert disk.used_tracks == 0 and disk.storage.tracks_view() == {}


class TestRelease:
    def _fill(self, array: DiskArray) -> tuple[RegionAllocator, StripedRegion]:
        allocator = RegionAllocator(array)
        region = StripedRegion(array, allocator, [3, 0, 5], name="r")
        for slot in range(3):
            # The middle of the range stays partly empty.
            region.write_slot(slot, [Block(records=[slot])] * (region.slot_sizes[slot] // 2))
        return allocator, region

    @pytest.mark.parametrize("faults", [None, FaultPlan(seed=0)], ids=["plain", "faulty"])
    def test_release_empties_the_range_on_every_disk(self, faults):
        array = DiskArray(4, B=8, faults=faults)
        assert all(type(d) is (FaultyDisk if faults else Disk) for d in array.disks)
        allocator, region = self._fill(array)
        base, per_disk = region.base, region.tracks_per_disk
        assert sum(array.used_tracks_per_disk) == 3
        region.free()
        assert array.used_tracks_per_disk == [0, 0, 0, 0]
        assert all(d.storage.tracks_view() == {} for d in array.disks)
        # The range went back to the allocator whole.
        assert allocator.allocate(per_disk) == base


class TestSlotAddrs:
    def test_matches_addr_and_checks_once(self):
        array = DiskArray(4, B=8)
        region = StripedRegion(array, RegionAllocator(array), [3, 0, 6], name="r")
        for slot in range(3):
            want = [region.addr(slot, i) for i in range(region.slot_sizes[slot])]
            assert region.slot_addrs(slot) == want
            assert region.slot_addrs(slot, 0) == []
            assert region.slot_addrs(slot, len(want)) == want
        assert region.slot_addrs(2, 2) == [region.addr(2, 0), region.addr(2, 1)]
        from repro.emio.disk import DiskError

        for bad in (-1, 3):
            with pytest.raises(DiskError):
                region.slot_addrs(bad)
        with pytest.raises(DiskError):
            region.slot_addrs(0, 4)
        with pytest.raises(DiskError):
            region.slot_addrs(0, -1)
        region.free()
        with pytest.raises(DiskError, match="after free"):
            region.slot_addrs(0)
