"""The context cache holds state objects, not their pickles (DESIGN §6).

On the fast plane ``save_group`` measures every state — one pickle pass, for
the block count, the ``mu`` refusal and the charge — and then holds the
object; ``load_group`` charges and hands the same object back.  What that
must not change: what a swap is charged, what a checkpoint freezes, what a
traced array physically writes.  What it adds: the kernel owns the held
object between a load and the next save, so in-place growth has to be
re-measured there.
"""

import copy
import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conform import REFERENCE
from repro.core.context import ContextStore, _Meter
from repro.core import ParallelEMSimulation, build_params
from repro.emio.disk import DiskError
from repro.emio.diskarray import DiskArray
from repro.emio.layout import RegionAllocator, bytes_to_blocks
from repro.emio.trace import IOTrace
from repro.params import MachineParams

from .helpers import MultiRoundAccumulate

D, B, MU, NSLOTS = 4, 8, 400, 6
FAST = {"fast_io": True, "context_cache": True}


def _store(fast_io: bool, cache: bool, traced: bool = False):
    array = DiskArray(D, B, fast_io=fast_io)
    trace = IOTrace.attach(array) if traced else None
    store = ContextStore(array, RegionAllocator(array), NSLOTS, MU, B, cache=cache)
    return array, store, trace


def _counters(array: DiskArray):
    return (
        array.parallel_ops,
        [(d.reads, d.writes, d.high_water, d.used_tracks) for d in array.disks],
    )


def _blocks_for(state) -> int:
    return -(-max(len(pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)), 1) // (B * 8))


# -- held, handed back, re-measured --------------------------------------------------


def test_load_hands_back_the_object_saved_and_the_store_keeps_no_bytes():
    array, store, _ = _store(True, True)
    states = [{"keys": np.arange(20 * s), "log": [s]} for s in range(NSLOTS)]
    states[3] = None  # a state that *is* None is still a held state
    store.save_group(range(NSLOTS), states)
    back = store.load_group(range(NSLOTS))
    assert all(got is put for got, put in zip(back, states))
    assert (store.cache_hits, store.cache_misses) == (NSLOTS, 0)
    assert all(isinstance(box, tuple) and len(box) == 1 for box in store._cached)
    assert not any(isinstance(x, (bytes, bytearray, memoryview))
                   for box in store._cached for x in box)
    assert all(d.used_tracks == 0 for d in array.disks)  # charged, never stored


def test_state_mutated_in_place_is_remeasured_at_the_next_save():
    """Block count, charge and the mu refusal follow the size the state has
    when it is saved, not the size it had when it was loaded."""
    array, store, _ = _store(True, True)
    ref_array, ref_store, _ = _store(False, False)
    slots = [1, 2]
    states = [{"trace": [1]}, {"trace": [2]}]
    store.save_group(slots, states)
    ref_store.save_group(slots, copy.deepcopy(states))
    assert _counters(array)[0] == _counters(ref_array)[0]
    held = store.load_group(slots)
    ref_held = ref_store.load_group(slots)
    assert held[0] is states[0] and ref_held == states
    for group in (held, ref_held):
        group[0]["trace"].extend(range(150))  # the kernel grows its context in place
    before = array.parallel_ops
    store.save_group(slots, held)
    ref_store.save_group(slots, ref_held)
    assert store._used[1] == ref_store._used[1] == _blocks_for(held[0]) > _blocks_for(states[1])
    assert store._used[2] == ref_store._used[2] == _blocks_for(states[1])
    assert array.parallel_ops > before
    assert _counters(array)[0] == _counters(ref_array)[0]
    assert [(d.reads, d.writes, d.high_water) for d in array.disks] == [
        (d.reads, d.writes, d.high_water) for d in ref_array.disks
    ]
    # Past mu the save is refused, and nothing of the group is charged or held anew.
    held[1]["trace"].extend(range(10 * MU))
    snapshot = (_counters(array), list(store._used), list(store._cached))
    with pytest.raises(DiskError, match="exceeds declared bound"):
        store.save_group(slots, held)
    assert (_counters(array), list(store._used), list(store._cached)) == snapshot


def test_unchanged_state_costs_what_it_cost_before():
    """No dirty bit: saving back the object just loaded charges the merged
    write the reference path performs, swap after swap."""
    array, store, _ = _store(True, True)
    ref_array, ref_store, _ = _store(False, False)
    states = [{"keys": list(range(30 * (s + 1)))} for s in range(NSLOTS)]
    groups = [range(0, 3), range(3, 6)]
    for st_ in (store, ref_store):
        for g in groups:
            st_.save_group(g, [states[s] for s in g])
    assert _counters(array)[0] == _counters(ref_array)[0]
    per_swap = []
    for _ in range(3):
        t0 = array.parallel_ops
        for st_ in (store, ref_store):
            for g in groups:
                st_.save_group(g, st_.load_group(g))
        per_swap.append(array.parallel_ops - t0)
        assert _counters(array)[0] == _counters(ref_array)[0]
        assert [(d.reads, d.writes, d.high_water) for d in array.disks] == [
            (d.reads, d.writes, d.high_water) for d in ref_array.disks
        ]
    assert len(set(per_swap)) == 1 and per_swap[0] > 0


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(0, 40_000), min_size=0, max_size=4),
    readonly=st.booleans(),
    strided=st.booleans(),
    extra=st.recursive(
        st.none() | st.integers() | st.text(max_size=20) | st.binary(max_size=70_000),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                    max_size=4),
        max_leaves=12,
    ),
)
def test_metered_pickle_is_as_long_as_the_pickle(sizes, readonly, strided, extra):
    """The fast plane never assembles the bytes it measures; the length must
    still be the length ``pickle.dumps`` — the reference plane — gets, across
    the 64 KiB frame boundary and for buffers handed over uncopied."""
    arrays = [np.arange(n, dtype="<i8") for n in sizes]
    if strided:
        arrays = [a[::2] for a in arrays]
    for a in arrays:
        a.setflags(write=not readonly)
    state = {"arrays": arrays, "extra": extra, "again": arrays[:1]}
    meter = _Meter()
    pickle.Pickler(meter, protocol=pickle.HIGHEST_PROTOCOL).dump(state)
    assert len(meter) == len(pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL))


# -- a traced array still writes what the fresh pickle says --------------------------


def test_hooked_but_cached_array_writes_blocks_cut_from_the_fresh_pickle():
    array, store, trace = _store(True, True, traced=True)
    ref_array, ref_store, ref_trace = _store(False, False, traced=True)
    assert store.cache and not array.fast_data_plane
    slots = [0, 4]
    states = [{"trace": [7] * 40}, {"trace": [9] * 3}]
    for st_ in (store, ref_store):
        st_.save_group(slots, copy.deepcopy(states))
        group = st_.load_group(slots)
        group[1]["trace"].extend(range(60))  # in place; the cached side holds this object
        st_.save_group(slots, group)
        final = st_.load_group(slots)
    assert final[1]["trace"] == [9] * 3 + list(range(60))
    for slot, state in zip(slots, final):
        want = bytes_to_blocks(pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL), B)
        addrs = store.region.slot_addrs(slot, store._used[slot])
        assert len(addrs) == len(want)
        for (d, t), blk in zip(addrs, want):
            assert array.disks[d].peek(t).records == blk.records
            assert ref_array.disks[d].peek(t).records == blk.records
    assert pickle.dumps(trace.ops) == pickle.dumps(ref_trace.ops)
    assert _counters(array) == _counters(ref_array)


# -- checkpoints freeze; recoveries thaw fresh objects -------------------------------


def _engine(storage, backend, storage_dir=None, **knobs):
    alg = MultiRoundAccumulate(rounds=5)  # extends its state in place every superstep
    machine = MachineParams(p=2 if backend == "process" else 1, M=1 << 14, D=2, B=16, b=16)
    kw = dict(knobs)
    if storage != "memory":
        kw.update(storage=storage, storage_dir=str(storage_dir))
    return ParallelEMSimulation(
        alg, build_params(alg, machine, 8), backend=backend,
        seed=0, checkpoint=True, **kw,
    )


def _digest(ckpt) -> str:
    h = hashlib.sha256()
    for blob in (*ckpt.proc_states, *(b or b"" for b in ckpt.proc_incoming), ckpt.report_blob):
        h.update(blob)
    return h.hexdigest()


@pytest.mark.parametrize("backend", ["inline", "process"])
@pytest.mark.parametrize("storage", ["memory", "file"])
def test_checkpoint_is_frozen_and_two_recoveries_from_it_agree(tmp_path, storage, backend):
    golden_out, golden_rep = _engine(storage, backend, tmp_path / "ref", **REFERENCE).run()

    sim = _engine(storage, backend, tmp_path / "run", **FAST)
    taken = {}
    take = sim._take_checkpoint

    def noting(step):
        take(step)
        ckpt = sim.last_checkpoint
        taken[step] = (ckpt, _digest(ckpt))

    sim._take_checkpoint = noting
    out, rep = sim.run()
    assert out == golden_out and rep.ledger.summary() == golden_rep.ledger.summary()
    assert len(taken) >= 4
    # Supersteps after a barrier mutated the held states in place; no
    # barrier's blob moved with them.
    for ckpt, digest in taken.values():
        assert _digest(ckpt) == digest
    ckpt, _ = taken[2]
    frozen = pickle.dumps(ckpt)
    runs = []
    for i in range(2):
        fresh = _engine(storage, backend, tmp_path / f"resume{i}", **FAST)
        resumed_out, resumed_rep = fresh.resume_from_checkpoint(ckpt)
        assert resumed_rep.faults.resumed_from_step == 2
        runs.append((pickle.dumps(resumed_out), pickle.dumps(resumed_rep.ledger.summary())))
        assert resumed_out == golden_out
        assert pickle.dumps(ckpt) == frozen  # a recovery thaws; it never touches the blob
    assert runs[0] == runs[1]
