"""Extended property-based tests for the newer components."""

import bisect
import random as stdrandom

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.geometry.genenvelope import envelope_of_segments
from repro.algorithms.geometry.segtree import SegmentTree
from repro.algorithms.geometry.triangulate import delaunay_triangulation
from repro.algorithms.multisearch import CGMMultisearch
from repro.algorithms.prefix import CGMPrefixSums
from repro.bsp.runner import run_reference
from repro.core import ParallelEMSimulation
from repro.core.simulator import build_params
from repro.params import MachineParams

from .helpers import MultiRoundAccumulate

slow = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@given(
    ivs=st.lists(
        st.tuples(
            st.floats(0, 1000, allow_nan=False),
            st.floats(0, 500, allow_nan=False),
        ).map(lambda t: (t[0], t[0] + t[1])),
        min_size=0,
        max_size=30,
    ),
    xs=st.lists(st.floats(-100, 1600, allow_nan=False), min_size=1, max_size=20),
)
@slow
def test_segment_tree_matches_bruteforce(ivs, xs):
    tree = SegmentTree([a for a, _b in ivs] + [b for _a, b in ivs])
    for i, (a, b) in enumerate(ivs):
        tree.insert(a, b, i)
    for x in xs:
        want = sorted(i for i, (a, b) in enumerate(ivs) if a <= x <= b)
        assert tree.stab(x) == want


@given(
    segs=st.lists(
        st.tuples(
            st.floats(0, 90, allow_nan=False),
            st.floats(0, 100, allow_nan=False),
            st.floats(1, 60, allow_nan=False),
            st.floats(0, 100, allow_nan=False),
        ).map(lambda t: (t[0], t[1], t[0] + t[2], t[3])),
        min_size=1,
        max_size=15,
    ),
    data=st.data(),
)
@slow
def test_general_envelope_pointwise_minimum(segs, data):
    pieces = envelope_of_segments(list(enumerate(segs)), segs)

    def y_at(seg, x):
        x1, y1, x2, y2 = seg
        return y1 + (y2 - y1) * (x - x1) / (x2 - x1)

    for xa, xb, sid in pieces:
        if xb - xa < 5e-9:
            continue
        x = data.draw(st.floats(xa + 1e-9, xb - 1e-9), label="sample x")
        active = [y_at(s, x) for s in segs if s[0] <= x <= s[2]]
        assert active
        assert y_at(segs[sid], x) <= min(active) + 1e-6


@given(
    keys=st.lists(st.integers(0, 10_000), min_size=1, max_size=60).map(sorted),
    queries=st.lists(st.integers(-100, 11_000), min_size=1, max_size=20),
)
@slow
def test_multisearch_predecessors(keys, queries):
    v = 4
    out, _ = run_reference(CGMMultisearch(keys, queries, v), v)
    got = {}
    for part in out:
        got.update(dict(part))
    for qi, q in enumerate(queries):
        assert got[qi] == bisect.bisect_right(keys, q) - 1


@given(vals=st.lists(st.integers(-1000, 1000), max_size=80))
@slow
def test_prefix_sums_property(vals):
    v = 4
    out, _ = run_reference(CGMPrefixSums(vals, v), v)
    flat = [x for part in out for x in part]
    acc, want = 0, []
    for x in vals:
        acc += x
        want.append(acc)
    assert flat == want


@given(
    p=st.sampled_from([1, 2, 4]),
    D=st.integers(1, 3),
    seed=st.integers(0, 500),
)
@settings(max_examples=12, deadline=None)
def test_parsim_transparency_random_params(p, D, seed):
    v = 8
    alg = MultiRoundAccumulate(rounds=2)
    ref, _ = run_reference(MultiRoundAccumulate(rounds=2), v)
    machine = MachineParams(p=p, M=2 * alg.context_size(), D=D, B=16, b=16)
    params = build_params(MultiRoundAccumulate(rounds=2), machine, v=v, k=2)
    out, _ = ParallelEMSimulation(
        MultiRoundAccumulate(rounds=2), params, seed=seed
    ).run()
    assert out == ref


@given(seed=st.integers(0, 300), n=st.integers(4, 30))
@settings(max_examples=15, deadline=None)
def test_delaunay_circumcircles_empty(seed, n):
    rng = stdrandom.Random(seed)
    pts = list({(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n)})
    if len(pts) < 3:
        return
    try:
        tris = delaunay_triangulation(pts)
    except ValueError:
        return  # degenerate draw
    from repro.algorithms.geometry.triangulate import circumcircle

    for a, b, c in tris:
        ux, uy, r2 = circumcircle(pts[a], pts[b], pts[c])
        for i, q in enumerate(pts):
            if i in (a, b, c):
                continue
            assert (q[0] - ux) ** 2 + (q[1] - uy) ** 2 >= r2 * (1 - 1e-7)


# -- FileStorage free-list allocator (DESIGN §9) --------------------------------
#
# The slot allocator is pure metadata: allocation never depends on written
# bytes.  Two angles: a model-based test through the public put/put_many/
# discard/snapshot API, and a direct best-fit/coalescing check on the raw
# _alloc/_release pair.


def _check_free_list(stg, extra_extents=()):
    """Structural invariants that must hold after *any* operation sequence:
    paired free maps consistent, no extent overlap, everything below the
    bump pointer, free runs fully coalesced and never touching the tail."""
    free = sorted((base, size) for base, size in stg._free_start.items())
    assert stg._free_end == {base + size: base for base, size in free}
    covered = [(base, base + size, "free") for base, size in free]
    for track, (base, nslots, _len, _gen) in stg._map.items():
        covered.append((base, base + nslots, f"track {track}"))
    for base, nslots in extra_extents:
        covered.append((base, base + nslots, "raw alloc"))
    covered.sort()
    for (_alo, ahi, awho), (blo, _bhi, bwho) in zip(covered, covered[1:]):
        assert ahi <= blo, f"extent overlap: {awho} vs {bwho}"
    assert all(size > 0 for _base, size in free)
    assert all(hi <= stg._next_slot for _lo, hi, _who in covered)
    ends = {base + size for base, size in free}
    assert not (ends & set(stg._free_start)), "adjacent free runs not merged"
    assert stg._next_slot not in ends, "tail free run not returned to bump"


@st.composite
def _storage_ops(draw):
    ops = []
    for _ in range(draw(st.integers(1, 25))):
        kind = draw(
            st.sampled_from(["put", "put", "put_many", "delete", "discard",
                             "snapshot"])
        )
        if kind == "put":
            ops.append(("put", draw(st.integers(0, 9)), draw(st.integers(0, 120))))
        elif kind == "put_many":
            items = draw(
                st.lists(
                    st.tuples(st.integers(0, 9), st.integers(0, 120)),
                    min_size=1,
                    max_size=6,
                )
            )
            ops.append(("put_many", items))
        elif kind == "delete":
            ops.append(("delete", draw(st.integers(0, 9))))
        elif kind == "discard":
            ops.append(("discard", draw(st.integers(0, 9))))
        else:
            ops.append(("snapshot",))
    return ops


@given(ops=_storage_ops())
@slow
def test_file_storage_free_list_model(ops):
    import os
    import tempfile

    from repro.emio.disk import Block
    from repro.emio.storage import FileStorage

    def block(track, size):
        # Payload length scales with ``size`` so slot-run lengths vary and
        # overwrites exercise the in-place / realloc split in _place().
        return Block(records=list(range(track, track + size)))

    with tempfile.TemporaryDirectory() as root:
        stg = FileStorage(os.path.join(root, "d0.track"), B=128, slot_bytes=64)
        try:
            model = {}
            for op in ops:
                if op[0] == "put":
                    _kind, track, size = op
                    stg.put(track, block(track, size))
                    model[track] = list(range(track, track + size))
                elif op[0] == "put_many":
                    stg.put_many([(t, block(t, s)) for t, s in op[1]])
                    for t, s in op[1]:
                        model[t] = list(range(t, t + s))
                elif op[0] == "delete":
                    stg.put(op[1], None)
                    model.pop(op[1], None)
                elif op[0] == "discard":
                    stg.discard(op[1])
                    model.pop(op[1], None)
                else:
                    stg.snapshot()
                _check_free_list(stg)
            for track in range(10):
                got = stg.get(track)
                if track in model:
                    assert got is not None and list(got.records) == model[track]
                else:
                    assert got is None
        finally:
            stg.close()


@given(data=st.data())
@slow
def test_allocator_best_fit_and_coalescing(data):
    import os
    import tempfile

    from repro.emio.storage import FileStorage

    with tempfile.TemporaryDirectory() as root:
        stg = FileStorage(os.path.join(root, "d0.track"), B=4, slot_bytes=64)
        try:
            live = []
            for _ in range(data.draw(st.integers(1, 40))):
                if live and data.draw(st.booleans()):
                    idx = data.draw(st.integers(0, len(live) - 1))
                    base, nslots = live.pop(idx)
                    stg._release(base, nslots)
                else:
                    need = data.draw(st.integers(1, 5))
                    fits = [
                        (size, base)
                        for base, size in stg._free_start.items()
                        if size >= need
                    ]
                    tail = stg._next_slot
                    base = stg._alloc(need)
                    if fits:
                        # Best fit: smallest sufficient run, lowest base on ties.
                        assert base == min(fits)[1]
                    else:
                        assert base == tail, "bump pointer moved before alloc"
                    live.append((base, need))
                _check_free_list(stg, extra_extents=live)
            for base, nslots in live:
                stg._release(base, nslots)
            _check_free_list(stg)
            # Releasing everything must collapse to the empty heap: the
            # neighbour-coalescing maps merge all runs and the tail trim
            # hands the final run back to the bump pointer.
            assert stg._free_start == {} and stg._next_slot == 0
        finally:
            stg.close()

# -- buffer tree + bulk priority queue (repro.baselines.buffertree) -----------

_bt_machines = st.sampled_from([
    MachineParams(p=1, M=32, D=1, B=2, b=2),
    MachineParams(p=1, M=64, D=2, B=4, b=4),
    MachineParams(p=1, M=128, D=3, B=4, b=4),
    MachineParams(p=1, M=256, D=2, B=8, b=8),
])


@slow
@given(machine=_bt_machines, data=st.lists(st.integers(0, 50), max_size=300))
def test_buffer_tree_matches_sorted_oracle(machine, data):
    """Inserts against the sorted-list oracle, structural invariants after
    every phase, a fully-emptied buffer plane after flush, and a counted-I/O
    ledger that only counts up."""
    from repro.baselines import BufferTree

    with BufferTree(machine) as tree:
        prev_ops = 0
        for x in data:
            tree.insert(x)
            assert tree.io_ops >= prev_ops  # monotone counted cost
            prev_ops = tree.io_ops
        assert len(tree) == len(data)
        tree.check_invariants()
        assert tree.items() == sorted(data)
        tree.check_invariants()
        # items() forced a full flush: the buffer plane must be empty now —
        # no staged root ops, no buffered blocks anywhere in the tree.
        assert not tree._staging
        stack = [tree.root]
        while stack:
            node = stack.pop()
            assert not node.buf_addrs
            if not node.leaf:
                stack.extend(node.children)


@slow
@given(
    machine=_bt_machines,
    data=st.lists(st.integers(0, 50), min_size=1, max_size=200),
)
def test_buffer_tree_leftmost_drain_is_globally_sorted(machine, data):
    """pop_leftmost_leaf (the PQ refill primitive) emits the tree in
    globally non-decreasing (key, seq) order and keeps every structural
    invariant between pops."""
    from repro.baselines import BufferTree

    with BufferTree(machine) as tree:
        tree.bulk_insert(data)
        drained = []
        for _ in range(len(data) + 5):
            if not len(tree):
                break
            batch = tree.pop_leftmost_leaf()
            assert batch, "non-empty tree must yield a non-empty leaf"
            tree.check_invariants()
            drained.extend(batch)
        assert not len(tree)
        marks = [(k, seq) for k, seq, _payload in drained]
        assert marks == sorted(marks)
        assert [payload for _k, _s, payload in drained] == sorted(data)


@slow
@given(
    machine=_bt_machines,
    steps=st.lists(
        st.one_of(
            st.lists(st.integers(0, 30), min_size=1, max_size=40),
            st.integers(1, 25),
        ),
        max_size=12,
    ),
)
def test_buffer_tree_pq_matches_sorted_model(machine, steps):
    """Model-checked bulk_push / pop_min interleavings: the PQ tracks a
    sorted-list model exactly (stable on duplicate keys), with a monotone
    counted-I/O ledger."""
    from repro.baselines import BufferTreePQ

    model = []
    prev_ops = 0
    with BufferTreePQ(machine) as pq:
        for step in steps:
            if isinstance(step, list):
                pq.bulk_push(step)
                for x in step:
                    bisect.insort(model, x)
            else:
                want, model = model[:step], model[step:]
                assert pq.bulk_pop(step) == want
            assert len(pq) == len(model)
            assert pq.io_ops >= prev_ops
            prev_ops = pq.io_ops
        if model:
            assert pq.peek_min() == model[0]
        assert pq.bulk_pop(len(model)) == model
        assert len(pq) == 0
