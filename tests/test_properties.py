"""Property-based tests (hypothesis) for the invariants of DESIGN.md §5."""

import random

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bsp.message import (
    Message,
    block_pieces,
    blocks_to_messages,
    message_to_blocks,
    pack_blocks,
    pack_by_group,
)
from repro.bsp.collectives import (
    owner_of_index,
    partition_by_splitters,
    regular_samples,
    share_bounds,
)
from repro.bsp.runner import run_reference
from repro.core.parsim import deal
from repro.core.routing import simulate_routing
from repro.core.seqsim import SequentialEMSimulation
from repro.emio.disk import Block
from repro.emio.diskarray import DiskArray
from repro.emio.layout import (
    RegionAllocator,
    StripedRegion,
    blocks_to_object,
    pickle_to_blocks,
)
from repro.emio.linked import LinkedBuckets
from repro.params import BSPParams, MachineParams, SimulationParams

from .helpers import AllToAllExchange, MultiRoundAccumulate

slow = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# -- I2: standard consecutive format for arbitrary slot-size vectors -------------


@given(
    sizes=st.lists(st.integers(0, 9), min_size=0, max_size=20),
    D=st.integers(1, 8),
)
@slow
def test_striped_region_always_standard_consecutive(sizes, D):
    array = DiskArray(D, 4)
    region = StripedRegion(array, RegionAllocator(array), sizes, "prop")
    region.check_standard_consecutive()


@given(
    sizes=st.lists(st.integers(1, 6), min_size=1, max_size=10),
    D=st.integers(1, 4),
    data=st.data(),
)
@slow
def test_striped_region_roundtrip(sizes, D, data):
    array = DiskArray(D, 4)
    region = StripedRegion(array, RegionAllocator(array), sizes, "prop")
    payloads = {}
    for slot, size in enumerate(sizes):
        blocks = [Block(records=[slot, i]) for i in range(size)]
        payloads[slot] = [[slot, i] for i in range(size)]
        region.write_slot(slot, blocks)
    order = data.draw(st.permutations(range(len(sizes))))
    for slot in order:
        got = [b.records for b in region.read_slot(slot) if b is not None]
        assert got == payloads[slot]


# -- messages: the group packer ---------------------------------------------------


@given(
    payload=st.lists(st.integers(), max_size=40),
    B=st.integers(1, 9),
)
@slow
def test_message_block_roundtrip(payload, B):
    msg = Message(src=3, dest=5, payload=payload)
    blocks = message_to_blocks(msg, B, msg_id=7)
    assert all(b.nrecords() <= B for b in blocks)
    assert len(blocks) == max(1, -(-len(payload) // B))
    back = blocks_to_messages(blocks)
    assert len(back) == 1
    assert back[0].payload == payload and back[0].src == 3 and back[0].dest == 5


@given(
    payloads=st.lists(st.lists(st.integers(), max_size=10), min_size=1, max_size=6),
    B=st.integers(1, 5),
    data=st.data(),
)
@slow
def test_interleaved_blocks_reassemble(payloads, B, data):
    blocks = []
    for i, payload in enumerate(payloads):
        blocks.extend(
            message_to_blocks(Message(src=i, dest=0, payload=payload), B, msg_id=i)
        )
    shuffled = data.draw(st.permutations(blocks))
    back = blocks_to_messages(shuffled)
    assert sorted(m.src for m in back) == list(range(len(payloads)))
    for m in back:
        assert m.payload == payloads[m.src]


def _outbox(sizes, vector):
    """Messages ``(dest, records)`` from vp ``i % 3``, and their pieces."""
    msgs = []
    for i, (dest, n) in enumerate(sizes):
        if vector:
            payload = np.arange(100 * i, 100 * i + n, dtype=np.int64)
        else:
            payload = [(i, r) for r in range(n)]
        msgs.append(Message(src=i % 3, dest=dest, payload=payload))
    return msgs, [(m.dest, m.src, mi, 0, m.payload) for mi, m in enumerate(msgs)]


@given(
    sizes=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 30)), max_size=10),
    B=st.integers(1, 9),
    b=st.integers(1, 12),
    k=st.sampled_from([1, 2, 4, 16]),
    vector=st.booleans(),
    data=st.data(),
)
@slow
def test_group_packer_roundtrip(sizes, B, b, k, vector, data):
    """:func:`pack_by_group` over both record flavours and any destination
    key, fed whole messages (Algorithm 1) or their packets spread over
    receivers (Algorithm 3's cutter, one message at a time): every block
    holds at most ``B`` records, each receiver packs a key's records into
    ``max(1, ceil(records/B))`` blocks, and unpacking inverts packing in any
    block order."""
    msgs, whole = _outbox(sizes, vector)
    pieces = []
    for piece in whole:
        if data.draw(st.booleans(), label="as packets"):
            pieces += block_pieces(pack_blocks([piece], b, -1))
        else:
            pieces.append(piece)
    receivers = data.draw(st.integers(1, 3), label="receivers")
    spread = [data.draw(st.integers(0, receivers - 1)) for _ in pieces]
    blocks = []
    for q in range(receivers):
        mine = [piece for piece, to in zip(pieces, spread) if to == q]
        got, loads = pack_by_group(mine, B, k)
        per_key = {}
        for dest, _src, _msg, _seq, records in mine:
            per_key[dest - dest % k] = per_key.get(dest - dest % k, 0) + len(records)
        assert loads == tuple(per_key[key] for key in sorted(per_key))
        assert [blk.dest for blk in got] == sorted(
            key for key in per_key for _ in range(max(1, -(-per_key[key] // B)))
        )
        assert all(blk.nrecords() <= B for blk in got)
        blocks += got
    back = blocks_to_messages(data.draw(st.permutations(blocks), label="order"))
    assert [(m.src, m.dest) for m in back] == [
        (m.src, m.dest) for _mi, m in sorted(enumerate(msgs), key=lambda e: (e[1].src, e[0]))
    ]
    for got, (_mi, want) in zip(
        back, sorted(enumerate(msgs), key=lambda e: (e[1].src, e[0]))
    ):
        if len(want.payload) == 0:
            assert got.payload == []
        elif vector:
            assert isinstance(got.payload, np.ndarray)
            assert got.payload.tolist() == want.payload.tolist()
        else:
            assert got.payload == want.payload


@given(
    sizes=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 30)), max_size=10),
    b=st.integers(1, 12),
    B=st.integers(1, 9),
    k=st.sampled_from([1, 2, 4, 16]),
    p=st.integers(1, 4),
    vector=st.booleans(),
    data=st.data(),
)
@slow
def test_packet_cutter_roundtrip(sizes, b, B, k, p, vector, data):
    """Algorithm 3's writing phase: a round's outbox cut into packets of
    ``b`` (:func:`pack_blocks`), dealt from any offset, each receiver packing
    its packets' pieces per destination group (:func:`pack_by_group`).  Every
    packet holds at most ``b`` records, ``r`` records cut into
    ``max(1, ceil(r/b))`` packets (none without a message), and the blocks
    demultiplex, in any order, back into the outbox."""
    msgs, pieces = _outbox(sizes, vector)
    packets = pack_blocks(pieces, b, 0)
    r = sum(m.size for m in msgs)
    assert len(packets) == (max(1, -(-r // b)) if msgs else 0)
    assert all(pkt.nrecords() == b for pkt in packets[:-1])
    assert all(pkt.nrecords() <= b for pkt in packets)
    assert sum(pkt.nrecords() for pkt in packets) == r
    offset = data.draw(st.integers(0, p - 1), label="offset")
    blocks = []
    for got in deal(packets, offset, p):
        blocks += pack_by_group(block_pieces(got), B, k)[0]
    back = blocks_to_messages(data.draw(st.permutations(blocks), label="order"))
    want = sorted(enumerate(msgs), key=lambda e: (e[1].src, e[0]))
    assert [(m.src, m.dest) for m in back] == [(m.src, m.dest) for _mi, m in want]
    for got, (_mi, m) in zip(back, want):
        if m.size == 0:
            assert got.payload == []
        else:
            assert isinstance(got.payload, np.ndarray) == vector
            assert list(got.payload) == list(m.payload)


@given(
    n=st.lists(st.integers(0, 40), min_size=1, max_size=6),
    offsets=st.lists(st.integers(0, 1 << 20), min_size=6, max_size=6),
)
def test_deal_balance(n, offsets):
    """Each receiver gets ``floor(n_i/p)`` or ``ceil(n_i/p)`` of sender
    ``i``'s ``n_i`` packets, from any offset; together the receivers get
    every packet once, each in send order."""
    p = len(n)
    for ni, offset in zip(n, offsets):
        packets = list(range(ni))
        dealt = deal(packets, offset % p, p)
        assert len(dealt) == p
        for q, got in enumerate(dealt):
            assert len(got) in (ni // p, -(-ni // p))
            assert got == sorted(got)
            assert all((offset + t) % p == q for t in got)
        assert sorted(t for got in dealt for t in got) == packets


# -- pickle/context round trip ------------------------------------------------------


@given(
    obj=st.recursive(
        st.none() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=20),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=5), children, max_size=4),
        max_leaves=20,
    ),
    B=st.integers(1, 16),
)
@slow
def test_context_pickle_roundtrip(obj, B):
    assert blocks_to_object(pickle_to_blocks(obj, B)) == obj


# -- collectives ----------------------------------------------------------------------


@given(n=st.integers(0, 500), v=st.integers(1, 32))
@slow
def test_share_bounds_partition(n, v):
    covered = []
    for pid in range(v):
        lo, hi = share_bounds(n, v, pid)
        assert 0 <= lo <= hi <= n
        covered.extend(range(lo, hi))
    assert covered == list(range(n))


@given(n=st.integers(1, 500), v=st.integers(1, 32), data=st.data())
@slow
def test_owner_of_index_consistent(n, v, data):
    i = data.draw(st.integers(0, n - 1))
    owner = owner_of_index(i, n, v)
    lo, hi = share_bounds(n, v, owner)
    assert lo <= i < hi


@given(
    items=st.lists(st.integers(-50, 50), max_size=60),
    splitters=st.lists(st.integers(-50, 50), max_size=8),
)
@slow
def test_partition_by_splitters_preserves_and_orders(items, splitters):
    items, splitters = sorted(items), sorted(splitters)
    parts = partition_by_splitters(items, splitters)
    assert [x for part in parts for x in part] == items
    for j, part in enumerate(parts):
        for x in part:
            if j > 0:
                assert x >= splitters[j - 1]
            if j < len(splitters):
                assert x < splitters[j]


@given(items=st.lists(st.integers(), min_size=0, max_size=60), c=st.integers(0, 12))
@slow
def test_regular_samples_sorted_subset(items, c):
    items = sorted(items)
    samples = regular_samples(items, c)
    assert samples == sorted(samples)
    assert len(samples) <= max(c, 0)
    for s in samples:
        assert s in items or not items


# -- I6/I7: bucket store and reorganization, arbitrary traffic ----------------------


@given(
    dests=st.lists(st.integers(0, 15), max_size=120),
    D=st.integers(1, 6),
    seed=st.integers(0, 10_000),
)
@slow
def test_routing_conserves_blocks(dests, D, seed):
    v = 16
    array = DiskArray(D, 4)
    alloc = RegionAllocator(array)
    store = LinkedBuckets(
        array, alloc, D, lambda d: d * D // v, random.Random(seed)
    )
    blocks = [Block(records=[i], dest=d, src=0, msg=i) for i, d in enumerate(dests)]
    store.append_blocks(blocks)
    region, stats = simulate_routing(array, alloc, store, v, lambda d: d)
    assert stats.total_blocks == len(dests)
    delivered = []
    for slot in range(v):
        for b in region.read_slot(slot):
            if b is not None:
                assert b.dest == slot
                delivered.append(b.records[0])
    assert sorted(delivered) == sorted(range(len(dests)))


# -- I3: transparency under random machine parameters --------------------------------


@given(
    D=st.integers(1, 5),
    B=st.sampled_from([4, 16, 64]),
    k=st.sampled_from([1, 2, 4]),
    seed=st.integers(0, 1000),
)
@settings(max_examples=15, deadline=None)
def test_seqsim_transparency_random_params(D, B, k, seed):
    v = 8
    alg = MultiRoundAccumulate(rounds=3)
    ref, _ = run_reference(MultiRoundAccumulate(rounds=3), v)
    params = SimulationParams(
        machine=MachineParams(p=1, M=max(alg.context_size() * k, D * B), D=D, B=B, b=B),
        bsp=BSPParams(v=v, mu=alg.context_size(), gamma=alg.comm_bound()),
        k=k,
    )
    out, _ = SequentialEMSimulation(
        MultiRoundAccumulate(rounds=3), params, seed=seed
    ).run()
    assert out == ref


# -- I8: ledger consistency ------------------------------------------------------------


@given(seed=st.integers(0, 100))
@settings(max_examples=10, deadline=None)
def test_ledger_total_is_sum_of_components(seed):
    v = 8
    alg = AllToAllExchange()
    params = SimulationParams(
        machine=MachineParams(p=1, M=alg.context_size() * 2, D=2, B=16, b=16),
        bsp=BSPParams(v=v, mu=alg.context_size(), gamma=alg.comm_bound()),
        k=2,
    )
    _, report = SequentialEMSimulation(AllToAllExchange(), params, seed=seed).run()
    led = report.ledger
    m = led.machine
    total = sum(
        s.comp_ops + s.comm_time(m) + s.io_time(m) + m.L * s.syncs
        for s in led.supersteps
    )
    assert led.total_time() == total
    assert led.total_io_ops == report.io_ops
