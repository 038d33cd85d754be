"""``read_batched`` / ``write_batched`` pack their rounds in one pass.

The physical path (a traced, faulty, bounded or degraded array, or one
built with ``fast_io=False``) used to re-scan the leftover addresses once
per round.  The one-pass bucketing must be the same greedy: the old loop is
kept here as the oracle, and the round lists handed to the physical round
primitives (``_read_round`` / ``_write_round``), the returned blocks, every
counter and the recorded ``IOTrace`` must agree.
"""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emio.disk import Block
from repro.emio.diskarray import DiskArray
from repro.emio.trace import IOTrace


def _greedy_read(array: DiskArray, addrs):
    """``read_batched`` as it was: one scan of the leftovers per round."""
    results = [None] * len(addrs)
    pending = list(enumerate(addrs))
    while pending:
        used, round_ops, rest = set(), [], []
        for item in pending:
            d = item[1][0]
            if d in used or len(round_ops) == array.D:
                rest.append(item)
            else:
                used.add(d)
                round_ops.append(item)
        blocks = array.parallel_read([a for _, a in round_ops])
        for (idx, _), blk in zip(round_ops, blocks):
            results[idx] = blk
        pending = rest
    return results


def _greedy_write(array: DiskArray, ops) -> int:
    """``write_batched`` as it was."""
    before = array.parallel_ops
    pending = list(ops)
    while pending:
        used, round_ops, rest = set(), [], []
        for item in pending:
            if item[0] in used or len(round_ops) == array.D:
                rest.append(item)
            else:
                used.add(item[0])
                round_ops.append(item)
        array.parallel_write(round_ops)
        pending = rest
    return array.parallel_ops - before


class _Recorded:
    """An array whose physical rounds are logged."""

    def __init__(self, D: int, dead: int | None):
        self.array = DiskArray(D, B=4)
        self.trace = IOTrace.attach(self.array)
        self.rounds: list[tuple[str, list]] = []
        if dead is not None:
            self.array.mark_dead(dead)
        inner_read, inner_write = self.array._read_round, self.array._write_round

        def read_round(ops):
            self.rounds.append(("R", [tuple(a) for a in ops]))
            return inner_read(ops)

        def write_round(ops):
            self.rounds.append(("W", [(d, t, id(b)) for d, t, b in ops]))
            return inner_write(ops)

        self.array._read_round = read_round
        self.array._write_round = write_round

    def state(self):
        a = self.array
        return (
            self.rounds,
            pickle.dumps(self.trace.ops),
            a.parallel_ops,
            a.degraded_writes,
            [(d.reads, d.writes, d.high_water, d.used_tracks) for d in a.disks],
            [sorted(d.occupied()) for d in a.disks],
        )


@st.composite
def _batches(draw):
    D = draw(st.sampled_from([1, 2, 4, 8]))
    # Skew: weight w on disk 0, the rest uniform — from balanced to all-on-one.
    skew = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    n = draw(st.integers(0, 60))
    rng = random.Random(draw(st.integers(0, 1 << 30)))
    disks = [0 if rng.random() < skew else rng.randrange(D) for _ in range(n)]
    # Distinct tracks per disk, so a batch never writes one address twice.
    tracks = [rng.randrange(1 << 10) * n + i for i in range(n)]
    dead = draw(st.sampled_from([None, *range(D)])) if D > 1 else None
    return D, list(zip(disks, tracks)), dead, rng


@settings(max_examples=120, deadline=None)
@given(_batches())
def test_one_pass_packing_is_the_greedy(batch):
    D, addrs, dead, rng = batch
    blocks = [Block(records=[i]) for i in range(len(addrs))]
    ops = [(d, t, blk) for (d, t), blk in zip(addrs, blocks)]
    reads = list(addrs)
    rng.shuffle(reads)

    new, old = _Recorded(D, dead), _Recorded(D, dead)
    assert new.array.write_batched(ops) == _greedy_write(old.array, ops)
    got = new.array.read_batched(reads)
    want = _greedy_read(old.array, reads)
    assert [id(b) for b in got] == [id(b) for b in want]
    assert got == [blocks[addrs.index(a)] for a in reads]
    assert new.state() == old.state()
    if not addrs:
        assert new.rounds == []


@pytest.mark.parametrize("D", [1, 2, 4, 8])
def test_round_count_is_the_busiest_disk(D):
    """Standard consecutive format packs perfectly; one hot disk serialises
    — on the physical path's one-pass packing and on the fast plane's
    arithmetic alike."""
    for fast_io in (False, True):
        array = DiskArray(D, B=4, fast_io=fast_io)
        assert array.fast_data_plane is fast_io
        striped = [(q % D, q // D, Block(records=[q])) for q in range(5 * D + 1)]
        assert array.write_batched(striped) == 6
        hot = [(0, 100 + i, Block(records=[i])) for i in range(7)]
        assert array.write_batched(hot) == 7
