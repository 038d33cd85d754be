"""Message blocks packed per destination group (Step 1(d)).

The exact referee of the packed write and its planted drill, the fault
layer's cover of the segment table, and the codec's packed image on the file
plane.
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np
import pytest

from repro.bsp import message
from repro.bsp.message import blocks_to_messages, pack_blocks
from repro.conform.oracles import canonical_record, check_theorem1_io, plain_outputs
from repro.core import ParallelEMSimulation, simulate
from repro.core.simulator import build_params
from repro.emio.disk import Block
from repro.emio.faults import (
    ChecksumError,
    FaultPlan,
    FaultyDisk,
    RetryPolicy,
    _corrupted_copy,
    block_checksum,
)
from repro.emio.storage import _VEC_HEAD, FRAME_BYTES, FileStorage
from repro.algorithms.sorting import CGMSampleSort
from repro.params import MachineParams
from repro.workloads import uniform_keys

from .helpers import list_state_sort

KEYS = uniform_keys(2048, seed=4)


def sort_run(p, **knobs):
    alg = CGMSampleSort(list(KEYS), v=8)
    machine = MachineParams(p=p, M=1 << 14, D=4, B=16, b=32)
    return ParallelEMSimulation(alg, build_params(alg, machine, v=8, k=2), **knobs).run()


def packed(vector: bool) -> Block:
    """Three messages for group 4 (vps 4, 5) packed into one block of 8."""
    def payload(lo, n):
        return np.arange(lo, lo + n, dtype="<i8") if vector else list(range(lo, lo + n))

    pieces = [(4, 0, 0, 0, payload(0, 3)), (5, 1, 0, 0, []), (5, 2, 1, 0, payload(10, 5))]
    (block,) = pack_blocks(pieces, B=8, dest=4)
    return block


# -- the exact referee of the packed write ----------------------------------------


@pytest.mark.parametrize("p", [1, 2])
def test_the_packed_write_is_refereed_exactly(p):
    _out, report = sort_run(p)
    assert check_theorem1_io(report.params, report)[0] == []
    assert all(s.packing is not None for s in report.supersteps)


@pytest.mark.parametrize("p", [1, 2])
def test_a_fresh_block_per_message_is_caught(p, monkeypatch):
    """The planted drill: a packer that cuts every piece on its own — the
    per-message cut of Section 5.1 — still delivers every message, but
    writes more blocks than the records per destination group need."""
    want, honest = sort_run(p)
    per_piece = pack_blocks
    monkeypatch.setattr(
        message, "pack_blocks",
        lambda pieces, B, dest: [b for pc in pieces for b in per_piece([pc], B, dest)],
    )
    outputs, report = sort_run(p)
    assert plain_outputs(outputs) == plain_outputs(want)
    assert sum(s.message_blocks for s in report.supersteps) > sum(
        s.message_blocks for s in honest.supersteps
    )
    fails = check_theorem1_io(report.params, report)[0]
    assert any("packed write" in f.message for f in fails), fails


def test_lemma3_dummies_count_in_the_write():
    _out, report = sort_run(1, pad_to_gamma=True)
    assert any(d for s in report.supersteps for rnd in s.packing for _l, d in rnd)
    assert check_theorem1_io(report.params, report)[0] == []
    report.supersteps[0].phases.write_messages += 1
    fails = check_theorem1_io(report.params, report)[0]
    assert any("packed write" in f.message for f in fails)


# -- the fault layer covers the segment table -------------------------------------


@pytest.mark.parametrize("vector", [False, True])
@pytest.mark.parametrize("field", [0, 4])  # a segment's dest, its n
def test_a_flipped_segment_is_a_checksum_error(vector, field):
    disk = FaultyDisk(0, B=8)
    block = packed(vector)
    disk.write_track(3, block)
    segs = [list(seg) for seg in block.segs]
    segs[0][field] += 1
    disk._tracks[3] = replace(block, segs=tuple(map(tuple, segs)))
    with pytest.raises(ChecksumError):
        disk.read_track(3)


@pytest.mark.parametrize("vector", [False, True])
def test_corrupted_copy_keeps_the_segment_table(vector):
    block = packed(vector)
    bad = _corrupted_copy(block)
    assert bad.segs == block.segs and bad.dest == block.dest
    assert len(bad.records) == len(block.records) == 3
    assert bad.records[1] == []  # the empty message's part is untouched
    assert block_checksum(bad) != block_checksum(block)
    assert blocks_to_messages([block])[0].payload[0] == 0  # the original is intact


def test_file_plane_packed_image_round_trips_and_seals_its_table(tmp_path):
    store = FileStorage(tmp_path / "d0.trk", B=8)
    try:
        block = packed(vector=True)
        store.put(0, block)
        got = store.get(0)
        assert (got.dest, got.segs) == (block.dest, block.segs)
        assert [m.payload if isinstance(m.payload, list) else m.payload.tolist()
                for m in blocks_to_messages([got])] == [[0, 1, 2], [], [10, 11, 12, 13, 14]]
        assert block_checksum(got) == block_checksum(block)
        # Flip one byte of the segment table on the platter: the frame CRC.
        base = store._map[0][0] * store.slot_bytes
        off = base + FRAME_BYTES + _VEC_HEAD.size + 1
        byte = os.pread(store._fd, 1, off)
        os.pwrite(store._fd, bytes([byte[0] ^ 0xFF]), off)
        with pytest.raises(ChecksumError):
            store.get(0)
    finally:
        store.close()


def test_mixed_parts_fall_back_to_the_pickle_image(tmp_path):
    pieces = [(0, 0, 0, 0, np.arange(3, dtype="<i8")), (1, 1, 0, 0, ["a", "b"])]
    (block,) = pack_blocks(pieces, B=8, dest=0)
    store = FileStorage(tmp_path / "d0.trk", B=8)
    try:
        store.put(0, block)
        got = store.get(0)
    finally:
        store.close()
    assert got.segs == block.segs
    back = blocks_to_messages([got])
    assert back[0].payload.tolist() == [0, 1, 2] and back[1].payload == ["a", "b"]


def test_p2_process_file_faults_run_equals_the_memory_reference(tmp_path):
    """Packed vector frames and pickled packed object blocks cross the
    workers' pipes and track files under injected faults, and every count
    and answer equals the memory plane's inline run.  The object blocks are
    the list-state path's (an identity key on the same keys), whose answers are
    the vector plane's."""
    def run(keyed, **knobs):
        alg = (list_state_sort(KEYS, 8) if keyed
               else CGMSampleSort(np.array(KEYS, dtype=np.int64), v=8))
        outputs, report = simulate(
            alg, MachineParams(p=2, M=1 << 14, D=4, B=16, b=32), 8, seed=1,
            checkpoint=True, retry=RetryPolicy(max_retries=4),
            faults=FaultPlan(seed=2, read_error_rate=0.03, corruption_rate=0.03),
            **knobs,
        )
        return canonical_record(outputs, report)

    references = []
    for keyed in (False, True):
        references.append(run(keyed))
        assert run(
            keyed, backend="process", storage="file",
            storage_dir=str(tmp_path / f"keyed{keyed}"),
        ) == references[-1]
    assert references[0]["outputs"] == references[1]["outputs"]


def test_empty_messages_cost_one_block_a_group():
    pieces = [(d, d, 0, 0, []) for d in (8, 9, 10, 11)]
    blocks, loads = message.pack_by_group(pieces, B=4, key=lambda d: d - d % 2)
    assert [b.dest for b in blocks] == [8, 10] and loads == ((8, 0), (10, 0))
    back = blocks_to_messages(blocks)
    assert [(m.src, m.dest, m.payload) for m in back] == [(d, d, []) for d in (8, 9, 10, 11)]
