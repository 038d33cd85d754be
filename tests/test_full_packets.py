"""Algorithm 3 deals each round's outbox in full packets of ``b``.

In the writing phase a real processor cuts its whole round's outbox — every
vp of the batch, in message order — into packets of at most ``b`` records
with the block packer (a message may split across packets, an empty message
is a zero-length segment) and deals them round-robin from one random offset:
packet ``t`` goes to processor ``(offset + t) mod p``.  These tests hold the
cut and the deal to their counts and to the random numbers they draw, the
exact scatter referee to planted miscounts and to a per-message packetizer
planted in the engine, the equivalent planes and backends to one another,
and kill-resume to the offsets the uninterrupted run drew.
"""

import dataclasses
import random

import pytest

from repro import workloads as wl
from repro.algorithms.graphs import CGMListRanking
from repro.bsp.message import pack_blocks
from repro.bsp.runner import run_reference
from repro.conform.oracles import (
    canonical_record,
    check_outputs,
    check_theorem1_io,
    record_bytes,
)
from repro.conform.runner import fuzz, run_case
from repro.conform.strategies import QUICK
from repro.core import parsim
from repro.core.checkpoint import SimulationAborted
from repro.core.simulator import build_params, make_engine
from repro.emio.faults import FaultPlan, RetryPolicy
from repro.params import MachineParams

from .helpers import TotalExchangeSum

N, V, K, b = 512, 16, 2, 16  # two batches a processor at p = 4


def listrank(p, **knobs):
    alg = CGMListRanking(wl.random_linked_list(N, seed=1), V)
    params = build_params(alg, MachineParams(p=p, M=1 << 16, D=2, B=8, b=b), V, k=K)
    return make_engine(alg, params, engine="parallel", **knobs)


def reference():
    return run_reference(CGMListRanking(wl.random_linked_list(N, seed=1), V), V)[0]


def per_message(monkeypatch):
    """Planted: the old writing phase, one message's packets at a time."""
    monkeypatch.setattr(
        parsim, "pack_blocks",
        lambda pieces, b, dest: [
            pkt for piece in pieces for pkt in pack_blocks([piece], b, dest)
        ],
    )


# -- the cut and the deal ------------------------------------------------------------


@pytest.mark.parametrize("p", [1, 2, 4])
def test_each_round_cuts_full_packets_and_deals_them_evenly(monkeypatch, p):
    """Every packet of a round but its last holds ``b`` records, ``r``
    records make ``max(1, ceil(r/b))`` packets, each receiver gets
    ``floor`` or ``ceil`` of ``n/p`` of them, and the report's traffic says
    so; the answer is the reference's."""
    deals = []
    real_deal = parsim.deal

    def spy(packets, offset, p):
        got = real_deal(packets, offset, p)
        deals.append((packets, got))
        return got

    monkeypatch.setattr(parsim, "deal", spy)
    outputs, report = listrank(p).run()
    assert check_outputs("listrank", outputs, reference()) == []
    assert check_theorem1_io(report.params, report)[0] == []
    assert deals
    for packets, got in deals:
        r = sum(pkt.nrecords() for pkt in packets)
        assert len(packets) == max(1, -(-r // b))
        assert all(pkt.nrecords() == b for pkt in packets[:-1])
        n = len(packets)
        assert sorted(map(len, got)) == sorted(
            n // p + (q < n % p) for q in range(p)
        )
    dealt = [
        (records, offset)
        for s in report.supersteps
        for _gather, round_ in s.traffic
        if round_ is not None
        for records, offset in round_
        if offset is not None
    ]
    assert [sum(pkt.nrecords() for pkt in packets) for packets, _ in deals] == [
        records for records, _offset in dealt
    ]
    assert all(0 <= offset < p for _records, offset in dealt)


@pytest.mark.parametrize("p", [2, 4])
def test_full_packets_send_fewer_than_one_message_at_a_time(monkeypatch, p):
    """The same run cut one message at a time sends the same answer in
    fewer full packets: list ranking's messages are far below ``b``, and
    the gather, which moves whole blocks, is the same in both."""
    outputs, report = listrank(p).run()
    per_message(monkeypatch)
    old_outputs, old_report = listrank(p).run()
    assert old_outputs == outputs
    full = sum(s.comm_packets for s in report.supersteps)
    old = sum(s.comm_packets for s in old_report.supersteps)
    assert 3 * full <= 2 * old


def test_only_a_round_with_pieces_draws_a_deal_offset(monkeypatch):
    """TotalExchangeSum's superstep 1 is vp 0's alone: every other
    processor-round sends nothing, deals nothing and draws nothing, so the
    draws are exactly the rounds that dealt; at ``p = 1`` nothing is drawn
    and the offset is 0."""
    draws = []
    real = random.Random.randrange

    def counting(self, *args, **kw):
        draws.append(args)
        return real(self, *args, **kw)

    for p in (2, 1):
        alg = TotalExchangeSum()
        params = build_params(alg, MachineParams(p=p, M=1 << 16, D=2, B=4, b=8), 4, k=1)
        engine = make_engine(alg, params, engine="parallel")
        draws.clear()
        monkeypatch.setattr(random.Random, "randrange", counting)
        _out, report = engine.run()
        monkeypatch.undo()
        offsets = [
            offset
            for s in report.supersteps
            for _gather, round_ in s.traffic
            for _records, offset in round_ or ()
        ]
        assert None in offsets
        if p == 1:
            assert draws == [] and set(offsets) == {0, None}
        else:
            assert len(draws) == sum(o is not None for o in offsets)
            assert draws == [(p,)] * len(draws)


# -- the exact scatter referee ----------------------------------------------------------


def test_the_referee_catches_a_planted_packet():
    _out, report = listrank(2).run()
    assert check_theorem1_io(report.params, report)[0] == []
    s = report.supersteps[1]
    s.comm_packets += 1
    fails = check_theorem1_io(report.params, report)[0]
    assert [f.message for f in fails if "comm_packets" in f.message] == [
        f"superstep 1: comm_packets {s.comm_packets}, but the records gathered "
        f"and dealt, in full packets of b = {b}, make {s.comm_packets - 1}"
    ]
    s.comm_packets -= 1
    gather, round_ = s.traffic[0]
    (records, offset), *rest = round_
    s.traffic[0] = (gather, ((records + b, offset), *rest))
    assert any("comm_packets" in f.message for f in check_theorem1_io(report.params, report)[0])


@pytest.mark.parametrize("p", [2, 4])
def test_the_fuzzer_catches_and_shrinks_a_per_message_packetizer(monkeypatch, p):
    """Planted: each message cut into its own packets.  The referee finds
    ``comm_packets`` above what the records dealt make, and the fuzzer
    shrinks the failing config to a replayable ReproCase."""
    per_message(monkeypatch)
    profile = dataclasses.replace(
        QUICK, p_choices=(p,), workloads=("listrank",), baseline_rate=0.0,
        crash_rate=0.0, fault_weights=(1.0, 0.0, 0.0),
    )
    stats = fuzz(seed=0, budget=5, profile=profile, shrink_budget=20)
    assert not stats.passed
    case = stats.failures[0]
    assert case.oracle == "theorem1_io" and "comm_packets" in case.message
    assert case.original is not None and case.original.p == p
    assert any("comm_packets" in f.message for f in run_case(case.config).failures)


# -- planes, backends and recovery ------------------------------------------------------


@pytest.mark.parametrize("records", ["object", "vector"])
def test_process_file_faults_equal_memory_inline_at_p2(records):
    """Transient faults on every drive: the process backend on the file
    plane charges, byte for byte, what the inline memory plane does under
    the same faults, and the network ledger is the fault-free run's."""
    faults = FaultPlan(seed=3, read_error_rate=0.05, write_error_rate=0.05)
    retry = RetryPolicy(max_retries=8)
    runs = {}
    for backend, storage in (("inline", "memory"), ("process", "file")):
        outputs, report = listrank(
            2, backend=backend, storage=storage, records=records,
            faults=faults, retry=retry,
        ).run()
        assert check_outputs(storage, outputs, reference()) == []
        assert report.faults.retry_ops > 0
        runs[backend] = (record_bytes(canonical_record(outputs, report)), report)
    assert runs["inline"][0] == runs["process"][0]
    _out, healthy = listrank(2, records=records).run()
    assert [(s.comm_packets, s.traffic) for s in runs["process"][1].supersteps] == [
        (s.comm_packets, s.traffic) for s in healthy.supersteps
    ]


@pytest.mark.parametrize("backend", ["inline", "process"])
def test_kill_resume_at_p2_charges_what_the_run_did(backend):
    """A drive dies mid-run; resumed from the last checkpoint on a fresh
    engine, every superstep deals from the offsets the uninterrupted run
    drew and charges what it charged."""
    _out, golden = listrank(2).run()
    dying = listrank(
        2, checkpoint=True, max_recoveries=0, retry=RetryPolicy(max_retries=2),
        faults=FaultPlan(seed=0, dead_disk=1, dead_after=1200, dead_proc=1),
    )
    with pytest.raises(SimulationAborted) as exc_info:
        dying.run()
    ckpt = exc_info.value.checkpoint
    assert ckpt is not None and ckpt.step >= 2
    outputs, report = listrank(2, checkpoint=True, backend=backend).resume_from_checkpoint(ckpt)
    assert check_outputs("resumed", outputs, reference()) == []
    assert report.faults.resumed_from_step == ckpt.step
    assert check_theorem1_io(report.params, report)[0] == []
    assert [
        (repr(s.phases), s.comm_packets, s.traffic) for s in report.supersteps
    ] == [(repr(s.phases), s.comm_packets, s.traffic) for s in golden.supersteps]
