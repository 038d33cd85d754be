"""Algorithm 3 deals each round's outbox in full packets of ``b``.

In the writing phase a real processor cuts its whole round's outbox — every
vp of the batch, in message order — into packets of at most ``b`` records
with the block packer (a message may split across packets, an empty message
is a zero-length segment) and deals them round-robin from one random offset:
packet ``t`` goes to processor ``(offset + t) mod p``.  With one processor
there is no network: nothing is cut or dealt, and the communication charged
is the virtual machine's h-relation.  These tests hold the cut and the deal
to their counts and to the random numbers they draw, the exact
communication referee to planted miscounts, a per-message packetizer and a
planted +1 on the one-processor charge, the equivalent planes and backends
to one another, and kill-resume to the offsets the uninterrupted run drew.
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
from repro.conform.runner import equivalent_planes, fuzz, run_case
from repro.conform.strategies import QUICK
from repro.core import ParallelEMSimulation, RunConfig, build_params, engine, processor
from repro.core.checkpoint import SimulationAborted
from repro.emio.faults import FaultPlan, RetryPolicy
from repro.params import MachineParams

from .helpers import PerRecordListRanking, TotalExchangeSum

N, V, K, b = 512, 16, 2, 16  # two batches a processor at p = 4


def listrank(p, cls=CGMListRanking, **knobs):
    alg = cls(wl.random_linked_list(N, seed=1), V)
    params = build_params(alg, MachineParams(p=p, M=1 << 16, D=2, B=8, b=b), V, k=K)
    return ParallelEMSimulation(alg, params, **knobs)


def reference():
    return run_reference(CGMListRanking(wl.random_linked_list(N, seed=1), V), V)[0]


def per_message(monkeypatch):
    """Planted: the old writing phase, one message's packets at a time."""
    monkeypatch.setattr(
        processor, "pack_blocks",
        lambda pieces, b, dest: [
            pkt for piece in pieces for pkt in pack_blocks([piece], b, dest)
        ],
    )


# -- the cut and the deal ------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 4])
def test_each_round_cuts_full_packets_and_deals_them_evenly(monkeypatch, p):
    """Every packet of a round but its last holds ``b`` records, ``r``
    records make ``max(1, ceil(r/b))`` packets, each receiver gets
    ``floor`` or ``ceil`` of ``n/p`` of them, and the report's traffic says
    so; the answer is the reference's."""
    deals = []
    real_deal = engine.deal

    def spy(packets, offset, p):
        got = real_deal(packets, offset, p)
        deals.append((packets, got))
        return got

    monkeypatch.setattr(engine, "deal", spy)
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
    draws are exactly the rounds that dealt.  At ``p = 1`` nothing is cut,
    dealt or drawn: each round records the virtual machine's per-vp
    packets, and the charge is their h-relation."""
    draws = []
    real = random.Random.randrange

    def counting(self, *args, **kw):
        draws.append(args)
        return real(self, *args, **kw)

    for p in (2, 1):
        alg = TotalExchangeSum()
        params = build_params(alg, MachineParams(p=p, M=1 << 16, D=2, B=4, b=8), 4, k=1)
        sim = ParallelEMSimulation(alg, params)
        draws.clear()
        monkeypatch.setattr(random.Random, "randrange", counting)
        if p == 1:
            monkeypatch.setattr(engine, "deal", None)  # no network: no deal
        _out, report = sim.run()
        monkeypatch.undo()
        if p == 1:
            assert draws == []
            # Superstep 1: vp 0 sends one record to each of the 4 vps, and
            # the other rounds send nothing.
            assert [t for t in report.supersteps[1].traffic if t] == [
                ((0, 4, 1), (1, 0, 1), (2, 0, 1), (3, 0, 1))]
            assert [s.comm_packets for s in report.supersteps] == [
                engine.h_relation(s.traffic) for s in report.supersteps]
            continue
        offsets = [
            offset
            for s in report.supersteps
            for _gather, round_ in s.traffic
            for _records, offset in round_ or ()
        ]
        assert None in offsets
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


def shrunk_failure(p, **profile):
    """The first case a short fuzz of ``p``-processor runs fails, shrunk to
    a replayable ReproCase that still fails on ``comm_packets``."""
    profile = dataclasses.replace(
        QUICK, p_choices=(p,), baseline_rate=0.0, crash_rate=0.0,
        fault_weights=(1.0, 0.0, 0.0), **profile,
    )
    stats = fuzz(seed=0, budget=5, profile=profile, shrink_budget=20)
    assert not stats.passed
    case = stats.failures[0]
    assert case.oracle == "theorem1_io" and "comm_packets" in case.message
    assert case.original is not None and case.original.p == p
    assert any("comm_packets" in f.message for f in run_case(case.config).failures)
    return case


def test_the_fuzzer_catches_and_shrinks_a_planted_packet_at_p1(monkeypatch):
    """Planted: one packet more than the virtual machine's h-relation on a
    one-processor machine, which the referee recomputes from each round's
    per-vp tallies."""
    real = engine.h_relation
    monkeypatch.setattr(engine, "h_relation", lambda tallies: real(tallies) + 1)
    assert "virtual machine's messages" in shrunk_failure(1).message


@pytest.mark.parametrize("p", [2, 4])
def test_the_fuzzer_catches_and_shrinks_a_per_message_packetizer(monkeypatch, p):
    """Planted: each message cut into its own packets.  The referee finds
    ``comm_packets`` above what the records dealt make, and the fuzzer
    shrinks the failing config to a replayable ReproCase."""
    per_message(monkeypatch)
    shrunk_failure(p, workloads=("listrank",))


# -- planes, backends and recovery ------------------------------------------------------


@pytest.mark.parametrize("records", ["object", "vector"])
def test_process_file_faults_equal_memory_inline_at_p2(records):
    """Transient faults on every drive: the process backend on the file
    plane charges, byte for byte, what the inline memory plane does under
    the same faults, and the network ledger is the fault-free run's — with
    the vector removal kernel and with the per-record rule alike."""
    cls = PerRecordListRanking if records == "object" else CGMListRanking
    faults = FaultPlan(seed=3, read_error_rate=0.05, write_error_rate=0.05)
    runs = {}
    for key, config in equivalent_planes(RunConfig(
            backend="process", storage="file", faults=faults, retry=RetryPolicy(max_retries=8))):
        outputs, report = listrank(2, cls, config=config).run()
        assert check_outputs(key, outputs, reference()) == []
        assert report.faults.retry_ops > 0
        runs[key] = (record_bytes(canonical_record(outputs, report)), report)
    assert len({image for image, _report in runs.values()}) == 1
    _out, healthy = listrank(2, cls).run()
    assert [(s.comm_packets, s.traffic) for s in runs["primary"][1].supersteps] == [
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
