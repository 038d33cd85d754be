"""Unit tests for the BSP front-end: messages, packets, contexts, runner."""

import pytest

from repro.bsp.message import (
    Message,
    block_pieces,
    blocks_to_messages,
    message_to_blocks,
    pack_blocks,
)
from repro.bsp.program import AlgorithmError, VPContext
from repro.bsp.runner import ReferenceRunner
from repro.params import MachineParams

from .helpers import NoCommunication, RingShift


class TestMessage:
    def test_size(self):
        assert Message(0, 1, [1, 2, 3]).size == 3
        assert Message(0, 1).size == 0

    def test_iter(self):
        assert list(Message(0, 1, ["a", "b"])) == ["a", "b"]

    def test_empty_message_yields_one_block(self):
        blocks = message_to_blocks(Message(2, 3), B=4, msg_id=9)
        assert len(blocks) == 1
        # A zero-length segment: (dest, src, msg, seq, n).
        assert blocks[0].dest == 3 and blocks[0].segs == ((3, 2, 9, 0, 0),)

    def test_blocking_boundaries(self):
        for n in (1, 3, 4, 5, 8, 9):
            blocks = message_to_blocks(Message(0, 1, list(range(n))), B=4, msg_id=0)
            assert len(blocks) == -(-n // 4)
            assert sum(b.nrecords() for b in blocks) == n


def packets_of(msg: Message, b: int, msg_id: int):
    """Algorithm 3's cutter on an outbox of one message (``dest`` -1: a
    packet's address is its sender, none here)."""
    return pack_blocks([(msg.dest, msg.src, msg_id, 0, msg.payload)], b, -1)


class TestPackets:
    def test_empty_message_one_packet(self):
        pkts = packets_of(Message(1, 2), b=8, msg_id=0)
        assert len(pkts) == 1 and pkts[0].nrecords() == 0
        assert pkts[0].segs == ((2, 1, 0, 0, 0),)

    def test_packet_sizes(self):
        pkts = packets_of(Message(1, 2, list(range(20))), b=8, msg_id=0)
        assert [p.nrecords() for p in pkts] == [8, 8, 4]
        assert [seg[3] for p in pkts for seg in p.segs] == [0, 8, 16]

    def test_packets_via_blocks_roundtrip(self):
        msg = Message(3, 4, list(range(23)))
        pkts = packets_of(msg, b=7, msg_id=5)
        blocks = pack_blocks(block_pieces(pkts), B=3, dest=4)
        # Blocks fill across packet boundaries; a segment's seq is its
        # record offset within the message.
        assert [b.nrecords() for b in blocks] == [3] * 7 + [2]
        assert [seg[3] for b in blocks for seg in b.segs] == [
            0, 3, 6, 7, 9, 12, 14, 15, 18, 21,
        ]
        (back,) = blocks_to_messages(reversed(blocks))
        assert back.payload == msg.payload
        assert (back.src, back.dest) == (3, 4)

    def test_packets_fill_across_messages(self):
        """A round's outbox is one cut: messages share packets, split where
        a packet fills, and an empty message is a zero-length segment."""
        outbox = [(5, 1, 0, 0, [1, 2, 3]), (6, 1, 1, 0, []), (7, 2, 0, 0, [4, 5, 6, 7])]
        pkts = pack_blocks(outbox, 4, 0)
        assert [p.nrecords() for p in pkts] == [4, 3]
        assert [p.segs for p in pkts] == [
            ((5, 1, 0, 0, 3), (6, 1, 1, 0, 0), (7, 2, 0, 0, 1)),
            ((7, 2, 0, 1, 3),),
        ]
        assert list(block_pieces(pkts)) == [
            (5, 1, 0, 0, [1, 2, 3]), (6, 1, 1, 0, []),
            (7, 2, 0, 0, [4]), (7, 2, 0, 1, [5, 6, 7]),
        ]


class TestVPContext:
    def test_send_records_counted(self):
        ctx = VPContext(0, 4, 0, {}, [], comm_bound=10)
        ctx.send(1, [1, 2, 3])
        assert ctx.sent_records == 3
        with pytest.raises(AlgorithmError):
            ctx.send(2, list(range(8)))  # 3 + 8 > 10

    def test_send_all_skips_empty(self):
        ctx = VPContext(0, 4, 0, {}, [])
        ctx.send_all({1: [5], 2: [], 3: [7, 8]})
        assert sorted(m.dest for m in ctx.outbox) == [1, 3]

    def test_charge_accumulates(self):
        ctx = VPContext(0, 2, 0, {}, [])
        ctx.charge(5)
        ctx.charge(2.5)
        assert ctx.comp_ops == 7.5

    def test_vote_halt(self):
        ctx = VPContext(0, 2, 0, {}, [])
        assert not ctx.halted
        ctx.vote_halt()
        assert ctx.halted


class TestReferenceRunner:
    def test_rejects_bad_v(self):
        with pytest.raises(ValueError):
            ReferenceRunner(NoCommunication(), 0)

    def test_counts_supersteps(self):
        r = ReferenceRunner(RingShift(payload_size=2, rounds=3), 4)
        r.run()
        assert r.supersteps_executed == 4

    def test_comm_cost_uses_packets(self):
        machine = MachineParams(b=2, M=1024, B=16)
        r = ReferenceRunner(RingShift(payload_size=6, rounds=1), 4, machine=machine)
        _, ledger = r.run()
        # 6 records sent + 6 received per vp per round, b=2: 6 packets.
        assert ledger.supersteps[0].comm_packets == 6

    def test_comm_bound_enforcement_togglable(self):
        class Chatty(RingShift):
            def comm_bound(self):
                return 1  # lie

        with pytest.raises(AlgorithmError):
            ReferenceRunner(Chatty(payload_size=4), 4).run()
        out, _ = ReferenceRunner(
            Chatty(payload_size=4), 4, enforce_comm_bound=False
        ).run()
        assert len(out) == 4
