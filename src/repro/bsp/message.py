"""Messages exchanged between virtual processors, and their blocked form.

A :class:`Message` carries a run of *records* from one virtual processor to
another within one communication superstep.  For external-memory simulation a
message is cut into blocks of the disk block size ``B`` ("we cut the messages
into blocks of size ``B``.  Each block inherits the destination address from
its original message", Section 5.1); :func:`message_to_blocks` and
:func:`blocks_to_messages` implement that round trip.

Payloads come in two flavours.  The reference plane uses Python lists (one
object per record); the vectorized plane uses 1-D numpy arrays of a codec
dtype.  Both flavours block into *slices* — for ndarrays these are zero-copy
views over the message buffer — and reassemble with a single concatenate.
Record counts are logical (``len``) either way, so the counted cost model
cannot tell the flavours apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from ..emio.disk import Block

__all__ = [
    "Message",
    "Packet",
    "message_to_blocks",
    "blocks_to_messages",
    "message_to_packets",
    "packet_to_blocks",
]


def _slice(records, i: int, j: int):
    """One block/packet payload: list slice (copy) or ndarray view."""
    if isinstance(records, np.ndarray):
        return records[i:j]
    return list(records[i:j])


def _join(parts: list):
    """Concatenate part payloads in order, preserving the flavour."""
    if parts and all(isinstance(p, np.ndarray) for p in parts):
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts)
    payload: list[Any] = []
    for p in parts:
        payload.extend(p)
    return payload


@dataclass
class Message:
    """A point-to-point message of ``len(payload)`` records."""

    src: int
    dest: int
    payload: Any = field(default_factory=list)

    @property
    def size(self) -> int:
        """Message size in records."""
        return len(self.payload)

    def __iter__(self):
        return iter(self.payload)


def message_to_blocks(msg: Message, B: int, msg_id: int) -> list[Block]:
    """Cut one message into blocks of size ``B`` (blocked format).

    Empty messages still produce one (empty) block so that their arrival is
    observable; the cost model charges them one packet, consistent with BSP*.
    """
    if len(msg.payload) == 0:
        return [Block(records=[], dest=msg.dest, src=msg.src, msg=msg_id, seq=0)]
    return [
        Block(
            records=_slice(msg.payload, i, i + B),
            dest=msg.dest,
            src=msg.src,
            msg=msg_id,
            seq=seq,
        )
        for seq, i in enumerate(range(0, len(msg.payload), B))
    ]


@dataclass
class Packet:
    """A BSP* packet: up to ``b`` records of one message.

    The parallel simulation (Algorithm 3) splits generated messages into
    packets of the router's packet size ``b`` and scatters each packet to a
    randomly chosen real processor; ``offset`` is the packet's record offset
    within the original message so blocks cut from it later keep globally
    consistent sequence numbers.
    """

    src: int
    dest: int
    msg: int
    offset: int
    records: Any = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.records)


def message_to_packets(msg: Message, b: int, msg_id: int) -> list[Packet]:
    """Split one message into packets of at most ``b`` records.

    Empty messages yield one empty packet (charged one packet by BSP*).
    """
    if len(msg.payload) == 0:
        return [Packet(src=msg.src, dest=msg.dest, msg=msg_id, offset=0)]
    return [
        Packet(
            src=msg.src,
            dest=msg.dest,
            msg=msg_id,
            offset=i,
            records=_slice(msg.payload, i, i + b),
        )
        for i in range(0, len(msg.payload), b)
    ]


def packet_to_blocks(pkt: Packet, B: int) -> list[Block]:
    """Cut one packet into disk blocks of at most ``B`` records.

    Block sequence numbers are the record offsets within the original
    message, so :func:`blocks_to_messages` reassembles payloads in order no
    matter which real processors the packets travelled through.
    """
    if len(pkt.records) == 0:
        return [
            Block(records=[], dest=pkt.dest, src=pkt.src, msg=pkt.msg, seq=pkt.offset)
        ]
    return [
        Block(
            records=_slice(pkt.records, i, i + B),
            dest=pkt.dest,
            src=pkt.src,
            msg=pkt.msg,
            seq=pkt.offset + i,
        )
        for i in range(0, len(pkt.records), B)
    ]


def blocks_to_messages(blocks: Iterable[Block | None]) -> list[Message]:
    """Reassemble messages from a pile of (possibly unordered) blocks.

    Blocks are grouped by ``(src, msg)``, each group's parts concatenated in
    ``seq`` order.  Dummy and empty slots are ignored.  The result is sorted
    by ``(src, msg)`` so delivery order is deterministic.  All-ndarray parts
    rejoin into one array (empty list-payload markers from the empty-message
    path are dropped first when array parts are present).
    """
    groups: dict[tuple[int, int], list[Block]] = {}
    for b in blocks:
        if b is None or b.dummy or b.dest < 0:
            continue
        groups.setdefault((b.src, b.msg), []).append(b)
    out = []
    for (src, _mid), parts in sorted(groups.items()):
        if len(parts) > 1:
            parts.sort(key=lambda blk: blk.seq)
        payloads = [p.records for p in parts]
        if any(isinstance(p, np.ndarray) for p in payloads):
            payloads = [p for p in payloads if len(p)] or payloads[:1]
        out.append(Message(src=src, dest=parts[0].dest, payload=_join(payloads)))
    return out
