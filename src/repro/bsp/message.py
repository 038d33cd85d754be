"""Messages exchanged between virtual processors, and their blocked form.

A :class:`Message` carries a run of *records* from one virtual processor to
another within one communication superstep.  For external-memory simulation
messages are cut into blocks of the disk block size ``B``.  Section 5.1 cuts
each message on its own ("we cut the messages into blocks of size ``B``.
Each block inherits the destination address from its original message"),
which leaves every message's last block part-empty.  Here the cut is per
*destination group* instead — the ``k`` virtual processors one real
processor simulates together, key ``dest - dest % k``: :func:`pack_blocks`
fills each block to ``B`` records before it opens the next, messages may
split across blocks, and a segment table beside the records (``Block.segs``,
not counted against ``B``) says whose records are where.  The block inherits
the group's key as its destination address, so everything that routes
blocks — buckets, slots, Algorithm 3's gather — routes them as before;
:func:`blocks_to_messages` demultiplexes once, when the group is simulated.
An empty message is a zero-length segment, so its arrival stays observable;
a group that receives only empty messages costs one block.

The same cutter makes Algorithm 3's BSP* packets: a real processor's whole
round outbox goes through :func:`pack_blocks` with ``b`` for ``B``, and each
receiver packs the packets' :func:`block_pieces` per destination group.

Payloads come in two flavours.  The reference plane uses Python lists (one
object per record); the vectorized plane uses 1-D numpy arrays of a codec
dtype.  A block keeps its segments' payloads as *slices* — for ndarrays
zero-copy views over the message buffers — and a message reassembles with a
single concatenate.  Record counts are logical (``len``) either way, so the
counted cost model cannot tell the flavours apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Iterable

import numpy as np

from ..emio.disk import Block

__all__ = [
    "Message",
    "pack_blocks",
    "pack_by_group",
    "block_pieces",
    "message_to_blocks",
    "blocks_to_messages",
]

#: One piece of a message bound for a destination group:
#: ``(dest, src, msg, seq, records)``, ``seq`` the record offset of
#: ``records`` within message ``msg`` of ``src`` (0 for a whole message).
Piece = tuple[int, int, int, int, Any]


def _slice(records, i: int, j: int):
    """One block/packet payload: the records themselves when whole, else a
    list slice (copy) or ndarray view.  Sharing a whole list is safe: it is
    the sender's copy (``VPContext.send``), and :func:`blocks_to_messages`
    joins list parts into a new list."""
    if isinstance(records, (np.ndarray, list)):
        return records if j - i == len(records) else records[i:j]
    return list(records[i:j])


def _join(parts: list):
    """Concatenate part payloads in order, preserving the flavour."""
    if len(parts) == 1 and isinstance(parts[0], np.ndarray):
        return parts[0]
    if parts and all(isinstance(p, np.ndarray) for p in parts):
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


def pack_blocks(pieces: Iterable[Piece], B: int, dest: int) -> list[Block]:
    """Pack the pieces bound for one destination group into blocks of ``B``.

    Each block fills to ``B`` records before the next one opens, so a piece
    may split across blocks; every part gets a segment ``(dest, src, msg,
    seq, n)`` in its block's table, ``seq`` the part's record offset within
    its message.  An empty piece is a zero-length segment in the block at
    hand — a new one only if there is none yet — so ``pieces`` holding ``r``
    records pack into ``max(1, ceil(r / B))`` blocks, and no pieces into
    none.  Every block's destination address is ``dest``, the group's key
    (for Algorithm 3's packets, ``B = b``, the sending real processor).
    """
    out: list[Block] = []
    segs: list[tuple[int, int, int, int, int]] = []
    parts: list[Any] = []
    room = B
    for pdest, src, msg, seq, records in pieces:
        n = len(records)
        if n <= room:  # the whole piece fits the block at hand
            segs.append((pdest, src, msg, seq, n))
            parts.append(_slice(records, 0, n) if n else [])
            room -= n
            continue
        i = 0
        while i < n:
            if room == 0:
                out.append(Block(records=tuple(parts), dest=dest, segs=tuple(segs)))
                segs, parts, room = [], [], B
            t = min(room, n - i)
            segs.append((pdest, src, msg, seq + i, t))
            parts.append(_slice(records, i, i + t))
            room -= t
            i += t
    if segs:
        out.append(Block(records=tuple(parts), dest=dest, segs=tuple(segs)))
    return out


def pack_by_group(
    pieces: Iterable[Piece], B: int, k: int
) -> tuple[list[Block], tuple[int, ...]]:
    """Step 1(d): pack ``pieces`` per destination group of ``k`` virtual
    processors (key ``dest - dest % k``), groups in ascending key order,
    pieces in arrival order within a group.

    Returns the blocks and, group by group, the records packed — counted
    from the pieces, not the blocks, so that
    :func:`~repro.conform.oracles.check_theorem1_io` can referee the packing.
    """
    groups: dict[int, list[Piece]] = {}
    for piece in pieces:
        dest = piece[0]
        groups.setdefault(dest - dest % k, []).append(piece)
    blocks: list[Block] = []
    loads = []
    for key in sorted(groups):
        blocks.extend(pack_blocks(groups[key], B, key))
        loads.append(sum(len(piece[4]) for piece in groups[key]))
    return blocks, tuple(loads)


def message_to_blocks(msg: Message, B: int, msg_id: int) -> list[Block]:
    """Cut one message into blocks of size ``B``: :func:`pack_blocks` of
    the message alone, keyed by its own destination.

    Empty messages still produce one (empty) block so that their arrival is
    observable; the cost model charges them one packet, consistent with BSP*.
    """
    return pack_blocks([(msg.dest, msg.src, msg_id, 0, msg.payload)], B, msg.dest)


def block_pieces(blocks: Iterable[Block]) -> list[Piece]:
    """The pieces ``blocks`` carry, one per segment, in table order."""
    return [
        (dest, src, msg, seq, part)
        for blk in blocks
        for (dest, src, msg, seq, _n), part in zip(blk.segs, blk.records, strict=True)
    ]


def blocks_to_messages(blocks: Iterable[Block | None]) -> list[Message]:
    """Reassemble messages from a pile of (possibly unordered) blocks.

    Every block's segments are grouped by ``(src, msg)``, each group's parts
    concatenated in ``seq`` order.  Dummy and empty slots are ignored.  The
    result is sorted by ``(src, msg)`` so delivery order is deterministic.
    All-ndarray parts rejoin into one array; an empty message comes back
    with an empty list as its payload.
    """
    groups: dict[tuple[int, int], list[tuple[int, int, Any]]] = {}
    for b in blocks:
        if b is None or b.dummy or b.dest < 0:
            continue
        for (dest, src, msg, seq, _n), part in zip(b.segs, b.records, strict=True):
            groups.setdefault((src, msg), []).append((seq, dest, part))
    out = []
    for (src, _mid), parts in sorted(groups.items()):
        if len(parts) > 1:
            parts.sort(key=itemgetter(0))
        payload = _join([part for _seq, _dest, part in parts if len(part)])
        out.append(Message(src=src, dest=parts[0][1], payload=payload))
    return out
