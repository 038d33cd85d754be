"""Generalized lower envelope of (possibly intersecting) segments
(Table 1, Group B, "Generalized lower envelope of line segments").

Unlike :class:`~repro.algorithms.geometry.envelope.CGMLowerEnvelope`, the
segments may cross, so the envelope changes not only at endpoints but at
intersection points; its complexity is the Davenport–Schinzel bound
``O(n·alpha(n))`` the table row quotes.  The sequential kernel is the
classical divide-and-conquer **envelope merge**: an envelope is a list of
linear pieces; merging two envelopes sweeps their combined breakpoints and
inserts the crossing point inside any interval where the winner flips.

The CGM algorithm reuses the slab decomposition: segments are replicated to
the slabs they cross, each slab merges its segments' envelopes locally
(slabs are x-disjoint, so local envelopes concatenate exactly), and vp 0
stitches.  ``lambda = O(1)``.
"""

from __future__ import annotations

import bisect
from typing import Sequence

from ...bsp.program import VPContext
from .common import SlabAlgorithm

__all__ = ["CGMGeneralLowerEnvelope", "envelope_of_segments"]

Segment = tuple[float, float, float, float]  # x1, y1, x2, y2 with x1 <= x2
Piece = tuple[float, float, int]  # x_from, x_to, segment id
INF = float("inf")


def _line(seg: Segment) -> tuple[float, float]:
    """Slope/intercept of the segment's supporting line (vertical rejected)."""
    x1, y1, x2, y2 = seg
    if x2 == x1:
        raise ValueError("vertical segments are not supported")
    m = (y2 - y1) / (x2 - x1)
    return m, y1 - m * x1


def _merge(
    a: list[Piece], b: list[Piece], segs: Sequence[Segment]
) -> list[Piece]:
    """Merge two lower envelopes (piece lists sorted by x, non-overlapping)."""
    events = sorted(
        {p[0] for p in a} | {p[1] for p in a} | {p[0] for p in b} | {p[1] for p in b}
    )
    out: list[Piece] = []

    def piece_at(pieces: list[Piece], x: float) -> int:
        # The piece covering [x, next-event); pieces are sorted and disjoint.
        i = bisect.bisect_right([p[0] for p in pieces], x) - 1
        if 0 <= i < len(pieces) and pieces[i][0] <= x < pieces[i][1]:
            return pieces[i][2]
        return -1

    def emit(xa: float, xb: float, sid: int) -> None:
        if xb <= xa or sid < 0:
            return
        if out and out[-1][2] == sid and out[-1][1] == xa:
            out[-1] = (out[-1][0], xb, sid)
        else:
            out.append((xa, xb, sid))

    for xa, xb in zip(events, events[1:]):
        sa = piece_at(a, xa)
        sb = piece_at(b, xa)
        if sa < 0 and sb < 0:
            continue
        if sa < 0 or sb < 0:
            emit(xa, xb, sa if sa >= 0 else sb)
            continue
        ma, ca = _line(segs[sa])
        mb, cb = _line(segs[sb])
        ya_l, yb_l = ma * xa + ca, mb * xa + cb
        ya_r, yb_r = ma * xb + ca, mb * xb + cb
        # Winner at each end by y (ties by slope so the continuation wins).
        left = sa if ya_l < yb_l or (ya_l == yb_l and ma <= mb) else sb
        right = sa if ya_r < yb_r or (ya_r == yb_r and ma >= mb) else sb
        if left == right:
            emit(xa, xb, left)
        else:
            # One crossing inside (linear pieces): x* = (cb-ca)/(ma-mb).
            xcross = (cb - ca) / (ma - mb)
            xcross = min(max(xcross, xa), xb)
            emit(xa, xcross, left)
            emit(xcross, xb, right)
    return out


def envelope_of_segments(
    segments: Sequence[tuple[int, Segment]],
    all_segs: Sequence[Segment],
    lo: float = -INF,
    hi: float = INF,
) -> list[Piece]:
    """Lower envelope of ``(id, segment)`` pairs clipped to ``[lo, hi]``,
    by divide-and-conquer envelope merging (handles crossings exactly)."""
    base: list[list[Piece]] = []
    for sid, (x1, y1, x2, y2) in segments:
        a, b = max(x1, lo), min(x2, hi)
        if a < b:
            base.append([(a, b, sid)])
    if not base:
        return []
    while len(base) > 1:
        nxt = []
        for i in range(0, len(base) - 1, 2):
            nxt.append(_merge(base[i], base[i + 1], all_segs))
        if len(base) % 2:
            nxt.append(base[-1])
        base = nxt
    return base[0]


class CGMGeneralLowerEnvelope(SlabAlgorithm):
    """Lower envelope of possibly-crossing, non-vertical segments.

    Output 0 is the piece list ``(x_from, x_to, segment_index)``; other vps
    output empty lists.
    """

    LAMBDA = 5

    def __init__(self, segments: Sequence[Segment], v: int):
        for x1, _y1, x2, _y2 in segments:
            if x1 >= x2:
                raise ValueError("segments must satisfy x1 < x2 (no verticals)")
        items = [(i, tuple(s)) for i, s in enumerate(segments)]
        super().__init__(items, v)
        self.segments = [tuple(s) for s in segments]

    def xkey(self, item) -> float:
        return item[1][0]

    def duplication_factor(self) -> int:
        return self.v

    def slab_range(self, item, splitters, v) -> range:
        _sid, (x1, _y1, x2, _y2) = item
        lo = bisect.bisect_right(splitters, x1)
        hi = bisect.bisect_left(splitters, x2)
        return range(lo, min(hi, v - 1) + 1)

    def process(self, ctx: VPContext, rel_step: int) -> None:
        st = ctx.state
        if rel_step == 0:
            split = st["splitters"]
            lo = split[ctx.pid - 1] if ctx.pid > 0 else -INF
            hi = split[ctx.pid] if ctx.pid < len(split) else INF
            pieces = envelope_of_segments(st["slab"], self.segments, lo, hi)
            k = max(len(st["slab"]), 1)
            ctx.charge(len(st["slab"]) * max(1, k.bit_length()) * 4)
            ctx.send(0, ["E", ctx.pid] + [c for p in pieces for c in p])
        elif rel_step == 1:
            if ctx.pid == 0:
                by_slab: dict[int, list[Piece]] = {}
                for m in ctx.incoming:
                    it = iter(m.payload)
                    tag = next(it)
                    assert tag == "E"
                    slab = next(it)
                    ps = []
                    for xa in it:
                        ps.append((xa, next(it), int(next(it))))
                    by_slab[slab] = ps
                merged: list[Piece] = []
                for slab in sorted(by_slab):
                    for xa, xb, sid in by_slab[slab]:
                        if merged and merged[-1][2] == sid and abs(
                            merged[-1][1] - xa
                        ) < 1e-12:
                            merged[-1] = (merged[-1][0], xb, sid)
                        else:
                            merged.append((xa, xb, sid))
                st["envelope"] = merged
                ctx.charge(len(merged))
            ctx.vote_halt()

    def output(self, pid: int, state) -> list:
        return state.get("envelope", [])
