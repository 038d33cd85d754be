"""CGM 3D maxima (Table 1, Group B, "3D-maxima" row).

A point ``p`` is *maximal* if no other point exceeds it in all three
coordinates.  Slab decomposition by x:

* each slab vp computes the 2D staircase (maximal ``(y, z)`` pairs) of its
  points and ships it to vp 0;
* vp 0 forms, for every slab ``i``, the merged staircase of all slabs to its
  *right* (larger x) and returns it — one h-relation each way;
* each slab filters its points against (a) the right-suffix staircase and
  (b) an in-slab descending-x sweep.

``lambda = O(1)`` rounds.  Distinct x-coordinates across slabs are assumed
(guaranteed by the workload generators; ties inside a slab are handled by
the exact in-slab sweep).
"""

from __future__ import annotations

from typing import Sequence

from ...bsp.program import VPContext
from .common import SlabAlgorithm, staircase_2d

__all__ = ["CGM3DMaxima"]


def _dominated_yz(q: tuple[float, float], stair: list[tuple[float, float]]) -> bool:
    """True if some staircase point strictly dominates ``q`` in (y, z).

    ``stair`` is sorted by decreasing y / increasing z (see
    :func:`staircase_2d`); binary search on y then one z comparison.
    """
    import bisect

    if not stair:
        return False
    ys = [-s[0] for s in stair]  # increasing
    # candidates with y > q.y are a prefix of `stair`; the one with max z is last.
    idx = bisect.bisect_left(ys, -q[0])  # first with y <= q.y
    if idx == 0:
        return False
    return max(s[1] for s in stair[:idx]) > q[1]


class CGM3DMaxima(SlabAlgorithm):
    """Compute the maximal points of a 3D point set.

    Output ``j`` is the sorted list of maximal points that landed in slab
    ``j``; the union over vps is the full answer.
    """

    LAMBDA = 6

    def __init__(self, points: Sequence[tuple[float, float, float]], v: int):
        super().__init__(points, v)

    def xkey(self, item) -> float:
        return item[0]

    def process(self, ctx: VPContext, rel_step: int) -> None:
        st = ctx.state
        if rel_step == 0:
            stair = staircase_2d([(p[1], p[2]) for p in st["slab"]])
            ctx.charge(len(st["slab"]) * max(1, len(st["slab"]).bit_length()))
            ctx.send(0, ["S", ctx.pid] + [c for s in stair for c in s])
        elif rel_step == 1:
            if ctx.pid == 0:
                stairs: dict[int, list[tuple[float, float]]] = {}
                for m in ctx.incoming:
                    it = iter(m.payload)
                    tag = next(it)
                    assert tag == "S"
                    slab = next(it)
                    pts = []
                    for y in it:
                        pts.append((y, next(it)))
                    stairs[slab] = pts
                # Right-suffix staircases: slab i gets merge of slabs > i.
                suffix: list[tuple[float, float]] = []
                for slab in range(ctx.nprocs - 1, -1, -1):
                    ctx.send(slab, [c for s in suffix for c in s])
                    suffix = staircase_2d(suffix + stairs.get(slab, []))
                    ctx.charge(len(suffix))
        elif rel_step == 2:
            it = iter(ctx.incoming[0].payload)
            suffix = []
            for y in it:
                suffix.append((y, next(it)))
            result = []
            stair: list[tuple[float, float]] = []
            # In-slab sweep by descending x, whole equal-x groups at a time
            # (points sharing an x-coordinate cannot dominate each other).
            ordered = sorted(st["slab"], key=lambda q: -q[0])
            i = 0
            while i < len(ordered):
                j = i
                while j < len(ordered) and ordered[j][0] == ordered[i][0]:
                    j += 1
                group = ordered[i:j]
                for p in group:
                    yz = (p[1], p[2])
                    if not _dominated_yz(yz, stair) and not _dominated_yz(yz, suffix):
                        result.append(p)
                stair = staircase_2d(stair + [(p[1], p[2]) for p in group])
                i = j
            ctx.charge(len(st["slab"]) * max(1, len(st["slab"]).bit_length()))
            st["maxima"] = sorted(result)
            ctx.vote_halt()

    def output(self, pid: int, state) -> list:
        return state.get("maxima", [])
