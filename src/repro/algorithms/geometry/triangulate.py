"""Sequential Delaunay kernel: Bowyer–Watson with a super-triangle.

Used inside the virtual processors of
:class:`~repro.algorithms.geometry.delaunay.CGMDelaunay` (and as a test
oracle cross-check against ``scipy.spatial``).  Points are expected in
general position (no 4 cocircular, no 3 collinear on the hull) — the
workload generators guarantee distinct coordinates and random placement.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["circumcircle", "delaunay_triangulation"]


def circumcircle(
    a: Sequence[float], b: Sequence[float], c: Sequence[float]
) -> tuple[float, float, float]:
    """Circumcenter (x, y) and squared radius of triangle ``abc``.

    Raises :class:`ValueError` for (near-)collinear points.
    """
    ax, ay = a
    bx, by = b
    cx, cy = c
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if abs(d) < 1e-12 * max(1.0, abs(ax) + abs(bx) + abs(cx)) ** 2:
        raise ValueError(f"collinear points {a}, {b}, {c}")
    a2 = ax * ax + ay * ay
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
    uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
    r2 = (ax - ux) ** 2 + (ay - uy) ** 2
    return ux, uy, r2


def delaunay_triangulation(
    points: Sequence[tuple[float, float]],
) -> list[tuple[int, int, int]]:
    """Delaunay triangles of ``points`` as sorted index triples.

    Classic Bowyer–Watson: insert points into a super-triangle one at a
    time, deleting every triangle whose circumcircle contains the new point
    and re-triangulating the star-shaped cavity.  ``O(n^2)`` worst case —
    the per-slab subproblems of the CGM algorithm are small.
    """
    n = len(points)
    if n < 3:
        return []
    if len({tuple(p) for p in points}) != n:
        raise ValueError("duplicate points")

    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    cx, cy = (min(xs) + max(xs)) / 2, (min(ys) + max(ys)) / 2
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
    # Super-triangle vertices, far enough to contain every circumcircle.
    sup = [
        (cx - 30 * span, cy - 10 * span),
        (cx + 30 * span, cy - 10 * span),
        (cx, cy + 30 * span),
    ]
    pts = [tuple(p) for p in points] + sup
    s0, s1, s2 = n, n + 1, n + 2

    # triangle -> circumcircle cache
    tris: dict[tuple[int, int, int], tuple[float, float, float]] = {}

    def add_tri(i: int, j: int, k: int) -> None:
        key = tuple(sorted((i, j, k)))
        tris[key] = circumcircle(pts[i], pts[j], pts[k])

    add_tri(s0, s1, s2)

    for pi in range(n):
        px, py = pts[pi]
        bad = []
        for key, (ux, uy, r2) in tris.items():
            if (px - ux) ** 2 + (py - uy) ** 2 <= r2 * (1 + 1e-12):
                bad.append(key)
        # Boundary of the cavity: edges appearing in exactly one bad triangle.
        edge_count: dict[tuple[int, int], int] = {}
        for i, j, k in bad:
            for e in ((i, j), (j, k), (i, k)):
                e = (min(e), max(e))
                edge_count[e] = edge_count.get(e, 0) + 1
        for key in bad:
            del tris[key]
        for (i, j), cnt in edge_count.items():
            if cnt == 1:
                add_tri(i, j, pi)

    out = [
        key
        for key in tris
        if key[0] < n and key[1] < n and key[2] < n
    ]
    return sorted(out)
