"""Tests for Group B CGM geometry algorithms, against brute-force oracles."""

import math
import random

import pytest

from repro import workloads
from repro.algorithms.geometry import (
    CGM3DMaxima,
    CGMAllNearestNeighbors,
    CGMConvexHull,
    CGMDominanceCounting,
    CGMLowerEnvelope,
    CGMNextElementSearch,
    CGMRectangleUnionArea,
    CGMSeparability,
    convex_hull,
    union_area_sweep,
)
from repro.bsp.runner import run_reference
from repro.core.simulator import simulate
from repro.params import MachineParams

MACHINE = MachineParams(p=1, M=1 << 17, D=2, B=32, b=32)


class TestPrimitives:
    def test_convex_hull_square(self):
        pts = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)]
        hull = convex_hull(pts)
        assert set(hull) == {(0, 0), (1, 0), (1, 1), (0, 1)}

    def test_convex_hull_collinear(self):
        pts = [(0, 0), (1, 1), (2, 2), (3, 3)]
        hull = convex_hull(pts)
        assert set(hull) <= {(0, 0), (3, 3)}

    def test_union_area_disjoint(self):
        assert union_area_sweep([(0, 0, 1, 1), (2, 2, 3, 4)]) == pytest.approx(3.0)

    def test_union_area_nested(self):
        assert union_area_sweep([(0, 0, 4, 4), (1, 1, 2, 2)]) == pytest.approx(16.0)

    def test_union_area_overlap(self):
        assert union_area_sweep([(0, 0, 2, 2), (1, 1, 3, 3)]) == pytest.approx(7.0)


class TestConvexHull:
    @pytest.mark.parametrize("n,v", [(40, 4), (200, 4), (100, 8)])
    def test_matches_oracle(self, n, v):
        pts = workloads.random_points(n, seed=n + v)
        out, ledger = run_reference(CGMConvexHull(pts, v), v)
        assert set(out[0]) == set(convex_hull(pts))
        assert ledger.num_supersteps == CGMConvexHull.LAMBDA

    def test_points_on_circle(self):
        pts = [
            (math.cos(2 * math.pi * i / 24), math.sin(2 * math.pi * i / 24))
            for i in range(24)
        ]
        out, _ = run_reference(CGMConvexHull(pts, 4), 4)
        assert len(out[0]) == 24  # all on the hull

    def test_em_sequential_matches(self):
        pts = workloads.random_points(80, seed=5)
        out, report = simulate(CGMConvexHull(pts, 4), MACHINE, v=4, k=1)
        assert set(out[0]) == set(convex_hull(pts))
        assert report.io_ops > 0


def brute_maxima_3d(pts):
    return sorted(
        p
        for p in pts
        if not any(
            q[0] > p[0] and q[1] > p[1] and q[2] > p[2] for q in pts
        )
    )


class Test3DMaxima:
    @pytest.mark.parametrize("n,v", [(30, 4), (120, 4), (60, 8)])
    def test_matches_oracle(self, n, v):
        pts = workloads.random_points(n, seed=n * 3 + v, dims=3)
        out, _ = run_reference(CGM3DMaxima(pts, v), v)
        got = sorted(p for part in out for p in part)
        assert got == brute_maxima_3d(pts)

    def test_chain_all_maximal(self):
        # Anti-chain: decreasing x, increasing y and z -> all maximal.
        pts = [(10.0 - i, float(i), float(i)) for i in range(12)]
        out, _ = run_reference(CGM3DMaxima(pts, 4), 4)
        assert sorted(p for part in out for p in part) == sorted(pts)

    def test_single_dominator(self):
        pts = [(float(i), float(i), float(i)) for i in range(12)]
        out, _ = run_reference(CGM3DMaxima(pts, 4), 4)
        assert [p for part in out for p in part] == [(11.0, 11.0, 11.0)]

    def test_em_sequential_matches(self):
        pts = workloads.random_points(60, seed=7, dims=3)
        out, _ = simulate(CGM3DMaxima(pts, 4), MACHINE, v=4)
        got = sorted(p for part in out for p in part)
        assert got == brute_maxima_3d(pts)


def brute_dominance(pts, weights=None):
    w = weights or [1.0] * len(pts)
    return [
        sum(
            w[j]
            for j, q in enumerate(pts)
            if q[0] < p[0] and q[1] < p[1]
        )
        for p in pts
    ]


class TestDominanceCounting:
    @pytest.mark.parametrize("n,v", [(24, 4), (100, 4), (64, 8)])
    def test_unweighted(self, n, v):
        pts = workloads.random_points(n, seed=n + 13)
        out, _ = run_reference(CGMDominanceCounting(pts, v), v)
        got = {}
        for part in out:
            got.update(dict(part))
        expected = brute_dominance(pts)
        assert [got[i] for i in range(n)] == pytest.approx(expected)

    def test_weighted(self):
        n, v = 40, 4
        pts = workloads.random_points(n, seed=21)
        rng = random.Random(3)
        weights = [rng.uniform(0.5, 2.0) for _ in range(n)]
        out, _ = run_reference(CGMDominanceCounting(pts, v, weights=weights), v)
        got = {}
        for part in out:
            got.update(dict(part))
        expected = brute_dominance(pts, weights)
        assert [got[i] for i in range(n)] == pytest.approx(expected)

    def test_grid_points_with_ties(self):
        pts = [(float(i % 4), float(i // 4)) for i in range(16)]
        out, _ = run_reference(CGMDominanceCounting(pts, 4), 4)
        got = {}
        for part in out:
            got.update(dict(part))
        assert [got[i] for i in range(16)] == pytest.approx(brute_dominance(pts))

    def test_em_sequential_matches(self):
        n, v = 48, 4
        pts = workloads.random_points(n, seed=31)
        out, _ = simulate(CGMDominanceCounting(pts, v), MACHINE, v=v)
        got = {}
        for part in out:
            got.update(dict(part))
        assert [got[i] for i in range(n)] == pytest.approx(brute_dominance(pts))


class TestRectangleUnion:
    @pytest.mark.parametrize("n,v", [(10, 4), (60, 4), (40, 8)])
    def test_matches_oracle(self, n, v):
        rects = workloads.random_rectangles(n, seed=n + v)
        out, _ = run_reference(CGMRectangleUnionArea(rects, v), v)
        assert out[0][0] == pytest.approx(union_area_sweep(rects), rel=1e-9)

    def test_identical_rectangles(self):
        rects = [(0.0, 0.0, 5.0, 5.0)] * 8
        out, _ = run_reference(CGMRectangleUnionArea(rects, 4), 4)
        assert out[0][0] == pytest.approx(25.0)

    def test_spanning_rectangle(self):
        rects = workloads.random_rectangles(20, seed=5) + [(-10.0, 0.0, 2000.0, 1.0)]
        out, _ = run_reference(CGMRectangleUnionArea(rects, 4), 4)
        assert out[0][0] == pytest.approx(union_area_sweep(rects), rel=1e-9)

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            CGMRectangleUnionArea([(1.0, 0.0, 0.0, 1.0)], 2)

    def test_em_sequential_matches(self):
        rects = workloads.random_rectangles(40, seed=8)
        out, _ = simulate(CGMRectangleUnionArea(rects, 4), MACHINE, v=4)
        assert out[0][0] == pytest.approx(union_area_sweep(rects), rel=1e-9)


def brute_envelope_check(segments, pieces):
    """Validate an envelope piece list by dense x-sampling."""
    rng = random.Random(0)
    for xa, xb, sid in pieces:
        for _ in range(5):
            x = rng.uniform(xa, xb)
            ys = [
                (y1 + (y2 - y1) * ((x - x1) / (x2 - x1)) if x2 > x1 else min(y1, y2), i)
                for i, (x1, y1, x2, y2) in enumerate(segments)
                if x1 <= x <= x2
            ]
            assert ys, f"piece claims coverage at x={x} but no segment is there"
            best = min(ys)
            got = next(y for y, i in ys if i == sid)
            assert got == pytest.approx(best[0])


class TestLowerEnvelope:
    @pytest.mark.parametrize("n,v", [(12, 4), (50, 4), (30, 8)])
    def test_matches_oracle(self, n, v):
        segs = workloads.random_segments(n, seed=n + v)
        out, _ = run_reference(CGMLowerEnvelope(segs, v), v)
        brute_envelope_check(segs, out[0])
        # Coverage: every x covered by some segment appears in some piece.
        total_cover = sum(xb - xa for xa, xb, _ in out[0])
        assert total_cover > 0

    def test_single_segment(self):
        segs = [(0.0, 5.0, 10.0, 5.0)]
        out, _ = run_reference(CGMLowerEnvelope(segs, 2), 2)
        (xa, xb, sid) = out[0][0]
        assert sid == 0 and xa == pytest.approx(0.0) and xb == pytest.approx(10.0)

    def test_em_sequential_matches(self):
        segs = workloads.random_segments(30, seed=17)
        out, _ = simulate(CGMLowerEnvelope(segs, 4), MACHINE, v=4)
        brute_envelope_check(segs, out[0])


class TestAllNearestNeighbors:
    @pytest.mark.parametrize("n,v", [(8, 4), (60, 4), (40, 8)])
    def test_matches_oracle(self, n, v):
        pts = workloads.random_points(n, seed=n * 5 + v)
        out, _ = run_reference(CGMAllNearestNeighbors(pts, v), v)
        got = {}
        for part in out:
            got.update(dict(part))
        for i, p in enumerate(pts):
            dists = [
                ((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2, j)
                for j, q in enumerate(pts)
                if j != i
            ]
            assert got[i] == min(dists)[1]

    def test_two_points(self):
        out, _ = run_reference(CGMAllNearestNeighbors([(0.0, 0.0), (1.0, 1.0)], 2), 2)
        got = {}
        for part in out:
            got.update(dict(part))
        assert got == {0: 1, 1: 0}

    def test_clustered_far_pairs(self):
        # Close pairs in distant clusters: nn must stay inside the cluster.
        pts = []
        for cx in (0.0, 1000.0, 2000.0, 3000.0):
            pts.extend([(cx, 0.0), (cx + 1.0, 0.5)])
        out, _ = run_reference(CGMAllNearestNeighbors(pts, 4), 4)
        got = {}
        for part in out:
            got.update(dict(part))
        for i in range(0, 8, 2):
            assert got[i] == i + 1 and got[i + 1] == i

    def test_em_sequential_matches(self):
        pts = workloads.random_points(32, seed=77)
        out, _ = simulate(CGMAllNearestNeighbors(pts, 4), MACHINE, v=4)
        got = {}
        for part in out:
            got.update(dict(part))
        for i, p in enumerate(pts):
            dists = [
                ((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2, j)
                for j, q in enumerate(pts)
                if j != i
            ]
            assert got[i] == min(dists)[1]


class TestNextElementSearch:
    @pytest.mark.parametrize("n,v", [(10, 4), (40, 4)])
    def test_matches_oracle(self, n, v):
        segs = workloads.random_segments(n, seed=n + 3)
        rng = random.Random(n)
        queries = [(rng.uniform(0, 1000), rng.uniform(0, 100 * n)) for _ in range(n)]
        out, _ = run_reference(CGMNextElementSearch(segs, queries, v), v)
        got = {}
        for part in out:
            got.update(dict(part))
        for qi, (qx, qy) in enumerate(queries):
            candidates = [
                (y1, i)
                for i, (x1, y1, x2, y2) in enumerate(segs)
                if x1 <= qx <= x2 and y1 >= qy  # horizontal segments
            ]
            expected = min(candidates)[1] if candidates else -1
            assert got[qi] == expected

    def test_query_above_everything(self):
        segs = [(0.0, 1.0, 10.0, 1.0)]
        out, _ = run_reference(CGMNextElementSearch(segs, [(5.0, 2.0)], 2), 2)
        got = dict(p for part in out for p in part)
        assert got[0] == -1

    def test_em_sequential_matches(self):
        segs = workloads.random_segments(20, seed=9)
        rng = random.Random(1)
        queries = [(rng.uniform(0, 1000), rng.uniform(0, 2000)) for _ in range(16)]
        out, _ = simulate(CGMNextElementSearch(segs, queries, 4), MACHINE, v=4)
        got = {}
        for part in out:
            got.update(dict(part))
        for qi, (qx, qy) in enumerate(queries):
            candidates = [
                (y1, i)
                for i, (x1, y1, x2, y2) in enumerate(segs)
                if x1 <= qx <= x2 and y1 >= qy
            ]
            expected = min(candidates)[1] if candidates else -1
            assert got[qi] == expected


class TestSeparability:
    def test_separable_sets(self):
        red = [(0.0, float(i)) for i in range(10)]
        blue = [(10.0, float(i)) for i in range(10)]
        out, _ = run_reference(
            CGMSeparability(red, blue, [(1.0, 0.0), (0.0, 1.0)], 4), 4
        )
        assert out[0] == [True, False]  # separable in x, overlapping in y

    def test_interleaved_not_separable(self):
        red = [(float(i), 0.0) for i in range(0, 10, 2)]
        blue = [(float(i), 0.0) for i in range(1, 10, 2)]
        out, _ = run_reference(CGMSeparability(red, blue, [(1.0, 0.0)], 4), 4)
        assert out[0] == [False]

    def test_multi_directional(self):
        rng = random.Random(5)
        red = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(20)]
        blue = [(rng.uniform(3, 4), rng.uniform(3, 4)) for _ in range(20)]
        dirs = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (-1.0, 0.0)]
        out, _ = run_reference(CGMSeparability(red, blue, dirs, 4), 4)
        # Brute-force check per direction.
        for verdict, (dx, dy) in zip(out[0], dirs):
            rmax = max(p[0] * dx + p[1] * dy for p in red)
            bmin = min(p[0] * dx + p[1] * dy for p in blue)
            assert verdict == (rmax < bmin)

    def test_requires_directions(self):
        with pytest.raises(ValueError):
            CGMSeparability([(0, 0)], [(1, 1)], [], 2)

    def test_em_sequential_matches(self):
        red = workloads.random_points(20, seed=41)
        blue = [(x + 5000, y) for x, y in workloads.random_points(20, seed=42)]
        out, _ = simulate(
            CGMSeparability(red, blue, [(1.0, 0.0)], 4), MACHINE, v=4
        )
        assert out[0] == [True]
