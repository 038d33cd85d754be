"""Tests for trapezoidal decomposition, polygon triangulation, segment trees."""

import random

import pytest

from repro import workloads
from repro.algorithms.geometry.segtree import CGMSegmentTreeStab, SegmentTree
from repro.algorithms.geometry.trapezoid import (
    trapezoidal_decomposition,
    triangulate_polygon,
)
from repro.bsp.runner import run_reference
from repro.core.simulator import simulate
from repro.params import MachineParams

MACHINE = MachineParams(p=1, M=1 << 17, D=2, B=32, b=32)


class TestTrapezoidalDecomposition:
    def test_two_stacked_segments(self):
        segs = [(0.0, 1.0, 10.0, 1.0), (2.0, 5.0, 8.0, 5.0)]
        walls = trapezoidal_decomposition(segs, 2)
        by_key = {(w["segment"], w["end"]): w for w in walls}
        # Lower segment's endpoints see the upper one only where it spans.
        assert by_key[(0, "left")]["above"] == -1  # x=0: nothing above
        assert by_key[(1, "left")]["below"] == 0  # x=2: segment 0 below
        assert by_key[(1, "right")]["below"] == 0
        assert by_key[(1, "left")]["above"] == -1

    @pytest.mark.parametrize("n,v", [(12, 4), (40, 4)])
    def test_matches_bruteforce(self, n, v):
        segs = workloads.random_segments(n, seed=n)
        walls = trapezoidal_decomposition(segs, v)
        assert len(walls) == 2 * n
        for w in walls:
            x, y = w["x"], w["y"]
            above = [
                (y1, i)
                for i, (x1, y1, x2, y2) in enumerate(segs)
                if i != w["segment"] and x1 <= x <= x2 and y1 > y
            ]
            below = [
                (y1, i)
                for i, (x1, y1, x2, y2) in enumerate(segs)
                if i != w["segment"] and x1 <= x <= x2 and y1 < y
            ]
            assert w["above"] == (min(above)[1] if above else -1)
            assert w["below"] == (max(below)[1] if below else -1)

    def test_through_em_engine(self):
        segs = workloads.random_segments(16, seed=5)
        run = lambda alg, vv: simulate(alg, MACHINE, v=vv, seed=1)[0]
        walls = trapezoidal_decomposition(segs, 4, run=run)
        assert len(walls) == 32


class TestTriangulatePolygon:
    def test_triangle(self):
        assert triangulate_polygon([(0, 0), (1, 0), (0, 1)]) == [(0, 1, 2)]

    def test_square(self):
        tris = triangulate_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert len(tris) == 2

    def test_clockwise_input_handled(self):
        tris = triangulate_polygon([(0, 1), (1, 1), (1, 0), (0, 0)])
        assert len(tris) == 2

    def test_nonconvex(self):
        # An arrow-head with a reflex vertex.
        poly = [(0, 0), (4, 0), (4, 4), (2, 1.5), (0, 4)]
        tris = triangulate_polygon(poly)
        assert len(tris) == 3
        # Total area preserved.
        def area(t):
            (ax, ay), (bx, by), (cx, cy) = (poly[i] for i in t)
            return abs((bx - ax) * (cy - ay) - (cx - ax) * (by - ay)) / 2

        shoelace = 0.0
        n = len(poly)
        for i in range(n):
            x1, y1 = poly[i]
            x2, y2 = poly[(i + 1) % n]
            shoelace += x1 * y2 - x2 * y1
        assert sum(area(t) for t in tris) == pytest.approx(abs(shoelace) / 2)

    def test_star_polygon(self):
        import math

        pts = []
        for i in range(10):
            r = 4.0 if i % 2 == 0 else 1.5
            ang = math.pi * i / 5
            pts.append((r * math.cos(ang), r * math.sin(ang)))
        tris = triangulate_polygon(pts)
        assert len(tris) == 8

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            triangulate_polygon([(0, 0), (1, 1)])
        with pytest.raises(ValueError):
            triangulate_polygon([(0, 0), (1, 1), (2, 2)])


def brute_stab(intervals, x):
    return sorted(i for i, (a, b) in enumerate(intervals) if a <= x <= b)


class TestSequentialSegmentTree:
    def test_basic_stabbing(self):
        ivs = [(0.0, 10.0), (5.0, 15.0), (12.0, 20.0)]
        tree = SegmentTree([a for a, b in ivs] + [b for a, b in ivs])
        for i, (a, b) in enumerate(ivs):
            tree.insert(a, b, i)
        assert tree.stab(7.0) == [0, 1]
        assert tree.stab(11.0) == [1]
        assert tree.stab(12.0) == [1, 2]
        assert tree.stab(25.0) == []
        assert tree.stab(-1.0) == []

    def test_endpoint_inclusive(self):
        tree = SegmentTree([1.0, 5.0])
        tree.insert(1.0, 5.0, 0)
        assert tree.stab(1.0) == [0]
        assert tree.stab(5.0) == [0]

    @pytest.mark.parametrize("seed", range(4))
    def test_random_vs_bruteforce(self, seed):
        rng = random.Random(seed)
        ivs = []
        for _ in range(60):
            a = rng.uniform(0, 100)
            ivs.append((a, a + rng.uniform(0, 30)))
        tree = SegmentTree([a for a, b in ivs] + [b for a, b in ivs])
        for i, (a, b) in enumerate(ivs):
            tree.insert(a, b, i)
        for _ in range(100):
            x = rng.uniform(-10, 140)
            assert tree.stab(x) == brute_stab(ivs, x)


class TestCGMSegmentTree:
    @pytest.mark.parametrize("n,q,v", [(20, 10, 4), (80, 40, 4), (60, 60, 8)])
    def test_matches_bruteforce(self, n, q, v):
        rng = random.Random(n * 3 + q)
        ivs = []
        for _ in range(n):
            a = rng.uniform(0, 1000)
            ivs.append((a, a + rng.uniform(0, 400)))
        queries = [rng.uniform(-50, 1100) for _ in range(q)]
        out, ledger = run_reference(CGMSegmentTreeStab(ivs, queries, v), v)
        got = {}
        for part in out:
            got.update(dict(part))
        for qi, x in enumerate(queries):
            assert got[qi] == brute_stab(ivs, x), f"query {qi} at {x}"
        assert ledger.num_supersteps == CGMSegmentTreeStab.LAMBDA

    def test_point_intervals(self):
        ivs = [(5.0, 5.0), (5.0, 9.0)]
        out, _ = run_reference(CGMSegmentTreeStab(ivs, [5.0, 7.0, 9.0], 2), 2)
        got = dict(p for part in out for p in part)
        assert got[0] == [0, 1] and got[1] == [1] and got[2] == [1]

    def test_spanning_interval(self):
        # One interval covering everything must be reported by every query.
        rng = random.Random(9)
        ivs = [(rng.uniform(400, 500), rng.uniform(500, 600)) for _ in range(20)]
        ivs.append((-1e6, 1e6))
        queries = [rng.uniform(0, 1000) for _ in range(16)]
        out, _ = run_reference(CGMSegmentTreeStab(ivs, queries, 4), 4)
        got = dict(p for part in out for p in part)
        for qi in range(16):
            assert 20 in got[qi]
            assert got[qi] == brute_stab(ivs, queries[qi])

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            CGMSegmentTreeStab([(5.0, 1.0)], [2.0], 2)

    def test_em_sequential_matches(self):
        rng = random.Random(11)
        ivs = [(a := rng.uniform(0, 500), a + rng.uniform(0, 200)) for _ in range(40)]
        queries = [rng.uniform(0, 700) for _ in range(24)]
        out, report = simulate(CGMSegmentTreeStab(ivs, queries, 4), MACHINE, v=4, k=1)
        got = {}
        for part in out:
            got.update(dict(part))
        for qi, x in enumerate(queries):
            assert got[qi] == brute_stab(ivs, x)
        assert report.io_ops > 0
