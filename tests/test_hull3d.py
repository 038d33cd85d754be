"""Tests for the 3D convex hull kernel and the CGM algorithm.

Oracle: ``scipy.spatial.ConvexHull`` (Qhull).  In general position the 3D
hull's facet triangulation is unique, so face sets are compared exactly.
"""

import pytest
from scipy.spatial import ConvexHull as ScipyHull

from repro import workloads
from repro.algorithms.geometry.hull3d import (
    CGM3DConvexHull,
    convex_hull_3d,
    hull_vertices_3d,
)
from repro.bsp.runner import run_reference
from repro.core.simulator import simulate
from repro.params import MachineParams

MACHINE = MachineParams(p=1, M=1 << 18, D=2, B=32, b=32)


def scipy_faces(points):
    hull = ScipyHull(points)
    return sorted(tuple(sorted(s)) for s in hull.simplices.tolist())


def scipy_vertices(points):
    return sorted(ScipyHull(points).vertices.tolist())


class TestKernel:
    def test_tetrahedron(self):
        pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        faces = convex_hull_3d(pts)
        assert len(faces) == 4
        assert hull_vertices_3d(pts) == [0, 1, 2, 3]

    def test_interior_point_excluded(self):
        pts = [(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4), (0.5, 0.5, 0.5)]
        assert hull_vertices_3d(pts) == [0, 1, 2, 3]

    def test_cube(self):
        pts = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        faces = convex_hull_3d(pts)
        assert len(faces) == 12  # 6 square faces, triangulated
        assert hull_vertices_3d(pts) == list(range(8))

    @pytest.mark.parametrize("n,seed", [(10, 1), (50, 2), (150, 3)])
    def test_matches_scipy(self, n, seed):
        pts = workloads.random_points(n, seed=seed, dims=3)
        assert hull_vertices_3d(pts) == scipy_vertices(pts)
        assert convex_hull_3d(pts) == scipy_faces(pts)

    def test_euler_formula(self):
        pts = workloads.random_points(80, seed=4, dims=3)
        faces = convex_hull_3d(pts)
        verts = {i for f in faces for i in f}
        edges = {tuple(sorted(e)) for f in faces
                 for e in ((f[0], f[1]), (f[1], f[2]), (f[0], f[2]))}
        # V - E + F = 2 for a convex polytope.
        assert len(verts) - len(edges) + len(faces) == 2

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            convex_hull_3d([(0, 0, 0), (1, 1, 1), (2, 0, 0)])

    def test_coplanar_rejected(self):
        pts = [(float(i), float(j), 0.0) for i in range(3) for j in range(3)]
        with pytest.raises(ValueError, match="coplanar"):
            convex_hull_3d(pts)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            convex_hull_3d([(0, 0, 0)] * 3 + [(1, 1, 1), (2, 2, 3)])


class TestCGM3DHull:
    @pytest.mark.parametrize("n,v", [(24, 4), (80, 4), (60, 8)])
    def test_matches_scipy(self, n, v):
        pts = workloads.random_points(n, seed=n + v, dims=3)
        out, ledger = run_reference(CGM3DConvexHull(pts, v), v)
        vertices, faces = out[0]
        assert vertices == scipy_vertices(pts)
        assert faces == scipy_faces(pts)
        assert ledger.num_supersteps == CGM3DConvexHull.LAMBDA

    def test_points_on_sphere_all_vertices(self):
        import math
        import random

        rng = random.Random(5)
        pts = []
        for _ in range(30):
            theta = rng.uniform(0, 2 * math.pi)
            phi = math.acos(rng.uniform(-1, 1))
            pts.append(
                (
                    math.sin(phi) * math.cos(theta),
                    math.sin(phi) * math.sin(theta),
                    math.cos(phi),
                )
            )
        out, _ = run_reference(CGM3DConvexHull(pts, 4), 4)
        vertices, _faces = out[0]
        assert vertices == list(range(30))

    def test_em_sequential_matches(self):
        pts = workloads.random_points(48, seed=6, dims=3)
        out, report = simulate(CGM3DConvexHull(pts, 4), MACHINE, v=4, k=1)
        vertices, faces = out[0]
        assert vertices == scipy_vertices(pts)
        assert faces == scipy_faces(pts)
        assert report.io_ops > 0

    def test_em_parallel_matches(self):
        pts = workloads.random_points(40, seed=7, dims=3)
        machine = MachineParams(p=2, M=1 << 18, D=2, B=32, b=32)
        out, _ = simulate(CGM3DConvexHull(pts, 4), machine, v=4, k=2)
        vertices, faces = out[0]
        assert vertices == scipy_vertices(pts)
