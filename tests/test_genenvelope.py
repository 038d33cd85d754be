"""Tests for the generalized (crossing-segment) lower envelope."""

import random

import pytest

from repro.algorithms.geometry.genenvelope import (
    CGMGeneralLowerEnvelope,
    envelope_of_segments,
)
from repro.bsp.runner import run_reference
from repro.core.simulator import simulate
from repro.params import MachineParams

MACHINE = MachineParams(p=1, M=1 << 17, D=2, B=32, b=32)


def random_crossing_segments(n, seed, span=100.0):
    rng = random.Random(seed)
    segs = []
    for _ in range(n):
        x1 = rng.uniform(0, span * 0.8)
        x2 = x1 + rng.uniform(span * 0.05, span * 0.4)
        segs.append((x1, rng.uniform(0, span), x2, rng.uniform(0, span)))
    return segs


def check_envelope(segs, pieces):
    """Dense sampling oracle: within every piece the named segment is lowest."""

    def y_at(seg, x):
        x1, y1, x2, y2 = seg
        return y1 + (y2 - y1) * (x - x1) / (x2 - x1)

    rng = random.Random(1)
    # Pieces sorted, disjoint.
    for p, q in zip(pieces, pieces[1:]):
        assert p[1] <= q[0] + 1e-9
    for xa, xb, sid in pieces:
        assert xa < xb + 1e-12
        for _ in range(7):
            x = rng.uniform(xa + 1e-9, xb - 1e-9) if xb - xa > 2e-9 else (xa + xb) / 2
            active = [
                (y_at(s, x), i)
                for i, s in enumerate(segs)
                if s[0] <= x <= s[2]
            ]
            assert active
            best_y = min(a[0] for a in active)
            assert y_at(segs[sid], x) == pytest.approx(best_y, abs=1e-6)
    # Coverage: every x where a segment exists lies in some piece.
    for _ in range(50):
        x = rng.uniform(0, 100)
        exists = any(s[0] <= x <= s[2] for s in segs)
        covered = any(xa - 1e-9 <= x <= xb + 1e-9 for xa, xb, _ in pieces)
        assert covered == exists or not exists


class TestKernel:
    def test_two_crossing_segments(self):
        segs = [(0.0, 0.0, 10.0, 10.0), (0.0, 10.0, 10.0, 0.0)]
        pieces = envelope_of_segments(list(enumerate(segs)), segs)
        # Envelope: segment 0 before the crossing at x=5, segment 1 after.
        assert len(pieces) == 2
        assert pieces[0][2] == 0 and pieces[1][2] == 1
        assert pieces[0][1] == pytest.approx(5.0)

    def test_non_crossing_reduces_to_min(self):
        segs = [(0.0, 1.0, 10.0, 1.0), (2.0, 5.0, 8.0, 5.0)]
        pieces = envelope_of_segments(list(enumerate(segs)), segs)
        assert all(sid == 0 for _a, _b, sid in pieces)

    def test_partial_overlap(self):
        segs = [(0.0, 0.0, 4.0, 0.0), (3.0, -5.0, 8.0, -5.0)]
        pieces = envelope_of_segments(list(enumerate(segs)), segs)
        check_envelope(segs, pieces)

    @pytest.mark.parametrize("n,seed", [(5, 1), (20, 2), (60, 3)])
    def test_random_crossing(self, n, seed):
        segs = random_crossing_segments(n, seed)
        pieces = envelope_of_segments(list(enumerate(segs)), segs)
        check_envelope(segs, pieces)

    def test_clipping(self):
        segs = [(0.0, 0.0, 10.0, 10.0)]
        pieces = envelope_of_segments(list(enumerate(segs)), segs, lo=2.0, hi=7.0)
        assert len(pieces) == 1
        assert pieces[0][0] == pytest.approx(2.0)
        assert pieces[0][1] == pytest.approx(7.0)


class TestCGMGeneralLowerEnvelope:
    @pytest.mark.parametrize("n,v", [(12, 4), (40, 4), (30, 8)])
    def test_matches_oracle(self, n, v):
        segs = random_crossing_segments(n, seed=n + v)
        out, ledger = run_reference(CGMGeneralLowerEnvelope(segs, v), v)
        check_envelope(segs, out[0])
        assert ledger.num_supersteps == CGMGeneralLowerEnvelope.LAMBDA

    def test_rejects_vertical(self):
        with pytest.raises(ValueError):
            CGMGeneralLowerEnvelope([(1.0, 0.0, 1.0, 5.0)], 2)

    def test_em_sequential_matches(self):
        segs = random_crossing_segments(24, seed=9)
        out, report = simulate(CGMGeneralLowerEnvelope(segs, 4), MACHINE, v=4, k=1)
        check_envelope(segs, out[0])
        assert report.io_ops > 0

    def test_em_parallel_matches(self):
        segs = random_crossing_segments(24, seed=10)
        machine = MachineParams(p=2, M=1 << 17, D=2, B=32, b=32)
        ref, _ = run_reference(CGMGeneralLowerEnvelope(segs, 4), 4)
        out, _ = simulate(CGMGeneralLowerEnvelope(segs, 4), machine, v=4, k=2)
        assert out == ref
