"""Geometry primitives against independent scalar oracles."""

from __future__ import annotations

import math
import random
import struct

from hypothesis import example, given, settings
from hypothesis import strategies as st

from semnav.geometry import (Point2, WallSegment, dist, dist_sq,
                             point_in_ring, point_segment_distance)

from oracles import seg_distance, winding_contains


def test_dist_and_dist_sq_agree():
    rng = random.Random(1)
    for _ in range(200):
        p = Point2(rng.uniform(-10, 10), rng.uniform(-10, 10))
        q = Point2(rng.uniform(-10, 10), rng.uniform(-10, 10))
        assert math.isclose(dist(p, q) ** 2, dist_sq(p, q), rel_tol=1e-12)
    assert dist(Point2(0, 0), Point2(3, 4)) == 5.0


_TINY = 5e-324  # the smallest subnormal
_coords = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@settings(max_examples=2000, deadline=None)
@given(_coords, _coords, _coords, _coords)
@example(_TINY, 0.0, -_TINY, -0.0)
@example(-0.0, -0.0, 0.0, 0.0)
@example(2.2250738585072014e-308, _TINY, 1e-310, -3e-320)
@example(math.inf, 1.0, math.inf, 0.0)
@example(-math.inf, math.nan, 0.0, 0.0)
@example(math.nan, 0.0, 1.0, -math.inf)
@example(1e308, -1e308, -1e308, 1e308)
def test_dist_equals_hypot_bit_for_bit(px, py, qx, qy):
    got = dist(Point2(px, py), Point2(qx, qy))
    want = math.hypot(px - qx, py - qy)
    assert struct.pack("<d", got) == struct.pack("<d", want)


def test_segment_distance_matches_oracle():
    rng = random.Random(2)
    for _ in range(2000):
        a = Point2(rng.uniform(-5, 5), rng.uniform(-5, 5))
        b = Point2(rng.uniform(-5, 5), rng.uniform(-5, 5))
        p = Point2(rng.uniform(-6, 6), rng.uniform(-6, 6))
        got = point_segment_distance(p, a, b)
        want = seg_distance((p.x, p.y), (a.x, a.y), (b.x, b.y))
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)


def test_segment_distance_degenerate_segment():
    a = Point2(1.0, 1.0)
    assert point_segment_distance(Point2(4.0, 5.0), a, a) == 5.0


def test_segment_distance_endpoint_regions():
    a, b = Point2(0.0, 0.0), Point2(4.0, 0.0)
    assert point_segment_distance(Point2(-3.0, 4.0), a, b) == 5.0
    assert point_segment_distance(Point2(7.0, 4.0), a, b) == 5.0
    assert point_segment_distance(Point2(2.0, 2.5), a, b) == 2.5
    assert point_segment_distance(Point2(2.0, 0.0), a, b) == 0.0


def test_wall_segment_length():
    seg = WallSegment(Point2(0.0, 0.0), Point2(3.0, 4.0))
    assert dist(seg.a, seg.b) == 5.0


def test_point_in_ring_matches_winding_oracle():
    rng = random.Random(3)
    ring = [Point2(0, 0), Point2(5, 0), Point2(5, 3), Point2(0, 3)]
    tuples = [(p.x, p.y) for p in ring]
    for _ in range(5000):
        p = Point2(rng.uniform(-1, 6), rng.uniform(-1, 4))
        assert point_in_ring(p, ring) == winding_contains(tuples, (p.x, p.y))


def test_point_in_ring_boundary_inclusive():
    ring = [Point2(0, 0), Point2(4, 0), Point2(4, 4), Point2(0, 4)]
    assert point_in_ring(Point2(0.0, 2.0), ring)
    assert point_in_ring(Point2(4.0, 4.0), ring)
    assert point_in_ring(Point2(2.0, 0.0), ring)
    assert not point_in_ring(Point2(4.0000001, 2.0), ring)
