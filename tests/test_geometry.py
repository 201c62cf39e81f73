"""Geometry primitives against independent scalar oracles."""

from __future__ import annotations

import math
import random
import struct

from hypothesis import example, given, settings
from hypothesis import strategies as st

from semnav.geometry import Point2, WallSegment, dist, dist_sq


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


def test_wall_segment_length():
    seg = WallSegment(Point2(0.0, 0.0), Point2(3.0, 4.0))
    assert dist(seg.a, seg.b) == 5.0
