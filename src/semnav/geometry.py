"""Small 2D geometry primitives used throughout the package.

Points are lightweight named tuples so they unpack, hash and compare like plain
tuples while keeping ``.x``/``.y`` access in planner code.
"""

from __future__ import annotations

import math
from typing import NamedTuple

EPS = 1e-12


class Point2(NamedTuple):
    x: float
    y: float


class WallSegment(NamedTuple):
    a: Point2
    b: Point2


# math.dist takes fabs(p_i - q_i) and the vector norm of math.hypot, so it
# equals math.hypot(p.x - q.x, p.y - q.y) float for float, one frame fewer
dist = math.dist


def dist_sq(p: Point2, q: Point2) -> float:
    dx = p.x - q.x
    dy = p.y - q.y
    return dx * dx + dy * dy


def point_segment_distance(p: Point2, a: Point2, b: Point2) -> float:
    """Distance from ``p`` to segment ``ab``, robust to degenerate segments."""
    abx = b.x - a.x
    aby = b.y - a.y
    denom = abx * abx + aby * aby
    if denom < EPS:
        return math.hypot(p.x - a.x, p.y - a.y)
    t = ((p.x - a.x) * abx + (p.y - a.y) * aby) / denom
    t = max(0.0, min(1.0, t))
    cx = a.x + t * abx
    cy = a.y + t * aby
    return math.hypot(p.x - cx, p.y - cy)


def point_on_segment(p: Point2, a: Point2, b: Point2, tol: float = EPS) -> bool:
    return point_segment_distance(p, a, b) <= tol


def point_in_ring(p: Point2, ring: tuple[Point2, ...], boundary_tol: float = 1e-12) -> bool:
    """Even-odd containment test, counting the boundary as inside.

    The crossing count walks every edge once; edges touching the ray endpoint
    exactly are disambiguated with the usual half-open rule (an edge counts when
    it spans the horizontal line through ``p`` as min(y) <= p.y < max(y)).
    """
    n = len(ring)
    for i in range(n):
        if point_on_segment(p, ring[i], ring[(i + 1) % n], boundary_tol):
            return True
    inside = False
    for i in range(n):
        a = ring[i]
        b = ring[(i + 1) % n]
        if (a.y > p.y) != (b.y > p.y):
            x_cross = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y)
            if x_cross > p.x:
                inside = not inside
    return inside
