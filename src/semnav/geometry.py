"""Small 2D geometry primitives used throughout the package.

Points are lightweight named tuples so they unpack, hash and compare like plain
tuples while keeping ``.x``/``.y`` access in planner code.
"""

from __future__ import annotations

import math
from typing import NamedTuple


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
