"""Sampling-based geometric planners (RRT, RRT*, Informed RRT*).

Planners run over a :class:`~semnav.map_builder.GlobalMap` and an optional
room constraint: when ``allowed_rooms`` is set, valid states must lie inside
one of those rooms (or inside an allowed doorway opening), which is
how a semantic route restricts the search region. Clearance is tested against
the interpolated distance field with a small safety margin on top of the
robot radius; the margin (default 0.02 m) covers both the spacing of motion
interpolation points and the worst-case interpolation error near carved gap
ends, so returned paths hold up under arbitrarily dense re-checking.

Validity checks run in every iteration. Rooms are axis-aligned rectangles, so room
containment is two box comparisons; only points outside every room's
half-open box go on to ``Room.contains``. A state check, and a motion check
for every interpolated point, run the bbox test, the room boxes and the
bilinear field lookup inline. Both give exactly the answers of
``Room.contains`` and ``sdf_query``, point for point (see ``Region``), and
neither changes what the virtual clock charges.

An unconstrained motion check also skips points that the field value of
the last checked point proves valid (the free-space "bubble" of elastic
bands). Every node stores its exact wall distance except band nodes, closer
than the wall half width ``w``, which store it negated. Adjacent exact nodes
differ by at most the resolution ``res``, so the bilinear field is
sqrt(2)-Lipschitz along any segment through cells without band corners; a
cell with a band corner has every value below ``w + sqrt(2) * res``. So when
the clearance ``c`` exceeds that bound, a point with value ``f >= c`` sees
``f >= c`` at every point of the segment within ``(f - c - eps) / sqrt(2)``
of it. Skipped points must also stay inside the bbox by ``eps``. Grids
without a recorded band bound and coarse grids do not skip, and every check
returns what the point-by-point check returns.

Most motion checks need no point at all. A bilinear value is a convex
combination of its cell's four node values, so if every node of every cell
that meets a rectangle R holds at least ``c + eps``, every point of R has a
field value of at least ``c``, whatever walls lie where; R is convex, so a
segment with both endpoints in R passes every point check (the safety
certificates of Bialkowski, Otte, Karaman and Frazzoli, IJRR 2016). Each
room, and in a constrained region each allowed doorway opening, gets such a
box once per field: its box within the bbox, cut in from the sides until its
nodes pass, then shrunk by ``eps`` (``SdfGrid.certified_box``,
``Region.certified``). An opening's box holds the doorway centre at which a
subproblem starts or ends; the wall band keeps it apart from its room's box,
so a corridor box joins the two. A motion check with both endpoints in one
certified box returns True at once, and so does a state check in one; in a
constrained region any other motion check skips the points that the boxes
holding its endpoints prove, and only those. Every check is still charged
in full, so no virtual tick, record or digest changes.

Budgets come from a pluggable clock. The default "virtual" clock charges
ticks per primitive operation: one per sample draw, one per 32 points of a
vectorized nearest-neighbour scan, and, per point validity check, one field
lookup plus one tick per room the check has in scope (every room of
the map for an unconstrained check, only the allowed rooms for a constrained
one). Ticks convert to seconds with a fixed ops-per-second constant, which
makes runs bit-reproducible across machines and worker counts; "wall" uses
real time, checked every 64 iterations.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyRegion, InvalidGoal, InvalidStart, OutOfBounds
from .geometry import Point2, dist
from .map_builder import GlobalMap, SdfGrid
from .rng import Stream, make_stream
from .scene_graph import Room

RRT = "rrt"
RRT_STAR = "rrt_star"
INFORMED_RRT_STAR = "informed_rrt_star"
ALGORITHMS = (RRT, RRT_STAR, INFORMED_RRT_STAR)

DEFAULT_STEER_RANGE = 1.0
DEFAULT_GOAL_BIAS = 0.05
DEFAULT_GOAL_TOLERANCE = 0.1
DEFAULT_ROBOT_RADIUS = 0.3
DEFAULT_VALIDITY_MARGIN = 0.02
DEFAULT_REWIRE_FACTOR = 1.1
MOTION_STEP_CAP = 0.025
WALL_CHECK_PERIOD = 64
DEFAULT_OPS_PER_SECOND = 2_000_000
INFORMED_MAX_ATTEMPTS = 64
# floor of the slack a motion check's stride keeps from the clearance and
# from the box edges; it grows with the coordinate magnitude (_stride_eps)
_STRIDE_EPS = 1e-9
_SQRT2 = math.sqrt(2.0)
# neighbourhood size above which the rewire scan filters in numpy first; at
# a dozen neighbours the numpy calls cost as much as the scan they save
_SCAN_FILTER_MIN = 12
# the neighbour scans cover the tree's columns rounded up to a multiple of this
_SCAN_COLUMNS = 64

CLOCK_VIRTUAL = "virtual"
CLOCK_WALL = "wall"

_Box = tuple[float, float, float, float]  # x0, y0, x1, y1


@dataclass(frozen=True)
class GeometricProblem:
    """One geometric planning query.

    ``allowed_rooms`` restricts valid states to those rooms plus the
    openings of ``allowed_doorways``; both None means the whole map is fair
    game. ``validity_margin`` is added to the robot radius in every clearance
    test (see module docstring).
    """

    start: Point2
    goal: Point2
    allowed_rooms: frozenset[str] | None = None
    allowed_doorways: frozenset[str] | None = None
    goal_tolerance: float = DEFAULT_GOAL_TOLERANCE
    robot_radius: float = DEFAULT_ROBOT_RADIUS
    validity_margin: float = DEFAULT_VALIDITY_MARGIN


@dataclass(frozen=True)
class GeometricPath:
    waypoints: tuple[Point2, ...]
    length: float

    @classmethod
    def from_waypoints(cls, waypoints: tuple[Point2, ...]) -> "GeometricPath":
        total = 0.0
        for a, b in zip(waypoints, waypoints[1:]):
            total += dist(a, b)
        return cls(waypoints=waypoints, length=total)


@dataclass
class PlannerStats:
    samples_created: int = 0
    samples_valid: int = 0
    samples_rejected: int = 0
    iterations: int = 0
    solved: bool = False
    planning_time: float = 0.0
    best_cost: float = math.inf


@dataclass(frozen=True)
class PlannerConfig:
    """Knobs for one planner run. At least one of timeout / max_iterations
    must be positive."""

    algorithm: str = INFORMED_RRT_STAR
    timeout: float | None = None
    max_iterations: int | None = None
    seed: int = 0
    clock: str = CLOCK_VIRTUAL
    ops_per_second: float = DEFAULT_OPS_PER_SECOND

    def __post_init__(self) -> None:
        # a budget that can never run out would let the tree grow forever
        if self.timeout is not None and not math.isfinite(self.timeout):
            raise ValueError("timeout must be finite")
        if not math.isfinite(self.ops_per_second):
            raise ValueError("ops_per_second must be finite")
        # the virtual budget in ticks overflows to inf for a huge timeout
        if (self.clock == CLOCK_VIRTUAL and self.timeout is not None
                and not math.isfinite(self.timeout * self.ops_per_second)):
            raise ValueError("timeout * ops_per_second must be finite")

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm '{self.algorithm}'")
        # a bool is an int, but True is no iteration count
        m = self.max_iterations
        if m is not None and (isinstance(m, bool) or not isinstance(m, int) or m < 1):
            raise ValueError("max_iterations must be an int of at least 1")
        if not ((self.timeout is not None and self.timeout > 0) or m is not None):
            raise ValueError("config needs a positive timeout or max_iterations")
        if self.clock not in (CLOCK_VIRTUAL, CLOCK_WALL):
            raise ValueError(f"unknown clock '{self.clock}'")
        if self.ops_per_second <= 0:
            raise ValueError("ops_per_second must be positive")


class Region:
    """The search region of one problem: validity and sampling, prepared once.

    Bundles the allowed rooms (those of ``gmap.scene.rooms`` that
    ``allowed_rooms`` names, in scene order), the allowed doorway opening
    rectangles and the clearance threshold so the hot loop does no per-call
    filtering. The module-level ``state_valid``, ``motion_valid`` and
    ``sample_state`` build a fresh region on every call; a caller that
    checks or samples many states of one problem should build one
    ``Region`` and call its methods.

    ``sample`` draws uniformly from the allowed rooms' boxes, each picked
    with probability proportional to its area. ``sample_informed`` draws
    from the informed ellipse of Informed RRT* and rejects draws outside
    the region; it keeps the ellipse's semi-axes until ``c_best`` changes.

    A point is in an allowed room when ``Room.contains`` says so. A point in
    a room's half-open box ``x0 <= x < x1, y0 <= y < y1`` is, so two
    comparisons answer most points; any other point asks ``Room.contains``
    of each allowed room, then tests the openings.

    ``valid`` fuses the bbox test, the room boxes and the bilinear field
    lookup of ``sdf_query`` (the same float arithmetic in the same order),
    and ``motion_valid`` does the same for each interpolated point, without
    building points or calling out. Its answers are those of ``valid`` on
    every point, and ``check_cost`` is untouched, so virtual-clock charges
    are unchanged.

    An unconstrained region also strides. After a point passes with field
    value ``f``, the following points within ``(f - c - eps) / sqrt(2)`` of
    it and inside the bbox shrunk by ``eps`` are valid (module docstring)
    and are not evaluated. The interpolated coordinates are monotone in the
    point index, so a per-axis margin bounds all of them. ``stride`` holds
    the condition, evaluated once from the grid's recorded band bound ``w``:
    unconstrained and ``c - eps > w + sqrt(2) * res``; without it every
    point the certified boxes leave is evaluated. ``eps`` grows with the
    coordinate magnitude and with the grid size, to cover rounding in the
    points, in ``f`` and in the node values.

    Before any point, ``_motion_valid`` tests the endpoints against the
    ``certified`` boxes (the allowed rooms', openings' and corridors', or
    every room's when unconstrained): both in the first box holding ``a``
    prove every point (module docstring); otherwise ``_walk`` skips, when
    constrained, the points the boxes holding an endpoint prove. Each is the
    grid's ``certified_box`` at ``c + eps`` shrunk by ``eps``, so rounding
    can neither carry an interpolated point out of the node window, the
    region or the bbox, nor pull a value of at least ``c + eps`` below
    ``c``. Callers still charge every point. Once built (``plan`` builds
    them first), the boxes answer ``valid`` too; a region that only checks
    states never builds them.
    """

    def __init__(self, gmap: GlobalMap, problem: GeometricProblem):
        self.gmap = gmap
        self.start = problem.start
        self.goal = problem.goal
        self.bbox = gmap.scene.bbox
        self.clearance = problem.robot_radius + problem.validity_margin
        self.constrained = problem.allowed_rooms is not None
        self._allowed = frozenset(problem.allowed_rooms) if self.constrained else None
        self.rooms: tuple[Room, ...] = ()
        self.rects: tuple[_Box, ...] = ()
        if self.constrained:
            self.rooms = tuple(r for r in gmap.scene.rooms
                               if r.id in problem.allowed_rooms)
            if problem.allowed_doorways:
                self.rects = tuple(gmap.openings[d]
                                   for d in sorted(problem.allowed_doorways)
                                   if d in gmap.openings)
        grid = gmap.sdf
        lo, hi = self.bbox
        eps = _stride_eps(grid, self.bbox, self.clearance)
        self.stride = (not self.constrained and self.clearance - eps
                       > grid.wall_half_width + _SQRT2 * grid.resolution)
        self.stride_eps = eps
        # the bbox shrunk by eps: (x0, y0, x1, y1)
        self.inner = (lo.x + eps, lo.y + eps, hi.x - eps, hi.y - eps)
        # half-open boxes of the rooms
        self.boxes = [r.bounds for r in self.rooms]
        # area of each room in scene order, their sum, and the boxes:
        # everything ``sample`` reads, in one attribute
        areas = [(x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in self.boxes]
        self.sampling = (areas, sum(areas), self.boxes)
        # virtual-clock ticks per validity check: one field lookup plus one
        # tick per room the check has in scope. An unconstrained
        # check answers against the whole map, a constrained one only
        # against the allowed rooms (and their openings), so narrowing the
        # region makes checks proportionally cheaper.
        if self.constrained:
            self.check_cost = 1 + max(1, len(self.rooms)) + (1 if self.rects else 0)
        else:
            self.check_cost = 1 + len(gmap.scene.rooms)
        self.step = motion_step(gmap.sdf.resolution)
        # (c_best, a, b) of the last informed ellipse drawn from
        self._axes = (None, 0.0, 0.0)
        self._held = ()  # the certified boxes once read: valid uses, never builds them

    @cached_property
    def _ellipse_frame(self) -> tuple[float, float, float, float, float]:
        """c_min, centre and unit transverse axis of the informed ellipse."""
        start, goal = self.start, self.goal
        c_min = dist(start, goal)
        if c_min > 0.0:
            ux = (goal.x - start.x) / c_min
            uy = (goal.y - start.y) / c_min
        else:
            ux, uy = 1.0, 0.0
        return c_min, (start.x + goal.x) / 2.0, (start.y + goal.y) / 2.0, ux, uy

    @cached_property
    def certified(self) -> tuple[_Box, ...]:
        """Closed boxes in which a motion check with both endpoints in one
        box passes without evaluating a point: per allowed room (every room
        of the map when unconstrained), then per allowed doorway opening
        (``rects``, part of the region), the grid's certified box of its box
        within the bbox at ``clearance + eps``, shrunk by ``eps``; then the
        same for the ``_corridor`` of each certified opening and room, so
        ``certified[0]`` stays a room's box. Built once per map, allowed
        rooms, openings and clearance; none for a threshold that is not
        positive (a NaN clearance would never find its key again)."""
        if not self.clearance + self.stride_eps > 0.0:
            return ()
        key = (self._allowed, self.clearance, self.rects)
        boxes = self.gmap._certified.get(key)
        if boxes is None:
            boxes = self.gmap._certified[key] = self._build_certified()
        self._held = boxes
        return boxes

    def _build_certified(self) -> tuple[_Box, ...]:
        grid = self.gmap.sdf
        eps = self.stride_eps
        threshold = self.clearance + eps
        lo, hi = self.bbox

        def certify(x0, y0, x1, y1):
            box = grid.certified_box((max(x0, lo.x), max(y0, lo.y),
                                      min(x1, hi.x), min(y1, hi.y)), threshold)
            if box is not None:
                x0, y0, x1, y1 = box[0] + eps, box[1] + eps, box[2] - eps, box[3] - eps
                if x0 <= x1 and y0 <= y1:
                    return x0, y0, x1, y1
            return None

        rooms = self.rooms if self.constrained else self.gmap.scene.rooms
        room_boxes = [(r.bounds, certify(*r.bounds)) for r in rooms]
        opening_boxes = [(o, certify(*o)) for o in self.rects]
        corridors = [certify(*c) for o, obox in opening_boxes if obox is not None
                     for r, rbox in room_boxes if rbox is not None
                     if (c := _corridor(r, rbox, o, obox, grid.resolution)) is not None]
        return tuple(filter(None, [box for _, box in room_boxes + opening_boxes] + corridors))

    @cached_property
    def _valid_frame(self) -> tuple:
        """The locals of ``valid`` that depend only on the region."""
        lo, hi = self.bbox
        grid = self.gmap.sdf
        return (lo.x, lo.y, hi.x, hi.y, self.constrained, self.boxes,
                self.clearance, grid.flat_values, grid.origin.x, grid.origin.y,
                grid.resolution, grid.nx, grid.nx - 1 + 1e-9, grid.ny - 1 + 1e-9,
                grid.nx - 2, grid.ny - 2)

    @cached_property
    def _motion_frame(self) -> tuple:
        """The locals of ``_walk``: those of ``valid``, then the stride's and
        the boxes the walk skips by: none unconstrained, where each is a
        room's whose points the stride mostly skips, so scanning them cost
        more than it saved."""
        return (self._valid_frame + (self.stride, self.clearance + self.stride_eps)
                + self.inner + (self.certified if self.constrained else (),))

    @property
    def free_area(self) -> float:
        """Area of the region: the bbox without rooms, else the rooms'."""
        if not self.constrained:
            lo, hi = self.bbox
            return (hi.x - lo.x) * (hi.y - lo.y)
        return self.sampling[1]

    def sample(self, rng: Stream | np.random.Generator, goal_bias: float) -> Point2:
        """``sample_state`` on this region: ``rng`` is a ``make_stream``
        stream or any object with numpy's ``random()`` and ``uniform(lo, hi)``."""
        if goal_bias > 0.0 and rng.random() < goal_bias:
            return self.goal
        if not self.constrained:
            lo, hi = self.bbox
            return Point2(rng.uniform(lo.x, hi.x), rng.uniform(lo.y, hi.y))
        if not self.rooms:
            raise EmptyRegion("allowed region contains no known rooms")
        areas, total, bounds = self.sampling
        pick = rng.uniform(0.0, total)
        acc = 0.0
        chosen = len(areas) - 1
        for k, a in enumerate(areas):
            acc += a
            if pick <= acc:
                chosen = k
                break
        x0, y0, x1, y1 = bounds[chosen]
        return Point2(rng.uniform(x0, x1), rng.uniform(y0, y1))

    def sample_informed(self, c_best: float, rng: Stream | np.random.Generator
                        ) -> tuple[Point2 | None, int]:
        """Sample the ellipse with foci start/goal, transverse diameter c_best.

        Draws are uniform over the ellipse (unit-disk transform) and rejected
        against the region. Returns (point, draws); the point is None when
        all ``INFORMED_MAX_ATTEMPTS`` draws were rejected. A degenerate
        ellipse (c_best equal to the straight-line distance) collapses to
        the start-goal segment. ``rng`` is a ``make_stream`` stream or any
        object with numpy's ``random()``.
        """
        start, goal = self.start, self.goal
        c_min, cx, cy, ux, uy = self._ellipse_frame
        key, a, b = self._axes
        if key != c_best:
            a, b = _informed_axes(c_min, c_best)
            self._axes = (c_best, a, b)
        degenerate = b <= 1e-12
        draws = 0
        while draws < INFORMED_MAX_ATTEMPTS:
            draws += 1
            if degenerate:
                t = rng.random()
                p = Point2(start.x + (goal.x - start.x) * t,
                           start.y + (goal.y - start.y) * t)
            else:
                r = math.sqrt(rng.random())
                phi = 2.0 * math.pi * rng.random()
                ex = a * r * math.cos(phi)
                ey = b * r * math.sin(phi)
                p = Point2(cx + ex * ux - ey * uy, cy + ex * uy + ey * ux)
            if self.contains(p):
                return p, draws
        return None, draws

    def contains(self, p: Point2) -> bool:
        """Region membership only (bbox and allowed rooms), no clearance."""
        lo, hi = self.bbox
        x, y = p
        if not (lo.x <= x <= hi.x and lo.y <= y <= hi.y):
            return False
        if not self.constrained:
            return True
        for x0, y0, x1, y1 in self.boxes:
            if x0 <= x < x1 and y0 <= y < y1:
                return True
        return self._edge_or_opening(x, y)

    def _edge_or_opening(self, x: float, y: float) -> bool:
        """Membership of a point in no room's half-open box: ``Room.contains``
        for each allowed room, then the doorway openings."""
        for r in self.rooms:
            if r.contains((x, y)):
                return True
        for x0, y0, x1, y1 in self.rects:
            if x0 <= x <= x1 and y0 <= y <= y1:
                return True
        return False

    def valid(self, p: Point2) -> bool:
        """``contains(p)`` and a field value of at least the clearance.

        True at once in a ``certified`` box the region has already built;
        otherwise the bbox test, the room boxes and the bilinear lookup of
        ``sdf_query`` run inline, as in ``_motion_valid``; a point in the
        bbox but off the grid raises OutOfBounds, as ``sdf_query`` does.
        """
        x, y = p
        for x0, y0, x1, y1 in self._held:
            if x0 <= x <= x1 and y0 <= y <= y1:
                return True
        (bx0, by0, bx1, by1, constrained, boxes, clearance, v, ox, oy, res, nx,
         fx_max, fy_max, i_max, j_max) = self._valid_frame
        if not (bx0 <= x <= bx1 and by0 <= y <= by1):
            return False
        if constrained:
            for x0, y0, x1, y1 in boxes:
                if x0 <= x < x1 and y0 <= y < y1:
                    break
            else:
                if not self._edge_or_opening(x, y):
                    return False
        fx = (x - ox) / res
        fy = (y - oy) / res
        if not (-1e-9 <= fx <= fx_max and -1e-9 <= fy <= fy_max):
            raise OutOfBounds(f"query point {(x, y)} outside the sampled grid")
        i0 = int(fx)
        if i0 > i_max:
            i0 = i_max
        j0 = int(fy)
        if j0 > j_max:
            j0 = j_max
        tx = fx - i0
        ty = fy - j0
        m = j0 * nx + i0
        return ((v[m] * (1.0 - tx) + v[m + 1] * tx) * (1.0 - ty)
                + (v[m + nx] * (1.0 - tx) + v[m + nx + 1] * tx) * ty) >= clearance

    def motion_valid(self, a: Point2, b: Point2) -> bool:
        """Straight-line motion check: every interpolated state must be valid.

        A non-finite endpoint is not a valid state, so its motion is invalid
        (its length is not finite either).
        """
        length = dist(a, b)
        if not math.isfinite(length):
            return False
        return self._motion_valid(a, b, max(1, math.ceil(length / self.step)), length)

    def _motion_valid(self, a: Point2, b: Point2, n: int, length: float) -> bool:
        """``motion_valid`` given ``length == dist(a, b)`` and ``n + 1`` points:
        True at once when both endpoints lie in the first ``certified`` box
        that holds ``a``, else ``_walk``. ``plan`` runs the same test inline."""
        ax, ay = a
        bx, by = b
        for x0, y0, x1, y1 in self.certified:
            if x0 <= ax <= x1 and y0 <= ay <= y1:
                if x0 <= bx <= x1 and y0 <= by <= y1:
                    return True
                break
        return self._walk(a, b, n, length)

    def _walk(self, a: Point2, b: Point2, n: int, length: float) -> bool:
        """The point-by-point part of ``_motion_valid``, less, when constrained,
        the points up to the ``_reach`` of ``a`` and from ``n`` less that of
        ``b`` back, which the endpoints' ``certified`` boxes prove (a doorway
        centre lies first in its opening's box, but its corridor's reaches
        into the room); every point between is evaluated. Every box is
        shrunk by ``eps``, so rounding carries no skipped point out of it.
        Unconstrained, the ``stride`` alone skips points."""
        ax, ay = a
        bx, by = b
        (bx0, by0, bx1, by1, constrained, boxes, clearance, v, ox, oy, res, nx,
         fx_max, fy_max, i_max, j_max, stride, c_eps,
         lx, ly, hx, hy, certified) = self._motion_frame
        dx = bx - ax
        dy = by - ay
        # points per unit of box margin along each axis
        kx = n / abs(dx) if dx != 0.0 else math.inf
        ky = n / abs(dy) if dy != 0.0 else math.inf
        k, last = 0, n
        # a NaN endpoint leaves a NaN factor, which would bound nothing
        if certified and not (math.isnan(dx) or math.isnan(dy)):
            k = math.floor(_reach(certified, ax, ay, dx, dy, kx, ky, n)) + 1
            last = n - math.floor(_reach(certified, bx, by, -dx, -dy, kx, ky, n)) - 1
            if k > last:
                return True
        # stride factor: points per unit of field value above the clearance
        if stride:
            kf = n / (_SQRT2 * length) if length > 0.0 else math.inf
            stride = kf < math.inf
        while k <= last:
            t = k / n
            x = ax + dx * t
            y = ay + dy * t
            if not (bx0 <= x <= bx1 and by0 <= y <= by1):
                return False
            if constrained:
                for x0, y0, x1, y1 in boxes:
                    if x0 <= x < x1 and y0 <= y < y1:
                        break
                else:
                    if not self._edge_or_opening(x, y):
                        return False
            # sdf_query, inlined
            fx = (x - ox) / res
            fy = (y - oy) / res
            if not (-1e-9 <= fx <= fx_max and -1e-9 <= fy <= fy_max):
                raise OutOfBounds(f"query point {(x, y)} outside the sampled grid")
            i0 = int(fx)
            if i0 > i_max:
                i0 = i_max
            j0 = int(fy)
            if j0 > j_max:
                j0 = j_max
            tx = fx - i0
            ty = fy - j0
            m = j0 * nx + i0
            f = ((v[m] * (1.0 - tx) + v[m + 1] * tx) * (1.0 - ty)
                 + (v[m + nx] * (1.0 - tx) + v[m + nx + 1] * tx) * ty)
            if not f >= clearance:
                return False
            k += 1
            if stride:
                # the following points proven valid: a NaN margin (a
                # constant coordinate on the bbox edge) bounds nothing
                s = (f - c_eps) * kf
                g = ((hx - x) if dx > 0.0 else (x - lx)) * kx
                if g < s:
                    s = g
                g = ((hy - y) if dy > 0.0 else (y - ly)) * ky
                if g < s:
                    s = g
                if s >= 1.0:
                    k += int(s) if s < n else n
        return True


def _may_rewire(parent_cost: float, d: np.ndarray, cost: np.ndarray,
                cmax: float) -> np.ndarray:
    """Mask of the neighbours that can pass the rewire test, in two ufuncs.

    The test is ``p + h < c - 1e-12`` in floats, with ``p = parent_cost``,
    ``h`` the ``math.dist`` of the pair and ``c`` the neighbour's cost at
    the time. ``cost`` is a snapshot, at least ``c`` because costs only
    fall during a rewire pass, and ``cmax`` is at least every cost of the
    tree. With ``u = 2**-53`` and each operation rounded within ``u``:

    * passing gives ``(p + h)(1 - u) < (c - 1e-12) + u(c + 1e-12)``, so
      ``p + h <= c(1 + 3u)`` and ``h - cost < -p - 1e-12 + 2.1u * cmax``;
    * ``d``, ``np.sqrt`` of the summed squares of the same coordinate
      differences, is within ``4.2u * h`` of ``h``: the sum rounds within
      ``2u``, the root halves that and rounds within ``u``, and
      ``math.dist`` is within one ulp;
    * ``d - cost`` rounds within ``u * max(d, cost) <= 1.1u * cmax``.

    So ``d - cost`` in floats is below ``-p - 1e-12 + 8.4u * cmax``, and
    the bound rounds to at least ``-p - 1e-12 + slack - 2.1u(p + 1) - u *
    slack``. ``slack = 2**-49 * (p + 2 * cmax + 2) = 16u(p + 2 * cmax + 2)``
    exceeds both errors several times over (its 2 also covers the 1e-12
    terms and subnormal squares): every neighbour the test admits passes.
    """
    slack = 2.0 ** -49 * (parent_cost + 2.0 * cmax + 2.0)
    return np.subtract(d, cost) < -parent_cost - 1e-12 + slack


def _cheapest(via: np.ndarray, bound: float) -> tuple[int, float] | None:
    """``(k, via[k])`` for the first minimum of ``via`` when it is below
    ``bound``, setting that entry to inf, else None. Called until the
    caller accepts a candidate (nearly always the first), it visits the
    entries below ``bound`` in stable-argsort order."""
    if via.size:
        k = int(via.argmin())
        c = via.item(k)
        if c < bound:
            via[k] = math.inf
            return k, c
    return None


def _lower_best(noted: list[int], goal_dist: dict[int, float],
                cost: list[float], best_cost: float, best_node: int):
    """``(cost to goal, node)`` of the best solution after the ``noted``
    ones joined or got cheaper: costs only fall, so no other solution beats
    ``best_cost``, and node order with a strict ``<`` keeps the earliest of
    equal totals, as a rescan of every solution would."""
    for i in sorted(noted):
        c = cost[i] + goal_dist[i]
        if c < best_cost:
            best_cost = c
            best_node = i
    return best_cost, best_node


def _corridor(room: _Box, room_box: _Box, opening: _Box, opening_box: _Box,
              res: float) -> _Box | None:
    """The rectangle of ``opening_box``'s lateral extent from its far side to
    one cell inside ``room_box`` when the ``opening`` straddles a wall of
    the ``room`` within its extent, else None. Its points lie in the room's
    box or in the opening, so it is part of a region allowing both."""
    (rx0, ry0, rx1, ry1), (ox0, oy0, ox1, oy1) = room, opening
    (x0, y0, x1, y1), (bx0, by0, bx1, by1) = opening_box, room_box
    if ry0 <= oy0 and oy1 <= ry1:
        if ox0 < rx1 < ox1:
            return max(bx1 - res, bx0), y0, x1, y1
        if ox0 < rx0 < ox1:
            return x0, y0, min(bx0 + res, bx1), y1
    if rx0 <= ox0 and ox1 <= rx1:
        if oy0 < ry1 < oy1:
            return x0, max(by1 - res, by0), x1, y1
        if oy0 < ry0 < oy1:
            return x0, y0, x1, min(by0 + res, by1)
    return None


def _reach(boxes: tuple[_Box, ...], x: float, y: float, dx: float, dy: float,
           kx: float, ky: float, n: int) -> float:
    """The index, at most ``n``, up to which a walk from (x, y) along (dx,
    dy), ``kx`` and ``ky`` points per unit of each axis, stays in the box
    holding (x, y) that reaches farthest; -1.0 when none holds it. As in
    the stride, a NaN margin (0 * inf) bounds nothing, and a box with two
    (a point of no length on its corner) proves nothing."""
    best = -1.0
    for x0, y0, x1, y1 in boxes:
        if x0 <= x <= x1 and y0 <= y <= y1:
            s = ((x1 - x) if dx > 0.0 else (x - x0)) * kx
            g = ((y1 - y) if dy > 0.0 else (y - y0)) * ky
            if g < s or math.isnan(s):
                s = g
            best = max(best, s)
    return min(best, n)


def _stride_eps(grid: SdfGrid, bbox: tuple[Point2, Point2], clearance: float) -> float:
    """Slack a motion check's stride and its certified boxes keep from the
    clearance and from the box edges. It covers the rounding of the
    interpolated points, of their cell coordinates and of the field value,
    a few ulps of the coordinate and clearance magnitude, and a node value
    error of as much per cell on a stride across the whole grid."""
    lo, hi = bbox
    scale = max(abs(lo.x), abs(lo.y), abs(hi.x), abs(hi.y),
                abs(grid.origin.x), abs(grid.origin.y), abs(clearance))
    return _STRIDE_EPS + 16 * math.ulp(scale) * (grid.nx + grid.ny)


def motion_step(resolution: float) -> float:
    return min(MOTION_STEP_CAP, resolution / 2.0)


def state_valid(gmap: GlobalMap, problem: GeometricProblem, p: Point2) -> bool:
    """True when ``p`` is inside the map, inside the allowed region, and has
    clearance of at least robot_radius + validity_margin."""
    return Region(gmap, problem).valid(p)


def motion_valid(gmap: GlobalMap, problem: GeometricProblem,
                 a: Point2, b: Point2) -> bool:
    """``Region.motion_valid`` on a fresh region of the problem."""
    return Region(gmap, problem).motion_valid(a, b)


# ``plan`` samples through ``Region.sample`` and never calls ``sample_state``.
# The name stays only because perfbench's HOT_TARGETS traces it; once ROADMAP
# item 3 retargets that list, it can go.
def sample_state(gmap: GlobalMap, problem: GeometricProblem,
                 rng: Stream | np.random.Generator, goal_bias: float = 0.0) -> Point2:
    """One uniform sample from the allowed region (the goal with ``goal_bias``).

    Constrained problems pick a room with probability proportional to its
    area, then sample that room's rectangle, which is uniform over the union
    because rooms have disjoint interiors. ``rng`` is a ``make_stream``
    stream or any object with numpy's ``random()`` and ``uniform(lo, hi)``;
    both give the same draws for the same seed.
    """
    return Region(gmap, problem).sample(rng, goal_bias)


def _informed_axes(c_min: float, c_best: float) -> tuple[float, float]:
    """Semi-axes of the informed sampling ellipse (transverse, conjugate).

    A nearly straight solution can sum its segment lengths to a hair below
    the direct start-goal distance ``c_min`` in floating point, so c_best is
    clamped up to that distance; only a clearly impossible cost raises.
    """
    if c_best < c_min - 1e-9 * (1.0 + c_min):
        raise ValueError("best cost below the straight-line distance")
    c = max(c_best, c_min)
    return c / 2.0, math.sqrt(max(0.0, c * c - c_min * c_min)) / 2.0


def plan(gmap: GlobalMap, problem: GeometricProblem, config: PlannerConfig,
         *, sample_hook=None, iteration_hook=None
         ) -> tuple[GeometricPath | None, PlannerStats]:
    """Grow a tree from start toward goal until the budget runs out.

    Returns the best path found (None if unsolved) plus run statistics. The
    planner is anytime: with the RRT* variants the best cost only improves
    over iterations, and the informed variant switches to ellipse sampling
    once a first solution exists. ``sample_hook(point, c_best)`` and
    ``iteration_hook(iteration, best_cost)`` are optional observers used by
    diagnostics and tests; c_best is None before the first solution.
    ``iteration_hook`` is called only for iterations that reach the end of
    the loop: one whose informed draws all miss, whose sample lands on an
    existing node or fails its state check, or whose connecting motion
    check fails moves on to the next without a call, so the calls can skip
    iteration numbers and need not add up to ``stats.iterations``.

    The tree's coordinates live in one complex array ``zs`` whose unused
    entries hold ``complex(inf, inf)`` (never the first-minimum ``argmin``,
    never within the radius), so a neighbour scan is three ufuncs into fixed
    views over whole ``_SCAN_COLUMNS``: subtract the query point (complex
    subtraction is componentwise), square the difference's float64 view,
    add its strided real and imaginary halves. That is ``(x - px) ** 2 +
    (y - py) ** 2`` bit for bit. Ticks and counters are local ints until
    the end; the best solution is updated from the solutions that joined or
    got cheaper (costs only fall). None of this moves a float, draw or tick.
    """
    config.validate()
    region = Region(gmap, problem)
    if region.constrained and not region.rooms:
        raise EmptyRegion("allowed region contains no known rooms")
    # built for the motion checks, and so used by every state check
    certified = region.certified
    if not region.valid(problem.start):
        raise InvalidStart(f"start {tuple(problem.start)} is not a valid state")
    if not region.valid(problem.goal):
        raise InvalidGoal(f"goal {tuple(problem.goal)} is not a valid state")

    # the budget: ticks against a virtual limit, or the wall clock against
    # a deadline checked every WALL_CHECK_PERIOD iterations
    t0 = time.perf_counter()
    wall = config.clock == CLOCK_WALL
    timeout = math.inf if config.timeout is None else config.timeout
    limit = math.inf if wall else timeout * config.ops_per_second
    deadline = t0 + timeout if wall else math.inf
    max_iterations = math.inf if config.max_iterations is None else config.max_iterations
    check_cost = region.check_cost
    ticks = 2 * check_cost
    iterations = created = accepted = rejected = 0
    rng = make_stream(config.seed)
    start, goal = problem.start, problem.goal
    step = region.step
    walk = region._walk
    valid, sample_free, sample_informed = region.valid, region.sample, region.sample_informed

    def motion_ok(a: Point2, b: Point2, length: float) -> bool:
        """Charge a motion check by its points and run it; length is dist(a, b).
        The certificate test of ``Region._motion_valid``, inline."""
        nonlocal ticks
        m = math.ceil(length / step) or 1
        ticks += (m + 1) * check_cost
        ax, ay = a
        bx, by = b
        for x0, y0, x1, y1 in certified:
            if x0 <= ax <= x1 and y0 <= ay <= y1:
                if x0 <= bx <= x1 and y0 <= by <= y1:
                    return True
                break
        return walk(a, b, m, length)

    def finish(path: GeometricPath | None) -> tuple[GeometricPath | None, PlannerStats]:
        elapsed = time.perf_counter() - t0 if wall else ticks / config.ops_per_second
        return path, PlannerStats(
            samples_created=created, samples_valid=accepted, samples_rejected=rejected,
            iterations=iterations, solved=path is not None, planning_time=elapsed,
            best_cost=math.inf if path is None else path.length)

    d0 = dist(start, goal)
    if d0 <= problem.goal_tolerance:
        if d0 == 0.0:
            return finish(GeometricPath.from_waypoints((start,)))
        if motion_ok(start, goal, d0):
            return finish(GeometricPath.from_waypoints((start, goal)))

    # flat tree storage; the coordinates also in the padded complex zs,
    # the costs in cs, for the neighbour scans into diff, d2buf and maskbuf
    cap = 256
    pad = complex(math.inf, math.inf)
    zs = np.full(cap, pad)
    zs[0] = complex(start.x, start.y)
    cs = np.empty(cap)
    cs[0] = 0.0
    diff, d2buf, maskbuf = np.empty(cap, complex), np.empty(cap), np.empty(cap, bool)

    def views(span: int) -> tuple:
        """Views of the first ``span`` entries: zs, the differences, their
        float64 view and its real and imaginary halves, d2, the mask."""
        dxy = diff[:span].view(np.float64)
        return zs[:span], diff[:span], dxy, dxy[0::2], dxy[1::2], d2buf[:span], maskbuf[:span]

    span = _SCAN_COLUMNS
    zv, dz, dxy, dx, dy, d2, mask = views(span)
    pts: list[Point2] = [start]
    parent: list[int] = [-1]
    cost: list[float] = [0.0]
    cmax = 0.0  # bounds every cost: costs only fall after insertion
    children: list[list[int]] = [[]]
    # solution node -> its distance to the goal, which never changes
    goal_dist: dict[int, float] = {}
    # solution nodes that joined or got cheaper in this iteration
    noted: list[int] = []
    best_cost = math.inf
    best_node = -1

    gamma = DEFAULT_REWIRE_FACTOR * math.sqrt(3.0 * region.free_area / math.pi)
    rewiring = config.algorithm in (RRT_STAR, INFORMED_RRT_STAR)
    informed = config.algorithm == INFORMED_RRT_STAR

    def propagate(idx: int, delta: float) -> int:
        """Push a cost change down a subtree; returns nodes touched."""
        touched = 0
        stack = [idx]
        while stack:
            i = stack.pop()
            cost[i] += delta
            cs[i] = cost[i]
            touched += 1
            if i in goal_dist:
                noted.append(i)
            stack.extend(children[i])
        return touched

    while True:
        if iterations >= max_iterations or ticks >= limit:
            break
        if wall and iterations % WALL_CHECK_PERIOD == 0 and time.perf_counter() >= deadline:
            break
        iterations += 1

        # ----- sample
        if informed and best_cost < math.inf:
            sample, draws = sample_informed(best_cost, rng)
            created += draws
            ticks += draws * check_cost
            if sample is None:
                rejected += draws
                continue
            rejected += draws - 1
            if sample_hook is not None:
                sample_hook(sample, best_cost)
        else:
            sample = sample_free(rng, DEFAULT_GOAL_BIAS)
            created += 1
            ticks += 1 + check_cost
            if sample_hook is not None:
                sample_hook(sample, None)

        # ----- nearest neighbour: d2 = (x - px) ** 2 + (y - py) ** 2 over zs
        n = len(pts)
        ticks += 1 + (n >> 5)
        np.subtract(zv, complex(sample.x, sample.y), out=dz)
        np.multiply(dxy, dxy, out=dxy)
        np.add(dx, dy, out=d2)
        nearest = int(d2.argmin())
        near_pt = pts[nearest]
        d_near = math.sqrt(d2.item(nearest))
        if d_near <= 1e-12:
            rejected += 1
            continue

        # ----- steer
        if d_near <= DEFAULT_STEER_RANGE:
            new_pt = sample
        else:
            t = DEFAULT_STEER_RANGE / d_near
            new_pt = Point2(near_pt.x + (sample.x - near_pt.x) * t,
                            near_pt.y + (sample.y - near_pt.y) * t)

        ticks += check_cost
        if not valid(new_pt):
            rejected += 1
            continue
        accepted += 1

        # ----- connect to the tree
        edge_len = dist(near_pt, new_pt)
        if not motion_ok(near_pt, new_pt, edge_len):
            continue

        parent_idx = nearest
        parent_cost = cost[nearest] + edge_len
        if rewiring:
            radius = min(DEFAULT_STEER_RANGE,
                         gamma * math.sqrt(math.log(n + 1.0) / (n + 1.0)))
            ticks += 1 + (n >> 5)
            if new_pt is not sample:
                # d2 is dead: the neighbourhood scan reuses it
                np.subtract(zv, complex(new_pt.x, new_pt.y), out=dz)
                np.multiply(dxy, dxy, out=dxy)
                np.add(dx, dy, out=d2)
            near = np.less_equal(d2, radius * radius, out=mask).nonzero()[0]
            d_nbr = np.sqrt(d2[near])
            c_nbr = cs[near]
            # candidate parents by cost through them, below the cost through
            # the nearest node; ties go by neighbour order, which is node order
            through = c_nbr + d_nbr
            while (cand := _cheapest(through, parent_cost)) is not None:
                i = near.item(cand[0])
                if motion_ok(pts[i], new_pt, dist(pts[i], new_pt)):
                    parent_idx = i
                    parent_cost = cand[1]
                    break

        new_idx = n
        if new_idx >= span:
            span += _SCAN_COLUMNS
            if span > cap:
                zs = np.concatenate((zs, np.full(cap, pad)))
                cap *= 2
                cs = np.resize(cs, cap)
                diff, d2buf, maskbuf = np.empty(cap, complex), np.empty(cap), np.empty(cap, bool)
            zv, dz, dxy, dx, dy, d2, mask = views(span)
        zs[new_idx] = complex(new_pt.x, new_pt.y)
        cs[new_idx] = parent_cost
        if parent_cost > cmax:
            cmax = parent_cost
        pts.append(new_pt)
        parent.append(parent_idx)
        cost.append(parent_cost)
        children.append([])
        children[parent_idx].append(new_idx)

        if rewiring:
            # in a large neighbourhood, visit only the neighbours that can
            # pass the exact test, in neighbour order
            if near.size > _SCAN_FILTER_MIN:
                near = near[_may_rewire(parent_cost, d_nbr, c_nbr, cmax)]
            for i in near.tolist():
                if i == parent_idx:
                    continue
                d = dist(new_pt, pts[i])
                via = parent_cost + d
                if via < cost[i] - 1e-12 and motion_ok(new_pt, pts[i], d):
                    children[parent[i]].remove(i)
                    parent[i] = new_idx
                    children[new_idx].append(i)
                    ticks += propagate(i, via - cost[i])

        # ----- goal connection
        d_goal = dist(new_pt, goal)
        if d_goal <= problem.goal_tolerance:
            if d_goal == 0.0 or motion_ok(new_pt, goal, d_goal):
                goal_dist[new_idx] = d_goal
                noted.append(new_idx)

        if goal_dist:
            # charged as a scan of every solution
            ticks += len(goal_dist)
            if noted:
                best_cost, best_node = _lower_best(noted, goal_dist, cost,
                                                   best_cost, best_node)
                noted.clear()

        if iteration_hook is not None:
            iteration_hook(iterations, best_cost)

    if best_node < 0:
        return finish(None)
    waypoints_rev = []
    idx = best_node
    while idx >= 0:
        waypoints_rev.append(pts[idx])
        idx = parent[idx]
    waypoints = tuple(reversed(waypoints_rev))
    if waypoints[-1] != goal:
        waypoints = waypoints + (goal,)
    return finish(GeometricPath.from_waypoints(waypoints))


def path_to_dict(path: GeometricPath) -> dict:
    """JSON-ready representation of a geometric path."""
    return {"waypoints": [list(p) for p in path.waypoints], "length_m": path.length}
