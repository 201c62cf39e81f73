"""Sampling-based geometric planners (RRT, RRT*, Informed RRT*).

Planners run over a :class:`~semnav.map_builder.GlobalMap` and an optional
room constraint: when ``allowed_rooms`` is set, valid states must lie inside
one of those rooms' contours (or inside an allowed doorway opening), which is
how a semantic route restricts the search region. Clearance is tested against
the interpolated distance field with a small safety margin on top of the
robot radius; the margin (default 0.02 m) covers both the spacing of motion
interpolation points and the worst-case interpolation error near carved gap
ends, so returned paths hold up under arbitrarily dense re-checking.

Validity checks are the hot path. Rooms are axis-aligned rectangles, so room
containment is two box comparisons; only points within a few 1e-9 of a
room's edges fall back to the exact ring test, whose 1e-9 boundary tolerance
the box test cannot reproduce. A motion check runs the bbox test, the room
boxes and the bilinear field lookup inline for every interpolated point.
Both give exactly the answers of the general ring test and ``sdf_query``,
point for point (see ``_Region``), and neither changes what the virtual clock
charges.

Budgets come from a pluggable clock. The default "virtual" clock charges
ticks per primitive operation: one per sample draw, one per 32 points of a
vectorized nearest-neighbour scan, and, per point validity check, one field
lookup plus one tick per room contour the check has in scope (every room of
the map for an unconstrained check, only the allowed rooms for a constrained
one). Ticks convert to seconds with a fixed ops-per-second constant, which
makes runs bit-reproducible across machines and worker counts; "wall" uses
real time, checked every 64 iterations.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import EmptyRegion, InvalidGoal, InvalidStart, OutOfBounds
from .geometry import Point2, dist
from .map_builder import Contour, GlobalMap, point_in_contour, sdf_query
from .rng import make_stream

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
# half-width of the band around a rectangle room's edges where containment
# falls back to the exact ring test (its boundary tolerance is 1e-9)
_RECT_BAND = 4e-9

CLOCK_VIRTUAL = "virtual"
CLOCK_WALL = "wall"


@dataclass(frozen=True)
class GeometricProblem:
    """One geometric planning query.

    ``allowed_rooms`` restricts valid states to those rooms' contours plus the
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
    steer_range: float = DEFAULT_STEER_RANGE
    goal_bias: float = DEFAULT_GOAL_BIAS
    rewire_factor: float = DEFAULT_REWIRE_FACTOR
    seed: int = 0
    clock: str = CLOCK_VIRTUAL
    ops_per_second: float = DEFAULT_OPS_PER_SECOND

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm '{self.algorithm}'")
        if not ((self.timeout is not None and self.timeout > 0)
                or (self.max_iterations is not None and self.max_iterations > 0)):
            raise ValueError("config needs a positive timeout or max_iterations")
        if not 0.0 <= self.goal_bias < 1.0:
            raise ValueError("goal_bias must be in [0, 1)")
        if self.steer_range <= 0:
            raise ValueError("steer_range must be positive")
        if self.rewire_factor <= 0:
            raise ValueError("rewire_factor must be positive")
        if self.clock not in (CLOCK_VIRTUAL, CLOCK_WALL):
            raise ValueError(f"unknown clock '{self.clock}'")
        if self.ops_per_second <= 0:
            raise ValueError("ops_per_second must be positive")


class _Budget:
    """Deterministic (virtual) or wall-clock planning budget."""

    def __init__(self, config: PlannerConfig):
        self.mode = config.clock
        self.ops = 0
        self.ops_per_second = config.ops_per_second
        self.t0 = time.perf_counter()
        if config.timeout is None:
            self.limit_ops = math.inf
            self.deadline = math.inf
        elif self.mode == CLOCK_VIRTUAL:
            self.limit_ops = config.timeout * config.ops_per_second
            self.deadline = math.inf
        else:
            self.limit_ops = math.inf
            self.deadline = self.t0 + config.timeout

    def charge(self, n: int) -> None:
        self.ops += n

    def exhausted(self, iterations: int) -> bool:
        if self.mode == CLOCK_VIRTUAL:
            return self.ops >= self.limit_ops
        if iterations % WALL_CHECK_PERIOD == 0:
            return time.perf_counter() >= self.deadline
        return False

    def elapsed(self) -> float:
        if self.mode == CLOCK_VIRTUAL:
            return self.ops / self.ops_per_second
        return time.perf_counter() - self.t0


class _Region:
    """Validity context prepared once per planning run.

    Bundles the allowed-room contours, the allowed doorway opening rectangles
    and the clearance threshold so the hot loop does no per-call filtering.

    Room containment has a rectangle fast path. On an axis-aligned rectangle
    ring, the even-odd test of ``point_in_contour`` accepts exactly the
    half-open box ``x0 <= x < x1, y0 <= y < y1`` by crossing count, plus every
    point within 1e-9 of an edge (so its corners are rounded). A point in a
    room's half-open box is therefore inside with two comparisons. Only a
    point within ``_RECT_BAND`` (a few 1e-9) of a room's closed box falls back
    to the unchanged ``point_in_contour``; farther out it is not in that room.
    A contour that is not an axis-aligned rectangle always takes the fallback.

    ``motion_valid`` fuses the bbox test, the room boxes and the bilinear
    field lookup of ``sdf_query`` (the same float arithmetic in the same
    order) for each interpolated point, without building points or calling
    out. Its answers are those of ``valid`` on every point, and
    ``check_cost`` is untouched, so virtual-clock charges are unchanged.
    """

    def __init__(self, gmap: GlobalMap, problem: GeometricProblem):
        self.gmap = gmap
        self.bbox = gmap.scene.bbox
        self.clearance = problem.robot_radius + problem.validity_margin
        self.constrained = problem.allowed_rooms is not None
        self.contours: tuple[Contour, ...] = ()
        self.rects: tuple[tuple[float, float, float, float], ...] = ()
        if self.constrained:
            self.contours = tuple(c for c in gmap.contours
                                  if c.room_id in problem.allowed_rooms)
            if problem.allowed_doorways:
                self.rects = tuple(gmap.openings[d]
                                   for d in sorted(problem.allowed_doorways)
                                   if d in gmap.openings)
        # half-open boxes of the rectangle rooms; (closed box grown by the
        # fallback band, contour) for every room
        self.boxes: list[tuple[float, float, float, float]] = []
        self.bands: list[tuple[float, float, float, float, Contour]] = []
        for c in self.contours:
            box = _rectangle(c.ring)
            if box is None:
                inf = math.inf
                self.bands.append((-inf, -inf, inf, inf, c))
                continue
            x0, y0, x1, y1 = box
            band = _RECT_BAND + 16 * math.ulp(max(map(abs, box)))
            self.boxes.append(box)
            self.bands.append((x0 - band, y0 - band, x1 + band, y1 + band, c))
        # virtual-clock ticks per validity check: one field lookup plus one
        # tick per room contour the check has in scope. An unconstrained
        # check answers against the whole map, a constrained one only
        # against the allowed rooms (and their openings), so narrowing the
        # region makes checks proportionally cheaper.
        if self.constrained:
            self.check_cost = 1 + max(1, len(self.contours)) + (1 if self.rects else 0)
        else:
            self.check_cost = 1 + len(gmap.contours)
        self.step = motion_step(gmap.sdf.resolution)

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
        """Membership of a point in no room's half-open box: the exact ring
        test near room edges, then the doorway openings."""
        for ox0, oy0, ox1, oy1, c in self.bands:
            if (ox0 <= x <= ox1 and oy0 <= y <= oy1
                    and point_in_contour(c, Point2(x, y))):
                return True
        for x0, y0, x1, y1 in self.rects:
            if x0 <= x <= x1 and y0 <= y <= y1:
                return True
        return False

    def valid(self, p: Point2) -> bool:
        if not self.contains(p):
            return False
        return sdf_query(self.gmap.sdf, p) >= self.clearance

    def motion_points(self, a: Point2, b: Point2) -> int:
        return max(1, int(math.ceil(dist(a, b) / self.step))) + 1

    def motion_valid(self, a: Point2, b: Point2) -> bool:
        n = self.motion_points(a, b) - 1
        lo, hi = self.bbox
        bx0, by0, bx1, by1 = lo.x, lo.y, hi.x, hi.y
        constrained = self.constrained
        boxes = self.boxes
        clearance = self.clearance
        grid = self.gmap.sdf
        v = grid.flat_values
        ox, oy = grid.origin
        res = grid.resolution
        nx = grid.nx
        fx_max = nx - 1 + 1e-9
        fy_max = grid.ny - 1 + 1e-9
        i_max = nx - 2
        j_max = grid.ny - 2
        ax, ay = a
        dx = b.x - ax
        dy = b.y - ay
        for k in range(n + 1):
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
            if not ((v[m] * (1.0 - tx) + v[m + 1] * tx) * (1.0 - ty)
                    + (v[m + nx] * (1.0 - tx) + v[m + nx + 1] * tx) * ty >= clearance):
                return False
        return True


def _rectangle(ring: tuple[Point2, ...]) -> tuple[float, float, float, float] | None:
    """``(x0, y0, x1, y1)`` of an axis-aligned rectangle ring, else None."""
    xs = sorted({p.x for p in ring})
    ys = sorted({p.y for p in ring})
    if len(ring) != 4 or len(xs) != 2 or len(ys) != 2:
        return None
    if not all((p.x == q.x) != (p.y == q.y) for p, q in zip(ring, ring[1:] + ring[:1])):
        return None
    return xs[0], ys[0], xs[1], ys[1]


def motion_step(resolution: float) -> float:
    return min(MOTION_STEP_CAP, resolution / 2.0)


def state_valid(gmap: GlobalMap, problem: GeometricProblem, p: Point2) -> bool:
    """True when ``p`` is inside the map, inside the allowed region, and has
    clearance of at least robot_radius + validity_margin."""
    return _Region(gmap, problem).valid(p)


def motion_valid(gmap: GlobalMap, problem: GeometricProblem,
                 a: Point2, b: Point2) -> bool:
    """Straight-line motion check: every interpolated state must be valid."""
    return _Region(gmap, problem).motion_valid(a, b)


def sample_state(gmap: GlobalMap, problem: GeometricProblem,
                 rng: np.random.Generator, goal_bias: float = 0.0) -> Point2:
    """One uniform sample from the allowed region (the goal with ``goal_bias``).

    Constrained problems pick a room with probability proportional to its
    area, then sample that room's rectangle, which is uniform over the union
    because rooms have disjoint interiors.
    """
    if goal_bias > 0.0 and rng.random() < goal_bias:
        return problem.goal
    if problem.allowed_rooms is None:
        lo, hi = gmap.scene.bbox
        return Point2(rng.uniform(lo.x, hi.x), rng.uniform(lo.y, hi.y))
    contours = [c for c in gmap.contours if c.room_id in problem.allowed_rooms]
    if not contours:
        raise EmptyRegion("allowed region contains no known rooms")
    rooms = {r.id: r for r in gmap.scene.rooms}
    areas = [rooms[c.room_id].widths[0] * rooms[c.room_id].widths[1] for c in contours]
    total = sum(areas)
    pick = rng.uniform(0.0, total)
    acc = 0.0
    chosen = contours[-1]
    for c, a in zip(contours, areas):
        acc += a
        if pick <= acc:
            chosen = c
            break
    x0, y0, x1, y1 = rooms[chosen.room_id].bounds
    # rectangle contours accept immediately; the loop is shape safety in case
    # contours ever grow beyond rectangles
    for _ in range(64):
        p = Point2(rng.uniform(x0, x1), rng.uniform(y0, y1))
        if point_in_contour(chosen, p):
            return p
    return Point2((x0 + x1) / 2.0, (y0 + y1) / 2.0)


def informed_axes(start: Point2, goal: Point2, c_best: float) -> tuple[float, float]:
    """Semi-axes of the informed sampling ellipse (transverse, conjugate).

    A nearly straight solution can sum its segment lengths to a hair below
    the direct start-goal distance in floating point, so c_best is clamped
    up to that distance; only a clearly impossible cost raises.
    """
    c_min = dist(start, goal)
    if c_best < c_min - 1e-9 * (1.0 + c_min):
        raise ValueError("best cost below the straight-line distance")
    c = max(c_best, c_min)
    return c / 2.0, math.sqrt(max(0.0, c * c - c_min * c_min)) / 2.0


def sample_informed(gmap: GlobalMap, problem: GeometricProblem, c_best: float,
                    rng: np.random.Generator,
                    max_attempts: int = INFORMED_MAX_ATTEMPTS) -> tuple[Point2 | None, int]:
    """Sample the ellipse with foci start/goal and transverse diameter c_best.

    Draws are uniform over the ellipse (unit-disk transform) and rejected
    against the allowed region. Returns (point, draws); the point is None when
    every attempt was rejected. A degenerate ellipse (c_best equal to the
    straight-line distance) collapses to the start-goal segment.
    """
    region = _Region(gmap, problem)
    return _sample_informed(region, problem, c_best, rng, max_attempts)


def _sample_informed(region: _Region, problem: GeometricProblem, c_best: float,
                     rng: np.random.Generator,
                     max_attempts: int) -> tuple[Point2 | None, int]:
    start, goal = problem.start, problem.goal
    c_min = dist(start, goal)
    a, b = informed_axes(start, goal, c_best)
    cx = (start.x + goal.x) / 2.0
    cy = (start.y + goal.y) / 2.0
    if c_min > 0.0:
        ux = (goal.x - start.x) / c_min
        uy = (goal.y - start.y) / c_min
    else:
        ux, uy = 1.0, 0.0
    degenerate = b <= 1e-12
    draws = 0
    while draws < max_attempts:
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
        if region.contains(p):
            return p, draws
    return None, draws


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
    """
    config.validate()
    stats = PlannerStats()
    region = _Region(gmap, problem)
    if region.constrained and not region.contours:
        raise EmptyRegion("allowed region contains no known rooms")
    if not region.valid(problem.start):
        raise InvalidStart(f"start {tuple(problem.start)} is not a valid state")
    if not region.valid(problem.goal):
        raise InvalidGoal(f"goal {tuple(problem.goal)} is not a valid state")

    budget = _Budget(config)
    check_cost = region.check_cost
    budget.charge(2 * check_cost)
    rng = make_stream(config.seed)
    start, goal = problem.start, problem.goal

    d0 = dist(start, goal)
    if d0 <= problem.goal_tolerance:
        if d0 == 0.0:
            path = GeometricPath.from_waypoints((start,))
        else:
            budget.charge(region.motion_points(start, goal) * check_cost)
            if region.motion_valid(start, goal):
                path = GeometricPath.from_waypoints((start, goal))
            else:
                path = None
        if path is not None:
            stats.solved = True
            stats.best_cost = path.length
            stats.planning_time = budget.elapsed()
            return path, stats

    # flat tree storage; coordinates mirrored in numpy for neighbour scans
    cap = 256
    xs = np.empty(cap)
    ys = np.empty(cap)
    xs[0] = start.x
    ys[0] = start.y
    pts: list[Point2] = [start]
    parent: list[int] = [-1]
    cost: list[float] = [0.0]
    children: list[list[int]] = [[]]
    solutions: list[int] = []
    best_cost = math.inf
    best_node = -1

    if problem.allowed_rooms is None:
        lo, hi = gmap.scene.bbox
        free_area = (hi.x - lo.x) * (hi.y - lo.y)
    else:
        rooms = {r.id: r for r in gmap.scene.rooms}
        free_area = sum(rooms[c.room_id].widths[0] * rooms[c.room_id].widths[1]
                        for c in region.contours)
    gamma = config.rewire_factor * math.sqrt(3.0 * free_area / math.pi)
    rewiring = config.algorithm in (RRT_STAR, INFORMED_RRT_STAR)
    informed = config.algorithm == INFORMED_RRT_STAR

    def propagate(idx: int, delta: float) -> int:
        """Push a cost change down a subtree; returns nodes touched."""
        touched = 0
        stack = [idx]
        while stack:
            i = stack.pop()
            cost[i] += delta
            touched += 1
            stack.extend(children[i])
        return touched

    while True:
        if config.max_iterations is not None and stats.iterations >= config.max_iterations:
            break
        if budget.exhausted(stats.iterations):
            break
        stats.iterations += 1

        # ----- sample
        if informed and best_cost < math.inf:
            sample, draws = _sample_informed(region, problem, best_cost, rng,
                                             INFORMED_MAX_ATTEMPTS)
            stats.samples_created += draws
            budget.charge(draws * check_cost)
            if sample is None:
                stats.samples_rejected += draws
                continue
            stats.samples_rejected += draws - 1
            if sample_hook is not None:
                sample_hook(sample, best_cost)
        else:
            sample = sample_state(gmap, problem, rng, goal_bias=config.goal_bias)
            stats.samples_created += 1
            budget.charge(1 + check_cost)
            if sample_hook is not None:
                sample_hook(sample, None)

        # ----- nearest neighbour (np.argmin keeps the first minimum)
        n = len(pts)
        budget.charge(1 + (n >> 5))
        d2 = (xs[:n] - sample.x) ** 2 + (ys[:n] - sample.y) ** 2
        nearest = int(np.argmin(d2))
        near_pt = pts[nearest]
        d_near = math.sqrt(float(d2[nearest]))
        if d_near <= 1e-12:
            stats.samples_rejected += 1
            continue

        # ----- steer
        if d_near <= config.steer_range:
            new_pt = sample
        else:
            t = config.steer_range / d_near
            new_pt = Point2(near_pt.x + (sample.x - near_pt.x) * t,
                            near_pt.y + (sample.y - near_pt.y) * t)

        budget.charge(check_cost)
        if not region.valid(new_pt):
            stats.samples_rejected += 1
            continue
        stats.samples_valid += 1

        # ----- connect to the tree
        edge_len = dist(near_pt, new_pt)
        budget.charge(region.motion_points(near_pt, new_pt) * check_cost)
        if not region.motion_valid(near_pt, new_pt):
            continue

        parent_idx = nearest
        parent_cost = cost[nearest] + edge_len
        neighbor_list: list[int] = []
        if rewiring:
            radius = min(config.steer_range,
                         gamma * math.sqrt(math.log(n + 1.0) / (n + 1.0)))
            budget.charge(1 + (n >> 5))
            if new_pt is sample:
                d2n = d2
            else:
                d2n = (xs[:n] - new_pt.x) ** 2 + (ys[:n] - new_pt.y) ** 2
            near = np.flatnonzero(d2n <= radius * radius)
            neighbor_list = near.tolist()
            # candidate parents by cost through them; a stable sort breaks
            # ties by node index
            via_costs = np.array([cost[i] for i in neighbor_list]) + np.sqrt(d2n[near])
            order = np.argsort(via_costs, kind="stable").tolist()
            via_costs = via_costs.tolist()
            for k in order:
                i = neighbor_list[k]
                c = via_costs[k]
                if c >= parent_cost:
                    break
                budget.charge(region.motion_points(pts[i], new_pt) * check_cost)
                if region.motion_valid(pts[i], new_pt):
                    parent_idx = i
                    parent_cost = c
                    break

        new_idx = len(pts)
        if new_idx >= cap:
            cap *= 2
            xs = np.resize(xs, cap)
            ys = np.resize(ys, cap)
        xs[new_idx] = new_pt.x
        ys[new_idx] = new_pt.y
        pts.append(new_pt)
        parent.append(parent_idx)
        cost.append(parent_cost)
        children.append([])
        children[parent_idx].append(new_idx)

        if rewiring:
            for i in neighbor_list:
                if i == parent_idx:
                    continue
                via = parent_cost + dist(new_pt, pts[i])
                if via < cost[i] - 1e-12:
                    budget.charge(region.motion_points(new_pt, pts[i]) * check_cost)
                    if region.motion_valid(new_pt, pts[i]):
                        children[parent[i]].remove(i)
                        parent[i] = new_idx
                        children[new_idx].append(i)
                        budget.charge(propagate(i, via - cost[i]))

        # ----- goal connection
        d_goal = dist(new_pt, goal)
        if d_goal <= problem.goal_tolerance:
            if d_goal == 0.0:
                solutions.append(new_idx)
            else:
                budget.charge(region.motion_points(new_pt, goal) * check_cost)
                if region.motion_valid(new_pt, goal):
                    solutions.append(new_idx)

        if solutions:
            budget.charge(len(solutions))
            total = math.inf
            node = -1
            for i in solutions:
                c = cost[i] + dist(pts[i], goal)
                if c < total:
                    total = c
                    node = i
            if total < best_cost:
                best_cost = total
                best_node = node

        if iteration_hook is not None:
            iteration_hook(stats.iterations, best_cost)

    stats.planning_time = budget.elapsed()
    if best_node < 0:
        return None, stats

    waypoints_rev = []
    idx = best_node
    while idx >= 0:
        waypoints_rev.append(pts[idx])
        idx = parent[idx]
    waypoints = tuple(reversed(waypoints_rev))
    if waypoints[-1] != goal:
        waypoints = waypoints + (goal,)
    path = GeometricPath.from_waypoints(waypoints)
    stats.solved = True
    stats.best_cost = path.length
    return path, stats


def path_to_dict(path: GeometricPath) -> dict:
    """JSON-ready representation of a geometric path."""
    return {"waypoints": [list(p) for p in path.waypoints], "length_m": path.length}


def path_from_dict(data: dict) -> GeometricPath:
    return GeometricPath.from_waypoints(tuple(Point2(*w) for w in data["waypoints"]))
