"""Decompose a semantic route into per-room geometric subproblems.

A route through n doorways becomes n + 1 independent subproblems: within each
room, plan from the previous waypoint (query start or entry doorway center)
to the next one (exit doorway center or query goal). Each subproblem is
restricted to its own room plus the openings of its entry and exit doorways,
receives an equal share of the total budget, and gets its own seed, so each
result is a pure function of the subproblem and the configuration. The
subproblems are planned in index order on the calling thread: the planner is
pure Python, so threads would run one at a time under the GIL.

Joining solved segments relies on exact waypoint identity: subproblem k's
goal point and subproblem k+1's start point are the same doorway center, the
planner roots its tree at the exact start and appends the exact goal, so the
joints line up bit for bit.

``replan`` handles a doorway turning out to be blocked: it updates the map,
recomputes the route from the robot's current position, and re-solves only
the subproblems whose (start, goal, room) key has no previously solved
segment that runs between those points and still checks out against the new
map. The paths ``solve_all`` and ``replan`` return keep the map they were
planned on, and the new map is derived from that one: only the
distance-field tiles the closed gap can reach are recomputed, and the rest
of the field and its certified boxes are carried over. The result is the
map a full build would give, bit for bit, and it is kept on the map it came
from, so blocking the same doorway again reuses it.

Replans from one path share the subproblems they plan, the reuse principle
of incremental replanners such as D* Lite (Koenig and Likhachev, AAAI 2002)
at the level of subproblems. Sibling replans, which block different
doorways of the same previous path, often re-plan the same (problem,
sub-config) on maps whose field is identical over everything that problem
can read. Each path keeps what was planned from it (``GlobalPath._replans``)
and answers such a repeat from there. On the virtual clock ``plan`` is a
pure function of the field it reads, the problem and the config, so the
answer is the one ``plan`` would return; wall-clock runs are never stored.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property

import numpy as np

from . import map_builder
from .errors import EmptyInput, InvalidGoal, InvalidStart, SubproblemInfeasible
from .geometry import Point2
from .map_builder import GlobalMap, build_blocked_map, build_global_map
from .geometric_planner import (CLOCK_VIRTUAL, DEFAULT_GOAL_TOLERANCE,
                                DEFAULT_ROBOT_RADIUS, DEFAULT_VALIDITY_MARGIN,
                                GeometricPath, GeometricProblem, PlannerConfig,
                                PlannerStats, Region, path_to_dict, plan)
from .scene_graph import CONTAINMENT_TOL, SceneGraph, set_doorway_blocked
from .semantic_planner import (DEFAULT_DOORWAY_PENALTY, SQUARED, SemanticRoute,
                               build_topology, semantic_route)

# second-round seed salt for the redistribute extension
_RETRY_SALT = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class Subproblem:
    """One per-room planning task cut out of a semantic route.

    ``index`` is the 1-based position along the route; ``entry``/``exit`` are
    the doorway ids bounding the room traversal (None at the route ends).
    """

    index: int
    start: Point2
    goal: Point2
    room: str
    entry: str | None
    exit: str | None

    def to_problem(self,
                   goal_tolerance: float = DEFAULT_GOAL_TOLERANCE,
                   robot_radius: float = DEFAULT_ROBOT_RADIUS,
                   validity_margin: float = DEFAULT_VALIDITY_MARGIN) -> GeometricProblem:
        doors = frozenset(d for d in (self.entry, self.exit) if d is not None)
        return GeometricProblem(start=self.start, goal=self.goal,
                                allowed_rooms=frozenset((self.room,)),
                                allowed_doorways=doors,
                                goal_tolerance=goal_tolerance,
                                robot_radius=robot_radius,
                                validity_margin=validity_margin)


@dataclass(frozen=True)
class GlobalPath:
    """Joined subproblem solutions: one geometric segment per room.

    ``gmap`` is the map the path was planned on, set by ``solve_all`` and
    ``replan``; ``replan`` takes its blocked map from it
    (``build_blocked_map``), which keeps that map for the next replan that
    blocks the same doorway. It takes no part in equality, ``repr`` or
    ``global_path_to_dict``.

    ``_replans`` holds what the replans from this path planned, per
    (problem, sub-config): a tuple of entries, each the map, the path (or
    None) and the stats. A later replan from the same path answers such a
    subproblem from the first entry whose map has the same field for the
    problem as its own (module docstring), and adds an entry when none
    has, so sibling replans on different fields keep each other's. The
    entries keep their maps alive; the blocked maps of ``gmap`` stay alive
    on it anyway. Copies, pickles and ``dataclasses.replace`` leave it out.
    """

    segments: tuple[GeometricPath, ...]
    total_length: float
    stats: tuple[PlannerStats, ...]
    gmap: GlobalMap | None = field(default=None, compare=False, repr=False)

    @cached_property
    def _replans(self) -> dict:
        """``_solve_in_order`` results by (problem, start and goal bits, config)."""
        return {}

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_replans", None)
        return state


def decompose(route: SemanticRoute, scene: SceneGraph) -> tuple[Subproblem, ...]:
    """Cut a semantic route into n + 1 per-room subproblems.

    Waypoints are the query start, the route's doorway centers in order, and
    the query goal; subproblem i runs between waypoints i-1 and i inside
    route.rooms[i-1].
    """
    centers = [scene.doorway(d).center for d in route.doorways]
    waypoints = [route.start, *centers, route.goal]
    subs = []
    n = len(route.doorways)
    for i in range(1, n + 2):
        subs.append(Subproblem(
            index=i,
            start=waypoints[i - 1],
            goal=waypoints[i],
            room=route.rooms[i - 1],
            entry=route.doorways[i - 2] if i >= 2 else None,
            exit=route.doorways[i - 1] if i <= n else None,
        ))
    return tuple(subs)


def _sub_config(config: PlannerConfig, n: int, index: int,
                salt: int = 0, timeout: float | None = None) -> PlannerConfig:
    """Equal budget share and a distinct seed for one subproblem."""
    if timeout is None:
        timeout = config.timeout / n if config.timeout is not None else None
    max_iter = config.max_iterations
    if max_iter is not None:
        max_iter = max(1, max_iter // n)
    return replace(config, timeout=timeout, max_iterations=max_iter,
                   seed=(config.seed ^ index ^ salt) & 0xFFFFFFFFFFFFFFFF)


def _solve_in_order(gmap: GlobalMap,
                    tasks: list[tuple[Subproblem, PlannerConfig]],
                    problem_kwargs: dict, cache: dict | None = None,
                    ) -> list[tuple[GeometricPath | None, PlannerStats]]:
    """Plan each (subproblem, sub-config) in the given order.

    With a ``cache`` (``GlobalPath._replans``), a virtual-clock task planned
    before on a map with the same field for its problem (``_same_field``)
    returns the path and a copy of the stats of the first such entry; any
    other virtual-clock result, None paths included, is added to its key's
    entries with ``gmap``.
    Raises SubproblemInfeasible at the first subproblem whose endpoints cannot
    be valid states; tasks come in index order, so that is the lowest index.
    Such a failure is never stored.
    """
    results = []
    for sub, config in tasks:
        problem = sub.to_problem(**problem_kwargs)
        key = None
        if cache is not None and config.clock == CLOCK_VIRTUAL:
            # == takes -0.0 for 0.0, and the path holds the exact endpoints
            key = (problem, _bits(problem.start), _bits(problem.goal), config)
            hit = next((e for e in cache.get(key, ()) if _same_field(e[0], gmap, problem)),
                       None)
            if hit is not None:
                results.append((hit[1], replace(hit[2])))
                continue
        try:
            path, stats = plan(gmap, problem, config)
        except (InvalidStart, InvalidGoal) as exc:
            raise SubproblemInfeasible(sub.index, str(exc)) from exc
        if key is not None:
            cache[key] = cache.get(key, ()) + ((gmap, path, replace(stats)),)
        results.append((path, stats))
    return results


def _bits(p: Point2) -> tuple[str, ...]:
    """The point's coordinates bit for bit."""
    return tuple(float(c).hex() for c in p)


def _same_field(a: GlobalMap, b: GlobalMap, problem: GeometricProblem) -> bool:
    """Whether ``plan`` reads the same from ``a`` and ``b`` for a
    subproblem's ``problem``, which allows rooms.

    True when they are the same map, or when everything ``plan`` reads is
    equal: the bbox, the allowed rooms' ids and bounds in scene order, the
    allowed doorways' openings, the grid's frame and band bound, and the
    field values in the node window (``map_builder._node_window``) of each
    allowed room's box grown by ``CONTAINMENT_TOL`` and a few ulps, and of
    each allowed opening. A constrained region looks the field up only at
    points that passed containment: in an allowed room's closed box or
    within ``CONTAINMENT_TOL`` of it, or in an allowed opening. The cell
    coordinate is monotone in the point, so a run reads no node outside
    those windows, and the certified boxes are cut from nodes inside them;
    they only short-circuit answers that are True anyway. A corridor box
    lies inside its room's box together with its opening, so its node
    window lies inside the union of their windows.
    """
    if a is b:
        return True
    rooms = problem.allowed_rooms
    doors = sorted(problem.allowed_doorways or ())
    boxes = [(r.id, r.bounds) for r in a.scene.rooms if r.id in rooms]
    openings = [a.openings.get(d) for d in doors]
    ga, gb = a.sdf, b.sdf
    if (a.scene.bbox != b.scene.bbox
            or boxes != [(r.id, r.bounds) for r in b.scene.rooms if r.id in rooms]
            or openings != [b.openings.get(d) for d in doors]
            or (ga.origin, ga.resolution, ga.nx, ga.ny, ga.wall_half_width)
            != (gb.origin, gb.resolution, gb.nx, gb.ny, gb.wall_half_width)):
        return False
    reads = [o for o in openings if o is not None]
    for _, (x0, y0, x1, y1) in boxes:
        # the ulps keep each rounded edge at least CONTAINMENT_TOL out
        g = CONTAINMENT_TOL + 16 * math.ulp(max(abs(x0), abs(y0), abs(x1), abs(y1)))
        reads.append((x0 - g, y0 - g, x1 + g, y1 + g))
    for box in reads:
        window = map_builder._node_window(ga, box)
        if window is None:
            return False
        i0, i1, j0, j1 = window
        rows, cols = slice(j0, j1 + 2), slice(i0, i1 + 2)
        if not np.array_equal(ga.values[rows, cols], gb.values[rows, cols]):
            return False
    return True


def solve_all(subs: tuple[Subproblem, ...] | list[Subproblem], gmap: GlobalMap,
              config: PlannerConfig, *, workers: int | None = None,
              redistribute: bool = False,
              goal_tolerance: float = DEFAULT_GOAL_TOLERANCE,
              robot_radius: float = DEFAULT_ROBOT_RADIUS,
              validity_margin: float = DEFAULT_VALIDITY_MARGIN,
              ) -> tuple[GlobalPath | None, list[PlannerStats]]:
    """Solve every subproblem and join the segments into a global path.

    The total budget is split evenly: with a timeout of T and n subproblems
    each planner run gets T/n (iteration caps divide the same way), and
    subproblem i plans with seed ``config.seed ^ i``. Subproblems run one
    after another in index order. ``workers`` is accepted and ignored: the
    planner is pure Python, so a thread pool gained nothing under the GIL,
    and existing callers still pass it.

    Returns (path, stats). ``path`` is None when any subproblem stays
    unsolved, and otherwise keeps ``gmap`` as the map it was planned on;
    ``stats`` always has one entry per subproblem. A subproblem
    whose endpoints cannot be valid states (for example a doorway too narrow
    for the robot) raises SubproblemInfeasible carrying its 1-based index.

    ``redistribute=True`` adds a second pass: budget left over by the first
    pass is split evenly among the unsolved subproblems, which are retried
    with a re-salted seed. Off by default to keep the baseline split exact.
    """
    config.validate()
    subs = tuple(subs)
    if not subs:
        raise EmptyInput("no subproblems to solve")
    n = len(subs)
    pk = {"goal_tolerance": goal_tolerance, "robot_radius": robot_radius,
          "validity_margin": validity_margin}
    results = _solve_in_order(
        gmap, [(s, _sub_config(config, n, s.index)) for s in subs], pk)
    paths = [path for path, _ in results]
    stats = [st for _, st in results]

    retry_idx = [i for i, p in enumerate(paths) if p is None]
    if redistribute and config.timeout is not None and retry_idx:
        allotted = config.timeout / n
        leftover = sum(max(0.0, allotted - st.planning_time) for st in stats)
        if leftover > 0.0:
            extra = leftover / len(retry_idx)
            tasks = [(subs[i], _sub_config(config, n, subs[i].index,
                                           salt=_RETRY_SALT,
                                           timeout=allotted + extra))
                     for i in retry_idx]
            retry = _solve_in_order(gmap, tasks, pk)
            for i, (path, st) in zip(retry_idx, retry):
                first = stats[i]
                st.samples_created += first.samples_created
                st.samples_valid += first.samples_valid
                st.samples_rejected += first.samples_rejected
                st.iterations += first.iterations
                st.planning_time += first.planning_time
                stats[i] = st
                if path is not None:
                    paths[i] = path

    if any(p is None for p in paths):
        return None, stats
    joined = join_segments([p for p in paths if p is not None], stats)
    return replace(joined, gmap=gmap), stats


def join_segments(segments: list[GeometricPath],
                  stats: list[PlannerStats] | None = None) -> GlobalPath:
    """Concatenate per-room segments, enforcing exact joint continuity."""
    if not segments:
        raise EmptyInput("no segments to join")
    for a, b in zip(segments, segments[1:]):
        if a.waypoints[-1] != b.waypoints[0]:
            raise ValueError("segment joints do not line up: "
                             f"{tuple(a.waypoints[-1])} vs {tuple(b.waypoints[0])}")
    total = sum(s.length for s in segments)
    return GlobalPath(segments=tuple(segments), total_length=total,
                      stats=tuple(stats) if stats is not None else ())


@dataclass(frozen=True)
class ReplanOutcome:
    """What a replan produced: the updated world plus reuse accounting.

    ``solved_indices`` are the 1-based subproblem indices planned fresh and
    solved; ``reused_indices`` kept a previous segment that re-validated
    against the new map. Indices refer to the NEW route's decomposition.
    """

    scene: SceneGraph
    gmap: GlobalMap
    route: SemanticRoute
    path: GlobalPath | None
    stats: tuple[PlannerStats, ...]
    solved_indices: tuple[int, ...]
    reused_indices: tuple[int, ...]


def _runs_between(segment: GeometricPath, start: Point2, goal: Point2) -> bool:
    """Whether the segment's first and last waypoints are ``start`` and
    ``goal`` bit for bit, as every segment ``plan`` returns for them is."""
    pts = segment.waypoints
    return bool(pts) and _bits(pts[0]) == _bits(start) and _bits(pts[-1]) == _bits(goal)


def _segment_ok(gmap: GlobalMap, problem: GeometricProblem,
                segment: GeometricPath) -> bool:
    region = Region(gmap, problem)
    pts = segment.waypoints
    if len(pts) == 1:
        return region.valid(pts[0])
    return all(region.motion_valid(a, b) for a, b in zip(pts, pts[1:]))


def replan(scene: SceneGraph, prev_route: SemanticRoute,
           prev_path: GlobalPath | None, blocked_id: str,
           current_position: Point2, config: PlannerConfig, *,
           penalty: float = DEFAULT_DOORWAY_PENALTY, metric: str = SQUARED,
           workers: int | None = None,
           goal_tolerance: float = DEFAULT_GOAL_TOLERANCE,
           robot_radius: float = DEFAULT_ROBOT_RADIUS,
           validity_margin: float = DEFAULT_VALIDITY_MARGIN) -> ReplanOutcome:
    """React to a doorway reported blocked while following a route.

    Marks the doorway blocked, updates the map (the doorway's wall gap
    closes), routes again from ``current_position`` to the original goal, and
    solves the new decomposition. When ``prev_path`` was planned on a map of
    ``scene`` (``prev_path.gmap``), the new map is that map's
    ``build_blocked_map`` for the doorway: derived from it once, with field
    tiles the changed wall pieces cannot reach copied with their certified
    boxes, and kept on it, so every later replan that blocks the same
    doorway from the same map reuses the same map object, and the outcome's
    scene is that map's scene. Otherwise the map is built in full. Either
    way it is ``build_global_map`` of the blocked scene, bit for bit. The
    returned path keeps the new map, so a chain of replans derives each map
    from the last. Segments of ``prev_path`` whose
    (start, goal, room) key matches a new subproblem are reused when their
    first and last waypoints are that subproblem's start and goal bit for
    bit and they still pass motion checks on the new map; everything else is
    planned with the usual equal budget split, in index order, as in
    ``solve_all``; ``workers`` is accepted and ignored for the same reason.
    A subproblem an earlier replan from ``prev_path`` planned with the same
    virtual-clock sub-config, on a map with the same field for it, takes
    that result (``prev_path._replans``) instead of planning again: the
    outcome is the same as without it, ``solved_indices`` included.
    Raises NoRoute when blocking the doorway disconnects the goal, and
    SubproblemInfeasible at the first re-planned subproblem whose endpoints
    cannot be valid states.
    """
    config.validate()
    old = prev_path.gmap if prev_path is not None else None
    if old is not None and old.scene == scene:
        gmap = build_blocked_map(old, blocked_id)
        new_scene = gmap.scene
    else:
        new_scene = set_doorway_blocked(scene, blocked_id, True)
        gmap = build_global_map(new_scene)
    topo = build_topology(new_scene, penalty, metric)
    route = semantic_route(topo, new_scene, current_position, prev_route.goal)
    subs = decompose(route, new_scene)
    pk = {"goal_tolerance": goal_tolerance, "robot_radius": robot_radius,
          "validity_margin": validity_margin}

    previous: dict[tuple[Point2, Point2, str], tuple[GeometricPath, PlannerStats]] = {}
    if prev_path is not None:
        prev_subs = decompose(prev_route, scene)
        prev_stats = prev_path.stats or tuple(PlannerStats(solved=True)
                                              for _ in prev_path.segments)
        for ps, seg, st in zip(prev_subs, prev_path.segments, prev_stats):
            previous[(ps.start, ps.goal, ps.room)] = (seg, st)

    n = len(subs)
    segments: list[GeometricPath | None] = [None] * n
    stats: list[PlannerStats | None] = [None] * n
    reused: list[int] = []
    to_plan: list[Subproblem] = []
    for i, sub in enumerate(subs):
        hit = previous.get((sub.start, sub.goal, sub.room))
        if (hit is not None and _runs_between(hit[0], sub.start, sub.goal)
                and _segment_ok(gmap, sub.to_problem(**pk), hit[0])):
            segments[i], stats[i] = hit
            reused.append(sub.index)
        else:
            to_plan.append(sub)

    results = _solve_in_order(
        gmap, [(s, _sub_config(config, n, s.index)) for s in to_plan], pk,
        prev_path._replans if prev_path is not None else None)
    solved: list[int] = []
    for sub, (path, st) in zip(to_plan, results):
        stats[sub.index - 1] = st
        if path is not None:
            segments[sub.index - 1] = path
            solved.append(sub.index)

    filled = [st if st is not None else PlannerStats() for st in stats]
    if any(s is None for s in segments):
        path = None
    else:
        path = replace(join_segments([s for s in segments if s is not None], filled),
                       gmap=gmap)
    return ReplanOutcome(scene=new_scene, gmap=gmap, route=route, path=path,
                         stats=tuple(filled), solved_indices=tuple(solved),
                         reused_indices=tuple(reused))


def global_path_to_dict(path: GlobalPath) -> dict:
    """JSON-ready representation of a joined path."""
    return {
        "segments": [path_to_dict(s) for s in path.segments],
        "total_length_m": path.total_length,
        "stats": [asdict(s) for s in path.stats],
    }
