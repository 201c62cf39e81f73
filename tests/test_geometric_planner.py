"""Sampling planners: validity, sampling distributions, tree search."""

from __future__ import annotations

import math
import random
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semnav import (CarvedWalls, Contour, EmptyRegion, GeometricPath,
                    GeometricProblem, GlobalMap, InvalidGoal, InvalidStart,
                    PlannerConfig, Point2, SceneGraph, SdfGrid,
                    build_global_map, build_topology, informed_axes,
                    motion_valid, path_from_dict, path_to_dict, plan,
                    point_in_contour, sample_informed, sample_state,
                    sdf_query, semantic_route, state_valid)
from semnav.geometric_planner import _Region
from semnav.rng import make_stream

from conftest import rect_room
from oracles import dense_path_clear, ellipse_contains, min_wall_distance, path_in_region

CLEARANCE = 0.3 + 0.02  # default robot radius plus validity margin


def _scene(rooms, doorways=()):
    xs = [b for r in rooms for b in (r.bounds[0], r.bounds[2])]
    ys = [b for r in rooms for b in (r.bounds[1], r.bounds[3])]
    return SceneGraph(frame="map", bbox=(Point2(min(xs), min(ys)),
                                         Point2(max(xs), max(ys))),
                      rooms=tuple(rooms), doorways=tuple(doorways))


@pytest.fixture(scope="module")
def empty_room_map():
    return build_global_map(_scene([rect_room("a", 0.0, 0.0, 10.0, 10.0)]))


# ------------------------------------------------------------------ config


def test_config_validation():
    PlannerConfig(timeout=1.0).validate()
    PlannerConfig(timeout=None, max_iterations=100).validate()
    with pytest.raises(ValueError, match="algorithm"):
        PlannerConfig(algorithm="dijkstra", timeout=1.0).validate()
    with pytest.raises(ValueError, match="timeout or max_iterations"):
        PlannerConfig().validate()
    with pytest.raises(ValueError, match="goal_bias"):
        PlannerConfig(timeout=1.0, goal_bias=1.0).validate()
    with pytest.raises(ValueError, match="steer_range"):
        PlannerConfig(timeout=1.0, steer_range=0.0).validate()
    with pytest.raises(ValueError, match="rewire_factor"):
        PlannerConfig(timeout=1.0, rewire_factor=-1.0).validate()
    with pytest.raises(ValueError, match="clock"):
        PlannerConfig(timeout=1.0, clock="cpu").validate()
    with pytest.raises(ValueError, match="ops_per_second"):
        PlannerConfig(timeout=1.0, ops_per_second=0.0).validate()


# ---------------------------------------------------------------- validity


def test_state_valid_matches_distance_oracle(threeroom_map, threeroom_scene):
    problem = GeometricProblem(start=Point2(1.0, 1.0), goal=Point2(3.0, 3.0))
    rng = random.Random(21)
    lo, hi = threeroom_scene.bbox
    checked = 0
    for _ in range(2000):
        p = Point2(rng.uniform(lo.x - 0.5, hi.x + 0.5),
                   rng.uniform(lo.y - 0.5, hi.y + 0.5))
        in_bbox = lo.x <= p.x <= hi.x and lo.y <= p.y <= hi.y
        exact = min_wall_distance(p, threeroom_map.walls.segments)
        if abs(exact - CLEARANCE) <= 0.005:
            continue  # interpolation may disagree inside this thin band
        checked += 1
        expect = in_bbox and exact >= CLEARANCE
        assert state_valid(threeroom_map, problem, p) == expect
    assert checked > 1500


def test_state_valid_respects_allowed_rooms(threeroom_map):
    problem = GeometricProblem(start=Point2(1.0, 1.0), goal=Point2(3.0, 3.0),
                               allowed_rooms=frozenset({"r1"}),
                               allowed_doorways=frozenset())
    assert state_valid(threeroom_map, problem, Point2(2.0, 2.0))
    # clear of walls but outside the allowed room
    assert not state_valid(threeroom_map, problem, Point2(6.0, 2.0))


def test_state_valid_doorway_opening(threeroom_map):
    problem = GeometricProblem(start=Point2(2.0, 2.0), goal=Point2(6.0, 2.0),
                               allowed_rooms=frozenset({"r1"}),
                               allowed_doorways=frozenset({"d1"}))
    # (4.1, 2.0) is outside r1 but inside d1's opening rectangle
    assert state_valid(threeroom_map, problem, Point2(4.1, 2.0))
    without = GeometricProblem(start=Point2(2.0, 2.0), goal=Point2(6.0, 2.0),
                               allowed_rooms=frozenset({"r1"}),
                               allowed_doorways=frozenset())
    assert not state_valid(threeroom_map, without, Point2(4.1, 2.0))


def test_motion_valid_cases(threeroom_map):
    problem = GeometricProblem(start=Point2(1.0, 1.0), goal=Point2(3.0, 3.0))
    assert motion_valid(threeroom_map, problem, Point2(1.0, 1.0), Point2(3.0, 3.0))
    # straight through the doorway gap at (4, 2)
    assert motion_valid(threeroom_map, problem, Point2(2.0, 2.0), Point2(6.0, 2.0))
    # both endpoints valid, but the segment crosses the wall away from the gap
    assert not motion_valid(threeroom_map, problem, Point2(2.0, 3.0), Point2(6.0, 3.0))
    # endpoint too close to the top wall
    assert not motion_valid(threeroom_map, problem, Point2(2.0, 2.0), Point2(2.0, 3.75))


# ---------------------------------------------------------------- sampling


def test_sample_state_uniform_mean(threeroom_map):
    problem = GeometricProblem(start=Point2(1.0, 1.0), goal=Point2(3.0, 3.0))
    rng = make_stream(7)
    n = 20_000
    xs = np.empty(n)
    ys = np.empty(n)
    for i in range(n):
        p = sample_state(threeroom_map, problem, rng)
        xs[i] = p.x
        ys[i] = p.y
    assert 0.0 <= xs.min() and xs.max() <= 12.0
    assert 0.0 <= ys.min() and ys.max() <= 4.0
    tol_x = 3.0 * (12.0 / math.sqrt(12.0)) / math.sqrt(n)
    tol_y = 3.0 * (4.0 / math.sqrt(12.0)) / math.sqrt(n)
    assert abs(xs.mean() - 6.0) <= tol_x
    assert abs(ys.mean() - 2.0) <= tol_y


def test_sample_state_constrained(threeroom_map, threeroom_scene):
    problem = GeometricProblem(start=Point2(1.0, 1.0), goal=Point2(10.0, 2.0),
                               allowed_rooms=frozenset({"r1", "r3"}))
    r1 = threeroom_scene.room("r1")
    r3 = threeroom_scene.room("r3")
    rng = make_stream(8)
    n = 5000
    in_r1 = 0
    for _ in range(n):
        p = sample_state(threeroom_map, problem, rng)
        assert r1.contains(p) or r3.contains(p)
        if r1.contains(p):
            in_r1 += 1
    # equal areas: half the mass in each room, binomial 3-sigma band
    assert abs(in_r1 / n - 0.5) <= 3.0 * math.sqrt(0.25 / n)


def test_sample_state_goal_bias(threeroom_map):
    problem = GeometricProblem(start=Point2(1.0, 1.0), goal=Point2(3.0, 3.0))
    rng = make_stream(9)
    n = 5000
    hits = sum(sample_state(threeroom_map, problem, rng, goal_bias=0.3) == problem.goal
               for _ in range(n))
    assert abs(hits / n - 0.3) <= 3.0 * math.sqrt(0.3 * 0.7 / n)


def test_sample_state_empty_region(threeroom_map):
    problem = GeometricProblem(start=Point2(1.0, 1.0), goal=Point2(3.0, 3.0),
                               allowed_rooms=frozenset({"zzz"}))
    with pytest.raises(EmptyRegion):
        sample_state(threeroom_map, problem, make_stream(1))


def test_informed_axes_values():
    a, b = informed_axes(Point2(0.0, 0.0), Point2(10.0, 0.0), 12.0)
    assert a == 6.0
    assert b == pytest.approx(math.sqrt(11.0), abs=1e-12)
    a, b = informed_axes(Point2(0.0, 0.0), Point2(10.0, 0.0), 10.0)
    assert (a, b) == (5.0, 0.0)
    # a hair below the straight-line distance clamps instead of raising
    a, b = informed_axes(Point2(0.0, 0.0), Point2(10.0, 0.0), 10.0 - 1e-12)
    assert (a, b) == (5.0, 0.0)
    with pytest.raises(ValueError):
        informed_axes(Point2(0.0, 0.0), Point2(10.0, 0.0), 9.9)


def test_sample_informed_inside_ellipse(empty_room_map):
    problem = GeometricProblem(start=Point2(2.0, 5.0), goal=Point2(8.0, 5.0))
    rng = make_stream(10)
    c_best = 7.0
    total_draws = 0
    for _ in range(2000):
        p, draws = sample_informed(empty_room_map, problem, c_best, rng)
        total_draws += draws
        assert p is not None
        assert draws >= 1
        assert ellipse_contains(problem.start, problem.goal, c_best, p)
    assert total_draws >= 2000


def test_sample_informed_degenerate_collapses_to_segment(empty_room_map):
    problem = GeometricProblem(start=Point2(2.0, 5.0), goal=Point2(8.0, 5.0))
    rng = make_stream(11)
    for _ in range(500):
        p, _ = sample_informed(empty_room_map, problem, 6.0, rng)
        assert p is not None
        assert abs(p.y - 5.0) <= 1e-9
        assert 2.0 - 1e-9 <= p.x <= 8.0 + 1e-9


def test_sample_informed_rejects_outside_region(threeroom_map):
    # ellipse sits wholly inside r1 but only r3 is allowed
    problem = GeometricProblem(start=Point2(1.0, 2.0), goal=Point2(2.0, 2.0),
                               allowed_rooms=frozenset({"r3"}))
    p, draws = sample_informed(threeroom_map, problem, 1.5, make_stream(12))
    assert p is None
    assert draws == 64


def test_sample_informed_uniform_chi_square(empty_room_map):
    from scipy.stats import chi2
    problem = GeometricProblem(start=Point2(2.0, 5.0), goal=Point2(8.0, 5.0))
    start, goal = problem.start, problem.goal
    c_best = 8.0
    a, b = informed_axes(start, goal, c_best)
    cx, cy = 5.0, 5.0
    rng = make_stream(13)
    n = 20_000
    bins = np.zeros((10, 10))
    for _ in range(n):
        p, _ = sample_informed(empty_room_map, problem, c_best, rng)
        u1 = (p.x - cx) / a  # start-goal axis is +x, no rotation needed
        u2 = (p.y - cy) / b
        r2 = min(u1 * u1 + u2 * u2, 1.0 - 1e-15)
        phi = math.atan2(u2, u1) + math.pi
        bins[int(r2 * 10.0), min(int(phi / (2.0 * math.pi) * 10.0), 9)] += 1
    expected = n / 100.0
    stat = float(((bins - expected) ** 2 / expected).sum())
    assert stat < chi2.ppf(1.0 - 0.001, 99)


# ---------------------------------------------------------------- planning


def test_plan_trivial_same_point(threeroom_map):
    problem = GeometricProblem(start=Point2(2.0, 2.0), goal=Point2(2.0, 2.0))
    path, stats = plan(threeroom_map, problem, PlannerConfig(timeout=0.01))
    assert path.waypoints == (Point2(2.0, 2.0),)
    assert path.length == 0.0
    assert stats.solved
    assert stats.samples_created == 0


def test_plan_trivial_within_tolerance(threeroom_map):
    problem = GeometricProblem(start=Point2(2.0, 2.0), goal=Point2(2.05, 2.0))
    path, stats = plan(threeroom_map, problem, PlannerConfig(timeout=0.01))
    assert path.waypoints == (problem.start, problem.goal)
    assert stats.solved
    assert stats.best_cost == path.length


def test_plan_invalid_endpoints(threeroom_map):
    cfg = PlannerConfig(timeout=0.01)
    with pytest.raises(InvalidStart):
        plan(threeroom_map, GeometricProblem(start=Point2(0.05, 2.0),
                                             goal=Point2(2.0, 2.0)), cfg)
    with pytest.raises(InvalidGoal):
        plan(threeroom_map, GeometricProblem(start=Point2(2.0, 2.0),
                                             goal=Point2(50.0, 2.0)), cfg)
    with pytest.raises(EmptyRegion):
        plan(threeroom_map, GeometricProblem(start=Point2(2.0, 2.0),
                                             goal=Point2(3.0, 2.0),
                                             allowed_rooms=frozenset({"zzz"})), cfg)


@pytest.mark.parametrize("algorithm", ["rrt", "rrt_star", "informed_rrt_star"])
def test_plan_solves_empty_room(empty_room_map, algorithm):
    problem = GeometricProblem(start=Point2(1.0, 1.0), goal=Point2(9.0, 9.0))
    cfg = PlannerConfig(algorithm=algorithm, timeout=0.25, seed=4)
    path, stats = plan(empty_room_map, problem, cfg)
    assert stats.solved and path is not None
    assert path.waypoints[0] == problem.start
    assert path.waypoints[-1] == problem.goal
    assert stats.samples_valid + stats.samples_rejected == stats.samples_created
    assert dense_path_clear(empty_room_map.walls.segments, path.waypoints, 0.3)
    assert path.length >= math.sqrt(128.0) - 1e-9
    if algorithm == "informed_rrt_star":
        assert path.length <= 1.05 * math.sqrt(128.0)


def test_plan_deterministic_across_runs(threeroom_map):
    problem = GeometricProblem(start=Point2(2.0, 2.0), goal=Point2(10.0, 2.0))
    cfg = PlannerConfig(timeout=0.05, seed=42)
    path1, stats1 = plan(threeroom_map, problem, cfg)
    path2, stats2 = plan(threeroom_map, problem, cfg)
    assert path1.waypoints == path2.waypoints
    assert stats1 == stats2


def test_plan_seed_changes_tree(threeroom_map):
    problem = GeometricProblem(start=Point2(2.0, 2.0), goal=Point2(10.0, 2.0))
    path1, _ = plan(threeroom_map, problem, PlannerConfig(timeout=0.05, seed=1))
    path2, _ = plan(threeroom_map, problem, PlannerConfig(timeout=0.05, seed=2))
    assert path1.waypoints != path2.waypoints


def test_plan_longer_budget_never_worse(threeroom_map):
    # with the virtual clock a longer run replays the shorter run's iterations
    problem = GeometricProblem(start=Point2(2.0, 2.0), goal=Point2(10.0, 2.0))
    for seed in range(5):
        short, _ = plan(threeroom_map, problem,
                        PlannerConfig(timeout=0.02, seed=seed))
        long, _ = plan(threeroom_map, problem,
                       PlannerConfig(timeout=0.1, seed=seed))
        if short is not None:
            assert long is not None
            assert long.length <= short.length + 1e-12


def test_plan_anytime_cost_monotone(empty_room_map):
    problem = GeometricProblem(start=Point2(1.0, 1.0), goal=Point2(9.0, 9.0))
    seen: list[float] = []

    def hook(iteration, best_cost):
        seen.append(best_cost)

    path, _ = plan(empty_room_map, problem,
                   PlannerConfig(timeout=0.3, seed=5), iteration_hook=hook)
    assert path is not None
    finite = [c for c in seen if math.isfinite(c)]
    assert finite, "no solution was ever recorded"
    assert all(b <= a + 1e-12 for a, b in zip(seen, seen[1:]))


def test_plan_sample_hook_sees_informed_switch(empty_room_map):
    problem = GeometricProblem(start=Point2(1.0, 1.0), goal=Point2(9.0, 9.0))
    phases = []

    def hook(point, c_best):
        phases.append(c_best)

    plan(empty_room_map, problem, PlannerConfig(timeout=0.2, seed=6),
         sample_hook=hook)
    assert phases[0] is None
    informed = [c for c in phases if c is not None]
    assert informed, "informed phase never started"
    # every informed draw quotes the best cost known at that moment
    assert all(c > 0 for c in informed)
    assert all(b <= a + 1e-12 for a, b in zip(informed, informed[1:]))


def test_plan_max_iterations_cap(threeroom_map):
    problem = GeometricProblem(start=Point2(2.0, 2.0), goal=Point2(10.0, 2.0))
    cfg = PlannerConfig(timeout=None, max_iterations=50, seed=3)
    _, stats = plan(threeroom_map, problem, cfg)
    assert stats.iterations == 50


def test_plan_wall_clock_smoke(threeroom_map):
    problem = GeometricProblem(start=Point2(2.0, 2.0), goal=Point2(6.0, 2.0))
    cfg = PlannerConfig(timeout=0.05, clock="wall", seed=1)
    path, stats = plan(threeroom_map, problem, cfg)
    assert stats.planning_time < 3.0
    if path is not None:
        assert dense_path_clear(threeroom_map.walls.segments, path.waypoints, 0.3)


def test_plan_constrained_stays_in_region(threeroom_map):
    problem = GeometricProblem(start=Point2(4.0, 2.0), goal=Point2(8.0, 2.0),
                               allowed_rooms=frozenset({"r2"}),
                               allowed_doorways=frozenset({"d1", "d2"}))
    path, stats = plan(threeroom_map, problem, PlannerConfig(timeout=0.1, seed=7))
    assert stats.solved
    rings = [threeroom_map.contour("r2").ring]
    rects = [threeroom_map.openings["d1"], threeroom_map.openings["d2"]]
    assert path_in_region(path.waypoints, rings, rects)


def test_plan_accounting_invariant_across_configs(grid8_map):
    problem = GeometricProblem(start=Point2(2.0, 3.5), goal=Point2(15.0, 12.0))
    for algorithm in ("rrt", "rrt_star", "informed_rrt_star"):
        for seed in (0, 1):
            cfg = PlannerConfig(algorithm=algorithm, timeout=0.05, seed=seed)
            _, stats = plan(grid8_map, problem, cfg)
            assert stats.samples_valid + stats.samples_rejected == stats.samples_created
            assert stats.planning_time > 0.0


def test_plan_route_constraint_shortens_paths(grid8_map, grid8_scene):
    start, goal = Point2(2.0, 3.5), Point2(15.0, 12.0)
    topo = build_topology(grid8_scene)
    route = semantic_route(topo, grid8_scene, start, goal)
    flat_lengths = []
    routed_lengths = []
    for seed in range(30):
        cfg = PlannerConfig(timeout=0.15, seed=seed)
        flat_path, _ = plan(grid8_map, GeometricProblem(start=start, goal=goal), cfg)
        routed_path, _ = plan(
            grid8_map,
            GeometricProblem(start=start, goal=goal,
                             allowed_rooms=route.free_space,
                             allowed_doorways=frozenset(route.doorways)),
            cfg)
        if flat_path is not None and routed_path is not None:
            flat_lengths.append(flat_path.length)
            routed_lengths.append(routed_path.length)
    assert len(routed_lengths) >= 5
    assert statistics.median(routed_lengths) <= 1.05 * statistics.median(flat_lengths)


def test_path_dict_round_trip():
    path = GeometricPath.from_waypoints((Point2(0.0, 0.0), Point2(1.5, 2.0),
                                         Point2(3.0, 3.5)))
    again = path_from_dict(path_to_dict(path))
    assert again.waypoints == path.waypoints
    assert again.length == path.length
    assert path_to_dict(path)["length_m"] == path.length


# ------------------------------------- rectangle fast path, fused motion check


def _reference_contains(region: _Region, p: Point2) -> bool:
    """Region membership by the exact ring test on every allowed contour."""
    lo, hi = region.bbox
    if not (lo.x <= p.x <= hi.x and lo.y <= p.y <= hi.y):
        return False
    if not region.constrained:
        return True
    return (any(point_in_contour(c, p) for c in region.contours)
            or any(x0 <= p.x <= x1 and y0 <= p.y <= y1
                   for x0, y0, x1, y1 in region.rects))


def _reference_motion_valid(region: _Region, a: Point2, b: Point2) -> bool:
    n = region.motion_points(a, b) - 1
    for k in range(n + 1):
        t = k / n
        p = Point2(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t)
        if not (_reference_contains(region, p)
                and sdf_query(region.gmap.sdf, p) >= region.clearance):
            return False
    return True


def _contour_region(contours, openings=None) -> _Region:
    """A region over bare contours: a map holding only what containment
    reads, with the bbox one metre around the contours."""
    xs = [p.x for c in contours for p in c.ring]
    ys = [p.y for c in contours for p in c.ring]
    bbox = (Point2(min(xs) - 1.0, min(ys) - 1.0), Point2(max(xs) + 1.0, max(ys) + 1.0))
    scene = SceneGraph(frame="map", bbox=bbox, rooms=(), doorways=())
    sdf = SdfGrid(origin=bbox[0], resolution=0.05, nx=2, ny=2, values=np.zeros((2, 2)))
    gmap = GlobalMap(scene=scene, contours=tuple(contours), walls=CarvedWalls(()),
                     sdf=sdf, openings=dict(openings or {}))
    problem = GeometricProblem(start=bbox[0], goal=bbox[0],
                               allowed_rooms=frozenset(c.room_id for c in contours),
                               allowed_doorways=frozenset(openings or ()))
    return _Region(gmap, problem)


_OFFSETS = (st.sampled_from([0.0, 1e-9, -1e-9, 2e-9, -2e-9, 4e-9, -4e-9, 6e-9, -6e-9])
            | st.floats(-1e-8, 1e-8) | st.floats(-2.0, 2.0))


@st.composite
def _near(draw, lo: float, hi: float) -> float:
    """A coordinate on, just beside or away from the interval's ends."""
    anchor = draw(st.sampled_from([lo, hi, (lo + hi) / 2.0]) | st.floats(lo - 1.0, hi + 1.0))
    return anchor + draw(_OFFSETS)


@st.composite
def _rectangle_contours(draw) -> Contour:
    """An axis-aligned rectangle ring at a random scale, starting at any
    corner, either orientation."""
    scale = draw(st.sampled_from([1.0, 1e3, 1e6]))
    x0 = scale * draw(st.floats(-1.0, 1.0))
    y0 = scale * draw(st.floats(-1.0, 1.0))
    x1 = x0 + draw(st.floats(0.05, 20.0))
    y1 = y0 + draw(st.floats(0.05, 20.0))
    ring = [Point2(x0, y0), Point2(x1, y0), Point2(x1, y1), Point2(x0, y1)]
    if draw(st.booleans()):
        ring.reverse()
    k = draw(st.integers(0, 3))
    return Contour(room_id="a", ring=tuple(ring[k:] + ring[:k]))


@settings(max_examples=600, deadline=None)
@given(contour=_rectangle_contours(), data=st.data())
def test_rectangle_containment_equals_ring_test(contour, data):
    region = _contour_region([contour])
    assert len(region.boxes) == 1
    x0, y0, x1, y1 = region.boxes[0]
    p = Point2(data.draw(_near(x0, x1)), data.draw(_near(y0, y1)))
    assert region.contains(p) == point_in_contour(contour, p)


def test_rectangle_containment_boundary_band():
    contour = Contour(room_id="a", ring=(Point2(0.0, 0.0), Point2(2.0, 0.0),
                                         Point2(2.0, 1.0), Point2(0.0, 1.0)))
    region = _contour_region([contour])
    for p, inside in [(Point2(1.0, 0.5), True), (Point2(2.0, 0.5), True),
                      (Point2(2.0 + 5e-10, 1.0), True), (Point2(-5e-10, 0.5), True),
                      (Point2(2.0 + 6e-10, 1.0 + 6e-10), True),
                      (Point2(2.0 + 2e-9, 0.5), False), (Point2(1.0, -1e-8), False),
                      # the 1e-9 tolerance rounds the corners
                      (Point2(2.0 + 8e-10, 1.0 + 8e-10), False)]:
        assert region.contains(p) is inside
        assert point_in_contour(contour, p) is inside


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_non_rectangle_contour_falls_back_to_ring_test(data):
    tri = Contour(room_id="t", ring=(Point2(0.0, 0.0), Point2(4.0, 0.0), Point2(0.0, 3.0)))
    region = _contour_region([tri])
    assert region.boxes == []
    p = Point2(data.draw(_near(0.0, 4.0)), data.draw(_near(0.0, 3.0)))
    assert region.contains(p) == point_in_contour(tri, p)


@st.composite
def _grid8_problems(draw, grid8_map) -> GeometricProblem:
    """Unconstrained, or a random room subset with a random doorway subset."""
    origin = Point2(0.0, 0.0)
    if draw(st.integers(0, 4)) == 0:
        return GeometricProblem(start=origin, goal=origin)
    rooms = sorted(c.room_id for c in grid8_map.contours)
    doors = sorted(grid8_map.openings)
    return GeometricProblem(
        start=origin, goal=origin,
        allowed_rooms=frozenset(draw(st.lists(st.sampled_from(rooms), min_size=1))),
        allowed_doorways=frozenset(draw(st.lists(st.sampled_from(doors)))))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_grid8_containment_equals_ring_test(grid8_map, data):
    region = _Region(grid8_map, data.draw(_grid8_problems(grid8_map)))
    c = data.draw(st.sampled_from(grid8_map.contours))
    (x0, y0), _, (x1, y1), _ = c.ring
    p = Point2(data.draw(_near(x0, x1)), data.draw(_near(y0, y1)))
    assert region.contains(p) == _reference_contains(region, p)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fused_motion_check_equals_pointwise_check(grid8_map, grid8_scene, data):
    region = _Region(grid8_map, data.draw(_grid8_problems(grid8_map)))
    lo, hi = grid8_scene.bbox
    kind = data.draw(st.sampled_from(["doorway", "to_wall", "anywhere"]))
    if kind == "doorway":
        # through a doorway opening, across the wall gap
        x0, y0, x1, y1 = grid8_map.openings[data.draw(st.sampled_from(sorted(grid8_map.openings)))]
        a = Point2(data.draw(st.floats(x0 - 0.5, x1 + 0.5)), data.draw(st.floats(y0 - 0.5, y1 + 0.5)))
        b = Point2(2.0 * (x0 + x1) / 2.0 - a.x, 2.0 * (y0 + y1) / 2.0 - a.y)
    elif kind == "to_wall":
        # from a room's center to an end point about one clearance from its
        # left wall, where the last interpolated point decides
        c = data.draw(st.sampled_from(grid8_map.contours))
        (x0, y0), _, (x1, y1), _ = c.ring
        a = Point2((x0 + x1) / 2.0, (y0 + y1) / 2.0)
        b = Point2(x0 + data.draw(st.floats(CLEARANCE - 0.03, CLEARANCE + 0.03)),
                   data.draw(st.floats(y0 + 0.5, y1 - 0.5)))
    else:
        # anywhere, possibly leaving the bbox
        a = Point2(data.draw(st.floats(lo.x - 0.5, hi.x + 0.5)),
                   data.draw(st.floats(lo.y - 0.5, hi.y + 0.5)))
        b = Point2(a.x + data.draw(st.floats(-2.0, 2.0)), a.y + data.draw(st.floats(-2.0, 2.0)))
    assert region.motion_valid(a, b) == _reference_motion_valid(region, a, b)


def test_fused_motion_check_through_every_doorway(grid8_map, grid8_scene):
    # straight across each doorway, through its gap and beside it, with the
    # opening allowed or not; both outcomes must occur so that the equality
    # is not vacuous
    outcomes = set()
    for d in grid8_scene.doorways:
        x0, y0, x1, y1 = grid8_map.openings[d.id]
        across_x = x1 - x0 < y1 - y0  # the opening is shallow along x
        for rooms, doors in [(d.rooms, {d.id}), (d.rooms, ()), (d.rooms[:1], {d.id})]:
            region = _Region(grid8_map, GeometricProblem(
                start=Point2(0.0, 0.0), goal=Point2(0.0, 0.0),
                allowed_rooms=frozenset(rooms), allowed_doorways=frozenset(doors)))
            for shift in (0.0, d.width):
                if across_x:
                    y = d.center.y + shift
                    a, b = Point2(x0 - 0.4, y), Point2(x1 + 0.4, y)
                else:
                    x = d.center.x + shift
                    a, b = Point2(x, y0 - 0.4), Point2(x, y1 + 0.4)
                got = region.motion_valid(a, b)
                assert got == _reference_motion_valid(region, a, b)
                outcomes.add(got)
    assert outcomes == {True, False}
