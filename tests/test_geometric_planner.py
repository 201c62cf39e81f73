"""Sampling planners: validity, sampling distributions, tree search."""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semnav import (CarvedWalls, Doorway, EmptyRegion, GeometricPath,
                    GeometricProblem, GlobalMap, InvalidGoal, InvalidStart,
                    OutOfBounds, PlannerConfig, Point2, Region, Room, SceneGraph,
                    SdfGrid, build_global_map, build_topology, decompose, load_map,
                    motion_valid, path_to_dict, plan, sample_state, sdf_query,
                    semantic_route, state_valid)
from semnav import map_builder
from semnav.bench_harness import MODE_IRRT_SG_SPS, BenchConfig, run_bench
from semnav.geometric_planner import _cheapest, _informed_axes, _lower_best, _may_rewire
from semnav.geometry import dist
from semnav.rng import make_stream
from semnav.scene_graph import CONTAINMENT_TOL

from conftest import fixture_path, near, rect_room, rectangle_rooms
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
    # a config checks itself when it is made, so an invalid one never exists
    PlannerConfig(timeout=1.0)
    PlannerConfig(timeout=None, max_iterations=100)
    with pytest.raises(ValueError, match="algorithm"):
        PlannerConfig(algorithm="dijkstra", timeout=1.0)
    with pytest.raises(ValueError, match="timeout or max_iterations"):
        PlannerConfig()
    with pytest.raises(ValueError, match="clock"):
        PlannerConfig(timeout=1.0, clock="cpu")
    with pytest.raises(ValueError, match="ops_per_second"):
        PlannerConfig(timeout=1.0, ops_per_second=0.0)


@pytest.mark.parametrize("bad", [0, -5, 2.5, 1.0, True, "3"])
def test_config_rejects_an_iteration_cap_that_is_no_count(bad):
    # -5 ran no iteration and 2.5 ran three; both looked like a valid run.
    # Such a config can no longer be built, so plan() never sees one.
    for timeout in (1.0, None):
        with pytest.raises(ValueError, match="int of at least 1"):
            PlannerConfig(timeout=timeout, max_iterations=bad)
        with pytest.raises(ValueError, match="int of at least 1"):
            replace(PlannerConfig(timeout=1.0), timeout=timeout, max_iterations=bad)


@pytest.mark.parametrize("kwargs", [
    {"timeout": math.inf}, {"timeout": math.nan},
    {"timeout": 1.0, "ops_per_second": math.nan},
    {"timeout": 1.0, "ops_per_second": math.inf},
    {"max_iterations": 10, "timeout": math.inf},
    # finite, but the budget in virtual ticks overflows to inf
    {"timeout": 1e308}, {"timeout": 1e300, "ops_per_second": 1e10},
])
def test_config_rejects_a_budget_that_never_runs_out(kwargs):
    # the budget's limit would never trip, so plan() would not return
    with pytest.raises(ValueError, match="finite"):
        PlannerConfig(**kwargs)
    with pytest.raises(ValueError, match="finite"):
        replace(PlannerConfig(timeout=1.0), **kwargs)


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
    c_min = dist(Point2(0.0, 0.0), Point2(10.0, 0.0))
    a, b = _informed_axes(c_min, 12.0)
    assert a == 6.0
    assert b == pytest.approx(math.sqrt(11.0), abs=1e-12)
    a, b = _informed_axes(c_min, 10.0)
    assert (a, b) == (5.0, 0.0)
    # a hair below the straight-line distance clamps instead of raising
    a, b = _informed_axes(c_min, 10.0 - 1e-12)
    assert (a, b) == (5.0, 0.0)
    with pytest.raises(ValueError):
        _informed_axes(c_min, 9.9)


def test_sample_informed_inside_ellipse(empty_room_map):
    problem = GeometricProblem(start=Point2(2.0, 5.0), goal=Point2(8.0, 5.0))
    region = Region(empty_room_map, problem)
    rng = make_stream(10)
    c_best = 7.0
    total_draws = 0
    for _ in range(2000):
        p, draws = region.sample_informed(c_best, rng)
        total_draws += draws
        assert p is not None
        assert draws >= 1
        assert ellipse_contains(problem.start, problem.goal, c_best, p)
    assert total_draws >= 2000


def test_sample_informed_degenerate_collapses_to_segment(empty_room_map):
    problem = GeometricProblem(start=Point2(2.0, 5.0), goal=Point2(8.0, 5.0))
    region = Region(empty_room_map, problem)
    rng = make_stream(11)
    for _ in range(500):
        p, _ = region.sample_informed(6.0, rng)
        assert p is not None
        assert abs(p.y - 5.0) <= 1e-9
        assert 2.0 - 1e-9 <= p.x <= 8.0 + 1e-9


def test_sample_informed_rejects_outside_region(threeroom_map):
    # ellipse sits wholly inside r1 but only r3 is allowed
    problem = GeometricProblem(start=Point2(1.0, 2.0), goal=Point2(2.0, 2.0),
                               allowed_rooms=frozenset({"r3"}))
    p, draws = Region(threeroom_map, problem).sample_informed(1.5, make_stream(12))
    assert p is None
    assert draws == 64


def test_sample_informed_uniform_chi_square(empty_room_map):
    from scipy.stats import chi2
    problem = GeometricProblem(start=Point2(2.0, 5.0), goal=Point2(8.0, 5.0))
    start, goal = problem.start, problem.goal
    c_best = 8.0
    a, b = _informed_axes(dist(start, goal), c_best)
    cx, cy = 5.0, 5.0
    region = Region(empty_room_map, problem)
    rng = make_stream(13)
    n = 20_000
    bins = np.zeros((10, 10))
    for _ in range(n):
        p, _ = region.sample_informed(c_best, rng)
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
    x0, y0, x1, y1 = threeroom_map.scene.room("r2").bounds
    rings = [[(x0, y0), (x1, y0), (x1, y1), (x0, y1)]]
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
                                         Point2(0.1 + 0.2, 3.5)))
    data = path_to_dict(path)
    assert data == {"waypoints": [[0.0, 0.0], [1.5, 2.0], [0.1 + 0.2, 3.5]],
                    "length_m": path.length}
    # the JSON a plan report holds gives back every float exactly
    assert json.loads(json.dumps(data)) == data


# ------------------------------------------------------------ anytime curve

ANYTIME_CURVES = fixture_path("anytime_curves.json")


def _anytime_curves() -> dict[str, dict]:
    """Fingerprint of every ``iteration_hook(iteration, best_cost)`` call.

    Three seeds of a three-room query on ``threeroom.map`` and two seeds of
    two constrained grid8 subproblems (the first and third room of the
    route from (2, 3.5) to (15, 12)), for each algorithm, 600 iterations.
    The golden CSVs see only each run's end; this pins every step of the
    anytime curve, float for float. Regenerate ``ANYTIME_CURVES`` with
    ``PYTHONPATH=src:tests python -c "import test_geometric_planner as t;
    t._write_anytime_curves()"`` only for a change that means to move it.
    """
    threeroom = build_global_map(load_map(fixture_path("threeroom.map")))
    grid8_scene = load_map(fixture_path("grid8.map"))
    grid8 = build_global_map(grid8_scene)
    route = semantic_route(build_topology(grid8_scene), grid8_scene,
                           Point2(2.0, 3.5), Point2(15.0, 12.0))
    subs = decompose(route, grid8_scene)
    cases = [(f"threeroom/seed{s}", threeroom,
              GeometricProblem(start=Point2(2.0, 2.0), goal=Point2(10.0, 2.0)), s)
             for s in (0, 1, 2)]
    cases += [(f"grid8-{subs[k].room}/seed{s}", grid8, subs[k].to_problem(), s)
              for k in (0, 2) for s in (1, 2)]
    out = {}
    for algorithm in ("rrt", "rrt_star", "informed_rrt_star"):
        for name, gmap, problem, seed in cases:
            lines = []
            cfg = PlannerConfig(algorithm=algorithm, max_iterations=600, seed=seed)
            plan(gmap, problem, cfg,
                 iteration_hook=lambda i, c: lines.append(f"{i} {c.hex()}\n"))
            out[f"{algorithm}/{name}"] = {
                "hook_calls": len(lines), "final": lines[-1].split()[1],
                "sha256": hashlib.sha256("".join(lines).encode()).hexdigest()}
    return out


def _write_anytime_curves() -> None:
    with open(ANYTIME_CURVES, "w") as f:
        json.dump(_anytime_curves(), f, indent=1, sort_keys=True)
        f.write("\n")


def test_anytime_curves_are_pinned():
    with open(ANYTIME_CURVES) as f:
        want = json.load(f)
    assert _anytime_curves() == want


# (nodes added, sha256 of the waypoints' hex coordinates, samples_created,
# samples_valid, samples_rejected, iterations, solved, planning_time,
# best_cost == path length)
_GROWN_TREES = {
    "irrt": (2375, "a2d933a192733bea31fc132637063d5e75ec0bcfc6477c37338e07b02eceb80c",
             3028, 2429, 599, 3000, True, "0x1.1928b6d86ec18p+0", "0x1.1bc989d525689p+4"),
    "sps": (2997, "b27b293d7087ce98f2e9c02cb3d462de4861d5fed47966f79457b10d5194046a",
            3000, 2997, 3, 3000, True, "0x1.1105e1c15097dp-2", "0x1.3b91bf663f043p+2"),
    "origin": (3000, "1512dc832e1ddfe06ed24ac14a3bf89d39977838ac4e0f01b6a6005479a52150",
               3006, 3000, 6, 3000, True, "0x1.b9fe86833c600p-2", "0x1.3cc9845a22d92p+4"),
}


@pytest.mark.parametrize("name", sorted(_GROWN_TREES))
def test_trees_past_the_first_buffer_sizes_are_pinned(grid8_scene, grid8_map, name):
    # The golden CSVs stop at 0.1 s budgets; these runs grow their trees
    # past 2048 nodes, so the neighbour buffers are regrown several times:
    # the flat Informed RRT* query on grid8 from (2, 3.5) to (15, 12), its
    # route's second subproblem (doorway centre to doorway centre), and a
    # room centred on the origin, where a buffer column left at zero would
    # be some sample's nearest node.
    route = semantic_route(build_topology(grid8_scene), grid8_scene,
                           Point2(2.0, 3.5), Point2(15.0, 12.0))
    gmap, problem = grid8_map, GeometricProblem(start=route.start, goal=route.goal)
    if name == "sps":
        problem = decompose(route, grid8_scene)[1].to_problem()
    elif name == "origin":
        gmap = build_global_map(_scene([rect_room("a", -10.0, -10.0, 10.0, 10.0)]))
        problem = GeometricProblem(start=Point2(7.0, 7.0), goal=Point2(-7.0, -7.0))
    added = []
    path, stats = plan(gmap, problem, PlannerConfig(max_iterations=3000, seed=5),
                       iteration_hook=lambda i, c: added.append(i))
    coords = " ".join(c.hex() for p in path.waypoints for c in p)
    got = (len(added), hashlib.sha256(coords.encode()).hexdigest(),
           stats.samples_created, stats.samples_valid, stats.samples_rejected,
           stats.iterations, stats.solved, stats.planning_time.hex(), stats.best_cost.hex())
    assert got == _GROWN_TREES[name]
    assert path.length == stats.best_cost


# ------------------------------------- rectangle fast path, fused motion check


def _reference_contains(region: Region, p: Point2) -> bool:
    """Region membership by ``Room.contains`` on every allowed room."""
    lo, hi = region.bbox
    if not (lo.x <= p.x <= hi.x and lo.y <= p.y <= hi.y):
        return False
    if not region.constrained:
        return True
    return (any(r.contains(p) for r in region.rooms)
            or any(x0 <= p.x <= x1 and y0 <= p.y <= y1
                   for x0, y0, x1, y1 in region.rects))


def _reference_motion_valid(region: Region, a: Point2, b: Point2) -> bool:
    n = max(1, int(math.ceil(dist(a, b) / region.step)))
    for k in range(n + 1):
        t = k / n
        p = Point2(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t)
        if not (_reference_contains(region, p)
                and sdf_query(region.gmap.sdf, p) >= region.clearance):
            return False
    return True


def _contour_region(rooms, openings=None) -> Region:
    """A region over bare rooms: a map holding only what containment
    reads, with the bbox one metre around the rooms."""
    xs = [b for r in rooms for b in (r.bounds[0], r.bounds[2])]
    ys = [b for r in rooms for b in (r.bounds[1], r.bounds[3])]
    bbox = (Point2(min(xs) - 1.0, min(ys) - 1.0), Point2(max(xs) + 1.0, max(ys) + 1.0))
    scene = SceneGraph(frame="map", bbox=bbox, rooms=tuple(rooms), doorways=())
    sdf = SdfGrid(origin=bbox[0], resolution=0.05, nx=2, ny=2, values=np.zeros((2, 2)))
    gmap = GlobalMap(scene=scene, walls=CarvedWalls(()), sdf=sdf,
                     openings=dict(openings or {}))
    problem = GeometricProblem(start=bbox[0], goal=bbox[0],
                               allowed_rooms=frozenset(r.id for r in rooms),
                               allowed_doorways=frozenset(openings or ()))
    return Region(gmap, problem)


@settings(max_examples=600, deadline=None)
@given(room=rectangle_rooms(), data=st.data())
def test_rectangle_containment_equals_room_contains(room, data):
    region = _contour_region([room])
    assert len(region.boxes) == 1
    x0, y0, x1, y1 = region.boxes[0]
    p = Point2(data.draw(near(x0, x1)), data.draw(near(y0, y1)))
    assert region.contains(p) == room.contains(p)


def test_rectangle_containment_boundary_band():
    room = Room(id="a", center=Point2(1.0, 0.5), walls=(), bounds=(0.0, 0.0, 2.0, 1.0))
    region = _contour_region([room])
    for p, inside in [(Point2(1.0, 0.5), True), (Point2(2.0, 0.5), True),
                      (Point2(2.0 + 5e-10, 1.0), True), (Point2(-5e-10, 0.5), True),
                      (Point2(2.0 + 6e-10, 1.0 + 6e-10), True),
                      (Point2(2.0 + 2e-9, 0.5), False), (Point2(1.0, -1e-8), False),
                      # the 1e-9 tolerance rounds the corners
                      (Point2(2.0 + 8e-10, 1.0 + 8e-10), False)]:
        assert region.contains(p) is inside
        assert room.contains(p) is inside


@st.composite
def _problems(draw, gmap) -> GeometricProblem:
    """Unconstrained, or a random subset of the map's rooms with a random
    subset of its doorways."""
    origin = Point2(0.0, 0.0)
    if draw(st.integers(0, 4)) == 0:
        return GeometricProblem(start=origin, goal=origin)
    rooms = sorted(r.id for r in gmap.scene.rooms)
    doors = sorted(gmap.openings)
    return GeometricProblem(
        start=origin, goal=origin,
        allowed_rooms=frozenset(draw(st.lists(st.sampled_from(rooms), min_size=1))),
        allowed_doorways=frozenset(draw(st.lists(st.sampled_from(doors)))))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_grid8_containment_equals_room_contains(grid8_map, data):
    region = Region(grid8_map, data.draw(_problems(grid8_map)))
    c = data.draw(st.sampled_from(grid8_map.scene.rooms))
    x0, y0, x1, y1 = c.bounds
    p = Point2(data.draw(near(x0, x1)), data.draw(near(y0, y1)))
    assert region.contains(p) == _reference_contains(region, p)


@st.composite
def _state_probes(draw, gmap) -> Point2:
    """A point near a room's edges, about one clearance in from a room's
    wall, in or beside a doorway opening, around the bbox, or not finite."""
    kind = draw(st.sampled_from(["room_edge", "clearance", "opening", "bbox",
                                 "non_finite"]))
    lo, hi = gmap.scene.bbox
    if kind == "room_edge":
        x0, y0, x1, y1 = draw(st.sampled_from(gmap.scene.rooms)).bounds
        return Point2(draw(near(x0, x1)), draw(near(y0, y1)))
    if kind == "clearance":
        # where the field value crosses the clearance, or 1e-12 off it
        x0, y0, x1, y1 = draw(st.sampled_from(gmap.scene.rooms)).bounds
        s = CLEARANCE + draw(st.sampled_from([0.0, 1e-12, -1e-12]) | st.floats(-0.03, 0.03))
        x = draw(st.sampled_from([x0 + s, x1 - s]) | st.floats(x0, x1))
        y = draw(st.sampled_from([y0 + s, y1 - s]) | st.floats(y0, y1))
        return Point2(x, y)
    if kind == "opening" and gmap.openings:
        x0, y0, x1, y1 = gmap.openings[draw(st.sampled_from(sorted(gmap.openings)))]
        return Point2(draw(near(x0, x1)), draw(near(y0, y1)))
    if kind == "non_finite":
        bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        ok = draw(st.floats(lo.x, hi.x))
        return draw(st.sampled_from([Point2(bad, ok), Point2(ok, bad), Point2(bad, bad)]))
    return Point2(draw(near(lo.x, hi.x)), draw(near(lo.y, hi.y)))


@pytest.mark.parametrize("name", ["grid8", "ring4", "threeroom"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_state_check_equals_containment_and_field_lookup(fixture_maps, name, data):
    gmap = fixture_maps[name]
    region = Region(gmap, data.draw(_problems(gmap)))
    p = data.draw(_state_probes(gmap))
    assert region.valid(p) is (_reference_contains(region, p)
                               and sdf_query(gmap.sdf, p) >= region.clearance)


def test_state_check_raises_off_the_grid_as_sdf_query_does():
    # the grid covers only (-1, -1)..(-0.95, -0.95), in no room but in the opening
    room = Room(id="a", center=Point2(1.0, 0.5), walls=(), bounds=(0.0, 0.0, 2.0, 1.0))
    region = _contour_region([room], {"d": (-1.0, -1.0, -0.9, -0.9)})
    for p in (Point2(1.0, 0.5), Point2(-0.92, -0.92)):
        with pytest.raises(OutOfBounds):
            sdf_query(region.gmap.sdf, p)
        with pytest.raises(OutOfBounds):
            region.valid(p)
    # on the grid, the field value 0 is below the clearance
    assert region.valid(Point2(-0.98, -0.98)) is False
    # outside every room and opening: rejected before the lookup
    assert region.valid(Point2(-0.5, -0.5)) is False


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fused_motion_check_equals_pointwise_check(grid8_map, grid8_scene, data):
    region = Region(grid8_map, data.draw(_problems(grid8_map)))
    lo, hi = grid8_scene.bbox
    kind = data.draw(st.sampled_from(["doorway", "to_wall", "to_corner", "tight",
                                      "long", "anywhere"]))
    if kind == "doorway":
        # through a doorway opening, across the wall gap
        x0, y0, x1, y1 = grid8_map.openings[data.draw(st.sampled_from(sorted(grid8_map.openings)))]
        a = Point2(data.draw(st.floats(x0 - 0.5, x1 + 0.5)), data.draw(st.floats(y0 - 0.5, y1 + 0.5)))
        b = Point2(2.0 * (x0 + x1) / 2.0 - a.x, 2.0 * (y0 + y1) / 2.0 - a.y)
    elif kind == "to_wall":
        # from a room's center to an end point about one clearance from its
        # left wall, where the last interpolated point decides
        c = data.draw(st.sampled_from(grid8_map.scene.rooms))
        x0, y0, x1, y1 = c.bounds
        a = Point2((x0 + x1) / 2.0, (y0 + y1) / 2.0)
        b = Point2(x0 + data.draw(st.floats(CLEARANCE - 0.03, CLEARANCE + 0.03)),
                   data.draw(st.floats(y0 + 0.5, y1 - 0.5)))
    elif kind == "to_corner":
        # along a room's diagonal toward a corner, where the bilinear field
        # falls at up to sqrt(2) per metre, to about one clearance from
        # both walls
        c = data.draw(st.sampled_from(grid8_map.scene.rooms))
        x0, y0, x1, y1 = c.bounds
        sx, sy = data.draw(st.sampled_from([1.0, -1.0])), data.draw(st.sampled_from([1.0, -1.0]))
        cx, cy = (x0, x1)[sx < 0], (y0, y1)[sy < 0]
        s = data.draw(st.floats(CLEARANCE - 0.03, CLEARANCE + 0.03))
        length = data.draw(st.floats(0.05, 1.0))
        skew = data.draw(st.sampled_from([0.0, 0.0]) | st.floats(-0.02, 0.02))
        b = Point2(cx + sx * s, cy + sy * s)
        a = Point2(b.x + sx * length, b.y + sy * length * (1.0 + skew))
    elif kind == "tight":
        # a long stride from the far side of a room, then a last point whose
        # field value is the clearance, or 1e-12 off it
        c = data.draw(st.sampled_from(grid8_map.scene.rooms))
        x0, y0, x1, y1 = c.bounds
        y = data.draw(st.floats(y0 + 1.0, y1 - 1.0))
        a = Point2(x1 - data.draw(st.floats(0.5, 1.5)), data.draw(st.floats(y0 + 1.0, y1 - 1.0)))
        b = Point2(x0 + CLEARANCE + data.draw(st.sampled_from([-1e-12, 0.0, 1e-12])), y)
    elif kind == "long":
        # between two points of one room, often far apart
        c = data.draw(st.sampled_from(grid8_map.scene.rooms))
        x0, y0, x1, y1 = c.bounds
        a, b = (Point2(data.draw(st.floats(x0, x1)), data.draw(st.floats(y0, y1)))
                for _ in range(2))
    else:
        # anywhere, possibly leaving the bbox
        a = Point2(data.draw(st.floats(lo.x - 0.5, hi.x + 0.5)),
                   data.draw(st.floats(lo.y - 0.5, hi.y + 0.5)))
        b = Point2(a.x + data.draw(st.floats(-2.0, 2.0)), a.y + data.draw(st.floats(-2.0, 2.0)))
    assert region.motion_valid(a, b) == _reference_motion_valid(region, a, b)


def test_stride_toward_every_room_corner(grid8_map):
    # Along a room's diagonal the bilinear field falls at up to sqrt(2) per
    # metre inside cells that straddle the diagonal; edges end around the
    # point where it crosses the clearance, so a stride too long for that
    # slope skips a last point that fails.
    region = Region(grid8_map, GeometricProblem(start=Point2(0.0, 0.0),
                                                 goal=Point2(0.0, 0.0)))
    outcomes = set()
    for c in grid8_map.scene.rooms:
        x0, y0, x1, y1 = c.bounds
        for cx, cy, sx, sy in ((x0, y0, 1, 1), (x1, y0, -1, 1),
                               (x1, y1, -1, -1), (x0, y1, 1, -1)):
            for k in range(41):
                s = CLEARANCE - 0.02 + k * 0.001
                b = Point2(cx + sx * s, cy + sy * s)
                for length in (0.35, 0.4, 0.45):
                    a = Point2(b.x + sx * length, b.y + sy * length)
                    got = region.motion_valid(a, b)
                    assert got == _reference_motion_valid(region, a, b)
                    outcomes.add(got)
    assert outcomes == {True, False}


def test_fused_motion_check_through_every_doorway(grid8_map, grid8_scene):
    # straight across each doorway, through its gap and beside it, with the
    # opening allowed or not; both outcomes must occur so that the equality
    # is not vacuous
    outcomes = set()
    for d in grid8_scene.doorways:
        x0, y0, x1, y1 = grid8_map.openings[d.id]
        across_x = x1 - x0 < y1 - y0  # the opening is shallow along x
        for rooms, doors in [(d.rooms, {d.id}), (d.rooms, ()), (d.rooms[:1], {d.id})]:
            region = Region(grid8_map, GeometricProblem(
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


# ------------------------------------------------------- motion stride


def test_stride_needs_a_band_bound_and_a_fine_grid(grid8_scene, grid8_map):
    problem = GeometricProblem(start=Point2(0.0, 0.0), goal=Point2(0.0, 0.0))
    assert Region(grid8_map, problem).stride
    assert Region(build_global_map(grid8_scene, resolution=0.1), problem).stride
    # 0.05 + sqrt(2) * 0.2 > 0.32: a cell next to the wall band can hold
    # values above the clearance
    assert not Region(build_global_map(grid8_scene, resolution=0.2), problem).stride
    # a grid without a recorded band bound
    sdf = SdfGrid(origin=grid8_map.sdf.origin, resolution=grid8_map.sdf.resolution,
                  nx=grid8_map.sdf.nx, ny=grid8_map.sdf.ny, values=grid8_map.sdf.values)
    bare = GlobalMap(scene=grid8_map.scene, walls=grid8_map.walls, sdf=sdf,
                     openings=grid8_map.openings)
    assert not Region(bare, problem).stride


@pytest.fixture(scope="module")
def grid8_coarse_map(grid8_scene):
    return build_global_map(grid8_scene, resolution=0.2)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_coarse_grid_motion_check_equals_pointwise_check(grid8_coarse_map,
                                                         grid8_scene, data):
    region = Region(grid8_coarse_map, data.draw(_problems(grid8_coarse_map)))
    assert not region.stride
    c = data.draw(st.sampled_from(grid8_coarse_map.scene.rooms))
    x0, y0, x1, y1 = c.bounds
    a, b = (Point2(data.draw(st.floats(x0 - 0.5, x1 + 0.5)),
                   data.draw(st.floats(y0 - 0.5, y1 + 0.5))) for _ in range(2))
    assert region.motion_valid(a, b) == _reference_motion_valid(region, a, b)


@pytest.fixture(scope="module")
def wide_door_map():
    """Two rooms joined by a 2 m doorway, in a bbox 3 m wider than the
    walls: a stride could carry a check out of a room's box into the other
    room, or out of the bbox, through free space."""
    rooms = (rect_room("a", 0.0, 0.0, 4.0, 4.0), rect_room("b", 4.0, 0.0, 8.0, 4.0))
    door = Doorway(id="d", center=Point2(4.0, 2.0), width=2.0, rooms=("a", "b"))
    scene = SceneGraph(frame="map", bbox=(Point2(-3.0, -3.0), Point2(11.0, 7.0)),
                       rooms=rooms, doorways=(door,))
    return build_global_map(scene)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_stride_stays_inside_room_boxes_and_bbox(wide_door_map, data):
    rooms, doors = data.draw(st.sampled_from([
        (None, None), (frozenset({"a"}), frozenset()),
        (frozenset({"a"}), frozenset({"d"})), (frozenset({"a", "b"}), frozenset())]))
    region = Region(wide_door_map, GeometricProblem(
        start=Point2(0.0, 0.0), goal=Point2(0.0, 0.0),
        allowed_rooms=rooms, allowed_doorways=doors))
    # a constrained walk skips only by its certified boxes
    assert region.stride == (rooms is None)
    if data.draw(st.booleans()):
        # across the doorway, ending on either side of room a's box edge
        a = Point2(data.draw(st.floats(2.0, 3.8)), data.draw(st.floats(1.4, 2.6)))
        b = Point2(4.0 + data.draw(st.sampled_from([-1e-9, 0.0, 1e-9, 0.01, 0.1, 0.16, 0.5])),
                   data.draw(st.floats(1.4, 2.6)))
    else:
        # outward through free space, ending on either side of the bbox edge
        a = Point2(data.draw(st.floats(-2.5, -1.0)), data.draw(st.floats(-2.0, 6.0)))
        b = Point2(-3.0 + data.draw(st.sampled_from([-1e-9, 0.0, 1e-9, 0.01, 0.1])),
                   a.y + data.draw(st.floats(-0.5, 0.5)))
    if data.draw(st.booleans()):
        a, b = b, a
    assert region.motion_valid(a, b) == _reference_motion_valid(region, a, b)


def test_stride_outcomes_on_the_wide_door_map(wide_door_map):
    # both answers occur where a stride reaches a box or bbox edge
    free = Region(wide_door_map, GeometricProblem(start=Point2(0.0, 0.0),
                                                   goal=Point2(0.0, 0.0)))
    room_a = Region(wide_door_map, GeometricProblem(
        start=Point2(0.0, 0.0), goal=Point2(0.0, 0.0),
        allowed_rooms=frozenset({"a"}), allowed_doorways=frozenset()))
    assert free.motion_valid(Point2(-1.5, 2.0), Point2(-3.0, 2.0))
    assert not free.motion_valid(Point2(-1.5, 2.0), Point2(-3.0 - 1e-9, 2.0))
    assert room_a.motion_valid(Point2(3.0, 2.0), Point2(4.0 - 1e-9, 2.0))
    assert not room_a.motion_valid(Point2(3.0, 2.0), Point2(4.0 + 0.01, 2.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_motion_valid_rejects_non_finite_endpoints(threeroom_map, bad):
    problem = GeometricProblem(start=Point2(1.0, 1.0), goal=Point2(3.0, 3.0))
    good = Point2(2.0, 2.0)
    for p in (Point2(bad, 2.0), Point2(2.0, bad)):
        assert not state_valid(threeroom_map, problem, p)
        assert motion_valid(threeroom_map, problem, good, p) is False
        assert motion_valid(threeroom_map, problem, p, good) is False
    # the same on a region, constrained or not
    for allowed in (None, frozenset({"r1"})):
        region = Region(threeroom_map, replace(problem, allowed_rooms=allowed))
        for p in (Point2(bad, 2.0), Point2(2.0, bad), Point2(bad, bad)):
            assert region.valid(p) is False
            assert region.motion_valid(good, p) is False
            assert region.motion_valid(p, good) is False
            assert region.motion_valid(p, p) is False
        # finite endpoints whose length overflows
        assert region.motion_valid(Point2(-1e308, 2.0), Point2(1e308, 2.0)) is False


# ------------------------------------------------- certified motion checks


def _box_point(draw, box, region, out: bool) -> Point2:
    """A point of the closed ``box`` (its corners and edges included), or
    with ``out`` one just outside it: one ulp up to two cells past an edge."""
    x0, y0, x1, y1 = box
    p = Point2(draw(st.sampled_from([x0, x1]) | st.floats(x0, x1)),
               draw(st.sampled_from([y0, y1]) | st.floats(y0, y1)))
    if not out:
        return p
    res = region.gmap.sdf.resolution
    side = draw(st.integers(0, 3))
    edge = box[side]
    away = -math.inf if side < 2 else math.inf
    step = draw(st.sampled_from([0.0, 1e-12, 1e-9, region.stride_eps,
                                 res / 2.0, res, 2.0 * res]))
    moved = math.nextafter(edge, away) + math.copysign(step, away)
    return Point2(moved, p.y) if side % 2 == 0 else Point2(p.x, moved)


@st.composite
def _certified_segments(draw, region):
    """(a, b, kind): a segment with both endpoints in one certified box
    (its corners and edges included), across the box's edge, with an
    endpoint just outside it (one ulp up to two cells), or with a
    non-finite endpoint."""
    box = draw(st.sampled_from(region.certified))
    x0, y0, x1, y1 = box
    kind = draw(st.sampled_from(["inside", "across", "outside", "non_finite"]))
    a = _box_point(draw, box, region, False)
    if kind == "inside":
        b = _box_point(draw, box, region, False)
    elif kind == "across":
        b = Point2(draw(st.floats(x0 - 1.0, x1 + 1.0)), draw(st.floats(y0 - 1.0, y1 + 1.0)))
    elif kind == "outside":
        a = draw(st.sampled_from([a, _box_point(draw, box, region, True)]))
        b = _box_point(draw, box, region, True)
    else:
        bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        b = draw(st.sampled_from([Point2(bad, a.y), Point2(a.x, bad), Point2(bad, bad)]))
    if draw(st.booleans()):
        a, b = b, a
    return a, b, kind


# The doorway openings whose box certified_box cuts a clear core from at
# the default clearance: all of them. ring4's d12 and d41 and threeroom's d1
# have node windows whose long sides hold more False nodes than the short
# sides have nodes; the cut by share that follows a failed cut keeps them.
_CERTIFIED_OPENINGS = {
    "grid8": frozenset({"d12", "d15", "d23", "d26", "d34", "d37", "d48", "d56",
                        "d67", "d78"}),
    "ring4": frozenset({"d12", "d23", "d34", "d41"}),
    "threeroom": frozenset({"d1", "d2"}),
}


def _expected_box_count(gmap, name, problem) -> int:
    """Rooms, certified openings, and a corridor per certified opening and
    allowed room of its doorway (each opening straddles its rooms' wall)."""
    if problem.allowed_rooms is None:
        return len(gmap.scene.rooms)
    rooms = {r.id for r in gmap.scene.rooms} & problem.allowed_rooms
    doors = _CERTIFIED_OPENINGS[name] & (problem.allowed_doorways or frozenset())
    return len(rooms) + len(doors) + sum(len(rooms & set(gmap.scene.doorway(d).rooms))
                                         for d in doors)


@pytest.mark.parametrize("name", ["grid8", "ring4", "threeroom"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_certified_motion_check_equals_pointwise_check(fixture_maps, name, data):
    gmap = fixture_maps[name]
    problem = data.draw(_problems(gmap))
    region = Region(gmap, problem)
    # every room of the fixtures has a clear core, and so do the openings
    # of _CERTIFIED_OPENINGS, which then get a box each, and a corridor box
    # per allowed room of their doorway
    assert len(region.certified) == _expected_box_count(gmap, name, problem)
    a, b, kind = data.draw(_certified_segments(region))
    got = region.motion_valid(a, b)
    if kind == "non_finite":
        assert got is False
        # the certificate itself never accepts a non-finite endpoint
        assert region._motion_valid(a, b, 1, 1.0) is False
        return
    assert got == _reference_motion_valid(region, a, b)
    if kind == "inside":
        assert got is True


@pytest.mark.parametrize("name", ["grid8", "ring4", "threeroom"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_certified_state_check_equals_full_lookup(fixture_maps, name, data):
    gmap = fixture_maps[name]
    problem = data.draw(_problems(gmap))
    region = Region(gmap, problem)
    assert region.certified
    # a region that never read its boxes looks every point up in the field
    full = Region(gmap, problem)
    a, b, kind = data.draw(_certified_segments(region))
    for p in (a, b):
        assert region.valid(p) is full.valid(p)
    if kind == "inside":
        assert region.valid(a) is region.valid(b) is True
    assert full._held == ()


def test_every_grid8_subproblem_certifies_its_doorway_centres(grid8_scene, grid8_map):
    # Every subproblem of every route between two grid8 rooms starts or
    # ends at a doorway centre; its opening's certified box holds the
    # centre and every point within goal_tolerance of it, so the goal
    # connections and the short edges at a centre need no point checks.
    topo = build_topology(grid8_scene)
    rooms = grid8_scene.rooms
    seen = 0
    for a in rooms:
        for b in rooms:
            if a is b:
                continue
            route = semantic_route(topo, grid8_scene, a.center, b.center)
            for sub in decompose(route, grid8_scene):
                problem = sub.to_problem()
                region = Region(grid8_map, problem)
                tol = problem.goal_tolerance
                # the room, each opening, and a corridor per opening
                assert len(region.certified) == 1 + 2 * len(region.rects)
                for d in problem.allowed_doorways:
                    cx, cy = grid8_scene.doorway(d).center
                    assert any(x0 <= cx - tol and cx + tol <= x1
                               and y0 <= cy - tol and cy + tol <= y1
                               for x0, y0, x1, y1 in region.certified[1:])
                    assert region.valid(Point2(cx, cy))
                    seen += 1
    assert seen > 100


@st.composite
def _doorway_problems(draw, gmap) -> GeometricProblem:
    """A doorway's opening with one or both of its rooms, and perhaps more
    rooms and doorways: its region has room, opening and corridor boxes."""
    d = draw(st.sampled_from(gmap.scene.doorways))
    rooms = draw(st.sampled_from([d.rooms, d.rooms[:1], d.rooms[1:]]))
    more_rooms = draw(st.lists(st.sampled_from([r.id for r in gmap.scene.rooms])))
    more_doors = draw(st.lists(st.sampled_from(sorted(gmap.openings))))
    origin = Point2(0.0, 0.0)
    return GeometricProblem(start=origin, goal=origin,
                            allowed_rooms=frozenset(rooms) | frozenset(more_rooms),
                            allowed_doorways=frozenset({d.id}) | frozenset(more_doors))


@pytest.mark.parametrize("name", ["grid8", "ring4", "threeroom"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_walk_between_two_certified_boxes_equals_pointwise_check(fixture_maps, name, data):
    # The walk skips the points that the boxes holding its endpoints prove:
    # endpoints in two different boxes (room, opening, corridor), on their
    # edges, or one ulp up to two cells outside them.
    gmap = fixture_maps[name]
    region = Region(gmap, data.draw(_doorway_problems(gmap)))
    boxes = region.certified
    i = data.draw(st.integers(0, len(boxes) - 1))
    j = data.draw(st.integers(0, len(boxes) - 2))
    j += j >= i
    a = _box_point(data.draw, boxes[i], region, data.draw(st.booleans()))
    b = _box_point(data.draw, boxes[j], region, data.draw(st.booleans()))
    assert region.motion_valid(a, b) == _reference_motion_valid(region, a, b)


def _node_mask(grid, rooms, openings) -> np.ndarray:
    """The nodes ``_same_field`` compares: the node windows of the rooms'
    boxes grown by the containment band, and of the openings."""
    mask = np.zeros(grid.values.shape, dtype=bool)
    grown = []
    for x0, y0, x1, y1 in rooms:
        g = CONTAINMENT_TOL + 16 * math.ulp(max(abs(x0), abs(y0), abs(x1), abs(y1)))
        grown.append((x0 - g, y0 - g, x1 + g, y1 + g))
    for box in grown + list(openings):
        i0, i1, j0, j1 = map_builder._node_window(grid, box)
        mask[j0:j1 + 2, i0:i1 + 2] = True
    return mask


def test_grid8_corridor_boxes_join_their_opening_and_room(grid8_scene, grid8_map):
    # Each corridor box overlaps its opening's box and its room's box, so a
    # walk from a doorway centre into the room is proven by two boxes; and
    # every certified box reads only nodes of the room's and openings'
    # windows, which is all that _same_field compares.
    topo = build_topology(grid8_scene)
    grid = grid8_map.sdf
    seen = 0
    for a in grid8_scene.rooms:
        for b in grid8_scene.rooms:
            if a is b:
                continue
            route = semantic_route(topo, grid8_scene, a.center, b.center)
            for sub in decompose(route, grid8_scene):
                region = Region(grid8_map, sub.to_problem())
                k = len(region.rects)
                room, openings, corridors = (region.certified[0], region.certified[1:1 + k],
                                             region.certified[1 + k:])
                assert len(corridors) == k
                for corridor, opening in zip(corridors, openings):
                    for other in (room, opening):
                        assert (max(corridor[0], other[0]) < min(corridor[2], other[2])
                                and max(corridor[1], other[1]) < min(corridor[3], other[3]))
                    seen += 1
                mask = _node_mask(grid, [r.bounds for r in region.rooms], region.rects)
                for box in region.certified:
                    i0, i1, j0, j1 = map_builder._node_window(grid, box)
                    assert mask[j0:j1 + 2, i0:i1 + 2].all()
    assert seen > 100


def test_certified_walks_evaluate_fewer_points(monkeypatch):
    # A counting guard, not a timing test: over 10 grid8 irrt_sg_sps
    # queries (seed 1) the walks and their field lookups are counted. Before
    # the corridor boxes and the skip, 4574 walks ran and all evaluated
    # points, 21907 of them (with the stride). With both and no stride in a
    # constrained region, 3851 walks run, 2673 evaluate a point and 13366
    # points are evaluated; without the skip (``_reach`` finding no box)
    # all 3851 walks evaluate 75404 points. A skip by the first box holding
    # an endpoint, not the one reaching farthest, evaluates points in 3270
    # walks. Every count is deterministic.
    reads = [0]

    class Counting:
        def __init__(self, values):
            self.values = values

        def __getitem__(self, m):
            reads[0] += 1
            return self.values[m]

    flat_values = SdfGrid.flat_values
    monkeypatch.setattr(SdfGrid, "flat_values",
                        property(lambda grid: Counting(flat_values.fget(grid))))
    walks = []
    walk = Region._walk

    def counted(self, a, b, n, length):
        before = reads[0]
        out = walk(self, a, b, n, length)
        walks.append((reads[0] - before) // 4)
        return out

    monkeypatch.setattr(Region, "_walk", counted)
    config = BenchConfig(map_path=fixture_path("grid8.map"), modes=(MODE_IRRT_SG_SPS,),
                         n_queries=10, seed=1)
    records = run_bench(config, workers=1)
    assert all(r.solved for r in records)
    assert len(walks) < 4200
    assert sum(1 for points in walks if points) < 3000
    assert sum(walks) < 14000


def test_state_checks_alone_build_no_certified_boxes(grid8_scene, monkeypatch):
    cut = []
    certify = SdfGrid.certified_box
    monkeypatch.setattr(SdfGrid, "certified_box",
                        lambda *args: cut.append(args) or certify(*args))
    gmap = build_global_map(grid8_scene)
    problem = GeometricProblem(start=Point2(-5.0, 1.0), goal=Point2(1.0, 1.0))
    region = Region(gmap, problem)
    assert region.valid(Point2(1.0, 1.0)) and not region.valid(Point2(-5.0, 1.0))
    assert gmap._certified == {} and cut == []
    # plan builds them before its first state check, even one that fails
    with pytest.raises(InvalidStart):
        plan(gmap, problem, PlannerConfig(max_iterations=1))
    assert list(gmap._certified) == [(None, CLEARANCE, ())]


def _one_room_map(values: np.ndarray, resolution: float, origin: Point2) -> GlobalMap:
    """A 4 m room in a bbox of its own size over a hand-built field."""
    room = rect_room("a", 0.0, 0.0, 4.0, 4.0)
    scene = SceneGraph(frame="map", bbox=(Point2(0.0, 0.0), Point2(4.0, 4.0)),
                       rooms=(room,), doorways=())
    ny, nx = values.shape
    sdf = SdfGrid(origin=origin, resolution=resolution, nx=nx, ny=ny, values=values)
    return GlobalMap(scene=scene, walls=CarvedWalls(()), sdf=sdf, openings={})


def _cells_of(grid: SdfGrid, box) -> tuple[range, range]:
    """The columns and rows of the cells ``sdf_query`` reads in ``box``."""
    x0, y0, x1, y1 = box
    ox, oy, res = grid.origin.x, grid.origin.y, grid.resolution
    return (range(int((x0 - ox) / res), min(int((x1 - ox) / res), grid.nx - 2) + 1),
            range(int((y0 - oy) / res), min(int((y1 - oy) / res), grid.ny - 2) + 1))


@pytest.mark.parametrize("node", [(11, 13), (10, 10), (3, 17)])
def test_certified_box_excludes_the_cells_of_a_low_node(node):
    # A field clear everywhere but at one node inside the room, which
    # stands in for an interior wall: no point of a certified box may read
    # a cell with that node as a corner, whatever the room's box says.
    origin, res = Point2(-0.5, -0.5), 0.25
    values = np.full((21, 21), 1.0)
    i, j = node
    values[j, i] = -0.1
    gmap = _one_room_map(values, res, origin)
    for allowed in (None, frozenset({"a"})):
        region = Region(gmap, GeometricProblem(start=Point2(1.0, 1.0), goal=Point2(1.0, 1.0),
                                               allowed_rooms=allowed))
        (box,) = region.certified
        cols, rows = _cells_of(gmap.sdf, box)
        assert not ({i - 1, i} & set(cols) and {j - 1, j} & set(rows))
        # the cut keeps the larger side of the low node
        x0, y0, x1, y1 = box
        assert (x1 - x0) * (y1 - y0) > 0.4 * 16.0
        # every cell the box reads has four nodes above the threshold
        assert (values[rows.start:rows.stop + 1, cols.start:cols.stop + 1]
                >= region.clearance + region.stride_eps).all()
        xn, yn = origin.x + i * res, origin.y + j * res
        for a, b in [(Point2(x0, y0), Point2(x1, y1)), (Point2(x1, y0), Point2(x0, y1)),
                     (Point2(0.1, yn), Point2(3.9, yn)), (Point2(xn, 0.1), Point2(xn, 3.9)),
                     (Point2((x0 + x1) / 2.0, (y0 + y1) / 2.0), Point2(xn, yn))]:
            assert region.motion_valid(a, b) == _reference_motion_valid(region, a, b)
        assert not region.motion_valid(Point2(0.1, yn), Point2(3.9, yn))


def test_certified_box_needs_clear_finite_nodes_on_the_grid():
    res = 0.25
    clear = np.full((21, 21), 1.0)
    problem = GeometricProblem(start=Point2(1.0, 1.0), goal=Point2(1.0, 1.0))
    # no node passes the clearance
    assert Region(_one_room_map(np.full((21, 21), 0.3), res, Point2(-0.5, -0.5)),
                  problem).certified == ()
    # a node of inf would weigh 0 * inf = nan into the lookup: cut out too
    values = clear.copy()
    values[10, 10] = math.inf
    gmap = _one_room_map(values, res, Point2(-0.5, -0.5))
    (box,) = Region(gmap, problem).certified
    cols, rows = _cells_of(gmap.sdf, box)
    assert not ({9, 10} & set(cols) and {9, 10} & set(rows))
    # a grid that does not cover the room certifies nothing
    assert Region(_one_room_map(clear, res, Point2(0.5, 0.5)), problem).certified == ()
    # a threshold below zero certifies nothing either: the lookup's
    # rounding is relative to the node values, not to the threshold
    for radius in (-0.5, math.nan):
        gmap = _one_room_map(clear, res, Point2(-0.5, -0.5))
        assert Region(gmap, replace(problem, robot_radius=radius)).certified == ()
        assert gmap._certified == {}


def test_certified_boxes_are_built_once_per_map_and_clearance(grid8_map, monkeypatch):
    free = GeometricProblem(start=Point2(1.0, 1.0), goal=Point2(2.0, 2.0))
    boxes = Region(grid8_map, free).certified
    assert len(boxes) == len(grid8_map.scene.rooms)
    assert Region(grid8_map, replace(free, start=Point2(3.0, 3.0))).certified is boxes
    # regions of other rooms cut the same per-room boxes from the field
    one = replace(free, allowed_rooms=frozenset({"r1"}))
    two = replace(free, allowed_rooms=frozenset({"r2", "r1"}))
    assert Region(grid8_map, one).certified == boxes[:1]
    assert Region(grid8_map, two).certified == boxes[:2]
    # another clearance is another threshold
    assert Region(grid8_map, replace(free, robot_radius=0.2)).certified != boxes
    # on a cache hit, reading a region's boxes builds and certifies nothing
    calls = []
    build, certify = Region._build_certified, SdfGrid.certified_box
    monkeypatch.setattr(Region, "_build_certified",
                        lambda self: calls.append("build") or build(self))
    monkeypatch.setattr(SdfGrid, "certified_box",
                        lambda self, *args: calls.append("box") or certify(self, *args))
    assert Region(grid8_map, replace(free, start=Point2(5.0, 5.0))).certified is boxes
    assert Region(grid8_map, two).certified == boxes[:2]
    assert calls == []
    # a clearance no region has read yet builds its boxes once, then hits
    fresh = replace(free, robot_radius=0.2345)
    Region(grid8_map, fresh).certified
    assert calls == ["build"] + ["box"] * len(grid8_map.scene.rooms)
    calls.clear()
    Region(grid8_map, fresh).certified
    assert calls == []


# ------------------------------------------------------ rewire pre-filter


@settings(max_examples=400, deadline=None)
@given(parent_cost=st.sampled_from([0.0, 1e-3]) | st.floats(0.0, 200.0),
       dx=st.floats(-1.0, 1.0), dy=st.floats(-1.0, 1.0), ulps=st.integers(0, 4),
       above=st.sampled_from([0.0]) | st.floats(0.0, 200.0))
# near ties that the filter drops without its slack
@example(parent_cost=1e-3, dx=-0.6000516061432382, dy=-0.22152293442073967, ulps=0, above=0.0)
@example(parent_cost=1.7931314920328574, dx=-0.7911515543169694, dy=0.3319150565573652,
         ulps=0, above=0.0)
@example(parent_cost=15.95621715412302, dx=-0.09830994571453666, dy=0.047790879733956126,
         ulps=0, above=0.0)
def test_rewire_filter_admits_every_near_tie(parent_cost, dx, dy, ulps, above):
    # the smallest costs the exact rewire test admits, and a few ulps above:
    # the filter, which sums np.sqrt of the squares instead of math.hypot,
    # must admit them too, for every bound on the tree's costs (the
    # neighbour's own cost, above=0, gives the smallest slack)
    new_pt, other = Point2(5.0, 5.0), Point2(5.0 - dx, 5.0 - dy)
    via = parent_cost + dist(new_pt, other)
    cost = via + 1e-12
    while not via < cost - 1e-12:
        cost = math.nextafter(cost, math.inf)
    for _ in range(ulps):
        cost = math.nextafter(cost, math.inf)
    d = np.sqrt(np.array([(other.x - new_pt.x) ** 2 + (other.y - new_pt.y) ** 2]))
    assert _may_rewire(parent_cost, d, np.array([cost]), cost + above)[0]


def test_rewire_filter_drops_plain_non_improvements():
    cost = np.array([1.0, 2.0, 3.0, 2.5])
    d = np.array([0.5, 0.5, 0.5, 0.5])
    # 1.5 + 0.5 against 1.0, 2.0 (a tie), 3.0 and 2.5
    assert _may_rewire(1.5, d, cost, 3.0).tolist() == [False, False, True, True]


# ------------------------------------------------ candidate parents, solutions


def _reference_candidates(via, parent_cost, filtered):
    """The candidate-parent order that ``_cheapest`` keeps: a stable
    argsort of the costs through each neighbour (over all of them, or over
    those below ``parent_cost`` in a filtered neighbourhood), cut at the
    first cost at or above ``parent_cost``."""
    if filtered:
        better = np.flatnonzero(via < parent_cost)
        order = better[np.argsort(via[better], kind="stable")]
    else:
        order = np.argsort(via, kind="stable")
    out = []
    for k, c in zip(order.tolist(), via[order].tolist()):
        if c >= parent_cost:
            break
        out.append((k, c))
    return out


# costs on a coarse grid tie exactly and often; free floats rarely do
_VIA = st.lists(st.integers(0, 8).map(lambda t: t * 0.25) | st.floats(0.0, 2.0),
                max_size=40)


@settings(max_examples=400, deadline=None)
@given(via=_VIA, parent_cost=st.integers(0, 9).map(lambda t: t * 0.25) | st.floats(0.0, 2.5))
@example(via=[], parent_cost=1.0)
@example(via=[0.5, 0.75, 0.5], parent_cost=0.5)
@example(via=[0.5, 0.25, 0.5, 0.25, 0.25], parent_cost=0.75)
def test_cheapest_first_visits_in_stable_argsort_order(via, parent_cost):
    via = np.array(via, dtype=float)
    want = _reference_candidates(via, parent_cost, filtered=False)
    assert want == _reference_candidates(via, parent_cost, filtered=True)
    # plan calls _cheapest until it accepts a candidate; accept none
    left = via.copy()
    got = []
    while (cand := _cheapest(left, parent_cost)) is not None:
        got.append(cand)
    assert got == want


def _best_solution(solutions: list[tuple[int, float]], cost: list[float]):
    """Reference for ``_lower_best``: ``(cost to goal, node)`` of the
    cheapest ``(node, goal distance)`` by a rescan of every solution, the
    earliest on a tie."""
    total = math.inf
    node = -1
    for i, dg in solutions:
        c = cost[i] + dg
        if c < total:
            total = c
            node = i
    return total, node


def test_best_solution_keeps_the_earlier_of_equal_totals():
    cost = [0.0, 1.0, 0.5, 0.75]
    # nodes 1, 2 and 3 each total exactly 1.25
    assert _best_solution([(1, 0.25), (2, 0.75), (3, 0.5)], cost) == (1.25, 1)
    assert _best_solution([(2, 0.75), (1, 0.25), (3, 0.5)], cost) == (1.25, 2)
    # a strictly cheaper later solution still wins
    assert _best_solution([(1, 0.25), (3, 0.25)], cost) == (1.0, 3)
    assert _best_solution([], cost) == (math.inf, -1)


def test_lower_best_keeps_the_earlier_of_equal_totals():
    cost = [0.0, 1.0, 0.5, 0.75]
    goal_dist = {1: 0.25, 2: 0.75, 3: 0.5}
    # nodes 1, 2 and 3 each total exactly 1.25, noted out of node order
    assert _lower_best([3, 1, 2], goal_dist, cost, math.inf, -1) == (1.25, 1)
    # a node reaching the best total later does not take over
    assert _lower_best([1], goal_dist, cost, 1.25, 2) == (1.25, 2)
    # a strictly cheaper later solution still wins
    assert _lower_best([3, 1], {1: 0.25, 3: 0.25}, cost, math.inf, -1) == (1.0, 3)
    assert _lower_best([], goal_dist, cost, 2.0, 1) == (2.0, 1)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40), st.none() | st.integers(0, 4),
                          st.lists(st.tuples(st.integers(0, 20), st.integers(1, 8)),
                                   max_size=4)),
                max_size=20))
# a joining solution and a rewired earlier one reach the same new best
@example([(8, 0, []), (4, 0, [(0, 4)])])
def test_lower_best_follows_a_rescan_of_every_solution(steps):
    # each step adds a node (a solution when it has a goal distance) and
    # lowers some costs; on a 0.25 grid, so equal totals are common
    cost: list[float] = []
    goal_dist: dict[int, float] = {}
    solutions: list[tuple[int, float]] = []
    want = got = (math.inf, -1)
    for new_cost, dg, drops in steps:
        noted = []
        cost.append(0.25 * new_cost)
        if dg is not None:
            goal_dist[len(cost) - 1] = 0.25 * dg
            solutions.append((len(cost) - 1, 0.25 * dg))
            noted.append(len(cost) - 1)
        for i, drop in drops:
            if i < len(cost):
                cost[i] -= 0.25 * drop
                if i in goal_dist:
                    noted.append(i)
        total, node = _best_solution(solutions, cost)
        if total < want[0]:
            want = (total, node)
        got = _lower_best(noted, goal_dist, cost, *got)
        assert got == want


# ------------------------------------------------------------- sampling


def _reference_sample_state(gmap, problem, rng, goal_bias=0.0):
    """sample_state as it was before its room table moved into Region."""
    if goal_bias > 0.0 and rng.random() < goal_bias:
        return problem.goal
    if problem.allowed_rooms is None:
        lo, hi = gmap.scene.bbox
        return Point2(rng.uniform(lo.x, hi.x), rng.uniform(lo.y, hi.y))
    rooms = [r for r in gmap.scene.rooms if r.id in problem.allowed_rooms]
    areas = [(x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in (r.bounds for r in rooms)]
    pick = rng.uniform(0.0, sum(areas))
    acc = 0.0
    chosen = rooms[-1]
    for r, a in zip(rooms, areas):
        acc += a
        if pick <= acc:
            chosen = r
            break
    x0, y0, x1, y1 = chosen.bounds
    for _ in range(64):
        p = Point2(rng.uniform(x0, x1), rng.uniform(y0, y1))
        if chosen.contains(p):
            return p
    return Point2((x0 + x1) / 2.0, (y0 + y1) / 2.0)


@pytest.fixture(scope="module")
def fixture_maps(grid8_map, ring4_map, threeroom_map):
    return {"grid8": grid8_map, "ring4": ring4_map, "threeroom": threeroom_map}


@pytest.mark.parametrize("name", ["grid8", "ring4", "threeroom"])
@settings(max_examples=100, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1),
       goal_bias=st.sampled_from([0.0, 0.05, 0.5]))
def test_region_sampling_draws_what_sample_state_drew(fixture_maps, name, data,
                                                       seed, goal_bias):
    gmap = fixture_maps[name]
    problem = data.draw(_problems(gmap))
    region = Region(gmap, problem)
    ours, theirs = make_stream(seed), make_stream(seed)
    for _ in range(20):
        assert region.sample(ours, goal_bias) == \
            _reference_sample_state(gmap, problem, theirs, goal_bias)
        assert sample_state(gmap, problem, ours, goal_bias) == \
            _reference_sample_state(gmap, problem, theirs, goal_bias)
    assert ours.random() == theirs.random()
