"""Route decomposition, in-order solving, joining and replanning."""

from __future__ import annotations

import copy
import gc
import json
import math
import pickle
import tracemalloc
from dataclasses import replace

import pytest

from semnav import (INFORMED_RRT_STAR, BenchConfig, EmptyInput, GeometricPath,
                    NoRoute, PlannerConfig, PlannerStats, Point2, Room, SceneGraph,
                    Doorway, SemNavError, SubproblemInfeasible, UnknownId,
                    build_global_map, build_topology, decompose,
                    generate_pairs, global_path_to_dict,
                    join_segments, load_map, motion_valid, replan,
                    semantic_route, solve_all)
from semnav import (SdfGrid, WallSegment, cli, map_builder, set_doorway_blocked,
                    subproblem_solver)
from semnav.bench_harness import _PLAN_SALT
from semnav.geometric_planner import GeometricProblem, Region, plan
from semnav.rng import mix

from conftest import fixture_path, rect_room
from oracles import dense_path_clear


def _route(scene, start, goal, p_d=1.0):
    return semantic_route(build_topology(scene, p_d=p_d), scene, start, goal)


# --------------------------------------------------------------- decompose


def test_decompose_three_rooms(threeroom_scene):
    route = _route(threeroom_scene, Point2(1.0, 1.0), Point2(11.0, 3.0))
    subs = decompose(route, threeroom_scene)
    assert len(subs) == len(route.doorways) + 1 == 3
    assert [s.index for s in subs] == [1, 2, 3]
    assert subs[0].start == Point2(1.0, 1.0)
    assert subs[0].goal == Point2(4.0, 2.0)
    assert (subs[0].room, subs[0].entry, subs[0].exit) == ("r1", None, "d1")
    assert subs[1].start == Point2(4.0, 2.0)
    assert subs[1].goal == Point2(8.0, 2.0)
    assert (subs[1].room, subs[1].entry, subs[1].exit) == ("r2", "d1", "d2")
    assert subs[2].goal == Point2(11.0, 3.0)
    assert (subs[2].room, subs[2].entry, subs[2].exit) == ("r3", "d2", None)
    # consecutive subproblems share their joint waypoint exactly
    assert subs[0].goal == subs[1].start
    assert subs[1].goal == subs[2].start


def test_decompose_same_room(threeroom_scene):
    route = _route(threeroom_scene, Point2(1.0, 1.0), Point2(3.0, 3.0))
    subs = decompose(route, threeroom_scene)
    assert len(subs) == 1
    assert (subs[0].entry, subs[0].exit) == (None, None)
    assert subs[0].room == "r1"


def test_to_problem_fields(threeroom_scene):
    route = _route(threeroom_scene, Point2(1.0, 1.0), Point2(11.0, 3.0))
    sub = decompose(route, threeroom_scene)[1]
    problem = sub.to_problem(goal_tolerance=0.2, robot_radius=0.25,
                             validity_margin=0.01)
    assert problem.allowed_rooms == frozenset({"r2"})
    assert problem.allowed_doorways == frozenset({"d1", "d2"})
    assert problem.goal_tolerance == 0.2
    assert problem.robot_radius == 0.25
    assert problem.validity_margin == 0.01
    first = decompose(route, threeroom_scene)[0].to_problem()
    assert first.allowed_doorways == frozenset({"d1"})


# ---------------------------------------------------------------- solving


def test_solve_all_joins_exactly(threeroom_map, threeroom_scene):
    route = _route(threeroom_scene, Point2(2.0, 2.0), Point2(10.0, 2.0))
    subs = decompose(route, threeroom_scene)
    cfg = PlannerConfig(timeout=0.15, seed=3)
    gpath, stats = solve_all(subs, threeroom_map, cfg)
    assert gpath is not None
    assert len(gpath.segments) == 3
    assert len(stats) == 3
    assert all(st.solved for st in stats)
    assert gpath.stats == tuple(stats)
    for a, b in zip(gpath.segments, gpath.segments[1:]):
        assert a.waypoints[-1] == b.waypoints[0]
    assert gpath.total_length == sum(s.length for s in gpath.segments)
    # every subproblem gets an equal share of the budget
    for st in stats:
        assert st.planning_time <= 0.15 / 3 + 0.01
    # the joined path holds up under dense collision re-checking
    waypoints = [w for seg in gpath.segments for w in seg.waypoints]
    assert dense_path_clear(threeroom_map.walls.segments, waypoints, 0.3)


def test_solve_all_deterministic_across_workers(threeroom_map, threeroom_scene):
    route = _route(threeroom_scene, Point2(2.0, 2.0), Point2(10.0, 2.0))
    subs = decompose(route, threeroom_scene)
    cfg = PlannerConfig(timeout=0.09, seed=8)
    runs = [solve_all(subs, threeroom_map, cfg, workers=w) for w in (1, 2, 4)]
    first_path, first_stats = runs[0]
    for path, stats in runs[1:]:
        assert path.total_length == first_path.total_length
        assert [s.waypoints for s in path.segments] == [s.waypoints
                                                        for s in first_path.segments]
        assert stats == first_stats


def test_solve_all_seed_changes_result(threeroom_map, threeroom_scene):
    route = _route(threeroom_scene, Point2(2.0, 2.0), Point2(10.0, 2.0))
    subs = decompose(route, threeroom_scene)
    p1, _ = solve_all(subs, threeroom_map, PlannerConfig(timeout=0.06, seed=0))
    p2, _ = solve_all(subs, threeroom_map, PlannerConfig(timeout=0.06, seed=1))
    assert p1 is not None and p2 is not None
    assert p1.total_length != p2.total_length


def test_solve_all_unsolved_returns_none(threeroom_map, threeroom_scene):
    route = _route(threeroom_scene, Point2(2.0, 2.0), Point2(10.0, 2.0))
    subs = decompose(route, threeroom_scene)
    gpath, stats = solve_all(subs, threeroom_map, PlannerConfig(timeout=1e-6, seed=0))
    assert gpath is None
    assert len(stats) == 3
    assert not any(st.solved for st in stats)


def test_solve_all_empty_input(threeroom_map):
    with pytest.raises(EmptyInput):
        solve_all([], threeroom_map, PlannerConfig(timeout=0.01))


def test_solve_all_narrow_doorway_infeasible():
    # doorway of width 0.4 cannot pass a robot of diameter 0.64
    rooms = [rect_room("r1", 0.0, 0.0, 2.0, 2.0), rect_room("r2", 2.0, 0.0, 4.0, 2.0)]
    d = Doorway(id="d", center=Point2(2.0, 1.0), width=0.4, rooms=("r1", "r2"))
    scene = SceneGraph(frame="map", bbox=(Point2(0.0, 0.0), Point2(4.0, 2.0)),
                       rooms=tuple(rooms), doorways=(d,))
    gmap = build_global_map(scene)
    route = _route(scene, Point2(1.0, 1.0), Point2(3.0, 1.0))
    subs = decompose(route, scene)
    with pytest.raises(SubproblemInfeasible) as exc_info:
        solve_all(subs, gmap, PlannerConfig(timeout=0.02, seed=0))
    assert exc_info.value.index == 1


def test_solve_all_redistribute_flips_unsolved(threeroom_map, threeroom_scene):
    # starting exactly on the first doorway center makes subproblem 1 trivial,
    # so its unused budget can be redistributed to the hard middle room
    route = _route(threeroom_scene, Point2(4.0, 2.0), Point2(10.0, 2.0))
    subs = decompose(route, threeroom_scene)
    cfg = PlannerConfig(timeout=0.006, seed=2)
    base, base_stats = solve_all(subs, threeroom_map, cfg, workers=1)
    redo, redo_stats = solve_all(subs, threeroom_map, cfg, workers=1,
                                 redistribute=True)
    assert base is None
    assert redo is not None
    # the retried subproblems accumulated both passes
    retried = [i for i, st in enumerate(base_stats) if not st.solved]
    assert retried
    for i in retried:
        assert redo_stats[i].planning_time > base_stats[i].planning_time
        assert redo_stats[i].samples_created >= base_stats[i].samples_created
    # redistribution is still deterministic
    again, again_stats = solve_all(subs, threeroom_map, cfg, workers=1,
                                   redistribute=True)
    assert again.total_length == redo.total_length
    assert again_stats == redo_stats


@pytest.mark.parametrize("timeout", [0.0005, 0.001, 0.002])
@pytest.mark.parametrize("seed", range(6))
def test_solve_all_redistribute_spends_no_more_than_its_timeout(
        threeroom_map, threeroom_scene, monkeypatch, timeout, seed):
    # the first subproblem starts within the goal tolerance and returns at
    # once, so the first pass leaves budget over and every case retries;
    # each run may overshoot its own budget by its last iteration
    runs = []
    plan = subproblem_solver.plan

    def recorded(gmap, problem, config):
        path, st = plan(gmap, problem, config)
        runs.append((config.timeout, st.planning_time))
        return path, st

    monkeypatch.setattr(subproblem_solver, "plan", recorded)
    route = _route(threeroom_scene, Point2(3.95, 2.0), Point2(11.0, 3.3))
    subs = decompose(route, threeroom_scene)
    cfg = PlannerConfig(timeout=timeout, seed=seed)
    _, stats = solve_all(subs, threeroom_map, cfg, redistribute=True)
    first, retries = runs[:len(subs)], runs[len(subs):]
    assert retries
    # the retries share what the first pass left, and nothing more
    left = timeout - sum(t for _, t in first)
    assert sum(sub for sub, _ in retries) == pytest.approx(left, rel=1e-12)
    overshoot = sum(max(0.0, t - sub) for sub, t in runs)
    assert sum(st.planning_time for st in stats) <= timeout + overshoot + 1e-15


def test_a_timeout_too_small_to_share_names_the_callers_timeout(
        threeroom_map, threeroom_scene, ring4_scene, ring4_map, monkeypatch):
    # 5e-324 / 3 underflows to 0.0: the error names the caller's timeout,
    # not the share, and comes before any planning
    cfg = PlannerConfig(timeout=5e-324, seed=1)
    subs = decompose(_route(threeroom_scene, Point2(2.0, 2.0), Point2(10.0, 2.0)),
                     threeroom_scene)
    route, gpath = _solved_ring4(ring4_scene, ring4_map)
    calls = []
    monkeypatch.setattr(subproblem_solver, "plan", lambda *a: calls.append(a))
    message = r"^timeout 5e-324 is too small to share among 3 subproblems$"
    with pytest.raises(ValueError, match=message):
        solve_all(subs, threeroom_map, cfg)
    with pytest.raises(ValueError, match=message):
        replan(ring4_scene, route, gpath, "d12", Point2(2.0, 2.0), cfg)
    assert calls == []


# ----------------------------------------------------------------- joining


def test_join_segments_validates():
    a = GeometricPath.from_waypoints((Point2(0.0, 0.0), Point2(1.0, 0.0)))
    b = GeometricPath.from_waypoints((Point2(1.0, 0.0), Point2(2.0, 0.0)))
    c = GeometricPath.from_waypoints((Point2(5.0, 5.0), Point2(6.0, 5.0)))
    joined = join_segments([a, b])
    assert joined.total_length == 2.0
    assert joined.stats == ()
    with pytest.raises(ValueError, match="joints"):
        join_segments([a, c])
    with pytest.raises(EmptyInput):
        join_segments([])
    stats = [PlannerStats(solved=True), PlannerStats(solved=True)]
    assert join_segments([a, b], stats).stats == tuple(stats)


def test_global_path_dict_round_trip(threeroom_map, threeroom_scene):
    route = _route(threeroom_scene, Point2(2.0, 2.0), Point2(10.0, 2.0))
    subs = decompose(route, threeroom_scene)
    gpath, _ = solve_all(subs, threeroom_map, PlannerConfig(timeout=0.09, seed=1))
    data = global_path_to_dict(gpath)
    assert data["total_length_m"] == gpath.total_length
    assert [[tuple(p) for p in s["waypoints"]] for s in data["segments"]] == \
        [list(s.waypoints) for s in gpath.segments]
    assert [PlannerStats(**s) for s in data["stats"]] == list(gpath.stats)
    # the JSON a plan report holds gives back every float exactly
    assert json.loads(json.dumps(data)) == data


def test_single_room_solution_near_straight_line():
    scene = SceneGraph(frame="map", bbox=(Point2(0.0, 0.0), Point2(10.0, 10.0)),
                       rooms=(rect_room("a", 0.0, 0.0, 10.0, 10.0),), doorways=())
    gmap = build_global_map(scene)
    route = _route(scene, Point2(1.0, 1.0), Point2(9.0, 9.0))
    subs = decompose(route, scene)
    assert len(subs) == 1
    gpath, stats = solve_all(subs, gmap, PlannerConfig(timeout=0.6, seed=12))
    assert gpath is not None
    assert gpath.total_length <= 1.05 * math.sqrt(128.0)
    assert stats[0].samples_valid + stats[0].samples_rejected == stats[0].samples_created


# -------------------------------------------------------------- replanning


def _solved_ring4(ring4_scene, ring4_map, goal=Point2(6.0, 6.0), seed=4):
    route = _route(ring4_scene, Point2(2.0, 2.0), goal)
    subs = decompose(route, ring4_scene)
    gpath, _ = solve_all(subs, ring4_map, PlannerConfig(timeout=0.3, seed=seed))
    assert gpath is not None
    return route, gpath


@pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_a_planned_map_and_its_path_survive_a_copy(ring4_scene, clone):
    gmap = build_global_map(ring4_scene)
    _, gpath = _solved_ring4(ring4_scene, gmap)
    # planning filled the map's caches and read its field
    assert gpath.gmap is gmap and gmap._certified
    for got in (clone(gmap), clone(gpath).gmap):
        assert got is not gmap
        assert got.sdf.values.tobytes() == gmap.sdf.values.tobytes()
        assert got.sdf.flat_values == gmap.sdf.flat_values
        assert got._certified == gmap._certified
        # and it plans as the original does
        _, again = _solved_ring4(ring4_scene, got)
        assert again == gpath


def test_replan_block_ahead_reroutes(ring4_scene, ring4_map):
    route, gpath = _solved_ring4(ring4_scene, ring4_map)
    assert route.doorways == ("d12", "d23")
    outcome = replan(ring4_scene, route, gpath, "d12", Point2(2.0, 2.0),
                     PlannerConfig(timeout=0.3, seed=9))
    assert "d12" not in outcome.route.doorways
    assert outcome.route.doorways == ("d41", "d34")
    assert outcome.scene.doorway("d12").blocked
    assert outcome.path is not None
    # the old segments ran through other rooms, so nothing could be reused
    assert outcome.reused_indices == ()
    assert outcome.solved_indices == (1, 2, 3)
    assert len(outcome.stats) == 3


def test_replan_block_off_route_reuses_everything(ring4_scene, ring4_map):
    route, gpath = _solved_ring4(ring4_scene, ring4_map, goal=Point2(6.0, 2.0))
    assert route.doorways == ("d12",)
    outcome = replan(ring4_scene, route, gpath, "d34", Point2(2.0, 2.0),
                     PlannerConfig(timeout=0.3, seed=9))
    assert outcome.route.doorways == ("d12",)
    assert outcome.reused_indices == (1, 2)
    assert outcome.solved_indices == ()
    assert outcome.path is not None
    assert outcome.path.total_length == gpath.total_length


def test_replan_partial_reuse_on_invalidated_segment(ring4_scene, ring4_map):
    # hand-build the previous path: segment 2 detours under d23's wall gap,
    # which only stays collision-free while that gap is open
    route = _route(ring4_scene, Point2(2.0, 2.0), Point2(6.0, 2.0))
    seg1 = GeometricPath.from_waypoints((Point2(2.0, 2.0), Point2(4.0, 2.0)))
    seg2 = GeometricPath.from_waypoints((Point2(4.0, 2.0), Point2(6.0, 3.75),
                                         Point2(6.0, 2.0)))
    problem2 = GeometricProblem(start=seg2.waypoints[0], goal=seg2.waypoints[-1],
                                allowed_rooms=frozenset({"r2"}),
                                allowed_doorways=frozenset({"d12"}))
    for a, b in zip(seg2.waypoints, seg2.waypoints[1:]):
        assert motion_valid(ring4_map, problem2, a, b)
    prev = join_segments([seg1, seg2])

    outcome = replan(ring4_scene, route, prev, "d23", Point2(2.0, 2.0),
                     PlannerConfig(timeout=0.3, seed=11))
    assert outcome.route.doorways == ("d12",)
    assert outcome.reused_indices == (1,)
    assert outcome.solved_indices == (2,)
    assert outcome.path is not None
    assert outcome.path.segments[0].waypoints == seg1.waypoints
    assert outcome.path.segments[1].waypoints != seg2.waypoints


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_replan_re_plans_a_segment_with_a_non_finite_waypoint(ring4_scene, ring4_map, bad):
    # a previous segment 2 whose middle waypoint is not finite is no longer
    # valid: it is planned afresh instead of crashing the reuse check
    route = _route(ring4_scene, Point2(2.0, 2.0), Point2(6.0, 2.0))
    seg1 = GeometricPath.from_waypoints((Point2(2.0, 2.0), Point2(4.0, 2.0)))
    seg2 = GeometricPath(waypoints=(Point2(4.0, 2.0), Point2(5.0, bad), Point2(6.0, 2.0)),
                         length=4.0)
    prev = join_segments([seg1, seg2])
    outcome = replan(ring4_scene, route, prev, "d23", Point2(2.0, 2.0),
                     PlannerConfig(timeout=0.3, seed=11))
    assert outcome.reused_indices == (1,)
    assert outcome.solved_indices == (2,)
    assert outcome.path is not None
    assert all(math.isfinite(c) for s in outcome.path.segments
               for p in s.waypoints for c in p)


def test_replan_reuses_no_segment_that_runs_between_other_points(ring4_scene, ring4_map):
    # the path of another query over the same doorways: its segments 2 and 3
    # run between the points of route A's, its segment 1 starts elsewhere
    start = Point2(1.2, 1.2)
    route_a = _route(ring4_scene, start, Point2(6.0, 6.0))
    route_b, path_b = _solved_ring4(ring4_scene, ring4_map)
    assert route_a.doorways == route_b.doorways == ("d12", "d23")
    assert path_b.segments[0].waypoints[0] == Point2(2.0, 2.0)
    outcome = replan(ring4_scene, route_a, path_b, "d34", start,
                     PlannerConfig(timeout=0.3, seed=9))
    assert outcome.reused_indices == (2, 3)
    assert outcome.solved_indices == (1,)
    assert outcome.path.segments[0].waypoints[0] == start
    assert outcome.path.segments[1:] == path_b.segments[1:]


@pytest.mark.parametrize("bad", [-5, 2.5])
def test_solve_all_and_replan_reject_an_iteration_cap_that_is_no_count(bad):
    # the per-subproblem split turned -5 into 1 and 2.5 into 2.0; now the
    # config fails where it is built, so solve_all and replan never get one
    with pytest.raises(ValueError, match="max_iterations"):
        PlannerConfig(timeout=0.3, max_iterations=bad)
    with pytest.raises(ValueError, match="max_iterations"):
        replace(PlannerConfig(timeout=0.3), max_iterations=bad)


def test_replan_start_without_clearance_is_infeasible(ring4_scene, ring4_map):
    # the robot stands 0.2 m from d12's wall gap; closing the gap leaves the
    # replan's first subproblem a start closer to the wall than the robot radius
    route, gpath = _solved_ring4(ring4_scene, ring4_map, goal=Point2(6.0, 2.0))
    with pytest.raises(SubproblemInfeasible) as exc_info:
        replan(ring4_scene, route, gpath, "d12", Point2(3.8, 2.0),
               PlannerConfig(timeout=0.3, seed=9))
    assert exc_info.value.index == 1


def test_replan_disconnection_raises(threeroom_scene, threeroom_map):
    route = _route(threeroom_scene, Point2(2.0, 2.0), Point2(10.0, 2.0))
    subs = decompose(route, threeroom_scene)
    gpath, _ = solve_all(subs, threeroom_map, PlannerConfig(timeout=0.2, seed=5))
    with pytest.raises(NoRoute):
        replan(threeroom_scene, route, gpath, "d1", Point2(2.0, 2.0),
               PlannerConfig(timeout=0.2, seed=5))


def test_replan_deterministic(ring4_scene, ring4_map):
    route, gpath = _solved_ring4(ring4_scene, ring4_map)
    kwargs = dict(penalty=1.0, workers=2)
    o1 = replan(ring4_scene, route, gpath, "d12", Point2(2.0, 2.0),
                PlannerConfig(timeout=0.2, seed=13), **kwargs)
    o2 = replan(ring4_scene, route, gpath, "d12", Point2(2.0, 2.0),
                PlannerConfig(timeout=0.2, seed=13), **kwargs)
    assert o1.route == o2.route
    assert o1.solved_indices == o2.solved_indices
    assert o1.reused_indices == o2.reused_indices
    assert (o1.path is None) == (o2.path is None)
    if o1.path is not None:
        assert o1.path.total_length == o2.path.total_length
        assert [s.waypoints for s in o1.path.segments] == \
            [s.waypoints for s in o2.path.segments]
    assert o1.stats == o2.stats


# ------------------------------------------- the map a path was planned on


@pytest.fixture
def full_builds(monkeypatch):
    """Every full distance-field build, recorded."""
    calls = []
    build = map_builder.build_sdf

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(map_builder, "build_sdf", counted)
    return calls


@pytest.fixture
def derivations(monkeypatch):
    """The map each derivation of a blocked map starts from, recorded."""
    calls = []
    derive = map_builder._derive_global_map

    def counted(old, scene):
        calls.append(old)
        return derive(old, scene)

    monkeypatch.setattr(map_builder, "_derive_global_map", counted)
    return calls


@pytest.fixture
def fresh_ring4_map(ring4_scene):
    """A ring4 map no other test has replanned on: the session map's
    blocked maps may already be kept, so counts on it would read 0."""
    return build_global_map(ring4_scene)


def _assert_full_build_map(gmap):
    full = build_global_map(gmap.scene)
    assert gmap.sdf.values.tobytes() == full.sdf.values.tobytes()
    assert gmap.sdf.flat_values == full.sdf.flat_values
    assert (gmap.walls, gmap.openings) == (full.walls, full.openings)


def test_solve_all_and_replan_keep_the_map_they_planned_on(ring4_scene, ring4_map):
    route, gpath = _solved_ring4(ring4_scene, ring4_map)
    assert gpath.gmap is ring4_map
    outcome = replan(ring4_scene, route, gpath, "d12", Point2(2.0, 2.0),
                     PlannerConfig(timeout=0.3, seed=9))
    assert outcome.path.gmap is outcome.gmap
    assert outcome.gmap.scene is outcome.scene


def test_replan_derives_its_map_from_the_path_map(ring4_scene, fresh_ring4_map,
                                                  full_builds, derivations):
    route, gpath = _solved_ring4(ring4_scene, fresh_ring4_map)
    full_builds.clear()
    config = PlannerConfig(timeout=0.3, seed=9)
    first = replan(ring4_scene, route, gpath, "d12", Point2(2.0, 2.0), config)
    # a chain: the second replan derives from the first one's map
    second = replan(first.scene, first.route, first.path, "d23", Point2(2.0, 2.0),
                    config)
    assert full_builds == []
    assert derivations == [fresh_ring4_map, first.gmap]
    _assert_full_build_map(first.gmap)
    _assert_full_build_map(second.gmap)
    # each map keeps the blocked map derived from it
    assert fresh_ring4_map._blocked == {"d12": first.gmap}
    assert first.gmap._blocked == {"d23": second.gmap}


def test_replanning_the_same_block_again_reuses_its_map(ring4_scene, fresh_ring4_map,
                                                        full_builds, derivations):
    route, gpath = _solved_ring4(ring4_scene, fresh_ring4_map)
    full_builds.clear()
    config = PlannerConfig(timeout=0.3, seed=9)
    first = replan(ring4_scene, route, gpath, "d12", Point2(2.0, 2.0), config)
    second = replan(ring4_scene, route, gpath, "d12", Point2(2.0, 2.0), config)
    assert second.gmap is first.gmap
    assert second.gmap.scene is second.scene
    assert second.path.gmap is second.gmap
    assert len(derivations) == 1 and full_builds == []
    # the kept map's caches come along: planning on it filled them
    assert second.gmap._certified
    # a hit answers as a derivation does
    assert second.path == first.path and second.route == first.route
    assert (second.solved_indices, second.reused_indices, second.stats) == \
        (first.solved_indices, first.reused_indices, first.stats)


def test_replan_of_an_already_blocked_doorway(ring4_scene, fresh_ring4_map, full_builds):
    route, gpath = _solved_ring4(ring4_scene, fresh_ring4_map)
    config = PlannerConfig(timeout=0.3, seed=9)
    first = replan(ring4_scene, route, gpath, "d12", Point2(2.0, 2.0), config)
    full_builds.clear()
    again = replan(first.scene, first.route, first.path, "d12", Point2(2.0, 2.0), config)
    assert full_builds == []
    # the first replan's map already blocks d12: it is the map, and no
    # copy of it is kept on it
    assert again.gmap is first.gmap and again.scene is first.gmap.scene
    assert first.gmap._blocked == {}
    _assert_full_build_map(again.gmap)
    # the route stays as it was, and so does every segment
    assert again.route == first.route
    assert again.reused_indices == tuple(range(1, len(first.path.segments) + 1))
    assert again.path == first.path


def test_replan_on_another_scene_never_takes_the_kept_map(ring4_scene, fresh_ring4_map,
                                                          full_builds):
    route, gpath = _solved_ring4(ring4_scene, fresh_ring4_map)
    kept = map_builder.build_blocked_map(fresh_ring4_map, "d12")
    # the caller's world has d23 closed as well: the path's map is not of it
    other = set_doorway_blocked(ring4_scene, "d23", True)
    full_builds.clear()
    outcome = replan(other, route, gpath, "d12", Point2(2.0, 2.0),
                     PlannerConfig(timeout=0.3, seed=9))
    assert len(full_builds) == 1
    assert outcome.gmap is not kept
    assert outcome.scene == set_doorway_blocked(other, "d12", True)
    assert outcome.gmap.scene is outcome.scene
    _assert_full_build_map(outcome.gmap)
    assert outcome.gmap.walls != kept.walls
    assert fresh_ring4_map._blocked == {"d12": kept}


def test_replan_of_an_unknown_doorway_keeps_nothing(ring4_scene, fresh_ring4_map):
    route, gpath = _solved_ring4(ring4_scene, fresh_ring4_map)
    with pytest.raises(UnknownId):
        replan(ring4_scene, route, gpath, "d99", Point2(2.0, 2.0),
               PlannerConfig(timeout=0.3, seed=9))
    assert fresh_ring4_map._blocked == {}


def test_replans_keep_no_new_grid_alive_in_a_second_round(planned):
    # one round of replans over every grid8 doorway keeps one blocked map
    # per doorway on the world map, and what it planned on the path; a
    # second round reuses the maps, keeps no more than the first and
    # answers every subproblem it re-plans from the path
    scene = load_map(fixture_path("grid8.map"))
    gmap = build_global_map(scene)
    route = _route(scene, Point2(2.0, 3.0), Point2(15.0, 11.0))
    config = PlannerConfig(timeout=0.1, seed=3)
    gpath, _ = solve_all(decompose(route, scene), gmap, config)
    assert gpath is not None

    def one_round():
        for d in scene.doorways:
            try:
                replan(scene, route, gpath, d.id, route.start, config)
            except SemNavError:
                pass
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    grid = gmap.sdf.values.nbytes
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        first = one_round()
        planned_first = len(planned)
        second = one_round()
    finally:
        tracemalloc.stop()
    assert len(gmap._blocked) == len(scene.doorways)
    assert first - before >= len(scene.doorways) * grid
    assert second - first < grid / 2
    assert planned_first and gpath._replans
    assert len(planned) == planned_first


# ---------------------------- subproblems shared by replans from one path


@pytest.fixture
def planned(monkeypatch):
    """The map of every ``plan`` call the solver makes, recorded."""
    calls = []
    plan = subproblem_solver.plan

    def counted(gmap, problem, config):
        calls.append(gmap)
        return plan(gmap, problem, config)

    monkeypatch.setattr(subproblem_solver, "plan", counted)
    return calls


def _bits(gpath):
    """A joined path's segments bit for bit, or None."""
    if gpath is None:
        return None
    return [tuple(c.hex() for p in s.waypoints for c in p) + (s.length.hex(),)
            for s in gpath.segments]


def _replanned(outcome):
    """What a replan planned: each subproblem that reused no segment."""
    return [i for i in range(1, len(outcome.stats) + 1) if i not in outcome.reused_indices]


def _result(scene, route, gpath, doorway, config):
    """A replan's outcome as comparable values, or the type of its error."""
    try:
        out = replan(scene, route, gpath, doorway, route.start, config)
    except SemNavError as exc:
        return type(exc), 0
    return ((_bits(out.path), out.stats, out.solved_indices, out.reused_indices),
            len(_replanned(out)))


SIBLING_QUERIES = {
    "grid8": [(Point2(2.0, 3.0), Point2(15.0, 11.0)), (Point2(15.0, 3.0), Point2(2.0, 11.0))],
    "ring4": [(Point2(2.0, 2.0), Point2(6.0, 6.0)), (Point2(6.0, 2.0), Point2(2.0, 6.0))],
    "threeroom": [(Point2(2.0, 2.0), Point2(10.0, 2.0)), (Point2(5.0, 1.0), Point2(7.0, 3.0))],
}


@pytest.mark.parametrize("name", sorted(SIBLING_QUERIES))
def test_sibling_replans_equal_replans_without_the_cache(name, planned):
    # for every ordered pair (a, b) of doorways: the replan blocking b from
    # a path that has already replanned around a equals the replan blocking
    # b from a copy of the path that has planned nothing
    scene = load_map(fixture_path(f"{name}.map"))
    gmap = build_global_map(scene)
    config = PlannerConfig(timeout=0.1, seed=3)
    doors = [d.id for d in scene.doorways]
    hits = 0
    for query in SIBLING_QUERIES[name]:
        route = _route(scene, *query)
        gpath, _ = solve_all(decompose(route, scene), gmap, config)
        assert gpath is not None
        fresh, after = {}, {}
        for d in doors:
            path = replace(gpath)
            assert path._replans == {}
            fresh[d] = _result(scene, route, path, d, config)
            after[d] = dict(path._replans)
        for a in doors:
            for b in doors:
                if a == b:
                    continue
                path = replace(gpath)
                path._replans.update(after[a])
                planned.clear()
                assert _result(scene, route, path, b, config)[0] == fresh[b][0], (a, b)
                hits += fresh[b][1] - len(planned)
    if name in ("grid8", "ring4"):
        assert hits > 0


def test_derived_maps_certify_each_sibling_subproblem_as_a_full_build(
        grid8_scene, derivations):
    # every region a grid8 sibling route cuts out, rooms, openings and
    # corridors, has on a derived map the certified boxes of a full build:
    # after each single-doorway block and after the chain d12, d26
    gmap = build_global_map(grid8_scene)
    problems = [sub.to_problem() for query in SIBLING_QUERIES["grid8"]
                for sub in decompose(_route(grid8_scene, *query), grid8_scene)]
    before = [Region(gmap, p).certified for p in problems]
    assert any(len(boxes) > 3 for boxes in before)  # a corridor box among them
    changed = 0
    for doors in [(d.id,) for d in grid8_scene.doorways] + [("d12", "d26")]:
        derived, scene = gmap, grid8_scene
        for d in doors:
            derived = map_builder.build_blocked_map(derived, d)
            scene = set_doorway_blocked(scene, d, True)
        assert "_certified" not in derived.__dict__  # derivation carries no box
        full = build_global_map(scene)
        got = [Region(derived, p).certified for p in problems]
        assert got == [Region(full, p).certified for p in problems], doors
        changed += got != before
    assert len(derivations) == len(grid8_scene.doorways) + 1
    assert changed > 0


def test_blocking_a_doorway_of_the_room_re_plans_and_a_far_one_hits(
        grid8_scene, grid8_map, planned):
    # room r2's problem allows d12 only: blocking its other doorway d23
    # closes a gap in r2's wall, blocking d78 changes nothing r2 can read
    route = _route(grid8_scene, Point2(2.0, 3.0), Point2(6.0, 3.0))
    sub = decompose(route, grid8_scene)[1]
    problem = sub.to_problem()
    assert (sub.room, problem.allowed_doorways) == ("r2", frozenset({"d12"}))
    near = map_builder.build_blocked_map(grid8_map, "d23")
    far = map_builder.build_blocked_map(grid8_map, "d78")
    config = PlannerConfig(timeout=0.05, seed=7)
    cache = {}
    first = subproblem_solver._solve_in_order(grid8_map, [(sub, config)], {}, cache)
    assert planned == [grid8_map]
    assert subproblem_solver._solve_in_order(far, [(sub, config)], {}, cache) == first
    assert planned == [grid8_map]
    assert not subproblem_solver._same_field(grid8_map, near, problem)
    again = subproblem_solver._solve_in_order(near, [(sub, config)], {}, cache)
    assert planned == [grid8_map, near]
    assert again == [plan(near, problem, config)]


def test_blocking_the_same_doorway_twice_hits_through_the_same_map(
        ring4_scene, ring4_map, planned, monkeypatch):
    route, gpath = _solved_ring4(ring4_scene, ring4_map)
    config = PlannerConfig(timeout=0.3, seed=9)
    planned.clear()
    first = replan(ring4_scene, route, gpath, "d12", Point2(2.0, 2.0), config)
    assert len(planned) == len(_replanned(first)) > 0
    windows = []
    window = map_builder._node_window
    monkeypatch.setattr(map_builder, "_node_window",
                        lambda *args: windows.append(args) or window(*args))
    planned.clear()
    second = replan(ring4_scene, route, gpath, "d12", Point2(2.0, 2.0), config)
    assert second.gmap is first.gmap
    assert planned == [] and windows == []
    assert _bits(second.path) == _bits(first.path)
    assert (second.stats, second.solved_indices, second.reused_indices) == \
        (first.stats, first.solved_indices, first.reused_indices)


def test_wall_clock_replans_are_never_stored(ring4_scene, ring4_map, planned):
    route, gpath = _solved_ring4(ring4_scene, ring4_map)
    config = PlannerConfig(timeout=0.02, seed=9, clock="wall")
    for _ in range(2):
        planned.clear()
        out = replan(ring4_scene, route, gpath, "d12", Point2(2.0, 2.0), config)
        assert len(planned) == len(_replanned(out)) > 0
    assert gpath._replans == {}


def test_a_hit_returns_stats_no_caller_can_change(ring4_scene, ring4_map, planned):
    route, gpath = _solved_ring4(ring4_scene, ring4_map)
    config = PlannerConfig(timeout=0.3, seed=9)
    expected = _result(ring4_scene, route, replace(gpath), "d12", config)[0]
    for _ in range(3):
        planned.clear()
        out = replan(ring4_scene, route, gpath, "d12", Point2(2.0, 2.0), config)
        assert (_bits(out.path), out.stats, out.solved_indices,
                out.reused_indices) == expected
        for i in _replanned(out):
            st = out.stats[i - 1]
            st.iterations, st.samples_created, st.solved = -1, -1, not st.solved
    assert planned == []


@pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy,
                                   replace], ids=["pickle", "deepcopy", "replace"])
def test_copies_of_a_path_leave_its_replans_out(ring4_scene, ring4_map, clone):
    route, gpath = _solved_ring4(ring4_scene, ring4_map)
    replan(ring4_scene, route, gpath, "d12", Point2(2.0, 2.0),
           PlannerConfig(timeout=0.3, seed=9))
    assert gpath._replans
    got = clone(gpath)
    assert "_replans" not in got.__dict__
    assert got == gpath and got._replans == {}


def _edge_nodes(gmap, box):
    """The outermost node that a lookup on each edge of the closed ``box``
    reads, as (row, column): a point on the edge is in the region, so its
    lookup reads the node on or beyond the edge."""
    g = gmap.sdf
    ox, oy, res = g.origin.x, g.origin.y, g.resolution
    x0, y0, x1, y1 = box
    xm, ym = (x0 + x1) / 2, (y0 + y1) / 2
    col = lambda x: min(int((x - ox) / res), g.nx - 2)
    row = lambda y: min(int((y - oy) / res), g.ny - 2)
    return [(row(ym), col(x0)), (row(ym), col(x1) + 1),
            (row(y0), col(xm)), (row(y1) + 1, col(xm))]


def test_same_field_compares_every_node_a_band_lookup_reads(grid8_scene, grid8_map):
    g = grid8_map.sdf
    for sub in decompose(_route(grid8_scene, Point2(2.0, 3.0), Point2(15.0, 11.0)),
                         grid8_scene):
        problem = sub.to_problem()
        room = next(r for r in grid8_scene.rooms if r.id == sub.room)
        boxes = [room.bounds] + [grid8_map.openings[d] for d in problem.allowed_doorways]
        for box in boxes:
            for j, i in _edge_nodes(grid8_map, box):
                if not (0 <= i < g.nx and 0 <= j < g.ny):
                    continue
                values = g.values.copy()
                values[j, i] += 1.0
                other = replace(grid8_map, sdf=replace(g, values=values))
                assert not subproblem_solver._same_field(grid8_map, other, problem), \
                    (sub.room, box, j, i)
        # a node no lookup of the problem can read
        values = g.values.copy()
        far = next(r for r in grid8_scene.rooms
                   if r.id != sub.room and all(abs(a - b) > 1.0 for a, b in
                                               zip(r.bounds, room.bounds)))
        j, i = _edge_nodes(grid8_map, far.bounds)[0]
        values[j + 2, i + 2] += 1.0
        other = replace(grid8_map, sdf=replace(g, values=values))
        assert subproblem_solver._same_field(grid8_map, other, problem)


def test_same_field_compares_the_frame_rooms_and_openings(grid8_scene, grid8_map):
    problem = decompose(_route(grid8_scene, Point2(2.0, 3.0), Point2(6.0, 3.0)),
                        grid8_scene)[1].to_problem()
    same = subproblem_solver._same_field
    g = grid8_map.sdf
    assert same(grid8_map, replace(grid8_map), problem)
    for other in (
            replace(g, origin=Point2(g.origin.x, -0.05)),
            replace(g, resolution=0.05 + 1e-12),
            replace(g, nx=g.nx - 1),
            replace(g, wall_half_width=math.inf)):
        assert not same(grid8_map, replace(grid8_map, sdf=other), problem)
    openings = dict(grid8_map.openings)
    openings["d12"] = tuple(c + 1e-9 for c in openings["d12"])
    assert not same(grid8_map, replace(grid8_map, openings=openings), problem)
    del openings["d12"]
    assert not same(grid8_map, replace(grid8_map, openings=openings), problem)
    rooms = tuple(replace(r, id="rX") if r.id == "r2" else r for r in grid8_scene.rooms)
    assert not same(grid8_map, replace(grid8_map, scene=replace(grid8_scene, rooms=rooms)),
                    problem)
    bbox = (grid8_scene.bbox[0], Point2(17.0, 15.5))
    assert not same(grid8_map, replace(grid8_map, scene=replace(grid8_scene, bbox=bbox)),
                    problem)


def test_a_start_that_differs_only_in_the_sign_of_zero_plans_again(planned):
    # x = 0 runs through room a; -0.0 == 0.0, but the path starts at the
    # exact start, so a stored path from (-0.0, y) is no answer for (0.0, y)
    scene = SceneGraph(frame="map", bbox=(Point2(-2.0, -2.0), Point2(6.0, 2.0)),
                       rooms=(rect_room("a", -2.0, -2.0, 2.0, 2.0),
                              rect_room("b", 2.0, -2.0, 6.0, 2.0)),
                       doorways=(Doorway(id="ab", center=Point2(2.0, 0.0), width=0.9,
                                         rooms=("a", "b")),))
    gmap = build_global_map(scene)
    route = _route(scene, Point2(-1.0, -1.0), Point2(1.0, 1.0))
    config = PlannerConfig(timeout=0.05, seed=5)
    gpath, _ = solve_all(decompose(route, scene), gmap, config)
    planned.clear()
    for x in (-0.0, 0.0, -0.0):
        out = replan(scene, route, gpath, "ab", Point2(x, 1.0), config)
        assert out.path.segments[0].waypoints[0].x.hex() == x.hex()
    assert len(planned) == 2


def _tilted_wall_scene():
    """Rooms a | b | c in a row, built from walls in which the wall a and b
    share is tilted by 2**-23 about x = 4, within CLOSURE_TOL."""
    t = 2.0 ** -24
    lo, hi = Point2(4.0 - t, 0.0), Point2(4.0 + t, 4.0)
    a = Room.build("a", Point2(2.0, 2.0), (
        WallSegment(Point2(0.0, 0.0), lo), WallSegment(lo, hi),
        WallSegment(hi, Point2(0.0, 4.0)), WallSegment(Point2(0.0, 4.0), Point2(0.0, 0.0))))
    b = Room.build("b", Point2(6.0, 2.0), (
        WallSegment(lo, Point2(8.0, 0.0)), WallSegment(Point2(8.0, 0.0), Point2(8.0, 4.0)),
        WallSegment(Point2(8.0, 4.0), hi), WallSegment(hi, lo)))
    c = rect_room("c", 8.0, 0.0, 12.0, 4.0)
    return SceneGraph(frame="map", bbox=(Point2(0.0, 0.0), Point2(12.0, 4.0)),
                      rooms=(a, b, c), doorways=(
                          Doorway(id="ab", center=Point2(4.0, 2.0), width=0.9,
                                  rooms=("a", "b")),
                          Doorway(id="bc", center=Point2(8.0, 2.0), width=0.9,
                                  rooms=("b", "c"))))


def _other_scene_path(scene, gmap, gpath):
    return replace(gpath, gmap=build_global_map(set_doorway_blocked(scene, "d34", True)))


def _coarse_path(scene, gmap, gpath):
    return replace(gpath, gmap=build_global_map(scene, 0.1))


def _hand_grid_path(scene, gmap, gpath):
    g = gmap.sdf
    hand = SdfGrid(origin=g.origin, resolution=g.resolution, nx=g.nx, ny=g.ny,
                   values=g.values)
    return replace(gpath, gmap=replace(gmap, sdf=hand))


@pytest.mark.parametrize("prev", [lambda scene, gmap, gpath: None, _other_scene_path,
                                  _coarse_path, _hand_grid_path],
                         ids=["no-path", "other-scene", "resolution", "no-band-bound"])
def test_replan_builds_in_full_when_it_cannot_derive(ring4_scene, ring4_map,
                                                     full_builds, prev):
    route, gpath = _solved_ring4(ring4_scene, ring4_map)
    prev_path = prev(ring4_scene, ring4_map, gpath)
    full_builds.clear()
    outcome = replan(ring4_scene, route, prev_path, "d12", Point2(2.0, 2.0),
                     PlannerConfig(timeout=0.3, seed=9))
    assert len(full_builds) == 1
    # the same outcome as a replan that derives its map
    derived = replan(ring4_scene, route, gpath, "d12", Point2(2.0, 2.0),
                     PlannerConfig(timeout=0.3, seed=9))
    assert len(full_builds) == 1
    _assert_full_build_map(outcome.gmap)
    assert outcome.path == derived.path
    assert outcome.gmap.sdf.values.tobytes() == derived.gmap.sdf.values.tobytes()


def test_replan_derives_the_map_of_rooms_built_from_tilted_walls(full_builds, derivations):
    scene = _tilted_wall_scene()
    # Room.build read the tilted walls as their box, whose sides at x = 4
    # are exactly vertical, so blocking doorway ab changes only such pieces
    assert scene.room("a").walls[1] == WallSegment(Point2(4.0, 0.0), Point2(4.0, 4.0))
    assert scene.room("b").walls[3] == WallSegment(Point2(4.0, 4.0), Point2(4.0, 0.0))
    gmap = build_global_map(scene)
    route = _route(scene, Point2(6.0, 2.0), Point2(10.0, 2.0))
    gpath, _ = solve_all(decompose(route, scene), gmap, PlannerConfig(timeout=0.3, seed=4))
    assert gpath is not None and gpath.gmap is gmap
    full_builds.clear()
    outcome = replan(scene, route, gpath, "ab", Point2(6.0, 2.0),
                     PlannerConfig(timeout=0.3, seed=9))
    assert full_builds == []
    assert len(derivations) == 1 and derivations[0] is gmap
    _assert_full_build_map(outcome.gmap)
    assert outcome.reused_indices == (1, 2)


def test_global_path_map_is_not_part_of_its_value(ring4_scene, ring4_map):
    _, gpath = _solved_ring4(ring4_scene, ring4_map)
    bare = replace(gpath, gmap=None)
    assert gpath == bare
    assert repr(gpath) == repr(bare) and "gmap" not in repr(gpath)
    assert json.dumps(global_path_to_dict(gpath)) == json.dumps(global_path_to_dict(bare))


def test_plan_report_is_unchanged_by_the_path_map(tmp_path, monkeypatch):
    argv = ["plan", "--map", fixture_path("ring4.map"), "--start", "2,2",
            "--goal", "6,6", "--mode", "irrt_sg_sps", "--timeout", "0.1"]
    with_map, without_map = tmp_path / "with.json", tmp_path / "without.json"
    assert cli.main(argv + ["--out", str(with_map)]) == 0
    answer = cli.plan_query

    def bare(*args, **kwargs):
        result = answer(*args, **kwargs)
        assert result.path.gmap is not None
        return replace(result, path=replace(result.path, gmap=None))

    monkeypatch.setattr(cli, "plan_query", bare)
    assert cli.main(argv + ["--out", str(without_map)]) == 0
    assert with_map.read_bytes() == without_map.read_bytes()


# ------------------------------------------------------ golden replan pin

REPLAN_PIN_HEADER = "query_id,doorway,reused,solved,total_length_m,resolved_samples"


def replan_pin_text() -> str:
    """Every feasible single-doorway replan of the first four grid8 pairs.

    Pairs, planner seeds and budgets are those of ``run_bench`` with
    ``BenchConfig(map_path=grid8.map, seed=3)``. Each pair is solved with
    ``solve_all``, then each doorway of its route is blocked in turn; blocks
    that raise are skipped. One row per block: the reused and the solved
    subproblem indices, the joined length (``repr``, empty when unsolved)
    and ``samples_created`` of every subproblem planned afresh. The reuse
    decision runs every reused segment through ``motion_valid`` on the
    rebuilt map, which the bench campaign never calls.
    """
    cfg = BenchConfig(map_path=fixture_path("grid8.map"), seed=3, n_queries=4)
    scene = load_map(cfg.map_path)
    gmap = build_global_map(scene)
    topo = build_topology(scene, cfg.penalty, cfg.metric)
    pk = {"goal_tolerance": cfg.goal_tolerance, "robot_radius": cfg.robot_radius,
          "validity_margin": cfg.validity_margin}
    lines = [REPLAN_PIN_HEADER]
    for qid, (start, goal) in enumerate(generate_pairs(cfg)):
        pcfg = PlannerConfig(algorithm=INFORMED_RRT_STAR, timeout=cfg.timeout,
                             seed=mix(cfg.seed, qid, _PLAN_SALT))
        route = semantic_route(topo, scene, start, goal)
        gpath, _ = solve_all(decompose(route, scene), gmap, pcfg, workers=1, **pk)
        for doorway in route.doorways:
            try:
                out = replan(scene, route, gpath, doorway, start, pcfg,
                             penalty=cfg.penalty, metric=cfg.metric,
                             workers=1, **pk)
            except SemNavError:
                continue
            length = "" if out.path is None else repr(out.path.total_length)
            samples = [st.samples_created for i, st in enumerate(out.stats, 1)
                       if i not in out.reused_indices]
            lines.append(",".join([
                str(qid), doorway,
                " ".join(map(str, out.reused_indices)),
                " ".join(map(str, out.solved_indices)),
                length, " ".join(map(str, samples))]))
    return "\n".join(lines) + "\n"


def test_grid8_replans_reproduce_golden_pin():
    with open(fixture_path("golden_grid8_replan.csv"), "rb") as f:
        golden = f.read()
    assert replan_pin_text().encode() == golden


if __name__ == "__main__":
    # regenerate the pin: PYTHONPATH=src python3 tests/test_subproblem_solver.py
    with open(fixture_path("golden_grid8_replan.csv"), "w", encoding="utf-8",
              newline="\n") as f:
        f.write(replan_pin_text())
