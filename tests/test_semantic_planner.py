"""Topology costs and exact doorway-route search."""

from __future__ import annotations

import json
import math
import random

import pytest

from semnav import (Doorway, GoalOutsideMap, NoRoute, NotIncident, Point2,
                    StartOutsideMap, build_topology, edge_cost,
                    route_to_dict, semantic_route,
                    set_doorway_blocked)

from conftest import interior_point, random_scene, rect_room
from oracles import brute_force_route


# --------------------------------------------------------------- edge cost


def test_edge_cost_examples():
    room = rect_room("a", -4.0, -5.0, 4.0, 5.0)  # center (0, 0)
    d = Doorway(id="d", center=Point2(3.0, 4.0), width=1.0, rooms=("a", "b"))
    assert edge_cost(room, d, 0.5) == 25.5
    assert edge_cost(room, d, 0.5, metric="euclidean") == 5.5

    at_center = Doorway(id="d0", center=Point2(0.0, 0.0), width=1.0, rooms=("a", "b"))
    assert edge_cost(room, at_center, 0.0) == 0.0

    room2 = rect_room("c", 0.5, 1.0, 2.5, 3.0)  # center (1.5, 2.0)
    d2 = Doorway(id="d2", center=Point2(-0.5, 1.0), width=1.0, rooms=("c", "a"))
    assert edge_cost(room2, d2, 1.0) == 6.0


def test_edge_cost_requires_incidence():
    room = rect_room("a", 0.0, 0.0, 2.0, 2.0)
    d = Doorway(id="d", center=Point2(5.0, 5.0), width=1.0, rooms=("x", "y"))
    with pytest.raises(NotIncident, match="d does not connect room a"):
        edge_cost(room, d, 1.0)


def test_edge_cost_rejects_unknown_metric():
    room = rect_room("a", 0.0, 0.0, 2.0, 2.0)
    d = Doorway(id="d", center=Point2(2.0, 1.0), width=1.0, rooms=("a", "b"))
    with pytest.raises(ValueError, match="metric"):
        edge_cost(room, d, 1.0, metric="manhattan")


# ---------------------------------------------------------------- topology


def test_topology_counts(threeroom_scene, ring4_scene, grid8_scene):
    for scene, nodes, edges in ((threeroom_scene, 5, 4), (ring4_scene, 8, 8),
                                (grid8_scene, 18, 20)):
        topo = build_topology(scene)
        assert len(topo.room_doors) + len(topo.door_rooms) == nodes
        assert len(topo.edges) == edges


@pytest.mark.parametrize("p_d", [-1.0, -1e-12, math.nan, math.inf])
def test_topology_rejects_a_penalty_that_breaks_dijkstra(threeroom_scene, p_d):
    with pytest.raises(ValueError, match="doorway penalty"):
        build_topology(threeroom_scene, p_d=p_d)


def test_topology_excludes_blocked(threeroom_scene):
    blocked = set_doorway_blocked(threeroom_scene, "d1", True)
    topo = build_topology(blocked)
    assert (len(topo.room_doors) + len(topo.door_rooms), len(topo.edges)) == (4, 2)
    assert "d1" not in topo.door_rooms
    assert all("d1" not in doors for doors in topo.room_doors.values())


def test_topology_edge_values(threeroom_scene):
    topo = build_topology(threeroom_scene, p_d=1.0)
    assert topo.edges[("r1", "d1")] == 5.0  # |(2,2)-(4,2)|^2 + 1
    assert topo.edges[("r2", "d1")] == 5.0
    assert topo.edges[("r2", "d2")] == 5.0
    assert topo.edges[("r3", "d2")] == 5.0
    assert topo.room_doors["r2"] == ("d1", "d2")
    assert topo.door_rooms["d1"] == ("r1", "r2")


# ------------------------------------------------------------ route search


def test_route_three_rooms_exact(threeroom_scene):
    topo = build_topology(threeroom_scene, p_d=1.0)
    route = semantic_route(topo, threeroom_scene, Point2(2.0, 2.0), Point2(10.0, 2.0))
    assert route.doorways == ("d1", "d2")
    assert route.rooms == ("r1", "r2", "r3")
    assert route.free_space == frozenset({"r1", "r2", "r3"})
    # start leg 4+1, two r2 edges 5+5, goal leg 4
    assert route.cost == 19.0


def test_route_euclidean_metric(threeroom_scene):
    topo = build_topology(threeroom_scene, p_d=1.0, metric="euclidean")
    route = semantic_route(topo, threeroom_scene, Point2(2.0, 2.0), Point2(10.0, 2.0))
    assert route.cost == 11.0


def test_route_same_room(threeroom_scene):
    topo = build_topology(threeroom_scene)
    route = semantic_route(topo, threeroom_scene, Point2(1.0, 1.0), Point2(3.0, 3.0))
    assert route.doorways == ()
    assert route.rooms == ("r1",)
    assert route.cost == 0.0


def test_route_tie_breaks_lexicographic(ring4_scene):
    topo = build_topology(ring4_scene, p_d=1.0)
    route = semantic_route(topo, ring4_scene, Point2(2.0, 2.0), Point2(6.0, 6.0))
    # both ways around the ring cost the same; fewest doors ties too,
    # so the lexicographically smaller doorway sequence wins
    assert route.doorways == ("d12", "d23")
    assert route.rooms == ("r1", "r2", "r3")


def test_route_avoids_blocked(ring4_scene):
    blocked = set_doorway_blocked(ring4_scene, "d12", True)
    topo = build_topology(blocked, p_d=1.0)
    route = semantic_route(topo, blocked, Point2(2.0, 2.0), Point2(6.0, 6.0))
    assert route.doorways == ("d41", "d34")
    assert route.rooms == ("r1", "r4", "r3")


def test_route_outside_map(threeroom_scene):
    topo = build_topology(threeroom_scene)
    with pytest.raises(StartOutsideMap):
        semantic_route(topo, threeroom_scene, Point2(-1.0, 2.0), Point2(2.0, 2.0))
    with pytest.raises(GoalOutsideMap):
        semantic_route(topo, threeroom_scene, Point2(2.0, 2.0), Point2(50.0, 2.0))


def test_route_no_route(threeroom_scene):
    blocked = set_doorway_blocked(threeroom_scene, "d2", True)
    topo = build_topology(blocked)
    with pytest.raises(NoRoute, match="room r1 to room r3"):
        semantic_route(topo, blocked, Point2(2.0, 2.0), Point2(10.0, 2.0))


def test_route_penalty_multiplicity(threeroom_scene):
    base = semantic_route(build_topology(threeroom_scene, p_d=0.0),
                          threeroom_scene, Point2(2.0, 2.0), Point2(10.0, 2.0))
    bumped = semantic_route(build_topology(threeroom_scene, p_d=1.0),
                            threeroom_scene, Point2(2.0, 2.0), Point2(10.0, 2.0))
    # two doorways crossed: 2n-1 = 3 penalties of 1.0 each
    assert bumped.cost - base.cost == 3.0


def test_route_dict_round_trip(threeroom_scene):
    topo = build_topology(threeroom_scene)
    route = semantic_route(topo, threeroom_scene, Point2(1.0, 1.0), Point2(11.0, 3.0))
    data = route_to_dict(route)
    assert data == {"start": [1.0, 1.0], "goal": [11.0, 3.0],
                    "doorways": list(route.doorways), "rooms": list(route.rooms),
                    "cost": route.cost}
    # the JSON a plan report holds gives back every float exactly
    assert json.loads(json.dumps(data)) == data


# ------------------------------------------------- randomized cross-checks


def test_route_matches_brute_force():
    rng = random.Random(2024)
    routes = disconnected = 0
    for trial in range(150):
        scene = random_scene(rng)
        start_room = scene.rooms[rng.randrange(len(scene.rooms))]
        goal_room = scene.rooms[rng.randrange(len(scene.rooms))]
        start = interior_point(rng, start_room)
        goal = interior_point(rng, goal_room)
        p_d = rng.choice([0.0, 0.25, 1.0, 2.5])
        metric = "squared" if trial % 2 == 0 else "euclidean"
        topo = build_topology(scene, p_d=p_d, metric=metric)
        expect = brute_force_route(scene, start, goal, p_d, metric)
        if expect is None:
            disconnected += 1
            with pytest.raises(NoRoute):
                semantic_route(topo, scene, start, goal)
            continue
        routes += 1
        route = semantic_route(topo, scene, start, goal)
        exp_cost, exp_doors = expect
        assert route.doorways == exp_doors
        assert route.cost == exp_cost  # identical accumulation, bit for bit
        assert len(route.rooms) == len(route.doorways) + 1
    assert routes >= 60
    assert disconnected >= 5


def test_route_cost_monotone_in_penalty():
    rng = random.Random(77)
    compared = 0
    for _ in range(40):
        scene = random_scene(rng)
        start_room = scene.rooms[rng.randrange(len(scene.rooms))]
        goal_room = scene.rooms[rng.randrange(len(scene.rooms))]
        start = interior_point(rng, start_room)
        goal = interior_point(rng, goal_room)
        costs = []
        try:
            for p_d in (0.0, 0.5, 1.5, 4.0):
                topo = build_topology(scene, p_d=p_d)
                costs.append(semantic_route(topo, scene, start, goal).cost)
        except NoRoute:
            continue
        compared += 1
        assert costs == sorted(costs)
    assert compared >= 15


def test_route_cost_symmetric():
    rng = random.Random(99)
    compared = 0
    for _ in range(60):
        scene = random_scene(rng)
        start_room = scene.rooms[rng.randrange(len(scene.rooms))]
        goal_room = scene.rooms[rng.randrange(len(scene.rooms))]
        start = interior_point(rng, start_room)
        goal = interior_point(rng, goal_room)
        topo = build_topology(scene, p_d=1.0)
        try:
            fwd = semantic_route(topo, scene, start, goal)
        except NoRoute:
            with pytest.raises(NoRoute):
                semantic_route(topo, scene, goal, start)
            continue
        back = semantic_route(topo, scene, goal, start)
        compared += 1
        assert math.isclose(fwd.cost, back.cost, rel_tol=1e-12, abs_tol=1e-12)
        assert back.doorways == tuple(reversed(fwd.doorways)) or back.cost == fwd.cost
    assert compared >= 20
