"""Route search over the room/doorway topology.

The semantic layer prices a room-to-doorway connection as the squared
Euclidean distance between the room center and the doorway center plus a
fixed doorway penalty. Routes are doorway sequences from the start point's
room to the goal point's room; the search is an exact Dijkstra over
doorway-crossing states, with ties broken toward fewer doorways and then the
lexicographically smallest doorway-id sequence so results are deterministic.

A route's cost composes as: the start leg (squared distance from the start
point to the first doorway, plus one penalty), two topology edges per
intermediate room, and the goal leg (squared distance from the last doorway
to the goal point, with no extra penalty).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .errors import GoalOutsideMap, NoRoute, NotIncident, StartOutsideMap
from .geometry import Point2, dist, dist_sq
from .scene_graph import Doorway, Room, SceneGraph, locate_room

DEFAULT_DOORWAY_PENALTY = 1.0

SQUARED = "squared"
EUCLIDEAN = "euclidean"
METRICS = (SQUARED, EUCLIDEAN)


def _leg(a: Point2, b: Point2, metric: str) -> float:
    if metric == SQUARED:
        return dist_sq(a, b)
    if metric == EUCLIDEAN:
        return dist(a, b)
    raise ValueError(f"unknown metric '{metric}'")


def edge_cost(room: Room, doorway: Doorway, p_d: float, metric: str = SQUARED) -> float:
    """Cost of the topology edge between a room and one of its doorways."""
    if room.id not in doorway.rooms:
        raise NotIncident(f"doorway {doorway.id} does not connect room {room.id}")
    return _leg(room.center, doorway.center, metric) + p_d


@dataclass(frozen=True)
class TopologyGraph:
    """Bipartite room/doorway graph with precomputed edge costs.

    Blocked doorways appear neither as nodes nor as edges.
    """

    penalty: float
    metric: str
    edges: dict[tuple[str, str], float]  # (room_id, doorway_id) -> cost
    room_doors: dict[str, tuple[str, ...]]
    door_rooms: dict[str, tuple[str, str]]


def build_topology(graph: SceneGraph, p_d: float = DEFAULT_DOORWAY_PENALTY,
                   metric: str = SQUARED) -> TopologyGraph:
    """Topology graph over all rooms and unblocked doorways."""
    # a negative penalty can make edge costs negative, and Dijkstra unsound
    if not (math.isfinite(p_d) and p_d >= 0):
        raise ValueError(f"doorway penalty must be finite and non-negative, got {p_d}")
    rooms = {r.id: r for r in graph.rooms}
    edges: dict[tuple[str, str], float] = {}
    room_doors: dict[str, list[str]] = {r.id: [] for r in graph.rooms}
    door_rooms: dict[str, tuple[str, str]] = {}
    for d in graph.doorways:
        if d.blocked:
            continue
        door_rooms[d.id] = d.rooms
        for rid in d.rooms:
            edges[(rid, d.id)] = edge_cost(rooms[rid], d, p_d, metric)
            room_doors[rid].append(d.id)
    return TopologyGraph(
        penalty=p_d,
        metric=metric,
        edges=edges,
        room_doors={k: tuple(v) for k, v in room_doors.items()},
        door_rooms=door_rooms,
    )


@dataclass(frozen=True)
class SemanticRoute:
    """Doorway sequence with the rooms it passes through.

    ``rooms`` always has one more entry than ``doorways``; ``free_space`` is
    the set of room ids the geometric planner may use.
    """

    start: Point2
    goal: Point2
    doorways: tuple[str, ...]
    rooms: tuple[str, ...]
    free_space: frozenset[str]
    cost: float


def semantic_route(topo: TopologyGraph, graph: SceneGraph,
                   start: Point2, goal: Point2) -> SemanticRoute:
    """Cheapest doorway route from the start point's room to the goal's.

    Search states are "just crossed doorway D into room R"; each expansion
    prices the two topology edges of the room being traversed. Labels order
    by (cost, doorway count, doorway-id sequence), which makes the result
    unique and optimal among simple routes.
    """
    start_room = locate_room(graph, start)
    if start_room is None:
        raise StartOutsideMap(f"start {tuple(start)} lies in no room")
    goal_room = locate_room(graph, goal)
    if goal_room is None:
        raise GoalOutsideMap(f"goal {tuple(goal)} lies in no room")

    if start_room == goal_room:
        return SemanticRoute(start=start, goal=goal, doorways=(), rooms=(start_room,),
                             free_space=frozenset((start_room,)), cost=0.0)

    centers = {d.id: d.center for d in graph.doorways}

    def other_side(door_id: str, room_id: str) -> str:
        a, b = topo.door_rooms[door_id]
        return b if a == room_id else a

    # label: (cost, ndoors, doors_tuple); state: (door_id, room_entered) or "G"
    settled: dict[object, tuple] = {}
    heap: list[tuple] = []
    tick = 0  # heap tie breaker so states are never compared
    for did in topo.room_doors.get(start_room, ()):
        label = (_leg(start, centers[did], topo.metric) + topo.penalty, 1, (did,))
        state = (did, other_side(did, start_room))
        heapq.heappush(heap, (label, tick, state))
        tick += 1

    goal_state = "G"
    while heap:
        label, _, state = heapq.heappop(heap)
        if state in settled:
            continue
        settled[state] = label
        if state == goal_state:
            break
        door_id, room_id = state
        cost, ndoors, doors = label
        if room_id == goal_room:
            g_label = (cost + _leg(centers[door_id], goal, topo.metric), ndoors, doors)
            heapq.heappush(heap, (g_label, tick, goal_state))
            tick += 1
        in_edge = topo.edges[(room_id, door_id)]
        for nxt in topo.room_doors.get(room_id, ()):
            if nxt == door_id:
                continue
            nxt_state = (nxt, other_side(nxt, room_id))
            if nxt_state in settled:
                continue
            nxt_label = (cost + in_edge + topo.edges[(room_id, nxt)],
                         ndoors + 1, doors + (nxt,))
            heapq.heappush(heap, (nxt_label, tick, nxt_state))
            tick += 1

    if goal_state not in settled:
        raise NoRoute(f"no doorway route from room {start_room} to room {goal_room}")

    # the goal's label holds the doorway sequence; the rooms follow from it
    cost, _, doorways = settled[goal_state]
    rooms = (start_room,)
    for did in doorways:
        rooms += (other_side(did, rooms[-1]),)
    return SemanticRoute(start=start, goal=goal, doorways=doorways, rooms=rooms,
                         free_space=frozenset(rooms), cost=cost)


def route_to_dict(route: SemanticRoute) -> dict:
    """JSON-ready representation of a route."""
    return {
        "start": list(route.start),
        "goal": list(route.goal),
        "doorways": list(route.doorways),
        "rooms": list(route.rooms),
        "cost": route.cost,
    }
