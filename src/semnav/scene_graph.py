"""Semantic scene graph: rooms, doorways and the map file they are loaded from.

A scene graph is the semantic layer of the planner. A room is an axis-aligned
box. A map file gives it as four wall segments, which the loader reads only to
find the box they close within ``CLOSURE_TOL`` (``Room.build``); ``save_map``
writes the box's four sides, counter-clockwise from its lower-left corner.
Doorways connect exactly two rooms across a shared boundary, and
everything is immutable after loading; mutation style APIs (such as blocking
a doorway) return a new graph.

Map files are JSON with the following shape::

    {
      "frame": "map",
      "bbox": {"min": [0.0, 0.0], "max": [12.0, 4.0]},
      "rooms": [
        {"id": "r1", "center": [2.0, 2.0],
         "walls": [{"a": [0.0, 0.0], "b": [4.0, 0.0]}, ...]}    # exactly 4
      ],
      "doorways": [
        {"id": "d1", "center": [4.0, 2.0], "width": 1.0,
         "rooms": ["r1", "r2"], "blocked": false}
      ]
    }

Unknown fields are rejected unless the loader runs in lenient mode.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, NamedTuple

from .errors import ParseError, UnknownId, ValidationError
from .geometry import Point2, WallSegment

CLOSURE_TOL = 1e-6
DOORWAY_TOL = 1e-6
BBOX_TOL = 1e-9


class SharedBoundary(NamedTuple):
    """Closest parallel facing wall pair between two rooms.

    ``axis`` is "x" when the walls are vertical (the boundary is crossed along
    x) and "y" when they are horizontal. ``coords`` holds the two walls'
    fixed coordinates, ``overlap`` the interval they share along the wall
    direction, and ``walls`` the (room_id, wall_index) of each side.
    """

    axis: str
    coords: tuple[float, float]
    overlap: tuple[float, float]
    gap: float
    walls: tuple[tuple[str, int], tuple[str, int]]


def _mid(a: float, b: float) -> float:
    """Midpoint of two finite floats: finite, and exactly ``a`` when ``a == b``."""
    m = (a + b) / 2.0
    return m if math.isfinite(m) else a / 2.0 + b / 2.0


def _rect_from_walls(walls: tuple[WallSegment, ...]) -> tuple[float, float, float, float]:
    """Classify four wall segments into a closed axis-aligned rectangle.

    Returns (x0, y0, x1, y1), each side the midpoint of a wall's fixed
    coordinate; raises ValueError with a human reason when the walls do not
    close within CLOSURE_TOL.
    """
    if len(walls) != 4:
        raise ValueError(f"expected 4 walls, got {len(walls)}")
    vertical = []
    horizontal = []
    for w in walls:
        dx = abs(w.a.x - w.b.x)
        dy = abs(w.a.y - w.b.y)
        if dx <= CLOSURE_TOL and dy <= CLOSURE_TOL:
            raise ValueError("zero-length wall")
        if dx <= CLOSURE_TOL:
            vertical.append(w)
        elif dy <= CLOSURE_TOL:
            horizontal.append(w)
        else:
            raise ValueError("wall is not axis-aligned")
    if len(vertical) != 2 or len(horizontal) != 2:
        raise ValueError("walls do not form two parallel pairs")
    x0, x1 = sorted(_mid(w.a.x, w.b.x) for w in vertical)
    y0, y1 = sorted(_mid(w.a.y, w.b.y) for w in horizontal)
    if x1 - x0 <= CLOSURE_TOL or y1 - y0 <= CLOSURE_TOL:
        raise ValueError("rectangle has zero extent")
    for w in vertical:
        lo, hi = sorted((w.a.y, w.b.y))
        if abs(lo - y0) > CLOSURE_TOL or abs(hi - y1) > CLOSURE_TOL:
            raise ValueError("vertical wall does not meet the horizontal walls")
    for w in horizontal:
        lo, hi = sorted((w.a.x, w.b.x))
        if abs(lo - x0) > CLOSURE_TOL or abs(hi - x1) > CLOSURE_TOL:
            raise ValueError("horizontal wall does not meet the vertical walls")
    return x0, y0, x1, y1


@dataclass(frozen=True)
class Room:
    """Axis-aligned rectangular room: ``bounds`` is its box, as (xmin, ymin,
    xmax, ymax). ``build`` reads a file's four walls only to find that box;
    ``walls`` are its sides, counter-clockwise from (xmin, ymin)."""

    id: str
    center: Point2
    bounds: tuple[float, float, float, float]

    @classmethod
    def build(cls, room_id: str, center: Point2, walls: Iterable[WallSegment]) -> "Room":
        box = x0, y0, x1, y1 = _rect_from_walls(tuple(walls))
        if not (x0 < center.x < x1 and y0 < center.y < y1):
            raise ValueError("center does not lie strictly inside the walls")
        return cls(id=room_id, center=center, bounds=box)

    @cached_property
    def walls(self) -> tuple[WallSegment, ...]:
        """Bottom, right, top and left side of ``bounds``, each running
        counter-clockwise."""
        x0, y0, x1, y1 = self.bounds
        a, b, c, d = Point2(x0, y0), Point2(x1, y0), Point2(x1, y1), Point2(x0, y1)
        return WallSegment(a, b), WallSegment(b, c), WallSegment(c, d), WallSegment(d, a)

    def contains(self, p: Point2) -> bool:
        """True when ``p`` lies in the closed box ``bounds``; False for a NaN
        coordinate."""
        x, y = p
        x0, y0, x1, y1 = self.bounds
        return x0 <= x <= x1 and y0 <= y <= y1


@dataclass(frozen=True)
class Doorway:
    id: str
    center: Point2
    width: float
    rooms: tuple[str, str]
    blocked: bool = False


@dataclass(frozen=True)
class SceneGraph:
    frame: str
    bbox: tuple[Point2, Point2]
    rooms: tuple[Room, ...]
    doorways: tuple[Doorway, ...]

    def room(self, room_id: str) -> Room:
        for r in self.rooms:
            if r.id == room_id:
                return r
        raise UnknownId(f"unknown room id '{room_id}'")

    def doorway(self, doorway_id: str) -> Doorway:
        for d in self.doorways:
            if d.id == doorway_id:
                return d
        raise UnknownId(f"unknown doorway id '{doorway_id}'")


def _wall_interval(wall: WallSegment) -> tuple[str, float, float, float]:
    """(axis crossing the wall, its fixed coordinate, lo, hi) of a wall that
    is exactly vertical (axis "x") or horizontal (axis "y")."""
    if wall.a.x == wall.b.x:
        lo, hi = sorted((wall.a.y, wall.b.y))
        return "x", wall.a.x, lo, hi
    lo, hi = sorted((wall.a.x, wall.b.x))
    return "y", wall.a.y, lo, hi


def shared_boundary(room_a: Room, room_b: Room) -> SharedBoundary | None:
    """Closest parallel wall pair (one wall per room) with along-axis overlap."""
    best: SharedBoundary | None = None
    walls_b = [_wall_interval(w) for w in room_b.walls]
    for ia, wa in enumerate(room_a.walls):
        axis, ca, lo_a, hi_a = _wall_interval(wa)
        for ib, (axis_b, cb, lo_b, hi_b) in enumerate(walls_b):
            lo, hi = max(lo_a, lo_b), min(hi_a, hi_b)
            if axis_b != axis or hi - lo <= CLOSURE_TOL:
                continue
            gap = abs(ca - cb)
            if best is None or gap < best.gap:
                best = SharedBoundary(axis=axis, coords=(ca, cb), overlap=(lo, hi), gap=gap,
                                      walls=((room_a.id, ia), (room_b.id, ib)))
    return best


def _validate_graph(graph: SceneGraph) -> None:
    seen: set[str] = set()
    for r in graph.rooms:
        if r.id in seen:
            raise ValidationError(f"room {r.id}: duplicate id")
        seen.add(r.id)
    for d in graph.doorways:
        if d.id in seen:
            raise ValidationError(f"doorway {d.id}: duplicate id")
        seen.add(d.id)

    lo, hi = graph.bbox
    if not (lo.x < hi.x and lo.y < hi.y):
        raise ValidationError("bbox: min must be strictly below max")
    for r in graph.rooms:
        x0, y0, x1, y1 = r.bounds
        if not (lo.x - BBOX_TOL <= x0 and x1 <= hi.x + BBOX_TOL
                and lo.y - BBOX_TOL <= y0 and y1 <= hi.y + BBOX_TOL):
            raise ValidationError(f"room {r.id}: box {r.bounds} outside bbox")

    room_ids = {r.id: r for r in graph.rooms}
    for d in graph.doorways:
        if d.width <= 0.0:
            raise ValidationError(f"doorway {d.id}: width must be positive")
        if d.rooms[0] == d.rooms[1]:
            raise ValidationError(f"doorway {d.id}: rooms must be distinct")
        for rid in d.rooms:
            if rid not in room_ids:
                raise ValidationError(f"doorway {d.id}: unknown room {rid}")
        sb = shared_boundary(room_ids[d.rooms[0]], room_ids[d.rooms[1]])
        if sb is None:
            raise ValidationError(f"doorway {d.id}: rooms share no parallel boundary")
        perp = d.center.x if sb.axis == "x" else d.center.y
        along = d.center.y if sb.axis == "x" else d.center.x
        perp_lo = min(sb.coords) - DOORWAY_TOL
        perp_hi = max(sb.coords) + DOORWAY_TOL
        if not (perp_lo <= perp <= perp_hi):
            raise ValidationError(f"doorway {d.id}: center is off the shared boundary")
        if not (sb.overlap[0] - DOORWAY_TOL <= along <= sb.overlap[1] + DOORWAY_TOL):
            raise ValidationError(f"doorway {d.id}: center is outside the shared wall overlap")


def _num(value: object, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: expected a number")
    try:
        v = float(value)
    except OverflowError:  # an integer too large for a float
        v = math.inf
    if not math.isfinite(v):
        raise ParseError(f"{where}: coordinate must be finite")
    return v


def _point(value: object, where: str) -> Point2:
    if not isinstance(value, list) or len(value) != 2:
        raise ParseError(f"{where}: expected [x, y]")
    return Point2(_num(value[0], where), _num(value[1], where))


def _check_fields(obj: dict, required: tuple[str, ...], optional: tuple[str, ...],
                  where: str, lenient: bool) -> None:
    for key in required:
        if key not in obj:
            raise ParseError(f"{where}: missing field '{key}'")
    if not lenient:
        for key in obj:
            if key not in required and key not in optional:
                raise ParseError(f"{where}: unknown field '{key}'")


def _read_json(path: str) -> object:
    """Parsed contents of a JSON file.

    Raises ParseError naming the file when the text is not JSON or nests or
    has digits past a parser limit. OSError propagates for missing files.
    """
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}:{e.lineno}: {e.msg}") from e
        except (RecursionError, ValueError) as e:  # nesting or digits past a limit
            raise ParseError(f"{path}: {e}") from e


def load_map(path: str, lenient: bool = False) -> SceneGraph:
    """Load and validate a scene-graph map file.

    Raises ParseError for malformed or off-schema files (naming the file and
    the offending location) and ValidationError when the geometry or the
    references violate an invariant. OSError propagates for missing files.
    """
    data = _read_json(path)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be an object")
    _check_fields(data, ("frame", "bbox", "rooms", "doorways"), (), path, lenient)
    if not isinstance(data["frame"], str):
        raise ParseError(f"{path}: frame: expected a string")

    bbox_obj = data["bbox"]
    if not isinstance(bbox_obj, dict):
        raise ParseError(f"{path}: bbox: expected an object")
    _check_fields(bbox_obj, ("min", "max"), (), f"{path}: bbox", lenient)
    bbox = (_point(bbox_obj["min"], f"{path}: bbox.min"),
            _point(bbox_obj["max"], f"{path}: bbox.max"))

    if not isinstance(data["rooms"], list):
        raise ParseError(f"{path}: rooms: expected a list")
    rooms = []
    for i, entry in enumerate(data["rooms"]):
        where = f"{path}: rooms[{i}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{where}: expected an object")
        _check_fields(entry, ("id", "center", "walls"), (), where, lenient)
        if not isinstance(entry["id"], str) or not entry["id"]:
            raise ParseError(f"{where}: id: expected a non-empty string")
        if not isinstance(entry["walls"], list):
            raise ParseError(f"{where}: walls: expected a list")
        walls = []
        for j, wall in enumerate(entry["walls"]):
            wwhere = f"{where}.walls[{j}]"
            if not isinstance(wall, dict):
                raise ParseError(f"{wwhere}: expected an object")
            _check_fields(wall, ("a", "b"), (), wwhere, lenient)
            seg = WallSegment(_point(wall["a"], wwhere), _point(wall["b"], wwhere))
            if seg.a == seg.b:
                raise ValidationError(f"room {entry['id']}: wall {j} endpoints coincide")
            walls.append(seg)
        try:
            rooms.append(Room.build(entry["id"], _point(entry["center"], where), walls))
        except ValueError as e:
            raise ValidationError(f"room {entry['id']}: {e}") from e

    if not isinstance(data["doorways"], list):
        raise ParseError(f"{path}: doorways: expected a list")
    doorways = []
    for i, entry in enumerate(data["doorways"]):
        where = f"{path}: doorways[{i}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{where}: expected an object")
        _check_fields(entry, ("id", "center", "width", "rooms"), ("blocked",), where, lenient)
        if not isinstance(entry["id"], str) or not entry["id"]:
            raise ParseError(f"{where}: id: expected a non-empty string")
        rooms_ref = entry["rooms"]
        if (not isinstance(rooms_ref, list) or len(rooms_ref) != 2
                or not all(isinstance(r, str) for r in rooms_ref)):
            raise ParseError(f"{where}: rooms: expected a pair of room ids")
        blocked = entry.get("blocked", False)
        if not isinstance(blocked, bool):
            raise ParseError(f"{where}: blocked: expected a boolean")
        doorways.append(Doorway(
            id=entry["id"],
            center=_point(entry["center"], where),
            width=_num(entry["width"], f"{where}.width"),
            rooms=(rooms_ref[0], rooms_ref[1]),
            blocked=blocked,
        ))

    graph = SceneGraph(frame=data["frame"], bbox=bbox,
                       rooms=tuple(rooms), doorways=tuple(doorways))
    _validate_graph(graph)
    return graph


def save_map(graph: SceneGraph, path: str) -> None:
    """Write a scene graph back to the map file format (inverse of load_map)."""
    data = {
        "frame": graph.frame,
        "bbox": {"min": list(graph.bbox[0]), "max": list(graph.bbox[1])},
        "rooms": [
            {
                "id": r.id,
                "center": list(r.center),
                "walls": [{"a": list(w.a), "b": list(w.b)} for w in r.walls],
            }
            for r in graph.rooms
        ],
        "doorways": [
            {
                "id": d.id,
                "center": list(d.center),
                "width": d.width,
                "rooms": list(d.rooms),
                "blocked": d.blocked,
            }
            for d in graph.doorways
        ],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=2)
        f.write("\n")


def locate_room(graph: SceneGraph, p: Point2) -> str | None:
    """Id of the room that ``Room.contains`` ``p``, or None.

    A point on a shared boundary belongs to several rooms; the tie breaks to
    the lexicographically smallest id so the answer is deterministic.
    """
    return min((r.id for r in graph.rooms if r.contains(p)), default=None)


def set_doorway_blocked(graph: SceneGraph, doorway_id: str, blocked: bool) -> SceneGraph:
    """Return a copy of the graph with one doorway's blocked flag replaced;
    UnknownId when the graph has no such doorway."""
    graph.doorway(doorway_id)
    return replace(graph, doorways=tuple(replace(d, blocked=blocked) if d.id == doorway_id else d
                                         for d in graph.doorways))
