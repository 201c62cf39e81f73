"""Global metric map construction from a scene graph.

The builder turns the semantic layer into geometry a sampling planner can use:

* one closed counter-clockwise contour per room,
* the wall set with doorway-width gaps carved out of both adjacent walls,
* a signed distance field sampled on a regular grid, exact at the nodes and
  bilinearly interpolated between them,
* an axis-aligned opening rectangle per doorway for constrained validity.

Distances stored in the grid are exact point-to-segment distances against the
carved wall set. Nodes closer to a wall than the wall's half thickness store
the negated distance, which marks the inside of the obstacle band while
keeping the magnitude exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateRoom, DoorwayPlacement, EmptyMap, OutOfBounds
from .geometry import Point2, WallSegment, point_in_ring
from .scene_graph import Room, SceneGraph, _rect_from_walls, shared_boundary

DEFAULT_RESOLUTION = 0.05
DEFAULT_WALL_HALF_WIDTH = 0.05
DEFAULT_OPENING_DEPTH = 0.3
DEFAULT_ATTACH_THRESHOLD = 0.5

_CARVE_TOL = 1e-9
_MIN_PIECE = 1e-12


@dataclass(frozen=True)
class Contour:
    """Closed CCW ring of a room, starting at its lexicographically smallest corner."""

    room_id: str
    ring: tuple[Point2, ...]


@dataclass(frozen=True)
class CarvedWalls:
    """All wall segments after removing doorway openings."""

    segments: tuple[WallSegment, ...]


@dataclass(frozen=True)
class SdfGrid:
    origin: Point2
    resolution: float
    nx: int
    ny: int
    values: np.ndarray  # shape (ny, nx); values[j, i] sampled at origin + (i, j) * resolution

    @cached_property
    def flat_values(self) -> list[float]:
        """Row-major copy of ``values`` as Python floats: ``values[j, i]`` is
        ``flat_values[j * nx + i]``. Scalar reads from a list are several
        times cheaper than ndarray indexing; the copy is built on first use,
        and the builders mark ``values`` read-only so it cannot go stale."""
        return self.values.ravel().tolist()


@dataclass(frozen=True)
class GlobalMap:
    """Everything the geometric planner needs about one scene."""

    scene: SceneGraph
    contours: tuple[Contour, ...]
    walls: CarvedWalls
    sdf: SdfGrid
    openings: dict[str, tuple[float, float, float, float]]

    def contour(self, room_id: str) -> Contour:
        for c in self.contours:
            if c.room_id == room_id:
                return c
        raise KeyError(room_id)


def contour_from_room(room: Room) -> Contour:
    """Closed CCW rectangle ring through the room's wall corners."""
    try:
        x0, y0, x1, y1 = _rect_from_walls(room.walls)
    except ValueError as e:
        raise DegenerateRoom(f"room {room.id}: {e}") from e
    ring = (Point2(x0, y0), Point2(x1, y0), Point2(x1, y1), Point2(x0, y1))
    return Contour(room_id=room.id, ring=ring)


def point_in_contour(contour: Contour, p: Point2) -> bool:
    """Even-odd containment with the boundary counting as inside."""
    return point_in_ring(p, contour.ring, boundary_tol=1e-9)


def _wall_interval(wall: WallSegment) -> tuple[str, float, float, float]:
    """(axis, fixed coordinate, lo, hi) of an axis-aligned wall."""
    if abs(wall.a.x - wall.b.x) <= 1e-6:
        lo, hi = sorted((wall.a.y, wall.b.y))
        return "v", wall.a.x, lo, hi
    lo, hi = sorted((wall.a.x, wall.b.x))
    return "h", wall.a.y, lo, hi


def carve_doorways(graph: SceneGraph,
                   attach_threshold: float = DEFAULT_ATTACH_THRESHOLD) -> CarvedWalls:
    """Remove doorway-width openings from both rooms' closest walls.

    Blocked doorways carve nothing. Each unblocked doorway is projected onto
    the closest parallel wall pair of its two rooms; an opening of the doorway
    width, centered at the projection, is removed from both walls. Raises
    DoorwayPlacement when the rooms' walls are farther apart than the
    attachment threshold or the opening does not fit inside the shared wall
    overlap.
    """
    rooms = {r.id: r for r in graph.rooms}
    openings: dict[tuple[str, int], list[tuple[float, float, str]]] = {}
    for d in graph.doorways:
        if d.blocked:
            continue
        sb = shared_boundary(rooms[d.rooms[0]], rooms[d.rooms[1]])
        if sb is None:
            raise DoorwayPlacement(f"doorway {d.id}: rooms share no parallel walls")
        if sb.gap >= attach_threshold:
            raise DoorwayPlacement(
                f"doorway {d.id}: closest walls are {sb.gap:.3f} m apart "
                f"(threshold {attach_threshold:.3f} m)")
        along = d.center.y if sb.axis == "x" else d.center.x
        lo = along - d.width / 2.0
        hi = along + d.width / 2.0
        if lo < sb.overlap[0] - _CARVE_TOL or hi > sb.overlap[1] + _CARVE_TOL:
            raise DoorwayPlacement(
                f"doorway {d.id}: opening [{lo:.3f}, {hi:.3f}] projects outside "
                f"the shared wall overlap [{sb.overlap[0]:.3f}, {sb.overlap[1]:.3f}]")
        for key in sb.walls:
            openings.setdefault(key, []).append((lo, hi, d.id))

    segments: list[WallSegment] = []
    for room in graph.rooms:
        for widx, wall in enumerate(room.walls):
            cuts = sorted(openings.get((room.id, widx), []))
            if not cuts:
                segments.append(wall)
                continue
            axis, fixed, wlo, whi = _wall_interval(wall)
            cursor = wlo
            for lo, hi, did in cuts:
                if lo < cursor - _CARVE_TOL:
                    raise DoorwayPlacement(
                        f"doorway {did}: opening overlaps another opening or "
                        f"starts outside wall extent on room {room.id}")
                if cursor < lo - _MIN_PIECE:
                    segments.append(_make_wall(axis, fixed, cursor, lo))
                cursor = max(cursor, hi)
            if whi < cursor - _CARVE_TOL:
                raise DoorwayPlacement(
                    f"doorway {cuts[-1][2]}: opening ends outside wall extent "
                    f"on room {room.id}")
            if cursor < whi - _MIN_PIECE:
                segments.append(_make_wall(axis, fixed, cursor, whi))
    return CarvedWalls(segments=tuple(segments))


def _make_wall(axis: str, fixed: float, lo: float, hi: float) -> WallSegment:
    if axis == "v":
        return WallSegment(Point2(fixed, lo), Point2(fixed, hi))
    return WallSegment(Point2(lo, fixed), Point2(hi, fixed))


def doorway_openings(graph: SceneGraph,
                     depth: float = DEFAULT_OPENING_DEPTH) -> dict[str, tuple[float, float, float, float]]:
    """Axis-aligned rectangle per unblocked doorway: doorway width along the
    wall, ``depth`` across it, centered on the doorway center."""
    rooms = {r.id: r for r in graph.rooms}
    rects: dict[str, tuple[float, float, float, float]] = {}
    for d in graph.doorways:
        if d.blocked:
            continue
        sb = shared_boundary(rooms[d.rooms[0]], rooms[d.rooms[1]])
        if sb is None:
            continue
        cx, cy = d.center
        if sb.axis == "x":
            rects[d.id] = (cx - depth / 2.0, cy - d.width / 2.0,
                           cx + depth / 2.0, cy + d.width / 2.0)
        else:
            rects[d.id] = (cx - d.width / 2.0, cy - depth / 2.0,
                           cx + d.width / 2.0, cy + depth / 2.0)
    return rects


def build_sdf(walls: CarvedWalls, bbox: tuple[Point2, Point2],
              resolution: float = DEFAULT_RESOLUTION,
              wall_half_width: float = DEFAULT_WALL_HALF_WIDTH) -> SdfGrid:
    """Sample the wall distance field on a regular grid.

    The grid covers the bbox inflated by two cells on every side. Node values
    are exact (vectorized per segment, minimum over segments); negation marks
    nodes inside the wall band.
    """
    if not walls.segments:
        raise EmptyMap("no wall segments to build a distance field from")
    if resolution <= 0.0:
        raise ValueError("resolution must be positive")
    lo, hi = bbox
    origin = Point2(lo.x - 2.0 * resolution, lo.y - 2.0 * resolution)
    span_x = (hi.x + 2.0 * resolution) - origin.x
    span_y = (hi.y + 2.0 * resolution) - origin.y
    nx = int(math.ceil(span_x / resolution - 1e-9)) + 1
    ny = int(math.ceil(span_y / resolution - 1e-9)) + 1

    xs = origin.x + resolution * np.arange(nx)
    ys = origin.y + resolution * np.arange(ny)
    gx, gy = np.meshgrid(xs, ys)  # shape (ny, nx)
    dmin = np.full((ny, nx), np.inf)
    for seg in walls.segments:
        ax, ay = seg.a
        bx, by = seg.b
        dx = bx - ax
        dy = by - ay
        denom = dx * dx + dy * dy
        if denom < 1e-24:
            d = np.hypot(gx - ax, gy - ay)
        else:
            t = ((gx - ax) * dx + (gy - ay) * dy) / denom
            np.clip(t, 0.0, 1.0, out=t)
            d = np.hypot(gx - (ax + t * dx), gy - (ay + t * dy))
        np.minimum(dmin, d, out=dmin)
    values = np.where(dmin < wall_half_width, -dmin, dmin)
    values.setflags(write=False)
    return SdfGrid(origin=origin, resolution=resolution, nx=nx, ny=ny, values=values)


def sdf_query(grid: SdfGrid, p: Point2) -> float:
    """Bilinearly interpolated field value at ``p``.

    Raises OutOfBounds for points outside the sampled extent.
    """
    fx = (p.x - grid.origin.x) / grid.resolution
    fy = (p.y - grid.origin.y) / grid.resolution
    tol = 1e-9
    if not (-tol <= fx <= grid.nx - 1 + tol and -tol <= fy <= grid.ny - 1 + tol):
        raise OutOfBounds(f"query point {tuple(p)} outside the sampled grid")
    # fx, fy > -1 here, where int() truncation is the floor clamped at 0
    i0 = min(int(fx), grid.nx - 2)
    j0 = min(int(fy), grid.ny - 2)
    tx = fx - i0
    ty = fy - j0
    v = grid.flat_values
    k = j0 * grid.nx + i0
    v00 = v[k]
    v10 = v[k + 1]
    v01 = v[k + grid.nx]
    v11 = v[k + grid.nx + 1]
    return ((v00 * (1.0 - tx) + v10 * tx) * (1.0 - ty)
            + (v01 * (1.0 - tx) + v11 * tx) * ty)


def build_global_map(scene: SceneGraph,
                     resolution: float = DEFAULT_RESOLUTION,
                     wall_half_width: float = DEFAULT_WALL_HALF_WIDTH,
                     opening_depth: float = DEFAULT_OPENING_DEPTH,
                     attach_threshold: float = DEFAULT_ATTACH_THRESHOLD) -> GlobalMap:
    """Build contours, carved walls, SDF and doorway openings for one scene."""
    if not scene.rooms:
        raise EmptyMap("scene has no rooms")
    contours = tuple(contour_from_room(r) for r in scene.rooms)
    walls = carve_doorways(scene, attach_threshold=attach_threshold)
    sdf = build_sdf(walls, scene.bbox, resolution=resolution,
                    wall_half_width=wall_half_width)
    openings = doorway_openings(scene, depth=opening_depth)
    return GlobalMap(scene=scene, contours=contours, walls=walls,
                     sdf=sdf, openings=openings)


def export_sdf_text(grid: SdfGrid, path: str) -> None:
    """Write the grid as a portable text file (header, then row-major values)."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"origin {grid.origin.x!r} {grid.origin.y!r}\n")
        f.write(f"resolution {grid.resolution!r}\n")
        f.write(f"nx {grid.nx}\n")
        f.write(f"ny {grid.ny}\n")
        for j in range(grid.ny):
            f.write(" ".join(repr(float(v)) for v in grid.values[j]))
            f.write("\n")


def load_sdf_text(path: str) -> SdfGrid:
    """Read a grid written by export_sdf_text."""
    with open(path, "r", encoding="utf-8") as f:
        header = {}
        for _ in range(4):
            name, *vals = f.readline().split()
            header[name] = vals
        nx = int(header["nx"][0])
        ny = int(header["ny"][0])
        rows = [np.array([float(tok) for tok in f.readline().split()]) for _ in range(ny)]
    values = np.vstack(rows)
    if values.shape != (ny, nx):
        raise ValueError(f"grid body shape {values.shape} does not match header")
    values.setflags(write=False)
    return SdfGrid(origin=Point2(float(header["origin"][0]), float(header["origin"][1])),
                   resolution=float(header["resolution"][0]),
                   nx=nx, ny=ny, values=values)
