"""Global metric map construction from a scene graph.

The builder turns the semantic layer into geometry a sampling planner can use:

* a check that each room's stored box is the rectangle its walls close,
* the wall set with doorway-width gaps carved out of both adjacent walls,
* a signed distance field sampled on a regular grid, exact at the nodes and
  bilinearly interpolated between them,
* an axis-aligned opening rectangle per doorway for constrained validity.

Distances stored in the grid are exact point-to-segment distances against the
carved wall set. Nodes closer to a wall than the wall's half thickness store
the negated distance, which marks the inside of the obstacle band while
keeping the magnitude exact.

Walls are axis-aligned, so the field is built per segment from 1-D residuals:
the clamped projection onto a horizontal piece depends only on the node
column and the offset across it only on the row, and ``hypot`` of the two
broadcast residuals returns, element by element, the floats the full-grid
formula returns. A node can only get closer to a piece than its current
minimum if both residuals are below that minimum, because ``hypot(a, b) >=
max(|a|, |b|)``; so each piece evaluates only the block of rows and columns
whose largest current minimum exceeds its residual there. Both facts are
exact, and the grid equals the full per-segment evaluation bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (DegenerateRoom, DoorwayPlacement, EmptyMap, OutOfBounds,
                     ValidationError)
from .geometry import Point2, WallSegment, point_in_ring
from .scene_graph import Room, SceneGraph, _rect_from_walls, shared_boundary

DEFAULT_RESOLUTION = 0.05
DEFAULT_WALL_HALF_WIDTH = 0.05
DEFAULT_OPENING_DEPTH = 0.3
DEFAULT_ATTACH_THRESHOLD = 0.5

_CARVE_TOL = 1e-9
_MIN_PIECE = 1e-12
# Largest distance field build_sdf allocates: 128 MiB per float64 grid.
_MAX_NODES = 1 << 24


@dataclass(frozen=True)
class CarvedWalls:
    """All wall segments after removing doorway openings."""

    segments: tuple[WallSegment, ...]


@dataclass(frozen=True)
class SdfGrid:
    """Wall distance field sampled on a regular grid.

    ``wall_half_width`` is the band bound: nodes closer than it to a wall
    store their distance negated, every other node stores its exact
    distance. ``build_sdf`` records it; the default ``math.inf`` means no
    bound is known (a grid built by hand), and the
    planner then makes no use of the field's Lipschitz bound.
    """

    origin: Point2
    resolution: float
    nx: int
    ny: int
    values: np.ndarray  # shape (ny, nx); values[j, i] sampled at origin + (i, j) * resolution
    wall_half_width: float = math.inf

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
    walls: CarvedWalls
    sdf: SdfGrid
    openings: dict[str, tuple[float, float, float, float]]


def point_in_contour(room: Room, p: Point2) -> bool:
    """Even-odd containment in the room's ring, boundary counting as inside."""
    return point_in_ring(p, room.ring, boundary_tol=1e-9)


def _wall_interval(wall: WallSegment) -> tuple[str, float, float, float]:
    """(axis, fixed coordinate, lo, hi) of an axis-aligned wall."""
    if abs(wall.a.x - wall.b.x) <= 1e-6:
        lo, hi = sorted((wall.a.y, wall.b.y))
        return "v", wall.a.x, lo, hi
    lo, hi = sorted((wall.a.x, wall.b.x))
    return "h", wall.a.y, lo, hi


def carve_doorways(graph: SceneGraph) -> CarvedWalls:
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
        if sb.gap >= DEFAULT_ATTACH_THRESHOLD:
            raise DoorwayPlacement(
                f"doorway {d.id}: closest walls are {sb.gap:.3f} m apart "
                f"(threshold {DEFAULT_ATTACH_THRESHOLD:.3f} m)")
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


def doorway_openings(graph: SceneGraph) -> dict[str, tuple[float, float, float, float]]:
    """Axis-aligned rectangle per unblocked doorway: doorway width along the
    wall, ``DEFAULT_OPENING_DEPTH`` across it, centered on the doorway center."""
    depth = DEFAULT_OPENING_DEPTH
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
              resolution: float = DEFAULT_RESOLUTION) -> SdfGrid:
    """Sample the wall distance field on a regular grid.

    The grid covers the bbox inflated by two cells on every side. Node values
    are exact (minimum over segments of the clamped point-to-segment
    distance); negation marks nodes closer than ``DEFAULT_WALL_HALF_WIDTH``
    to a wall, inside the wall band.

    Every value is bit-identical to folding in, segment by segment with
    ``minimum``, the full-grid formula ``hypot(gx - (ax + t*dx), gy - (ay +
    t*dy))`` with ``t = clip(((gx-ax)*dx + (gy-ay)*dy) / denom, 0, 1)``. Two
    exact facts cut the work for axis-aligned pieces:

    * Separable form. For a piece with ``dy == 0.0`` the ``(gy-ay)*dy`` term
      is a signed zero, which leaves every sum it enters unchanged in value.
      So ``t``, the projection and the residual along x depend only on the
      node column and are computed on ``xs`` with the same operations in the
      same order; the residual across is ``ys - ay`` per row. Vertical pieces
      swap the axes, and pieces shorter than 1e-12 are points.
      ``hypot`` of the broadcast residuals is then the same elementwise call
      on the same operands (up to the sign of a zero, which hypot ignores).
    * Exact window. ``hypot(a, b) >= max(|a|, |b|)``: the exact value is at
      least the larger operand, which is itself a float, so a faithfully
      rounded hypot cannot fall below it. Node ``(j, i)`` can therefore
      lower its running minimum only if ``|ry[j]|`` is below the largest
      minimum of row j and ``|rx[i]|`` below the largest of column i. Those
      maxima are refreshed only for the rows and columns a piece touched;
      the others are stale, hence too large, which only widens a window.
      Long pieces go first so the maxima fall early, and every later piece
      evaluates only the bounding block of its candidate rows and columns.
      ``minimum`` is exact, so neither the order of the pieces nor skipping
      a repeated piece changes a value.

    Pieces that are not exactly axis-aligned (the loader accepts walls
    tilted by up to ``CLOSURE_TOL``) take the full-grid formula.

    Raises EmptyMap without segments, ValueError for a non-finite or
    non-positive resolution and ValidationError when the grid would have
    more than ``_MAX_NODES`` nodes; nothing is allocated before these checks.
    """
    if not walls.segments:
        raise EmptyMap("no wall segments to build a distance field from")
    if not math.isfinite(resolution):
        raise ValueError(f"resolution must be finite, got {resolution!r}")
    if resolution <= 0.0:
        raise ValueError("resolution must be positive")
    lo, hi = bbox
    origin = Point2(lo.x - 2.0 * resolution, lo.y - 2.0 * resolution)
    span_x = (hi.x + 2.0 * resolution) - origin.x
    span_y = (hi.y + 2.0 * resolution) - origin.y
    cells_x = span_x / resolution - 1e-9
    cells_y = span_y / resolution - 1e-9
    where = f"bbox {tuple(lo)}-{tuple(hi)} at resolution {resolution!r}"
    if not (math.isfinite(cells_x) and math.isfinite(cells_y)):
        raise ValidationError(f"{where} does not span a finite grid")
    nx = int(math.ceil(cells_x)) + 1
    ny = int(math.ceil(cells_y)) + 1
    if nx * ny > _MAX_NODES:
        raise ValidationError(f"{where} needs {nx} x {ny} = {nx * ny} "
                              f"distance-field nodes (limit {_MAX_NODES})")

    xs = origin.x + resolution * np.arange(nx)
    ys = origin.y + resolution * np.arange(ny)
    dmin = np.full((ny, nx), np.inf)
    pieces = []  # (squared length, residual per column, residual per row)
    for seg in dict.fromkeys(walls.segments):
        ax, ay = seg.a
        bx, by = seg.b
        dx = bx - ax
        dy = by - ay
        denom = dx * dx + dy * dy
        if denom < 1e-24:
            pieces.append((denom, xs - ax, ys - ay))
        elif dy == 0.0:
            t = (xs - ax) * dx / denom
            np.clip(t, 0.0, 1.0, out=t)
            pieces.append((denom, xs - (ax + t * dx), ys - ay))
        elif dx == 0.0:
            t = (ys - ay) * dy / denom
            np.clip(t, 0.0, 1.0, out=t)
            pieces.append((denom, xs - ax, ys - (ay + t * dy)))
        else:
            gx, gy = np.meshgrid(xs, ys)  # shape (ny, nx)
            t = ((gx - ax) * dx + (gy - ay) * dy) / denom
            np.clip(t, 0.0, 1.0, out=t)
            np.minimum(dmin, np.hypot(gx - (ax + t * dx), gy - (ay + t * dy)), out=dmin)

    rowmax = dmin.max(axis=1)
    colmax = dmin.max(axis=0)
    pieces.sort(key=lambda piece: piece[0], reverse=True)
    for _, rx, ry in pieces:
        rows = np.flatnonzero(np.abs(ry) < rowmax)
        cols = np.flatnonzero(np.abs(rx) < colmax)
        if rows.size == 0 or cols.size == 0:
            continue
        j0, j1 = rows[0], rows[-1] + 1
        i0, i1 = cols[0], cols[-1] + 1
        block = dmin[j0:j1, i0:i1]
        np.minimum(block, np.hypot(rx[i0:i1], ry[j0:j1, None]), out=block)
        dmin[j0:j1].max(axis=1, out=rowmax[j0:j1])
        dmin[:, i0:i1].max(axis=0, out=colmax[i0:i1])
    values = np.where(dmin < DEFAULT_WALL_HALF_WIDTH, -dmin, dmin)
    values.setflags(write=False)
    return SdfGrid(origin=origin, resolution=resolution, nx=nx, ny=ny, values=values,
                   wall_half_width=DEFAULT_WALL_HALF_WIDTH)


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
                     resolution: float = DEFAULT_RESOLUTION) -> GlobalMap:
    """Build carved walls, SDF and doorway openings for one scene.

    The planner reads each room's ``bounds``, so a room whose walls do not
    close exactly that box (a ``Room`` built by hand) raises DegenerateRoom.
    """
    if not scene.rooms:
        raise EmptyMap("scene has no rooms")
    for room in scene.rooms:
        try:
            box = _rect_from_walls(room.walls)
        except ValueError as e:
            raise DegenerateRoom(f"room {room.id}: {e}") from e
        if box != room.bounds:
            raise DegenerateRoom(f"room {room.id}: bounds {room.bounds} are not "
                                 f"the box {box} its walls close")
    walls = carve_doorways(scene)
    sdf = build_sdf(walls, scene.bbox, resolution=resolution)
    return GlobalMap(scene=scene, walls=walls, sdf=sdf,
                     openings=doorway_openings(scene))
