"""Global metric map construction from a scene graph.

The builder turns the semantic layer into geometry a sampling planner can use:

* a check that each room's box has a finite, positive extent,
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
formula returns. The nodes are grouped in square tiles. Because ``hypot(a, b)
>= max(|a|, |b|)``, the larger of a piece's smallest residual over a tile's
columns and its smallest over the tile's rows bounds the piece's distance to
every node of the tile from below. Each tile is first filled with its
lowest-bound piece; then a piece can lower a node only where its bound is
below the tile's largest value and its larger residual below the node's
value, and only there is it evaluated. Both facts are exact, and the grid
equals the full per-segment evaluation bit for bit.

A map that differs from an earlier one by a few wall pieces (a doorway
blocked) can be derived from it: only the tiles a changed piece can reach
are recomputed, by the same two passes, and the rest of the grid is copied
(``_derive_global_map``). ``build_blocked_map`` keeps each such map on the
map it came from, so a doorway blocked again costs a dictionary lookup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (DegenerateRoom, DoorwayPlacement, EmptyMap, OutOfBounds,
                     ValidationError)
from .geometry import Point2, WallSegment
from .scene_graph import (CLOSURE_TOL, Room, SceneGraph, SharedBoundary, _wall_interval,
                          set_doorway_blocked, shared_boundary)

DEFAULT_RESOLUTION = 0.05
DEFAULT_WALL_HALF_WIDTH = 0.05
DEFAULT_OPENING_DEPTH = 0.3
DEFAULT_ATTACH_THRESHOLD = 0.5

_CARVE_TOL = 1e-9
_MIN_PIECE = 1e-12
# Largest distance field build_sdf allocates: 128 MiB per float64 grid.
_MAX_NODES = 1 << 24
# edge of the square node tiles build_sdf bounds and evaluates together
_TILE = 16
# float64 elements of residuals, bounds or distances handled at a time
_CHUNK = 1 << 17


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

    @property
    def flat_values(self) -> memoryview:
        """Read-only row-major float64 view of ``values``: ``values[j, i]``
        is ``flat_values[j * nx + i]``, read as a Python float as cheaply as
        from a list, several times faster than ndarray indexing. The
        builders' ``values`` are viewed in O(1), sharing their memory, so
        the view cannot go stale; other arrays (built by hand) are copied."""
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        return memoryview(values.reshape(-1)).toreadonly()

    def certified_box(self, box: tuple[float, float, float, float], threshold: float
                      ) -> tuple[float, float, float, float] | None:
        """A closed sub-box of the closed ``box`` (x0, y0, x1, y1) in which
        every point's bilinear lookup reads four finite nodes of at least
        ``threshold``, or None when there is none.

        "Reads" means the cell that ``sdf_query`` computes, with its own float
        operations; they are monotone in the coordinate, so the cell of any
        point of the answer lies in the node window the answer was cut from,
        and the point is inside the grid (no OutOfBounds, ``tx`` and ``ty`` in
        [0, 1]). The window starts as the cells meeting ``box`` and is cut in
        from its sides until all its nodes pass; only that window of
        ``values`` is compared. A positive ``threshold`` is required. Nothing
        is cached: ``GlobalMap._certified`` keeps the planner's boxes."""
        window = _node_window(self, box)
        if not threshold > 0.0 or window is None:
            return None
        i0, i1, j0, j1 = window
        nodes = self.values[j0:j1 + 2, i0:i1 + 2]
        window = _clear_window(np.isfinite(nodes) & (nodes >= threshold))
        if window is None:
            return None
        r0, r1, c0, c1 = window
        x0, y0, x1, y1 = box
        ox, oy, res = self.origin.x, self.origin.y, self.resolution
        cx0 = max(x0, _cell_start(ox, res, i0 + c0))
        cy0 = max(y0, _cell_start(oy, res, j0 + r0))
        cx1 = min(x1, _cell_end(ox, res, i0 + c1, i0 + c1 == self.nx - 1))
        cy1 = min(y1, _cell_end(oy, res, j0 + r1, j0 + r1 == self.ny - 1))
        if not (cx0 <= cx1 and cy0 <= cy1):
            return None
        return cx0, cy0, cx1, cy1


@dataclass(frozen=True)
class GlobalMap:
    """Everything the geometric planner needs about one scene.

    A map keeps two caches, filled on first use: the planner's certified
    boxes (``_certified``) and, per doorway id, the map of its scene with
    that doorway blocked (``_blocked``, filled by ``build_blocked_map``).
    The second holds at most one map per doorway, each the size of this
    one (0.84 MB of field on grid8 at 0.05 m); copies and pickles leave it
    out.
    """

    scene: SceneGraph
    walls: CarvedWalls
    sdf: SdfGrid
    openings: dict[str, tuple[float, float, float, float]]

    @cached_property
    def _certified(self) -> dict:
        """The planner's certified boxes per (allowed rooms, clearance,
        openings), assembled once from ``sdf.certified_box``."""
        return {}

    @cached_property
    def _blocked(self) -> dict:
        """``build_blocked_map`` answers by doorway id."""
        return {}

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_blocked", None)
        return state


# ``point_in_contour(room, p)`` is ``room.contains(p)``. The name stays only
# because perfbench's HOT_TARGETS traces it; once ROADMAP item 3 retargets
# that list, it can go.
point_in_contour = Room.contains


def _boundaries(graph: SceneGraph) -> list[SharedBoundary | None]:
    """``shared_boundary`` of each doorway's rooms, None if it is blocked."""
    rooms = {r.id: r for r in graph.rooms}
    return [None if d.blocked else shared_boundary(rooms[d.rooms[0]], rooms[d.rooms[1]])
            for d in graph.doorways]


def _carve(graph: SceneGraph, boundaries: list[SharedBoundary | None]) -> CarvedWalls:
    """Cut each unblocked doorway's width, centred at its projection, out of
    the closest parallel walls of its two rooms. Raises DoorwayPlacement when
    those walls are the attachment threshold or more apart, or an opening
    leaves the shared overlap or meets another."""
    openings: dict[tuple[str, int], list[tuple[float, float, str]]] = {}
    for d, sb in zip(graph.doorways, boundaries):
        if d.blocked:
            continue
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
    if axis == "x":
        return WallSegment(Point2(fixed, lo), Point2(fixed, hi))
    return WallSegment(Point2(lo, fixed), Point2(hi, fixed))


def _openings(graph: SceneGraph, boundaries: list[SharedBoundary | None]
              ) -> dict[str, tuple[float, float, float, float]]:
    """Per unblocked doorway, the rectangle of its width along the wall and
    ``DEFAULT_OPENING_DEPTH`` across it, centred on the doorway centre."""
    depth = DEFAULT_OPENING_DEPTH
    rects: dict[str, tuple[float, float, float, float]] = {}
    for d, sb in zip(graph.doorways, boundaries):
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
    t*dy))`` with ``t = clip(((gx-ax)*dx + (gy-ay)*dy) / denom, 0, 1)``. Every
    piece is axis-aligned or a point, and two exact facts cut the work:

    * Separable form. For a piece with ``dy == 0.0`` the ``(gy-ay)*dy`` term
      is a signed zero, which leaves every sum it enters unchanged in value.
      So ``t``, the projection and the residual along x depend only on the
      node column and are computed on ``xs`` with the same operations in the
      same order; the residual across is ``ys - ay`` per row. Vertical pieces
      swap the axes, and pieces shorter than 1e-12 are points.
      ``hypot`` of the broadcast residuals is then the same elementwise call
      on the same operands (up to the sign of a zero, which hypot ignores).
    * Exact tile bound. ``hypot(a, b) >= max(|a|, |b|)``: the exact value
      is at least the larger operand, which is itself a float, so a
      faithfully rounded hypot cannot fall below it. The grid is padded to
      whole ``_TILE`` x ``_TILE`` tiles, and a piece's bound on a tile is
      ``max(min |rx|, min |ry|)`` over the tile's columns and rows: no node
      of the tile is closer to the piece. Pass 1 fills each tile with its
      lowest-bound piece (one batched ``hypot``; padding is set to 0.0
      before any maximum); let ``M`` be the largest value that leaves on
      the tile's grid nodes. Pass 2 evaluates there the other pieces whose
      bound is strictly below ``M``, each at the nodes where ``max(|rx|,
      |ry|)`` is below the node's current value. A node's nearest piece is
      then evaluated, or its distance is at least the node's value (its
      bound is at least ``M``, or its larger residual at least that
      value), which is therefore already the minimum. ``minimum`` is
      exact, so neither the order of the pieces nor skipping a repeated
      piece changes a value.

    Both passes run over a selection of tiles (``_fill_tiles``); this full
    build selects every tile, and ``_derive_sdf`` selects only the tiles a
    changed piece can reach, so there is one field formula.

    Pieces are handled in chunks of about ``_CHUNK`` residuals and bounds,
    and pass 2 evaluates at most about ``_CHUNK`` distances at a time, so
    the memory beyond the grid stays a small multiple of the node count and
    never grows with pieces times tiles. When every piece fits one chunk,
    both passes read the same bounds, computed once.

    Raises EmptyMap without segments, ValidationError for a piece neither
    exactly horizontal, vertical nor a point (a room's walls are the sides
    of its box, so carved walls pass), ValueError for a non-finite or
    non-positive resolution and ValidationError when the grid would have
    more than ``_MAX_NODES`` nodes; nothing is allocated before these checks.
    """
    if not walls.segments:
        raise EmptyMap("no wall segments to build a distance field from")
    pieces = _pieces(walls.segments)
    origin, nx, ny = _grid_frame(bbox, resolution)
    xs, ys = _node_coords(origin, resolution, nx, ny)
    dmin = np.empty((ys.size, xs.size))
    # view[J, I, a, b] is node (J * _TILE + a, I * _TILE + b)
    view = dmin.reshape(ys.size // _TILE, _TILE, xs.size // _TILE, _TILE).transpose(0, 2, 1, 3)
    rows, cols = np.indices(view.shape[:2])
    _fill_tiles(view, rows, cols, pieces, xs, ys, nx, ny)
    values = np.ascontiguousarray(dmin[:ny, :nx])
    np.negative(values, out=values, where=values < DEFAULT_WALL_HALF_WIDTH)
    values.setflags(write=False)
    return SdfGrid(origin=origin, resolution=resolution, nx=nx, ny=ny, values=values,
                   wall_half_width=DEFAULT_WALL_HALF_WIDTH)


def _grid_frame(bbox: tuple[Point2, Point2], resolution: float) -> tuple[Point2, int, int]:
    """Origin and node counts of the grid ``build_sdf`` samples over ``bbox``,
    after its checks of the resolution and the node limit."""
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
    return origin, nx, ny


def _node_coords(origin: Point2, resolution: float, nx: int, ny: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Node coordinates, padded to whole tiles: the first nx (ny) are the grid's."""
    return (origin.x + resolution * np.arange(-(-nx // _TILE) * _TILE),
            origin.y + resolution * np.arange(-(-ny // _TILE) * _TILE))


def _fill_tiles(view: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                pieces: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                nx: int, ny: int) -> None:
    """Both passes of ``build_sdf`` over a selection of tiles: ``view[..., a,
    b]`` receives the unsigned field of ``_pieces`` rows at node (``rows[...]
    * _TILE + a``, ``cols[...] * _TILE + b``), and 0.0 at padding nodes.

    ``rows`` and ``cols`` hold tile indices and have the shape of ``view``'s
    leading axes: the whole tile grid for a full build, one axis of selected
    tiles for a derivation."""
    chunks = _tile_bounds(pieces, xs, ys, rows, cols)
    one_chunk = len(pieces) <= _chunk_pieces(xs, ys, rows.size)
    if one_chunk:
        # both passes read the same bounds: compute them once
        chunks = list(chunks)
    seed = _seed_tiles(view, rows, cols, chunks, ny)
    # padding nodes, whose rows pass 1 left unset, must not raise a tile's maximum
    last_y, last_x = ys.size // _TILE - 1, xs.size // _TILE - 1
    view[rows == last_y, ny - last_y * _TILE:, :] = 0.0
    view[cols == last_x, :, nx - last_x * _TILE:] = 0.0
    _lower_tiles(view, rows, cols, seed,
                 chunks if one_chunk else _tile_bounds(pieces, xs, ys, rows, cols))


def _pieces(segments) -> np.ndarray:
    """Rows (ax, ay, dx, dy, denom) of the distinct segments, in first-seen
    order. Raises ValidationError for a piece that is neither exactly
    horizontal, exactly vertical nor a point (shorter than 1e-12)."""
    rows = []
    for (ax, ay), (bx, by) in dict.fromkeys(segments):
        dx = bx - ax
        dy = by - ay
        denom = dx * dx + dy * dy
        if not (denom < 1e-24 or dx == 0.0 or dy == 0.0):
            raise ValidationError(f"wall piece {(ax, ay)}-{(bx, by)} is not axis-aligned")
        rows.append((ax, ay, dx, dy, denom))
    return np.array(rows).reshape(-1, 5)


def _chunk_pieces(xs: np.ndarray, ys: np.ndarray, tiles: int) -> int:
    """Pieces per chunk of ``_tile_bounds`` over ``tiles`` tiles: about
    ``_CHUNK`` elements."""
    return max(1, _CHUNK // (tiles + xs.size + ys.size))


def _tile_bounds(pieces: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                 rows: np.ndarray, cols: np.ndarray):
    """Per chunk of ``pieces``: the first piece's index, the residuals along x
    ``rx[k, I, b]`` (column ``I * _TILE + b``) and along y ``ry[k, J, a]``,
    and ``bound[..., k]``, a lower bound on piece ``k``'s distance to every
    node of tile (``rows[...]``, ``cols[...]``).

    The bound is taken only at the tiles ``rows`` and ``cols`` select; a
    chunk holds at most about ``_CHUNK`` residuals and bounds, so memory
    never grows with pieces times tiles."""
    tiles_y, tiles_x = ys.size // _TILE, xs.size // _TILE
    chunk = _chunk_pieces(xs, ys, np.broadcast(rows, cols).size)
    for k0 in range(0, len(pieces), chunk):
        ax, ay, dx, dy, denom = pieces[k0:k0 + chunk].T
        rx = xs - ax[:, None]
        ry = ys - ay[:, None]
        segment = denom >= 1e-24
        for r, coords, a, d, sel in ((rx, xs, ax, dx, segment & (dy == 0.0)),
                                     (ry, ys, ay, dy, segment & (dx == 0.0))):
            if sel.any():
                a, d = a[sel, None], d[sel, None]
                t = r[sel] * d / denom[sel, None]
                np.clip(t, 0.0, 1.0, out=t)
                r[sel] = coords - (a + t * d)
        rx = rx.reshape(-1, tiles_x, _TILE)
        ry = ry.reshape(-1, tiles_y, _TILE)
        bound = np.maximum(np.abs(ry).min(axis=2).T[rows], np.abs(rx).min(axis=2).T[cols])
        yield k0, rx, ry, bound


def _seed_tiles(view: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                chunks, ny: int) -> np.ndarray:
    """Fill every selected tile with the distances to its lowest-bound piece,
    given the ``_tile_bounds`` chunks, and return that piece's index per
    tile. Without pieces every node holds ``hypot(inf, inf)``, which is inf,
    and every index is -1. Padding rows (``ny`` on) are left unset."""
    best = np.full(rows.shape, np.inf)
    seed = np.full(rows.shape, -1)
    seed_rx = np.full(rows.shape + (_TILE,), np.inf)
    seed_ry = np.full(rows.shape + (_TILE,), np.inf)
    for k0, rx, ry, bound in chunks:
        k = bound.argmin(axis=-1)
        low = np.take_along_axis(bound, k[..., None], axis=-1)[..., 0]
        lower = low < best
        k = k[lower]
        best[lower] = low[lower]
        seed[lower] = k0 + k
        seed_rx[lower] = rx[k, cols[lower]]
        seed_ry[lower] = ry[k, rows[lower]]
    # rows never decreases along its first axis: the last tile row comes last
    k = np.count_nonzero(rows.reshape(len(rows), -1)[:, 0] < (ny - 1) // _TILE)
    np.hypot(seed_rx[:k, ..., None, :], seed_ry[:k, ..., :, None], out=view[:k])
    ly = (ny - 1) % _TILE + 1
    np.hypot(seed_rx[k:, ..., None, :], seed_ry[k:, ..., :ly, None], out=view[k:, ..., :ly, :])
    return seed


def _lower_tiles(view: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                 seed: np.ndarray, chunks) -> None:
    """Fold into every selected tile each piece but its seed whose bound
    there is below the tile's largest value, at the nodes it can lower,
    given the ``_tile_bounds`` chunks.

    The (tile, piece) pairs go in ranks: rank r holds each tile's r-th pair,
    so one rank's tiles are distinct and each rank is one gather, ``hypot``,
    ``minimum`` and scatter per batch."""
    # a, then b: on the full grid's strided view, four times faster than both at once
    top = view.max(axis=-2).max(axis=-1)[..., None]
    batch = max(1, _CHUNK // (_TILE * _TILE))
    for k0, rx, ry, bound in chunks:
        near = bound < top
        near &= seed[..., None] != np.arange(k0, k0 + near.shape[-1])
        *tile, kk = np.nonzero(near)
        rank = np.cumsum(near, axis=-1)[near]
        for r in range(1, rank.max(initial=0) + 1):
            pairs = np.flatnonzero(rank == r)
            for s in range(0, pairs.size, batch):
                p = pairs[s:s + batch]
                at = tuple(t[p] for t in tile)
                k = kk[p]
                block = view[at]
                a = rx[k, cols[at]][:, None, :]
                b = ry[k, rows[at]][:, :, None]
                # hypot(a, b) >= max(|a|, |b|): no other node can be lowered
                near = np.maximum(np.abs(a), np.abs(b)) < block
                np.minimum(block, np.hypot(a, b, out=None, where=near), out=block, where=near)
                view[at] = block


def _derive_sdf(grid: SdfGrid, old: CarvedWalls, walls: CarvedWalls,
                bbox: tuple[Point2, Point2]) -> SdfGrid | None:
    """``build_sdf(walls, bbox, grid.resolution)`` derived from ``grid``,
    which must be ``build_sdf(old, bbox, grid.resolution)``; None when the
    grid does not span that bbox, records no band bound or ``walls`` is
    empty. The caller then builds in full.

    The pieces in only one of ``old`` and ``walls`` are the changed ones. A
    tile is recomputed, by both passes of ``build_sdf`` with every piece of
    ``walls``, when a changed piece's ``_tile_bounds`` bound there is at most
    the tile's largest old unsigned value ``M``; every other tile is copied.
    That is exact: in a copied tile a removed piece lay farther than ``M``
    from every node, so it was no node's minimum, and an added piece lies
    farther than ``M`` too, so it lowers no node. Each node's old minimum
    is therefore the new one, and the copy keeps its bits."""
    res, nx, ny = grid.resolution, grid.nx, grid.ny
    if (grid.wall_half_width != DEFAULT_WALL_HALF_WIDTH or not walls.segments
            or _grid_frame(bbox, res) != (grid.origin, nx, ny)):
        return None
    pieces = _pieces(walls.segments)
    changed = _pieces(set(old.segments) ^ set(walls.segments))

    xs, ys = _node_coords(grid.origin, res, nx, ny)
    tiles_y, tiles_x = ys.size // _TILE, xs.size // _TILE
    # the old grid padded with 0.0, and each tile's largest unsigned value
    dmin = np.zeros((ys.size, xs.size))
    dmin[:ny, :nx] = grid.values
    strips = dmin.reshape(tiles_y, _TILE, -1)
    top = np.maximum(strips.max(axis=1), -strips.min(axis=1))
    top = top.reshape(tiles_y, tiles_x, _TILE).max(axis=2)
    selected = np.zeros(top.shape, dtype=bool)
    every = np.arange(tiles_y)[:, None], np.arange(tiles_x)[None, :]
    for _, _, _, bound in _tile_bounds(changed, xs, ys, *every):
        selected |= (bound <= top[:, :, None]).any(axis=2)
    rows, cols = np.nonzero(selected)

    view = dmin.reshape(tiles_y, _TILE, tiles_x, _TILE).transpose(0, 2, 1, 3)
    step = max(1, _CHUNK // (_TILE * _TILE))
    for s in range(0, rows.size, step):
        tr, tc = rows[s:s + step], cols[s:s + step]
        work = np.empty((tr.size, _TILE, _TILE))
        _fill_tiles(work, tr, tc, pieces, xs, ys, nx, ny)
        np.negative(work, out=work, where=work < DEFAULT_WALL_HALF_WIDTH)
        view[tr, tc] = work
    values = np.ascontiguousarray(dmin[:ny, :nx])
    values.setflags(write=False)
    return SdfGrid(origin=grid.origin, resolution=res, nx=nx, ny=ny, values=values,
                   wall_half_width=DEFAULT_WALL_HALF_WIDTH)


def _node_window(grid: SdfGrid, box: tuple[float, float, float, float]
                 ) -> tuple[int, int, int, int] | None:
    """Cells i0..i1 and j0..j1 that ``sdf_query`` reads for the closed
    ``box``; its node window is ``values[j0:j1 + 2, i0:i1 + 2]``. None when
    a point of the box would read no cell or weigh a node outside [0, 1]."""
    x0, y0, x1, y1 = box
    ox, oy, res = grid.origin.x, grid.origin.y, grid.resolution
    fx0, fx1 = (x0 - ox) / res, (x1 - ox) / res
    fy0, fy1 = (y0 - oy) / res, (y1 - oy) / res
    # a negative fx or one past the last node would weigh nodes outside [0, 1]
    if not (0.0 <= fx0 <= fx1 <= grid.nx - 1 and 0.0 <= fy0 <= fy1 <= grid.ny - 1):
        return None
    # the cells sdf_query reads for the box's edges, hence for all of it
    i0, i1 = int(fx0), min(int(fx1), grid.nx - 2)
    j0, j1 = int(fy0), min(int(fy1), grid.ny - 2)
    if i0 > i1 or j0 > j1:
        return None
    return i0, i1, j0, j1


def _clear_window(good: np.ndarray) -> tuple[int, int, int, int] | None:
    """Node rows r0..r1 and columns c0..c1 (inclusive, at least one cell)
    of ``good`` that are all True, cut in from the sides, or None.

    The first cut goes to the outermost True nodes of three probe rows and
    columns at a quarter, half and three quarters across; a room's wall
    bands usually bound them on every side, and a doorway gap crosses at
    most some of them. Then each round drops the outer line of the side(s)
    with the most False nodes on it; when only inner nodes are False, the
    side that keeps the most nodes cuts in past all of them. If that keeps
    no cell (a narrow opening's long sides can hold more False nodes than
    its short sides have nodes), the rounds rerun on the whole window by
    each side's share of False nodes."""
    r1, c1 = good.shape[0] - 1, good.shape[1] - 1
    rows = good[[r1 // 4, r1 // 2, 3 * r1 // 4]]
    cols = good[:, [c1 // 4, c1 // 2, 3 * c1 // 4]].T
    # a probe without a True node bounds nothing: its argmax is 0 both ways
    first_c, last_c = rows.argmax(axis=1).max(), c1 - rows[:, ::-1].argmax(axis=1).max()
    first_r, last_r = cols.argmax(axis=1).max(), r1 - cols[:, ::-1].argmax(axis=1).max()
    whole = (0, r1, 0, c1)
    probed = ((int(first_r), int(last_r), int(first_c), int(last_c))
              if first_c < last_c and first_r < last_r else whole)
    for (r0, r1, c0, c1), share in ((probed, False), (whole, True)):
        while r0 < r1 and c0 < c1:
            w = good[r0:r1 + 1, c0:c1 + 1]
            h, n = w.shape
            low = (n - np.count_nonzero(w[0]), n - np.count_nonzero(w[-1]),
                   h - np.count_nonzero(w[:, 0]), h - np.count_nonzero(w[:, -1]))
            if share:
                low = (low[0] / n, low[1] / n, low[2] / h, low[3] / h)
            worst = max(low)
            if worst:
                top, bottom, left, right = (k == worst for k in low)
                r0, r1, c0, c1 = r0 + top, r1 - bottom, c0 + left, c1 - right
                continue
            if w.all():
                # Python ints: numpy scalars would leak into the box's floats
                return int(r0), int(r1), int(c0), int(c1)
            rows, cols = np.nonzero(~w)
            rows_lo, rows_hi = r0 + int(rows.min()), r0 + int(rows.max())
            cols_lo, cols_hi = c0 + int(cols.min()), c0 + int(cols.max())
            cuts = [(r0, rows_lo - 1, c0, c1), (rows_hi + 1, r1, c0, c1),
                    (r0, r1, c0, cols_lo - 1), (r0, r1, cols_hi + 1, c1)]
            r0, r1, c0, c1 = max(cuts, key=lambda c: (c[1] - c[0] + 1) * (c[3] - c[2] + 1))
    return None


def _cell_start(o: float, res: float, k: int) -> float:
    """A coordinate from which on ``(x - o) / res``, as ``sdf_query``
    computes it, is at least ``k``: the float steps are monotone."""
    x = o + k * res
    while (x - o) / res < k:
        x = math.nextafter(x, math.inf)
    return x


def _cell_end(o: float, res: float, k: int, last: bool) -> float:
    """A coordinate up to which ``(x - o) / res`` stays below node ``k``,
    or at most ``k`` when ``k`` is the grid's last node."""
    x = o + k * res
    while (x - o) / res > k if last else (x - o) / res >= k:
        x = math.nextafter(x, -math.inf)
    return x


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
    node = grid.values.item  # Python scalars, as the planner's inline lookups read
    v00 = node(j0, i0)
    v10 = node(j0, i0 + 1)
    v01 = node(j0 + 1, i0)
    v11 = node(j0 + 1, i0 + 1)
    return ((v00 * (1.0 - tx) + v10 * tx) * (1.0 - ty)
            + (v01 * (1.0 - tx) + v11 * tx) * ty)


def build_global_map(scene: SceneGraph,
                     resolution: float = DEFAULT_RESOLUTION) -> GlobalMap:
    """Build carved walls, SDF and doorway openings for one scene.

    A room's walls are the sides of its ``bounds``, so a ``Room`` built by
    hand whose bounds are not four finite numbers, each extent above
    ``CLOSURE_TOL``, raises DegenerateRoom before any field is built.
    """
    return _global_map(scene, lambda walls: build_sdf(walls, scene.bbox, resolution=resolution))


def _derive_global_map(old: GlobalMap, scene: SceneGraph) -> GlobalMap:
    """``build_global_map(scene, old.sdf.resolution)``, bit for bit, with the
    field derived from ``old``'s by ``_derive_sdf`` where it can be, and
    built in full where it cannot."""
    return _global_map(scene, lambda walls: _derive_sdf(old.sdf, old.walls, walls, scene.bbox)
                       or build_sdf(walls, scene.bbox, resolution=old.sdf.resolution))


def _global_map(scene: SceneGraph, field) -> GlobalMap:
    """The map of ``scene``, with ``field(carved walls)`` as its distance field."""
    _check_rooms(scene)
    boundaries = _boundaries(scene)
    walls = _carve(scene, boundaries)
    return GlobalMap(scene=scene, walls=walls, sdf=field(walls),
                     openings=_openings(scene, boundaries))


def build_blocked_map(gmap: GlobalMap, doorway_id: str) -> GlobalMap:
    """``build_global_map(set_doorway_blocked(gmap.scene, doorway_id,
    True))``, bit for bit.

    ``gmap`` is itself such a map, built or derived. When it is at
    ``DEFAULT_RESOLUTION`` the answer is derived from it
    (``_derive_global_map``) and kept in ``gmap._blocked``, so later calls
    return the same map object, with the certified boxes planning on it has
    built; a doorway ``gmap`` already blocks answers ``gmap`` itself, so a
    chain of maps grows only by doorways not yet blocked. At another
    resolution the answer is built in full and not kept. Raises UnknownId
    for a doorway the scene does not have; a call that raises keeps
    nothing."""
    cache = gmap._blocked
    if doorway_id in cache:
        return cache[doorway_id]
    scene = set_doorway_blocked(gmap.scene, doorway_id, True)
    if gmap.sdf.resolution != DEFAULT_RESOLUTION:
        return build_global_map(scene)
    if scene == gmap.scene:
        return gmap
    cache[doorway_id] = _derive_global_map(gmap, scene)
    return cache[doorway_id]


def _check_rooms(scene: SceneGraph) -> None:
    if not scene.rooms:
        raise EmptyMap("scene has no rooms")
    for room in scene.rooms:
        b = room.bounds
        if not (len(b) == 4 and all(map(math.isfinite, b))
                and b[2] - b[0] > CLOSURE_TOL and b[3] - b[1] > CLOSURE_TOL):
            raise DegenerateRoom(f"room {room.id}: bounds {b} are not a box")
