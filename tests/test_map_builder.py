"""Metric map construction: room boxes, wall carving, distance field."""

from __future__ import annotations

import copy
import gc
import math
import pickle
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semnav import (CarvedWalls, DegenerateRoom, Doorway, DoorwayPlacement,
                    EmptyMap, OutOfBounds, Point2, Room, SceneGraph,
                    SdfGrid, UnknownId, ValidationError, WallSegment,
                    build_global_map, build_sdf, load_map, point_in_contour,
                    save_map, sdf_query, set_doorway_blocked)
from semnav import map_builder
from semnav.geometry import dist
from semnav.geometric_planner import (_SQRT2, GeometricProblem, PlannerConfig, Region,
                                      _stride_eps, plan)
from semnav.scene_graph import CLOSURE_TOL, _rect_from_walls

from conftest import fixture_path, rect_room
from oracles import min_wall_distance, winding_contains


def _scene(rooms, doorways=(), bbox=None) -> SceneGraph:
    if bbox is None:
        xs = [b for r in rooms for b in (r.bounds[0], r.bounds[2])]
        ys = [b for r in rooms for b in (r.bounds[1], r.bounds[3])]
        bbox = (Point2(min(xs), min(ys)), Point2(max(xs), max(ys)))
    return SceneGraph(frame="map", bbox=bbox, rooms=tuple(rooms),
                      doorways=tuple(doorways))


# ---------------------------------------------------------------- contours


@pytest.mark.parametrize("name", ["threeroom", "ring4", "grid8"])
def test_contour_is_the_room_box(name):
    for room in load_map(fixture_path(f"{name}.map")).rooms:
        assert _rect_from_walls(room.walls) == room.bounds


def test_contour_degenerate_room():
    good = rect_room("a", 0.0, 0.0, 2.0, 2.0)
    broken = Room(id="bad", center=good.center, walls=good.walls[:3],
                  bounds=good.bounds)
    with pytest.raises(DegenerateRoom, match="bad"):
        build_global_map(_scene([good, broken]))


def test_build_global_map_rejects_bounds_its_walls_do_not_close():
    # the planner reads bounds, so a hand-built room whose box disagrees
    # with its walls would plan in a room the distance field does not have
    good = rect_room("a", 0.0, 0.0, 2.0, 2.0)
    shifted = Room(id="off", center=good.center, walls=good.walls,
                   bounds=(0.0, 0.0, 2.0, 3.0))
    with pytest.raises(DegenerateRoom, match="off"):
        build_global_map(_scene([shifted]))


@pytest.mark.parametrize("walls, on_bounds", [
    # x = 2 tilted at end b by just under CLOSURE_TOL: the box moves off bounds
    (lambda w: (w[0], WallSegment(w[1].a, Point2(2.0 + 0.999 * CLOSURE_TOL, 2.0)), *w[2:]),
     False),
    # x = 2 tilted by 2**-20 about its midpoint: the box is still bounds
    (lambda w: (w[0], WallSegment(Point2(2.0 - 2.0 ** -21, 0.0),
                                  Point2(2.0 + 2.0 ** -21, 2.0)), *w[2:]), True),
    # the bottom wall ends CLOSURE_TOL short of the corner
    (lambda w: (WallSegment(Point2(0.0, 0.0), Point2(2.0 - CLOSURE_TOL, 0.0)), *w[1:]), True),
], ids=["tilted", "tilted-about-midpoint", "short"])
def test_build_global_map_rejects_hand_built_walls_off_their_box(walls, on_bounds,
                                                                 monkeypatch):
    # Room.build would snap these walls; the constructor keeps them, and the
    # map build rejects them before a field build could meet a tilted piece
    good = rect_room("a", 0.0, 0.0, 2.0, 2.0)
    off = Room(id="off", center=good.center, walls=walls(good.walls), bounds=good.bounds)
    assert (_rect_from_walls(off.walls) == off.bounds) == on_bounds
    monkeypatch.setattr(map_builder, "build_sdf", _forbidden)
    with pytest.raises(DegenerateRoom, match="off"):
        build_global_map(_scene([off]))


def test_point_in_contour(threeroom_scene):
    c = threeroom_scene.room("r2")
    assert point_in_contour(c, Point2(6.0, 2.0))
    assert point_in_contour(c, Point2(4.0, 0.0))  # corner counts as inside
    assert not point_in_contour(c, Point2(3.9, 2.0))
    x0, y0, x1, y1 = c.bounds
    ring = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    rng = random.Random(3)
    lo, hi = threeroom_scene.bbox
    for _ in range(2000):
        p = Point2(rng.uniform(lo.x - 1, hi.x + 1), rng.uniform(lo.y - 1, hi.y + 1))
        assert point_in_contour(c, p) == winding_contains(ring, p)


# ----------------------------------------------------------------- carving


def test_carve_counts(threeroom_map, ring4_map, grid8_map):
    # each interior opening splits one wall into two pieces
    assert len(threeroom_map.walls.segments) == 12 + 2 * 2
    assert len(ring4_map.walls.segments) == 16 + 4 * 2
    assert len(grid8_map.walls.segments) == 32 + 10 * 2


def test_carved_length_conservation(grid8_scene, grid8_map):
    total_wall = sum(dist(w.a, w.b) for r in grid8_scene.rooms for w in r.walls)
    carved = sum(dist(s.a, s.b) for s in grid8_map.walls.segments)
    removed = sum(2.0 * d.width for d in grid8_scene.doorways if not d.blocked)
    assert math.isclose(total_wall - carved, removed, abs_tol=1e-9)


def test_carve_piece_geometry(threeroom_map):
    walls = threeroom_map.walls.segments
    on_line = sorted(
        (min(s.a.y, s.b.y), max(s.a.y, s.b.y))
        for s in walls if abs(s.a.x - 4.0) < 1e-12 and abs(s.b.x - 4.0) < 1e-12)
    # doorway d1 (center y=2, width 1) carves both rooms' walls at x=4
    assert on_line == [(0.0, 1.5), (0.0, 1.5), (2.5, 4.0), (2.5, 4.0)]


def test_blocked_doorway_carves_nothing(threeroom_scene):
    from semnav import set_doorway_blocked
    blocked = set_doorway_blocked(threeroom_scene, "d1", True)
    gmap = build_global_map(blocked)
    walls = gmap.walls.segments
    assert len(walls) == 12 + 1 * 2
    full_right = [s for s in walls
                  if abs(s.a.x - 4.0) < 1e-12 and abs(s.b.x - 4.0) < 1e-12]
    assert len(full_right) == 2  # both rooms keep the uncut wall
    assert all(dist(s.a, s.b) == 4.0 for s in full_right)
    assert "d1" not in gmap.openings


def test_attach_threshold_rejects_distant_walls():
    a = rect_room("a", 0.0, 0.0, 2.0, 2.0)
    b = rect_room("b", 3.0, 0.0, 5.0, 2.0)
    d = Doorway(id="d", center=Point2(2.5, 1.0), width=0.5, rooms=("a", "b"))
    scene = _scene([a, b], [d])
    with pytest.raises(DoorwayPlacement, match="d: closest walls"):
        build_global_map(scene)


def test_opening_outside_overlap_rejected():
    a = rect_room("a", 0.0, 0.0, 4.0, 4.0)
    b = rect_room("b", 4.0, 0.0, 8.0, 2.0)
    d = Doorway(id="d", center=Point2(4.0, 1.8), width=1.0, rooms=("a", "b"))
    with pytest.raises(DoorwayPlacement, match="projects outside"):
        build_global_map(_scene([a, b], [d]))


def test_overlapping_openings_rejected():
    a = rect_room("a", 0.0, 0.0, 4.0, 4.0)
    b = rect_room("b", 4.0, 0.0, 8.0, 4.0)
    d1 = Doorway(id="d1", center=Point2(4.0, 2.0), width=1.5, rooms=("a", "b"))
    d2 = Doorway(id="d2", center=Point2(4.0, 2.5), width=1.5, rooms=("a", "b"))
    with pytest.raises(DoorwayPlacement, match="overlaps"):
        build_global_map(_scene([a, b], [d1, d2]))


def test_opening_rects(threeroom_map):
    rects = threeroom_map.openings
    assert set(rects) == {"d1", "d2"}
    x0, y0, x1, y1 = rects["d1"]
    assert (x0, x1) == (pytest.approx(3.85), pytest.approx(4.15))
    assert (y0, y1) == (1.5, 2.5)


# --------------------------------------------------------- distance field


def _single_room_map():
    room = rect_room("a", 0.0, 0.0, 4.0, 4.0)
    return build_global_map(_scene([room]))


def test_sdf_known_values():
    gmap = _single_room_map()
    assert sdf_query(gmap.sdf, Point2(2.0, 2.0)) == pytest.approx(2.0, abs=1e-9)
    assert sdf_query(gmap.sdf, Point2(1.0, 2.0)) == pytest.approx(1.0, abs=1e-9)
    assert sdf_query(gmap.sdf, Point2(3.5, 2.0)) == pytest.approx(0.5, abs=1e-9)


def test_sdf_sign_marks_wall_band():
    room = rect_room("a", 0.0, 0.0, 4.0, 4.0)
    walls = build_global_map(_scene([room])).walls
    grid = build_sdf(walls, (Point2(0, 0), Point2(4, 4)), resolution=0.025)
    xs = grid.origin.x + grid.resolution * np.arange(grid.nx)
    ys = grid.origin.y + grid.resolution * np.arange(grid.ny)
    j = int(np.argmin(np.abs(ys - 2.0)))
    i = int(np.argmin(np.abs(xs - 0.025)))  # one cell inside the left wall line
    assert grid.values[j, i] == pytest.approx(-0.025, abs=1e-9)
    i_on = int(np.argmin(np.abs(xs - 0.0)))
    assert abs(grid.values[j, i_on]) <= 1e-9


def test_sdf_nodes_exact_vs_oracle(threeroom_map):
    grid = threeroom_map.sdf
    segments = threeroom_map.walls.segments
    rng = random.Random(11)
    for _ in range(300):
        i = rng.randrange(grid.nx)
        j = rng.randrange(grid.ny)
        x = grid.origin.x + grid.resolution * i
        y = grid.origin.y + grid.resolution * j
        d = min_wall_distance(Point2(x, y), segments)
        expect = -d if d < 0.05 else d
        assert grid.values[j, i] == pytest.approx(expect, abs=1e-9)


def test_sdf_query_at_nodes_matches_grid(threeroom_map):
    grid = threeroom_map.sdf
    rng = random.Random(12)
    for _ in range(200):
        i = rng.randrange(grid.nx)
        j = rng.randrange(grid.ny)
        p = Point2(grid.origin.x + grid.resolution * i,
                   grid.origin.y + grid.resolution * j)
        assert sdf_query(grid, p) == pytest.approx(float(grid.values[j, i]), abs=1e-12)


def test_sdf_query_cell_center_is_mean(threeroom_map):
    grid = threeroom_map.sdf
    rng = random.Random(13)
    for _ in range(200):
        i = rng.randrange(grid.nx - 1)
        j = rng.randrange(grid.ny - 1)
        p = Point2(grid.origin.x + grid.resolution * (i + 0.5),
                   grid.origin.y + grid.resolution * (j + 0.5))
        mean = float(grid.values[j:j + 2, i:i + 2].mean())
        assert sdf_query(grid, p) == pytest.approx(mean, abs=1e-12)


def test_sdf_query_close_to_exact_everywhere(threeroom_map, threeroom_scene):
    # The field magnitude is the exact wall distance at the nodes. Where all
    # four interpolation nodes sit outside the wall band the interpolant
    # tracks the true distance to within one cell; across the band edge the
    # stored sign flips, so only the looser band-sized bound holds there.
    grid = threeroom_map.sdf
    segments = threeroom_map.walls.segments
    band = 0.05
    clear = band + grid.resolution * math.sqrt(2.0)
    rng = random.Random(14)
    lo, hi = threeroom_scene.bbox
    tested_clear = 0
    for _ in range(1000):
        p = Point2(rng.uniform(lo.x, hi.x), rng.uniform(lo.y, hi.y))
        exact = min_wall_distance(p, segments)
        err = abs(abs(sdf_query(grid, p)) - exact)
        assert err <= 2.0 * band + grid.resolution
        if exact >= clear:
            assert err <= grid.resolution
            tested_clear += 1
    assert tested_clear > 800


def test_sdf_refinement_reduces_error(threeroom_scene, threeroom_map):
    walls = threeroom_map.walls
    coarse = build_sdf(walls, threeroom_scene.bbox, resolution=0.1)
    fine = build_sdf(walls, threeroom_scene.bbox, resolution=0.05)
    rng = random.Random(15)
    lo, hi = threeroom_scene.bbox
    points = []
    while len(points) < 500:
        p = Point2(rng.uniform(lo.x, hi.x), rng.uniform(lo.y, hi.y))
        exact = min_wall_distance(p, walls.segments)
        if exact >= 0.05 + 0.1 * math.sqrt(2.0):  # clear of both bands
            points.append((p, exact))

    def max_err(grid):
        return max(abs(sdf_query(grid, p) - exact) for p, exact in points)

    assert max_err(fine) <= max_err(coarse) + 1e-12


def test_sdf_covers_bbox_with_margin(threeroom_map, threeroom_scene):
    lo, hi = threeroom_scene.bbox
    # the grid extends two cells beyond the bbox on every side
    sdf_query(threeroom_map.sdf, Point2(lo.x, lo.y))
    sdf_query(threeroom_map.sdf, Point2(hi.x, hi.y))
    sdf_query(threeroom_map.sdf, Point2(lo.x - 0.1, lo.y - 0.1))
    with pytest.raises(OutOfBounds):
        sdf_query(threeroom_map.sdf, Point2(hi.x + 0.2, hi.y))
    with pytest.raises(OutOfBounds):
        sdf_query(threeroom_map.sdf, Point2(lo.x, lo.y - 0.2))


def test_build_sdf_rejects_bad_input():
    with pytest.raises(EmptyMap):
        build_sdf(CarvedWalls(segments=()), (Point2(0, 0), Point2(1, 1)))
    room = rect_room("a", 0.0, 0.0, 2.0, 2.0)
    walls = build_global_map(_scene([room])).walls
    with pytest.raises(ValueError):
        build_sdf(walls, (Point2(0, 0), Point2(2, 2)), resolution=0.0)


@pytest.mark.parametrize("resolution", [math.nan, math.inf, -math.inf])
def test_build_sdf_rejects_non_finite_resolution(resolution):
    walls = build_global_map(_scene([rect_room("a", 0.0, 0.0, 2.0, 2.0)])).walls
    with pytest.raises(ValueError, match="resolution must be finite"):
        build_sdf(walls, (Point2(0, 0), Point2(2, 2)), resolution=resolution)


def test_build_sdf_rejects_oversized_grid_before_allocating(tmp_path):
    # A 1e18 m bbox around a 2 m room loads fine. At 0.05 m its grid would
    # have 2e19 nodes per side, so even without the guard np.arange would
    # refuse at once: this test cannot allocate the grid it asks for.
    room = rect_room("a", 0.0, 0.0, 2.0, 2.0)
    path = str(tmp_path / "huge.map")
    save_map(_scene([room], bbox=(Point2(0.0, 0.0), Point2(1e18, 1e18))), path)
    scene = load_map(path)
    with pytest.raises(ValidationError, match=r"bbox .* distance-field nodes"):
        build_global_map(scene)
    walls = build_global_map(_scene([room])).walls
    with pytest.raises(ValidationError, match="finite grid"):
        build_sdf(walls, (Point2(0.0, 0.0), Point2(math.inf, 2.0)))
    with pytest.raises(ValidationError, match="finite grid"):
        build_sdf(walls, (Point2(0.0, 0.0), Point2(1e6, 2.0)), resolution=1e-320)


def test_build_sdf_node_limit_is_exact(monkeypatch):
    walls = build_global_map(_scene([rect_room("a", 0.0, 0.0, 2.0, 1.0)])).walls
    bbox = (Point2(0.0, 0.0), Point2(2.0, 1.0))
    grid = build_sdf(walls, bbox, resolution=0.1)
    monkeypatch.setattr(map_builder, "_MAX_NODES", grid.nx * grid.ny)
    assert build_sdf(walls, bbox, resolution=0.1).values.shape == (grid.ny, grid.nx)
    monkeypatch.setattr(map_builder, "_MAX_NODES", grid.nx * grid.ny - 1)
    with pytest.raises(ValidationError,
                       match=f"{grid.nx} x {grid.ny} = {grid.nx * grid.ny} "):
        build_sdf(walls, bbox, resolution=0.1)


# ------------------------------------------------- windowed build reference


def _reference_sdf_values(walls: CarvedWalls, bbox, resolution: float,
                          wall_half_width: float = 0.05) -> np.ndarray:
    """The full-grid build_sdf loop the windowed build replaced: every
    segment is evaluated on every node of the mesh."""
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
    return np.where(dmin < wall_half_width, -dmin, dmin)


@pytest.mark.parametrize("resolution", [0.025, 0.05, 0.1])
@pytest.mark.parametrize("name", ["grid8", "ring4", "threeroom"])
def test_build_sdf_bitwise_equals_full_grid_reference(name, resolution):
    scene = load_map(fixture_path(f"{name}.map"))
    variants = [scene] + [set_doorway_blocked(scene, d.id, True)
                          for d in scene.doorways]
    for variant in variants:
        walls = build_global_map(variant).walls
        got = build_sdf(walls, variant.bbox, resolution=resolution)
        want = _reference_sdf_values(walls, variant.bbox, resolution)
        assert got.values.shape == want.shape
        assert got.values.tobytes() == want.tobytes()


@st.composite
def _rectangle_walls(draw):
    """Walls of one to three random rectangles. A wall may be reversed,
    repeated, or split around a zero-length or near-zero piece."""
    segments: list[WallSegment] = []
    for _ in range(draw(st.integers(1, 3))):
        x0 = draw(st.floats(-3.0, 3.0))
        y0 = draw(st.floats(-3.0, 3.0))
        x1 = x0 + draw(st.floats(0.1, 3.0))
        y1 = y0 + draw(st.floats(0.1, 3.0))
        for a, b in rect_room("r", x0, y0, x1, y1).walls:
            kind = draw(st.sampled_from(["plain", "reversed", "split", "repeated"]))
            if kind == "reversed":
                a, b = b, a
            elif kind == "split":
                f = draw(st.floats(0.0, 1.0))
                eps = draw(st.sampled_from([0.0, 1e-13, 9e-13, 1e-12, 3e-12]))
                p = Point2(a.x + f * (b.x - a.x), a.y + f * (b.y - a.y))
                q = (Point2(p.x, p.y + eps) if a.x == b.x
                     else Point2(p.x + eps, p.y))
                segments += [WallSegment(a, p), WallSegment(p, q)]
                a = q
            elif kind == "repeated":
                segments.append(WallSegment(a, b))
            segments.append(WallSegment(a, b))
    return CarvedWalls(segments=tuple(segments))


@settings(max_examples=150, deadline=None)
@given(walls=_rectangle_walls(),
       margin=st.sampled_from([0.0, 0.3, 2.0]),
       resolution=st.sampled_from([0.05, 0.1, 0.23]))
def test_build_sdf_bitwise_equals_reference_on_random_walls(walls, margin,
                                                            resolution):
    xs = [c for s in walls.segments for c in (s.a.x, s.b.x)]
    ys = [c for s in walls.segments for c in (s.a.y, s.b.y)]
    bbox = (Point2(min(xs) - margin, min(ys) - margin),
            Point2(max(xs) + margin, max(ys) + margin))
    got = build_sdf(walls, bbox, resolution=resolution)
    want = _reference_sdf_values(walls, bbox, resolution)
    assert got.values.tobytes() == want.tobytes()



# ------------------------------------------------------ tiled build paths


def _assert_matches_reference(walls, bbox, resolution):
    got = build_sdf(walls, bbox, resolution=resolution)
    want = _reference_sdf_values(walls, bbox, resolution)
    assert got.values.tobytes() == want.tobytes()
    return got


# At 0.25 m a bbox w m wide has 4 * w + 5 nodes across, exactly
@pytest.mark.parametrize("ny", [15, 32, 49])
@pytest.mark.parametrize("nx", [15, 16, 17, 31, 32, 33, 47, 48, 49])
def test_build_sdf_at_whole_tiles_and_one_node_either_side(nx, ny):
    w, h = (nx - 5) / 4.0, (ny - 5) / 4.0
    rooms = [rect_room("a", 0.0, 0.0, w / 2.0, h), rect_room("b", w / 2.0, 0.0, w, h),
             rect_room("c", 0.25, 0.25, 0.75, 0.75)]
    walls = CarvedWalls(segments=tuple(wall for r in rooms for wall in r.walls))
    grid = _assert_matches_reference(walls, (Point2(0.0, 0.0), Point2(w, h)), 0.25)
    assert (grid.nx, grid.ny) == (nx, ny)


def test_build_sdf_smaller_than_one_tile():
    walls = CarvedWalls(segments=tuple(rect_room("a", 0.0, 0.0, 0.5, 0.25).walls))
    grid = _assert_matches_reference(walls, (Point2(0.0, 0.0), Point2(0.5, 0.25)), 0.25)
    assert grid.nx < map_builder._TILE and grid.ny < map_builder._TILE
    assert grid.values.flags.c_contiguous


def _tilted(wall: WallSegment, move) -> WallSegment:
    """``wall`` with ``move`` applied to the coordinate across it of its end b."""
    a, b = wall
    return WallSegment(a, Point2(move(b.x), b.y) if a.x == b.x else Point2(b.x, move(b.y)))


@pytest.mark.parametrize("piece", [
    lambda wall: _tilted(wall, lambda c: c + CLOSURE_TOL),
    lambda wall: _tilted(wall, lambda c: math.nextafter(c, -math.inf)),
    lambda wall: WallSegment(Point2(1.0, 1.0), Point2(4.0, 3.0)),
], ids=["closure-tol", "one-ulp", "diagonal"])
def test_build_sdf_rejects_a_tilted_piece_before_allocating(grid8_scene, grid8_map,
                                                            piece):
    walls = grid8_map.walls.segments
    tilted = CarvedWalls(segments=walls[1:] + (piece(walls[0]),))
    # 4005 x 4005 nodes, just under _MAX_NODES: a 128 MB grid were it allocated
    bbox = (Point2(0.0, 0.0), Point2(200.0, 200.0))
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="not axis-aligned"):
            build_sdf(tilted, bbox)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the derivation raises as the full build does
    old = build_global_map(grid8_scene)
    with pytest.raises(ValidationError, match="not axis-aligned"):
        map_builder._derive_sdf(old.sdf, old.walls, tilted, grid8_scene.bbox)


@pytest.mark.parametrize("resolution", [0.05, 0.1])
def test_build_sdf_takes_pieces_shorter_than_1e_12_as_points(grid8_scene, grid8_map,
                                                             resolution):
    walls = grid8_map.walls.segments
    points = CarvedWalls(segments=walls + (
        WallSegment(Point2(9.0, 2.0), Point2(9.0, 2.0)),
        WallSegment(Point2(1.0, 1.0), Point2(1.0 + 5e-13, 1.0 + 5e-13))))
    _assert_matches_reference(points, grid8_scene.bbox, resolution)


@pytest.fixture
def one_piece_chunks(monkeypatch):
    """Shrink the chunk budget to one piece per chunk and one (tile, piece)
    pair per batch, and record the size of every chunk."""
    sizes = []
    chunks = map_builder._tile_bounds

    def recorded(pieces, *grid):
        for chunk in chunks(pieces, *grid):
            sizes.append(chunk[3].shape[-1])
            yield chunk

    monkeypatch.setattr(map_builder, "_CHUNK", 1)
    monkeypatch.setattr(map_builder, "_tile_bounds", recorded)
    return sizes


def test_build_sdf_chunked_on_grid8(grid8_scene, grid8_map, one_piece_chunks):
    walls = grid8_map.walls
    _assert_matches_reference(walls, grid8_scene.bbox, 0.05)
    # both passes ran one piece at a time over every distinct piece
    assert one_piece_chunks == [1] * (2 * len(dict.fromkeys(walls.segments)))


@pytest.mark.parametrize("resolution", [0.05, 0.025])
def test_build_sdf_computes_one_chunk_of_bounds_once(grid8_scene, grid8_map, monkeypatch,
                                                     resolution):
    # every grid8 piece fits one chunk: pass 2 reuses pass 1's bounds
    calls = []
    chunks = map_builder._tile_bounds

    def counted(pieces, *grid):
        calls.append(len(pieces))
        return chunks(pieces, *grid)

    monkeypatch.setattr(map_builder, "_tile_bounds", counted)
    walls = grid8_map.walls
    _assert_matches_reference(walls, grid8_scene.bbox, resolution)
    assert calls == [len(dict.fromkeys(walls.segments))]


@settings(max_examples=40, deadline=None)
@given(walls=_rectangle_walls(), resolution=st.sampled_from([0.05, 0.1, 0.23]))
def test_build_sdf_chunked_on_random_walls(walls, resolution):
    xs = [c for s in walls.segments for c in (s.a.x, s.b.x)]
    ys = [c for s in walls.segments for c in (s.a.y, s.b.y)]
    bbox = (Point2(min(xs), min(ys)), Point2(max(xs), max(ys)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(map_builder, "_CHUNK", 1)
        _assert_matches_reference(walls, bbox, resolution)


@pytest.mark.parametrize("resolution", [0.05, 0.1, 0.25])
def test_fill_tiles_sets_the_padding_before_the_tile_maxima(grid8_scene, grid8_map,
                                                            resolution):
    # pass 1 leaves the padding rows unset: in a buffer that starts as NaN,
    # a padding node left so would make its tile's maximum NaN and skip
    # pass 2 there
    walls = grid8_map.walls
    full = build_sdf(walls, grid8_scene.bbox, resolution)
    xs, ys = map_builder._node_coords(full.origin, resolution, full.nx, full.ny)
    tile = map_builder._TILE
    rows, cols = np.indices((ys.size // tile, xs.size // tile))
    work = np.full((rows.size, tile, tile), np.nan)
    map_builder._fill_tiles(work, rows.ravel(), cols.ravel(),
                            map_builder._pieces(walls.segments), xs, ys, full.nx, full.ny)
    grid = work.reshape(rows.shape + (tile, tile)).transpose(0, 2, 1, 3)
    grid = grid.reshape(ys.size, xs.size)
    assert (grid[full.ny:] == 0.0).all() and (grid[:, full.nx:] == 0.0).all()
    assert grid[:full.ny, :full.nx].tobytes() == np.abs(full.values).tobytes()


def test_a_build_finds_each_doorway_boundary_once(grid8_scene, monkeypatch):
    calls = []
    boundary = map_builder.shared_boundary

    def counted(a, b):
        calls.append((a.id, b.id))
        return boundary(a, b)

    monkeypatch.setattr(map_builder, "shared_boundary", counted)
    old = build_global_map(grid8_scene)
    assert calls == [d.rooms for d in grid8_scene.doorways]
    blocked = set_doorway_blocked(grid8_scene, "d12", True)
    calls.clear()
    derived = map_builder._derive_global_map(old, blocked)
    assert calls == [d.rooms for d in blocked.doorways if not d.blocked]
    full = build_global_map(blocked)
    assert (derived.walls, derived.openings) == (full.walls, full.openings)


def test_build_sdf_memory_stays_a_small_multiple_of_the_grid():
    # 400 rooms, 1600 distinct pieces and 38 x 38 tiles: one pieces x tiles
    # bound array alone would take about 6 times the grid's bytes
    rooms = [rect_room(f"r{r}_{c}", 1.5 * c, 1.5 * r, 1.5 * (c + 1), 1.5 * (r + 1))
             for r in range(20) for c in range(20)]
    walls = CarvedWalls(segments=tuple(w for room in rooms for w in room.walls))
    bbox = (Point2(0.0, 0.0), Point2(30.0, 30.0))
    tracemalloc.start()
    try:
        grid = build_sdf(walls, bbox)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * grid.nx * grid.ny * 8


def test_build_sdf_records_the_band_bound(threeroom_map):
    walls = build_global_map(_scene([rect_room("a", 0.0, 0.0, 2.0, 2.0)])).walls
    grid = build_sdf(walls, (Point2(0, 0), Point2(2, 2)))
    assert grid.wall_half_width == map_builder.DEFAULT_WALL_HALF_WIDTH
    assert threeroom_map.sdf.wall_half_width == map_builder.DEFAULT_WALL_HALF_WIDTH
    # a hand-built grid has no known bound
    by_hand = SdfGrid(origin=grid.origin, resolution=grid.resolution,
                      nx=grid.nx, ny=grid.ny, values=grid.values)
    assert by_hand.wall_half_width == math.inf


@st.composite
def _offset_rectangles(draw):
    """Walls of one to three random rectangles, shifted by up to 1e5 m."""
    off = draw(st.sampled_from([0.0, 1e3, -1e4, 1e5, -1e5]) | st.floats(-1e5, 1e5))
    rects = []
    for _ in range(draw(st.integers(1, 3))):
        x0 = off + draw(st.floats(-3.0, 3.0))
        y0 = off + draw(st.floats(-3.0, 3.0))
        rects.append((x0, y0, x0 + draw(st.floats(0.8, 4.0)),
                      y0 + draw(st.floats(0.8, 4.0))))
    return rects


@settings(max_examples=150, deadline=None)
@given(rects=_offset_rectangles(), resolution=st.floats(0.025, 0.1),
       seed=st.integers(0, 2**32 - 1))
def test_field_value_bounds_the_field_along_a_stride(rects, resolution, seed):
    # The lemma a motion check's stride rests on: with c - eps above the
    # band bound w + sqrt(2) * res, a point p with f(p) >= c sees f >= c at
    # every q with |q - p| <= (f(p) - c - eps) / sqrt(2).
    segments = [w for k, r in enumerate(rects) for w in rect_room(f"r{k}", *r).walls]
    walls = CarvedWalls(segments=tuple(segments))
    lo = Point2(min(r[0] for r in rects) - 0.5, min(r[1] for r in rects) - 0.5)
    hi = Point2(max(r[2] for r in rects) + 0.5, max(r[3] for r in rects) + 0.5)
    grid = build_sdf(walls, (lo, hi), resolution=resolution)
    eps = _stride_eps(grid, (lo, hi), 0.0)
    c_min = grid.wall_half_width + _SQRT2 * resolution + eps + 1e-9
    rng = random.Random(seed)

    def node_near(x, y):
        i = round((x - grid.origin.x) / resolution)
        j = round((y - grid.origin.y) / resolution)
        return Point2(grid.origin.x + i * resolution, grid.origin.y + j * resolution)

    cases = []
    for x0, y0, x1, y1 in rects:
        # from a node near a room's inner corner straight toward the corner,
        # where the bilinear field falls at up to sqrt(2) per metre
        for cx, cy, sx, sy in ((x0, y0, 1, 1), (x1, y0, -1, 1),
                               (x1, y1, -1, -1), (x0, y1, 1, -1)):
            d = rng.uniform(0.3, min(x1 - x0, y1 - y0) / 2.0)
            cases.append((node_near(cx + sx * d, cy + sy * d), -sx, -sy, "tight"))
    for _ in range(30):
        p = Point2(rng.uniform(lo.x, hi.x), rng.uniform(lo.y, hi.y))
        if rng.random() < 0.5:
            p = node_near(*p)
        phi = rng.choice([0.0, 0.5, 1.0, 1.5, 0.25, 0.75, 1.25, 1.75, rng.uniform(0, 2)])
        cases.append((p, math.cos(math.pi * phi), math.sin(math.pi * phi),
                      rng.choice(["tight", "loose"])))
    for p, ux, uy, kind in cases:
        if not (lo.x <= p.x <= hi.x and lo.y <= p.y <= hi.y):
            continue
        f = sdf_query(grid, p)
        if f - eps <= c_min:
            continue
        if kind == "tight":
            c = max(c_min, f - eps - rng.uniform(1e-6, resolution))
        else:
            c = rng.uniform(c_min, f - eps)
        r = (f - c - eps) / _SQRT2
        norm = math.hypot(ux, uy)
        for frac in (1.0, rng.random()):
            q = Point2(p.x + ux / norm * r * frac, p.y + uy / norm * r * frac)
            if lo.x <= q.x <= hi.x and lo.y <= q.y <= hi.y:
                assert sdf_query(grid, q) >= c, (p, q, c)


# -------------------------------------------------------------- global map


def test_build_global_map_shapes(grid8_map, grid8_scene):
    assert len(grid8_map.scene.rooms) == 8
    assert len(grid8_map.walls.segments) == 52
    assert set(grid8_map.openings) == {d.id for d in grid8_scene.doorways}
    assert grid8_map.sdf.resolution == 0.05


def test_build_global_map_empty_scene():
    empty = SceneGraph(frame="map", bbox=(Point2(0, 0), Point2(1, 1)),
                       rooms=(), doorways=())
    with pytest.raises(EmptyMap):
        build_global_map(empty)


def test_contour_sdf_consistency(ring4_map, ring4_scene):
    from conftest import interior_point
    rng = random.Random(16)
    for room in ring4_scene.rooms:
        for _ in range(50):
            p = interior_point(rng, room, margin=0.3)
            assert point_in_contour(room, p)
            assert sdf_query(ring4_map.sdf, p) > 0.1


# ------------------------------------------------------- list-backed lookup


def _ndarray_sdf_query(grid, p: Point2) -> float:
    """Bilinear lookup by scalar ndarray indexing, the formula the
    list-backed sdf_query replaced."""
    fx = (p.x - grid.origin.x) / grid.resolution
    fy = (p.y - grid.origin.y) / grid.resolution
    i0 = min(max(int(math.floor(fx)), 0), grid.nx - 2)
    j0 = min(max(int(math.floor(fy)), 0), grid.ny - 2)
    tx = fx - i0
    ty = fy - j0
    v = grid.values
    return float((v[j0, i0] * (1.0 - tx) + v[j0, i0 + 1] * tx) * (1.0 - ty)
                 + (v[j0 + 1, i0] * (1.0 - tx) + v[j0 + 1, i0 + 1] * tx) * ty)


@st.composite
def _grid_points(draw, grid) -> Point2:
    """A point anywhere in the sampled extent, on a node, on the last row or
    column, or past the first or last node by less than the 1e-9 tolerance."""
    kind = draw(st.sampled_from(["any", "node", "last_row", "last_col", "corner",
                                 "before_first", "past_last"]))
    fi = draw(st.floats(0.0, grid.nx - 1))
    fj = draw(st.floats(0.0, grid.ny - 1))
    if kind == "node":
        fi, fj = float(int(fi)), float(int(fj))
    elif kind == "last_row":
        fj = float(grid.ny - 1)
    elif kind == "last_col":
        fi = float(grid.nx - 1)
    elif kind == "corner":
        fi, fj = float(grid.nx - 1), float(grid.ny - 1)
    elif kind == "before_first":
        fi, fj = -5e-10, draw(st.sampled_from([fj, -5e-10]))
    elif kind == "past_last":
        fi, fj = grid.nx - 1 + 5e-10, draw(st.sampled_from([fj, grid.ny - 1 + 5e-10]))
    return Point2(grid.origin.x + grid.resolution * fi,
                  grid.origin.y + grid.resolution * fj)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_sdf_query_equals_ndarray_formula(threeroom_map, data):
    grid = threeroom_map.sdf
    p = data.draw(_grid_points(grid))
    got = sdf_query(grid, p)
    assert type(got) is float
    assert got == _ndarray_sdf_query(grid, p)


def test_flat_values_mirror_the_grid(threeroom_map):
    grid = threeroom_map.sdf
    flat = grid.flat_values
    assert len(flat) == grid.nx * grid.ny == grid.values.size
    for j, i in [(0, 0), (0, grid.nx - 1), (grid.ny - 1, 0), (grid.ny - 1, grid.nx - 1),
                 (grid.ny // 2, grid.nx // 3)]:
        got = flat[j * grid.nx + i]
        assert type(got) is float and got == grid.values[j, i]
    assert flat.tolist() == grid.values.ravel().tolist()
    # a read-only view of the grid's own memory, not a copy
    assert flat.readonly and flat.format == "d"
    assert np.shares_memory(np.asarray(flat), grid.values)
    with pytest.raises(TypeError):
        flat[0] = 1.0


@pytest.mark.parametrize("kind", ["integer", "non_contiguous", "writable"])
def test_flat_values_of_a_hand_built_grid(kind):
    base = np.arange(35).reshape(5, 7)
    values = {"integer": base.copy(),
              "non_contiguous": np.asfortranarray(base * 0.25),
              "writable": base * 0.25}[kind]
    grid = SdfGrid(origin=Point2(0.0, 0.0), resolution=0.5, nx=7, ny=5, values=values)
    # the floats the row-major list of the values held
    want = [float(v) for v in values.ravel().tolist()]
    got = grid.flat_values.tolist()
    assert got == want and all(type(v) is float for v in got)
    with pytest.raises(TypeError):
        grid.flat_values[0] = 1.0
    # it cannot go stale: a later change of the values shows in every read
    values[2, 3] = 99
    assert grid.flat_values[2 * 7 + 3] == 99.0
    assert sdf_query(grid, Point2(1.5, 1.0)) == 99.0


def test_a_used_map_keeps_little_more_than_its_grid_alive(grid8_scene):
    problem = GeometricProblem(start=grid8_scene.rooms[0].center,
                               goal=grid8_scene.rooms[1].center)
    config = PlannerConfig(max_iterations=100, seed=1)
    plan(build_global_map(grid8_scene), problem, config)  # a first plan imports lazily
    gc.collect()
    tracemalloc.start()
    try:
        gmap = build_global_map(grid8_scene)
        plan(gmap, problem, config)
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the field's own bytes, its certified boxes and the walls: no copy
    assert kept < 1.25 * gmap.sdf.values.nbytes


def test_sdf_values_are_read_only(threeroom_map):
    with pytest.raises(ValueError):
        threeroom_map.sdf.values[0, 0] = 1.0


# ------------------------------------------- derivation from a previous map


def _certified_everywhere(gmap):
    """Region.certified of every room at the default clearance, plus the
    unconstrained region's; fills the map's certified boxes."""
    problems = [GeometricProblem(start=r.center, goal=r.center,
                                 allowed_rooms=frozenset((r.id,)))
                for r in gmap.scene.rooms]
    problems.append(GeometricProblem(start=gmap.scene.rooms[0].center,
                                     goal=gmap.scene.rooms[0].center))
    return [Region(gmap, p).certified for p in problems]


def _assert_same_map(derived, full):
    assert derived.sdf.values.tobytes() == full.sdf.values.tobytes()
    assert not derived.sdf.values.flags.writeable
    assert (derived.sdf.origin, derived.sdf.resolution, derived.sdf.nx, derived.sdf.ny,
            derived.sdf.wall_half_width) == (full.sdf.origin, full.sdf.resolution,
                                             full.sdf.nx, full.sdf.ny,
                                             full.sdf.wall_half_width)
    assert derived.sdf.flat_values == full.sdf.flat_values
    assert derived.walls == full.walls
    assert derived.openings == full.openings
    assert derived.scene == full.scene
    assert _certified_everywhere(derived) == _certified_everywhere(full)


def _forbidden(*args, **kwargs):
    raise AssertionError("a map was built where none may be")


def _derive(old, scene, monkeypatch):
    """_derive_global_map with a full field build forbidden; the derived map
    holds no certified box, whatever ``old`` holds."""
    with monkeypatch.context() as mp:
        mp.setattr(map_builder, "build_sdf", _forbidden)
        derived = map_builder._derive_global_map(old, scene)
    assert "_certified" not in derived.__dict__
    return derived


def _warm(gmap):
    """Fill the certified boxes a planner fills."""
    _certified_everywhere(gmap)
    return gmap


@pytest.mark.parametrize("resolution", [0.025, 0.05, 0.1])
@pytest.mark.parametrize("name", ["grid8", "ring4", "threeroom"])
def test_derived_map_equals_full_build_for_every_doorway(name, resolution, monkeypatch):
    scene = load_map(fixture_path(f"{name}.map"))
    old = _warm(build_global_map(scene, resolution))
    for d in scene.doorways:
        blocked = set_doorway_blocked(scene, d.id, True)
        derived = _derive(old, blocked, monkeypatch)
        _assert_same_map(derived, build_global_map(blocked, resolution))
        # and back: unblocking removes the whole wall and adds its two sides
        _warm(derived)
        _assert_same_map(_derive(derived, scene, monkeypatch), old)


def test_derived_map_of_a_chain_of_two_blocks(grid8_scene, monkeypatch):
    first = set_doorway_blocked(grid8_scene, "d12", True)
    second = set_doorway_blocked(first, "d26", True)
    old = _warm(build_global_map(grid8_scene))
    middle = _derive(old, first, monkeypatch)
    _assert_same_map(middle, build_global_map(first))
    _warm(middle)
    _assert_same_map(_derive(middle, second, monkeypatch), build_global_map(second))


def test_derived_map_of_an_already_blocked_doorway_copies_everything(
        grid8_scene, monkeypatch):
    blocked = set_doorway_blocked(grid8_scene, "d37", True)
    old = _warm(build_global_map(blocked))
    filled = []
    monkeypatch.setattr(map_builder, "_fill_tiles",
                        lambda *args: filled.append(args))
    derived = _derive(old, set_doorway_blocked(blocked, "d37", True), monkeypatch)
    assert filled == []
    _assert_same_map(derived, old)
    assert derived.sdf.values is not old.sdf.values
    assert not np.shares_memory(np.asarray(derived.sdf.flat_values), old.sdf.values)


@pytest.mark.parametrize("name", ["grid8", "ring4", "threeroom"])
def test_blocked_map_is_the_full_build_and_is_kept(name, monkeypatch):
    scene = load_map(fixture_path(f"{name}.map"))
    old = _warm(build_global_map(scene))
    kept = {}
    for d in scene.doorways:
        blocked = set_doorway_blocked(scene, d.id, True)
        with monkeypatch.context() as mp:
            mp.setattr(map_builder, "build_sdf", _forbidden)
            got = map_builder.build_blocked_map(old, d.id)
        _assert_same_map(got, build_global_map(blocked))
        kept[d.id] = got
        # asked again, the map answers with the same object, built no more
        with monkeypatch.context() as mp:
            mp.setattr(map_builder, "_derive_global_map", _forbidden)
            assert map_builder.build_blocked_map(old, d.id) is got
    assert old._blocked == kept


def test_blocked_map_of_a_blocked_doorway_is_the_map_itself(grid8_scene):
    blocked = set_doorway_blocked(grid8_scene, "d37", True)
    old = build_global_map(blocked)
    assert map_builder.build_blocked_map(old, "d37") is old
    assert old._blocked == {}
    # at another resolution the answer is the default-resolution build
    coarse = build_global_map(blocked, 0.1)
    _assert_same_map(map_builder.build_blocked_map(coarse, "d37"), old)


def test_blocked_map_at_another_resolution_is_built_at_the_default(grid8_scene):
    old = build_global_map(grid8_scene, 0.1)
    got = map_builder.build_blocked_map(old, "d12")
    _assert_same_map(got, build_global_map(set_doorway_blocked(grid8_scene, "d12", True)))
    assert old._blocked == {}


def test_blocked_map_keeps_nothing_when_it_raises(grid8_scene, monkeypatch):
    old = build_global_map(grid8_scene)
    with pytest.raises(UnknownId):
        map_builder.build_blocked_map(old, "d99")
    assert old._blocked == {}

    def failed(*args):
        raise RuntimeError("derivation failed")

    with monkeypatch.context() as mp:
        mp.setattr(map_builder, "_derive_global_map", failed)
        with pytest.raises(RuntimeError, match="derivation failed"):
            map_builder.build_blocked_map(old, "d12")
    assert old._blocked == {}
    got = map_builder.build_blocked_map(old, "d12")
    assert old._blocked == {"d12": got}


@pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_copies_of_a_map_leave_its_blocked_maps_out(grid8_scene, clone):
    old = _warm(build_global_map(grid8_scene))
    kept = map_builder.build_blocked_map(old, "d12")
    got = clone(old)
    assert "_blocked" not in got.__dict__ and got._blocked == {}
    assert got._certified == old._certified
    assert got.sdf.values.tobytes() == old.sdf.values.tobytes()
    assert old._blocked == {"d12": kept}
    _assert_same_map(map_builder.build_blocked_map(got, "d12"), kept)


def test_derivation_selects_only_the_tiles_a_changed_piece_reaches(grid8_scene):
    old = build_global_map(grid8_scene)
    tiles = -(-old.sdf.nx // map_builder._TILE) * -(-old.sdf.ny // map_builder._TILE)
    for d in grid8_scene.doorways:
        selected = []
        fill = map_builder._fill_tiles

        def spy(view, rows, cols, *rest):
            selected.append(rows.size)
            return fill(view, rows, cols, *rest)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(map_builder, "_fill_tiles", spy)
            map_builder._derive_global_map(old, set_doorway_blocked(grid8_scene, d.id, True))
        assert 0 < sum(selected) < tiles // 4, d.id


def test_derivation_recomputes_a_tile_whose_bound_equals_its_largest_value():
    # At 1 m every residual below is exact. In the tile of rows y = 14..29
    # and columns x = -2..13 the removed piece r is the nearest piece of row
    # y = 14 only, at 14.75 = its bound on the tile = the tile's largest
    # value; q is nearer to every other row. Without r that row reads 15.5.
    r = WallSegment(Point2(-2.0, -0.75), Point2(14.0, -0.75))
    q = WallSegment(Point2(-2.0, 29.5), Point2(14.0, 29.5))
    bbox = (Point2(0.0, 0.0), Point2(12.0, 28.0))
    old_walls, new_walls = CarvedWalls((r, q)), CarvedWalls((q,))
    old = build_sdf(old_walls, bbox, resolution=1.0)
    tile = old.values[16:32, :16]
    assert tile.max() == 14.75 and (tile[0] == 14.75).all()
    derived = map_builder._derive_sdf(old, old_walls, new_walls, bbox)
    want = build_sdf(new_walls, bbox, resolution=1.0)
    assert want.values[16, 0] == 15.5
    assert derived.values.tobytes() == want.values.tobytes()


def test_derivation_declines_what_it_cannot_derive(grid8_scene):
    old = build_global_map(grid8_scene)
    walls = build_global_map(set_doorway_blocked(grid8_scene, "d12", True)).walls
    bbox = grid8_scene.bbox
    assert map_builder._derive_sdf(old.sdf, old.walls, walls, bbox) is not None
    # a grid built by hand records no band bound
    hand = SdfGrid(origin=old.sdf.origin, resolution=old.sdf.resolution,
                   nx=old.sdf.nx, ny=old.sdf.ny, values=old.sdf.values)
    assert map_builder._derive_sdf(hand, old.walls, walls, bbox) is None
    # another bbox spans another grid
    wider = (bbox[0], Point2(bbox[1].x + 1.0, bbox[1].y))
    assert map_builder._derive_sdf(old.sdf, old.walls, walls, wider) is None
    # no walls at all: the full build raises EmptyMap
    assert map_builder._derive_sdf(old.sdf, old.walls, CarvedWalls(()), bbox) is None


def test_derivation_memory_stays_a_small_multiple_of_the_grid():
    # the 400-room walls of the build guard; every room's bottom wall is split
    # in two, so 400 pieces go, 800 come and every tile is recomputed
    rooms = [rect_room(f"r{r}_{c}", 1.5 * c, 1.5 * r, 1.5 * (c + 1), 1.5 * (r + 1))
             for r in range(20) for c in range(20)]
    walls = CarvedWalls(segments=tuple(w for room in rooms for w in room.walls))
    split = []
    for room in rooms:
        (a, b), *rest = room.walls
        mid = Point2((a.x + b.x) / 2.0, a.y)
        split += [WallSegment(a, mid), WallSegment(mid, b), *rest]
    bbox = (Point2(0.0, 0.0), Point2(30.0, 30.0))
    old = build_sdf(walls, bbox)
    tracemalloc.start()
    try:
        grid = map_builder._derive_sdf(old, walls, CarvedWalls(tuple(split)), bbox)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grid is not None
    assert peak < 4 * grid.nx * grid.ny * 8
