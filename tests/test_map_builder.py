"""Metric map construction: contours, wall carving, distance field."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semnav import (CarvedWalls, DegenerateRoom, Doorway, DoorwayPlacement,
                    EmptyMap, OutOfBounds, Point2, Room, SceneGraph,
                    WallSegment, build_global_map, build_sdf, carve_doorways,
                    contour_from_room, doorway_openings, export_sdf_text,
                    load_sdf_text, point_in_contour, sdf_query)

from conftest import rect_room
from oracles import min_wall_distance, winding_contains


def _scene(rooms, doorways=(), bbox=None) -> SceneGraph:
    if bbox is None:
        xs = [b for r in rooms for b in (r.bounds[0], r.bounds[2])]
        ys = [b for r in rooms for b in (r.bounds[1], r.bounds[3])]
        bbox = (Point2(min(xs), min(ys)), Point2(max(xs), max(ys)))
    return SceneGraph(frame="map", bbox=bbox, rooms=tuple(rooms),
                      doorways=tuple(doorways))


def _shoelace(ring) -> float:
    area = 0.0
    for i, p in enumerate(ring):
        q = ring[(i + 1) % len(ring)]
        area += p.x * q.y - q.x * p.y
    return area / 2.0


# ---------------------------------------------------------------- contours


def test_contour_ring_ccw_from_min_corner():
    room = rect_room("a", 1.0, 2.0, 5.0, 4.0)
    c = contour_from_room(room)
    assert c.room_id == "a"
    assert c.ring == (Point2(1.0, 2.0), Point2(5.0, 2.0),
                      Point2(5.0, 4.0), Point2(1.0, 4.0))
    assert _shoelace(c.ring) == pytest.approx(8.0, abs=1e-12)
    assert _shoelace(c.ring) > 0.0  # counter-clockwise


def test_contour_degenerate_room():
    good = rect_room("a", 0.0, 0.0, 2.0, 2.0)
    broken = Room(id="bad", center=good.center, walls=good.walls[:3],
                  widths=good.widths, bounds=good.bounds)
    with pytest.raises(DegenerateRoom, match="bad"):
        contour_from_room(broken)


def test_point_in_contour(threeroom_scene):
    c = contour_from_room(threeroom_scene.room("r2"))
    assert point_in_contour(c, Point2(6.0, 2.0))
    assert point_in_contour(c, Point2(4.0, 0.0))  # corner counts as inside
    assert not point_in_contour(c, Point2(3.9, 2.0))
    rng = random.Random(3)
    lo, hi = threeroom_scene.bbox
    for _ in range(2000):
        p = Point2(rng.uniform(lo.x - 1, hi.x + 1), rng.uniform(lo.y - 1, hi.y + 1))
        assert point_in_contour(c, p) == winding_contains(c.ring, p)


# ----------------------------------------------------------------- carving


def test_carve_counts(threeroom_scene, ring4_scene, grid8_scene):
    # each interior opening splits one wall into two pieces
    assert len(carve_doorways(threeroom_scene).segments) == 12 + 2 * 2
    assert len(carve_doorways(ring4_scene).segments) == 16 + 4 * 2
    assert len(carve_doorways(grid8_scene).segments) == 32 + 10 * 2


def test_carved_length_conservation(grid8_scene):
    total_wall = sum(w.length() for r in grid8_scene.rooms for w in r.walls)
    carved = sum(s.length() for s in carve_doorways(grid8_scene).segments)
    removed = sum(2.0 * d.width for d in grid8_scene.doorways if not d.blocked)
    assert math.isclose(total_wall - carved, removed, abs_tol=1e-9)


def test_carve_piece_geometry(threeroom_scene):
    walls = carve_doorways(threeroom_scene).segments
    on_line = sorted(
        (min(s.a.y, s.b.y), max(s.a.y, s.b.y))
        for s in walls if abs(s.a.x - 4.0) < 1e-12 and abs(s.b.x - 4.0) < 1e-12)
    # doorway d1 (center y=2, width 1) carves both rooms' walls at x=4
    assert on_line == [(0.0, 1.5), (0.0, 1.5), (2.5, 4.0), (2.5, 4.0)]


def test_blocked_doorway_carves_nothing(threeroom_scene):
    from semnav import set_doorway_blocked
    blocked = set_doorway_blocked(threeroom_scene, "d1", True)
    walls = carve_doorways(blocked).segments
    assert len(walls) == 12 + 1 * 2
    full_right = [s for s in walls
                  if abs(s.a.x - 4.0) < 1e-12 and abs(s.b.x - 4.0) < 1e-12]
    assert len(full_right) == 2  # both rooms keep the uncut wall
    assert all(s.length() == 4.0 for s in full_right)
    assert "d1" not in doorway_openings(blocked)


def test_attach_threshold_rejects_distant_walls():
    a = rect_room("a", 0.0, 0.0, 2.0, 2.0)
    b = rect_room("b", 3.0, 0.0, 5.0, 2.0)
    d = Doorway(id="d", center=Point2(2.5, 1.0), width=0.5, rooms=("a", "b"))
    scene = _scene([a, b], [d])
    with pytest.raises(DoorwayPlacement, match="d: closest walls"):
        carve_doorways(scene)
    # a generous threshold lets the same doorway attach to both walls
    walls = carve_doorways(scene, attach_threshold=2.0).segments
    assert len(walls) == 8 + 2


def test_opening_outside_overlap_rejected():
    a = rect_room("a", 0.0, 0.0, 4.0, 4.0)
    b = rect_room("b", 4.0, 0.0, 8.0, 2.0)
    d = Doorway(id="d", center=Point2(4.0, 1.8), width=1.0, rooms=("a", "b"))
    with pytest.raises(DoorwayPlacement, match="projects outside"):
        carve_doorways(_scene([a, b], [d]))


def test_overlapping_openings_rejected():
    a = rect_room("a", 0.0, 0.0, 4.0, 4.0)
    b = rect_room("b", 4.0, 0.0, 8.0, 4.0)
    d1 = Doorway(id="d1", center=Point2(4.0, 2.0), width=1.5, rooms=("a", "b"))
    d2 = Doorway(id="d2", center=Point2(4.0, 2.5), width=1.5, rooms=("a", "b"))
    with pytest.raises(DoorwayPlacement, match="overlaps"):
        carve_doorways(_scene([a, b], [d1, d2]))


def test_opening_rects(threeroom_scene):
    rects = doorway_openings(threeroom_scene)
    assert set(rects) == {"d1", "d2"}
    x0, y0, x1, y1 = rects["d1"]
    assert (x0, x1) == (pytest.approx(3.85), pytest.approx(4.15))
    assert (y0, y1) == (1.5, 2.5)
    deep = doorway_openings(threeroom_scene, depth=0.5)["d1"]
    assert deep[0] == pytest.approx(3.75)
    assert deep[2] == pytest.approx(4.25)


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
    walls = carve_doorways(_scene([room]))
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


def test_sdf_refinement_reduces_error(threeroom_scene):
    walls = carve_doorways(threeroom_scene)
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


def test_sdf_text_round_trip(tmp_path, threeroom_map):
    path = str(tmp_path / "field.sdf")
    export_sdf_text(threeroom_map.sdf, path)
    again = load_sdf_text(path)
    assert again.origin == threeroom_map.sdf.origin
    assert again.resolution == threeroom_map.sdf.resolution
    assert (again.nx, again.ny) == (threeroom_map.sdf.nx, threeroom_map.sdf.ny)
    assert np.array_equal(again.values, threeroom_map.sdf.values)


def test_build_sdf_rejects_bad_input():
    with pytest.raises(EmptyMap):
        build_sdf(CarvedWalls(segments=()), (Point2(0, 0), Point2(1, 1)))
    room = rect_room("a", 0.0, 0.0, 2.0, 2.0)
    walls = carve_doorways(_scene([room]))
    with pytest.raises(ValueError):
        build_sdf(walls, (Point2(0, 0), Point2(2, 2)), resolution=0.0)


# -------------------------------------------------------------- global map


def test_build_global_map_shapes(grid8_map, grid8_scene):
    assert len(grid8_map.contours) == 8
    assert len(grid8_map.walls.segments) == 52
    assert set(grid8_map.openings) == {d.id for d in grid8_scene.doorways}
    assert grid8_map.sdf.resolution == 0.05
    assert grid8_map.contour("r5").room_id == "r5"
    with pytest.raises(KeyError):
        grid8_map.contour("r99")


def test_build_global_map_empty_scene():
    empty = SceneGraph(frame="map", bbox=(Point2(0, 0), Point2(1, 1)),
                       rooms=(), doorways=())
    with pytest.raises(EmptyMap):
        build_global_map(empty)


def test_contour_sdf_consistency(ring4_map, ring4_scene):
    from conftest import interior_point
    rng = random.Random(16)
    for room in ring4_scene.rooms:
        contour = ring4_map.contour(room.id)
        for _ in range(50):
            p = interior_point(rng, room, margin=0.3)
            assert point_in_contour(contour, p)
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
    assert len(grid.flat_values) == grid.nx * grid.ny
    assert grid.flat_values is grid.flat_values  # built once, then cached
    for j, i in [(0, 0), (0, grid.nx - 1), (grid.ny - 1, 0), (grid.ny - 1, grid.nx - 1)]:
        assert grid.flat_values[j * grid.nx + i] == grid.values[j, i]


def test_sdf_values_are_read_only(tmp_path, threeroom_map):
    with pytest.raises(ValueError):
        threeroom_map.sdf.values[0, 0] = 1.0
    path = str(tmp_path / "field.sdf")
    export_sdf_text(threeroom_map.sdf, path)
    loaded = load_sdf_text(path)
    with pytest.raises(ValueError):
        loaded.values[1, 1] += 1.0
