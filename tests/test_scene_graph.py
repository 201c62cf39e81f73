"""Scene-graph model, file I/O and validation."""

from __future__ import annotations

import copy
import importlib.util
import json
import math
import os
import random
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semnav import (Doorway, ParseError, Point2, Room, SceneGraph, UnknownId,
                    ValidationError, WallSegment, build_global_map, load_map,
                    locate_room, save_map, set_doorway_blocked, shared_boundary)
from semnav.cli import main
from semnav.scene_graph import CLOSURE_TOL, _mid

from conftest import fixture_path, near, random_scene, rect_room, rectangle_rooms
from oracles import room_of_point


def test_threeroom_fixture_loads(threeroom_scene):
    assert len(threeroom_scene.rooms) == 3
    assert len(threeroom_scene.doorways) == 2
    assert threeroom_scene.frame == "map"


def test_grid8_fixture_loads(grid8_scene):
    assert len(grid8_scene.rooms) == 8
    assert len(grid8_scene.doorways) == 10
    lo, hi = grid8_scene.bbox
    assert (hi.x - lo.x, hi.y - lo.y) == (17.0, 15.0)


def test_room_invariants(threeroom_scene):
    for room in threeroom_scene.rooms:
        assert len(room.walls) == 4
        x0, y0, x1, y1 = room.bounds
        assert x0 < room.center.x < x1
        assert y0 < room.center.y < y1
        assert {p.x for w in room.walls for p in w} == {x0, x1}
        assert {p.y for w in room.walls for p in w} == {y0, y1}


def test_lookup_helpers(threeroom_scene):
    assert threeroom_scene.room("r2").id == "r2"
    assert threeroom_scene.doorway("d1").width == 1.0
    assert [d.id for d in threeroom_scene.doorways if "r2" in d.rooms] == ["d1", "d2"]
    with pytest.raises(UnknownId):
        threeroom_scene.room("nope")
    with pytest.raises(UnknownId):
        threeroom_scene.doorway("nope")


def test_save_load_round_trip(tmp_path, threeroom_scene):
    out = tmp_path / "copy.map"
    save_map(threeroom_scene, str(out))
    again = load_map(str(out))
    assert again == threeroom_scene


@pytest.mark.parametrize("name", ["threeroom", "ring4", "grid8"])
def test_fixture_generator_writes_the_committed_maps(tmp_path, name):
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", fixture_path("make_fixtures.py"))
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    out = tmp_path / f"{name}.map"
    save_map(getattr(make_fixtures, name)(), str(out))
    with open(fixture_path(f"{name}.map"), "rb") as f:
        assert out.read_bytes() == f.read()


@pytest.mark.parametrize("name", ["threeroom", "ring4", "grid8"])
def test_fixture_wall_vertices_are_exactly_box_corners(name):
    # The loader keeps only the box a room's walls close. Every record
    # (golden CSVs, anytime curves, perfbench digests) was made on these
    # files as written, so a vertex off its box would move them.
    with open(fixture_path(f"{name}.map")) as f:
        data = json.load(f)
    scene = load_map(fixture_path(f"{name}.map"))
    for entry in data["rooms"]:
        room = scene.room(entry["id"])
        x0, y0, x1, y1 = room.bounds
        corners = {(float(x).hex(), float(y).hex())
                   for x, y in ((x0, y0), (x1, y0), (x1, y1), (x0, y1))}
        ends = [(float(x).hex(), float(y).hex())
                for wall in entry["walls"] for x, y in (wall["a"], wall["b"])]
        assert set(ends) <= corners, entry["id"]
        # and the box's sides, counter-clockwise, are the walls as written
        assert ends == [(x.hex(), y.hex()) for wall in room.walls for x, y in wall]


def test_locate_room_basics(threeroom_scene):
    for room in threeroom_scene.rooms:
        assert locate_room(threeroom_scene, room.center) == room.id
    assert locate_room(threeroom_scene, Point2(-5.0, -5.0)) is None
    assert locate_room(threeroom_scene, Point2(100.0, 2.0)) is None


def test_locate_room_shared_wall_tie_break(threeroom_scene):
    # x = 4 belongs to both r1 and r2; the smaller id wins
    assert locate_room(threeroom_scene, Point2(4.0, 2.0)) == "r1"
    assert locate_room(threeroom_scene, Point2(8.0, 1.0)) == "r2"


# the oracle's winding test keeps its own 1e-9 boundary slack, so it puts
# the points 5e-10 outside a box in that box's room
_ORACLE_IN_SLACK = {Point2(-5e-10, 2.0): "r1", Point2(6.0, 4.0 + 5e-10): "r2",
                    Point2(4.0 + 5e-10, 2.0): "r1"}


@pytest.mark.parametrize("p, want", [
    (Point2(0.0, 2.0), "r1"),           # on r1's outer wall
    (Point2(6.0, 4.0), "r2"),           # on r2's outer wall
    (Point2(-2e-9, 2.0), None),         # 2e-9 outside: in no room
    (Point2(4.0, 2.0), "r1"),           # on the shared wall: smaller id
    (Point2(-5e-10, 2.0), None),        # 5e-10 outside r1's outer wall
    (Point2(6.0, 4.0 + 5e-10), None),   # 5e-10 outside r2's outer wall
    (Point2(4.0 + 5e-10, 2.0), "r2"),   # inside r2, 5e-10 outside r1
])
def test_locate_room_within_the_containment_tolerance(threeroom_scene, p, want):
    # a room is its closed box: no point outside it is in the room
    assert locate_room(threeroom_scene, p) == want
    assert room_of_point(threeroom_scene, p) == _ORACLE_IN_SLACK.get(p, want)


def _box_distance_sq(bounds, p) -> Fraction:
    """Squared Euclidean distance from ``p`` to the closed box, exactly."""
    x0, y0, x1, y1 = map(Fraction, bounds)
    x, y = map(Fraction, p)
    dx = max(x0 - x, Fraction(0), x - x1)
    dy = max(y0 - y, Fraction(0), y - y1)
    return dx * dx + dy * dy


@settings(max_examples=1000, deadline=None)
@given(room=rectangle_rooms(), data=st.data())
def test_room_contains_is_the_exact_distance_to_the_box(room, data):
    """``Room.contains(p)`` is True exactly when p lies in the closed box,
    at exact rational distance zero from it."""
    x0, y0, x1, y1 = room.bounds
    p = Point2(data.draw(near(x0, x1)), data.draw(near(y0, y1)))
    assert room.contains(p) is (_box_distance_sq(room.bounds, p) == 0)


@pytest.mark.parametrize("bounds, p", [
    # an even-odd ring test with a 1e-9 edge tolerance accepted both: its
    # segment foot point rounds off the corner. Exact distances are
    # 1.0000000272e-9 and 1.0000000827e-9.
    ((0.5633715958020968, -0.42543344878374234, 14.334262611146167, 16.390199186695455),
     (0.5633715958020968, -0.42543344978374237)),
    ((-0.5210248314112385, -0.45703099941550995, 12.837713134389205, 10.605088991200565),
     (-0.5210248324112385, 10.605088991200565)),
])
def test_room_contains_rejects_points_just_past_a_corner(bounds, p):
    room = Room(id="a", center=Point2(1.0, 1.0), bounds=bounds)
    assert _box_distance_sq(bounds, p) > 0
    assert room.contains(Point2(*p)) is False


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_room_contains_rejects_non_finite_points(bad):
    room = Room(id="a", center=Point2(1.0, 0.5), bounds=(0.0, 0.0, 2.0, 1.0))
    for p in (Point2(bad, 0.5), Point2(1.0, bad), Point2(bad, bad)):
        assert room.contains(p) is False


def test_rooms_interior_disjoint(grid8_scene):
    rng = random.Random(8)
    lo, hi = grid8_scene.bbox
    for _ in range(10_000):
        p = Point2(rng.uniform(lo.x, hi.x), rng.uniform(lo.y, hi.y))
        holders = [r for r in grid8_scene.rooms if r.contains(p)]
        if len(holders) > 1:
            # only points on a room boundary may be shared
            on_boundary = any(
                math.isclose(p.x, b, abs_tol=1e-9) or math.isclose(p.y, b, abs_tol=1e-9)
                for r in holders for b in r.bounds)
            assert on_boundary


def test_set_doorway_blocked_value_semantics(threeroom_scene):
    updated = set_doorway_blocked(threeroom_scene, "d1", True)
    assert updated.doorway("d1").blocked is True
    assert threeroom_scene.doorway("d1").blocked is False
    assert updated.doorway("d1").center == threeroom_scene.doorway("d1").center
    back = set_doorway_blocked(updated, "d1", False)
    assert back == threeroom_scene
    with pytest.raises(UnknownId):
        set_doorway_blocked(threeroom_scene, "dX", True)


def test_shared_boundary_closest_pair(threeroom_scene):
    r1 = threeroom_scene.room("r1")
    r2 = threeroom_scene.room("r2")
    r3 = threeroom_scene.room("r3")
    sb = shared_boundary(r1, r2)
    assert sb is not None
    assert sb.axis == "x"
    assert sb.gap == 0.0
    assert sb.coords == (4.0, 4.0)
    assert sb.overlap == (0.0, 4.0)
    far = shared_boundary(r1, r3)
    assert far is not None and far.gap == 4.0


def test_shared_boundary_none_without_overlap():
    a = rect_room("a", 0.0, 0.0, 2.0, 2.0)
    b = rect_room("b", 5.0, 5.0, 7.0, 7.0)
    assert shared_boundary(a, b) is None


def _base_map_dict() -> dict:
    return {
        "frame": "map",
        "bbox": {"min": [0.0, 0.0], "max": [8.0, 4.0]},
        "rooms": [
            {"id": "r1", "center": [2.0, 2.0], "walls": [
                {"a": [0.0, 0.0], "b": [4.0, 0.0]},
                {"a": [4.0, 0.0], "b": [4.0, 4.0]},
                {"a": [4.0, 4.0], "b": [0.0, 4.0]},
                {"a": [0.0, 4.0], "b": [0.0, 0.0]}]},
            {"id": "r2", "center": [6.0, 2.0], "walls": [
                {"a": [4.0, 0.0], "b": [8.0, 0.0]},
                {"a": [8.0, 0.0], "b": [8.0, 4.0]},
                {"a": [8.0, 4.0], "b": [4.0, 4.0]},
                {"a": [4.0, 4.0], "b": [4.0, 0.0]}]},
        ],
        "doorways": [
            {"id": "d1", "center": [4.0, 2.0], "width": 1.0,
             "rooms": ["r1", "r2"]},
        ],
    }


def _write(tmp_path, data) -> str:
    path = tmp_path / "case.map"
    path.write_text(json.dumps(data))
    return str(path)


def test_load_valid_handwritten(tmp_path):
    scene = load_map(_write(tmp_path, _base_map_dict()))
    assert [r.id for r in scene.rooms] == ["r1", "r2"]
    assert scene.doorway("d1").blocked is False


def test_unknown_room_reference_message(tmp_path):
    data = _base_map_dict()
    data["doorways"][0]["rooms"] = ["r1", "r9"]
    with pytest.raises(ValidationError, match="doorway d1: unknown room r9"):
        load_map(_write(tmp_path, data))


def test_duplicate_ids_rejected(tmp_path):
    data = _base_map_dict()
    data["rooms"][1]["id"] = "r1"
    with pytest.raises(ValidationError, match="duplicate"):
        load_map(_write(tmp_path, data))


def test_unknown_field_strict_vs_lenient(tmp_path):
    data = _base_map_dict()
    data["rooms"][0]["color"] = "blue"
    path = _write(tmp_path, data)
    with pytest.raises(ParseError, match="color"):
        load_map(path)
    scene = load_map(path, lenient=True)
    assert len(scene.rooms) == 2


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "bad.map"
    path.write_text('{\n "frame": "map",\n broken\n}')
    with pytest.raises(ParseError, match=":3"):
        load_map(str(path))


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_map(str(tmp_path / "missing.map"))


def test_boolean_not_accepted_as_number(tmp_path):
    data = _base_map_dict()
    data["doorways"][0]["width"] = True
    with pytest.raises(ParseError, match="width"):
        load_map(_write(tmp_path, data))


def test_nonpositive_doorway_width_rejected(tmp_path):
    data = _base_map_dict()
    data["doorways"][0]["width"] = 0.0
    with pytest.raises(ValidationError):
        load_map(_write(tmp_path, data))


def test_doorway_center_off_boundary_rejected(tmp_path):
    data = _base_map_dict()
    data["doorways"][0]["center"] = [4.5, 2.0]
    with pytest.raises(ValidationError, match="d1"):
        load_map(_write(tmp_path, data))


def test_doorway_rooms_must_differ(tmp_path):
    data = _base_map_dict()
    data["doorways"][0]["rooms"] = ["r1", "r1"]
    with pytest.raises(ValidationError):
        load_map(_write(tmp_path, data))


def test_center_outside_room_rejected(tmp_path):
    data = _base_map_dict()
    data["rooms"][0]["center"] = [5.0, 2.0]
    with pytest.raises(ValidationError, match="r1"):
        load_map(_write(tmp_path, data))


def test_walls_not_closing_rejected(tmp_path):
    data = _base_map_dict()
    data["rooms"][0]["walls"][1]["b"] = [4.0, 3.5]
    with pytest.raises(ValidationError):
        load_map(_write(tmp_path, data))


def test_wall_vertex_outside_bbox_rejected(tmp_path):
    data = _base_map_dict()
    data["bbox"]["max"] = [7.0, 4.0]
    with pytest.raises(ValidationError):
        load_map(_write(tmp_path, data))


def test_nan_coordinate_rejected(tmp_path):
    data = _base_map_dict()
    data["rooms"][0]["center"] = [float("nan"), 2.0]
    path = tmp_path / "nan.map"
    path.write_text(json.dumps(data))
    with pytest.raises((ParseError, ValidationError)):
        load_map(str(path))


def test_blocked_flag_round_trip(tmp_path):
    data = _base_map_dict()
    data["doorways"][0]["blocked"] = True
    scene = load_map(_write(tmp_path, data))
    assert scene.doorway("d1").blocked is True


def test_direct_construction_helpers():
    room = rect_room("a", 0.0, 0.0, 3.0, 2.0)
    assert room.bounds == (0.0, 0.0, 3.0, 2.0)
    assert room.contains(Point2(1.5, 1.0))
    assert room.contains(Point2(0.0, 0.0))
    assert not room.contains(Point2(3.1, 1.0))
    with pytest.raises(ValueError):
        Room.build("bad", Point2(5.0, 5.0), list(room.walls))


# ------------------------------------------------ walls read as their box


# sliding an end along its wall, in units of CLOSURE_TOL, wall after wall
_SLIDES = (0.99, -1 / 3, 0.0, -0.99, 1 / 7)
# half the tilt of every wall: each end moves this far across it, the two
# ends opposite ways, so the midpoint stays exact and the wall turns by
# 2**-20, under CLOSURE_TOL
_HALF_TILT = 2.0 ** -21


def _perturbed(data: dict, swap: bool) -> tuple[dict, dict]:
    """Two copies of the parsed map ``data``: the exact one, in which every
    third wall's ends are swapped when ``swap`` is set, and the same walls
    each tilted about its midpoint and with both ends slid along it, within
    CLOSURE_TOL, the signs alternating from wall to wall."""
    exact, moved = copy.deepcopy(data), copy.deepcopy(data)
    walls = [w for r in exact["rooms"] for w in r["walls"]]
    for k, (we, wm) in enumerate(zip(walls, [w for r in moved["rooms"] for w in r["walls"]])):
        if swap and k % 3 == 0:
            we["a"], we["b"] = we["b"], we["a"]
        (ax, ay), (bx, by) = we["a"], we["b"]
        tilt = _HALF_TILT if k % 2 else -_HALF_TILT
        slide_a = _SLIDES[k % 5] * CLOSURE_TOL
        slide_b = _SLIDES[(k + 2) % 5] * CLOSURE_TOL
        if ax == bx:
            wm["a"], wm["b"] = [ax - tilt, ay + slide_a], [bx + tilt, by + slide_b]
        else:
            wm["a"], wm["b"] = [ax + slide_a, ay - tilt], [bx + slide_b, by + tilt]
    return exact, moved


def _sides(x0: float, y0: float, x1: float, y1: float) -> tuple[WallSegment, ...]:
    """Bottom, right, top and left side of the box, counter-clockwise."""
    return (WallSegment(Point2(x0, y0), Point2(x1, y0)),
            WallSegment(Point2(x1, y0), Point2(x1, y1)),
            WallSegment(Point2(x1, y1), Point2(x0, y1)),
            WallSegment(Point2(x0, y1), Point2(x0, y0)))


def test_room_build_keeps_walls_on_the_box_bit_for_bit():
    # x0 is -0.0 (the midpoint of the left wall); the walls are the sides of
    # the box, so every end at x0 is -0.0, whatever sign the file gave it
    walls = (WallSegment(Point2(0.0, 0.0), Point2(2.0, 0.0)),
             WallSegment(Point2(2.0, 0.0), Point2(2.0, 2.0)),
             WallSegment(Point2(2.0, 2.0), Point2(0.0, 2.0)),
             WallSegment(Point2(-0.0, 2.0), Point2(-0.0, 0.0)))
    room = Room.build("a", Point2(1.0, 1.0), walls)
    assert repr(room.bounds) == repr((-0.0, 0.0, 2.0, 2.0))
    assert repr(room.walls) == repr(_sides(-0.0, 0.0, 2.0, 2.0))
    # computed once per room
    assert room.walls is room.walls
    # the same walls in another order and direction, one slid along itself
    moved = (WallSegment(walls[2].b, walls[2].a), walls[3],
             WallSegment(Point2(0.0, 0.0), Point2(2.0 + 2.0 ** -24, 0.0)), walls[1])
    again = Room.build("a", Point2(1.0, 1.0), moved)
    assert again == room and repr(again) == repr(room)
    assert repr(again.walls) == repr(room.walls)


# box corners on a 1/64 grid: a side's ends moved across it by _HALF_TILT
# either way are exact, and so is their midpoint
_GRID = st.integers(-6400, 6400).map(lambda k: k / 64.0)
_SLIDE = st.floats(-0.99, 0.99).map(lambda f: f * CLOSURE_TOL)


def _moved_side(side: WallSegment, flip: bool, slide_a: float, slide_b: float,
                tilt: float) -> WallSegment:
    """``side`` with each end slid along it and the two ends moved across it
    by ``tilt`` opposite ways (a turn about its midpoint), reversed when
    ``flip`` is set. A zero ``tilt`` leaves the fixed coordinate's bits."""
    (ax, ay), (bx, by) = side
    if ax == bx:
        if tilt:
            ax, bx = ax - tilt, bx + tilt
        a, b = Point2(ax, ay + slide_a), Point2(bx, by + slide_b)
    else:
        if tilt:
            ay, by = ay - tilt, by + tilt
        a, b = Point2(ax + slide_a, ay), Point2(bx + slide_b, by)
    return WallSegment(b, a) if flip else WallSegment(a, b)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_walls_that_close_a_box_build_the_room_of_that_box(data):
    x0 = data.draw(st.just(-0.0) | _GRID)
    y0 = data.draw(_GRID)
    x1 = x0 + data.draw(st.integers(1, 1280)) / 64.0
    y1 = y0 + data.draw(st.integers(1, 1280)) / 64.0
    center = Point2((x0 + x1) / 2.0, (y0 + y1) / 2.0)
    sides = _sides(x0, y0, x1, y1)
    walls = []
    for k in data.draw(st.permutations(range(4))):
        fixed = sides[k].a.x if k % 2 else sides[k].a.y
        # a side at a zero coordinate stays untilted: its tilted ends would
        # average to 0.0 and lose the sign of -0.0
        tilt = data.draw(st.sampled_from([0.0, _HALF_TILT, -_HALF_TILT])) if fixed else 0.0
        walls.append(_moved_side(sides[k], data.draw(st.booleans()), data.draw(_SLIDE),
                                 data.draw(_SLIDE), tilt))
    room = Room.build("a", center, walls)
    want = Room(id="a", center=center, bounds=(x0, y0, x1, y1))
    assert room == want and repr(room) == repr(want)
    assert repr(room.walls) == repr(sides)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_random_scenes_round_trip_through_the_map_file(seed):
    scene = random_scene(random.Random(seed))
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "first.map"), os.path.join(tmp, "second.map")
        save_map(scene, first)
        again = load_map(first)
        assert again == scene and repr(again) == repr(scene)
        save_map(again, second)
        with open(first, "rb") as f, open(second, "rb") as g:
            assert f.read() == g.read()


def _write_as(tmp_path, name: str, data: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _plan_output(path: str, capsys) -> list[str]:
    outputs = []
    for mode in ("irrt", "irrt_sg", "irrt_sg_sps"):
        assert main(["plan", "--map", path, "--start", "1,1", "--goal", "10.5,2",
                     "--mode", mode, "--timeout", "0.05", "--seed", "3"]) == 0
        outputs.append(capsys.readouterr().out)
    return outputs


@pytest.mark.parametrize("swap", [False, True], ids=["as-written", "swapped"])
def test_walls_within_closure_tol_load_snapped_onto_the_box(tmp_path, capsys, swap):
    with open(fixture_path("threeroom.map")) as f:
        exact, moved = _perturbed(json.load(f), swap)
    want = load_map(_write_as(tmp_path, "exact.map", exact))
    path = _write_as(tmp_path, "moved.map", moved)
    got = load_map(path)
    # equal bit for bit: repr tells -0.0 from 0.0, == does not
    assert got == want and repr(got) == repr(want)
    if not swap:
        assert got == load_map(fixture_path("threeroom.map"))
    assert (build_global_map(got).sdf.values.tobytes()
            == build_global_map(want).sdf.values.tobytes())
    # saving the snapped walls and loading them again changes nothing
    save_map(got, str(tmp_path / "saved.map"))
    again = load_map(str(tmp_path / "saved.map"))
    assert again == got and repr(again) == repr(got)
    save_map(again, str(tmp_path / "saved_again.map"))
    assert (tmp_path / "saved_again.map").read_bytes() == (tmp_path / "saved.map").read_bytes()
    assert _plan_output(path, capsys) == _plan_output(
        fixture_path("threeroom.map") if not swap else str(tmp_path / "exact.map"), capsys)


def test_a_box_as_wide_as_floats_allow_loads(tmp_path):
    # the midpoint (x + x) / 2 of the wall at x = 1.7e308 overflows to inf;
    # the box is valid, and its grid is what the map build rejects
    w = 1.7e308
    data = {"frame": "map", "bbox": {"min": [0.0, 0.0], "max": [w, 4.0]},
            "rooms": [{"id": "wide", "center": [w / 2.0, 2.0], "walls": [
                {"a": [0.0, 0.0], "b": [w, 0.0]}, {"a": [w, 0.0], "b": [w, 4.0]},
                {"a": [w, 4.0], "b": [0.0, 4.0]}, {"a": [0.0, 4.0], "b": [0.0, 0.0]}]}],
            "doorways": []}
    scene = load_map(_write(tmp_path, data))
    assert scene.room("wide").bounds == (0.0, 0.0, w, 4.0)
    with pytest.raises(ValidationError, match="grid"):
        build_global_map(scene)


@pytest.mark.parametrize("a, b, want", [
    (1.7e308, 1.7e308, 1.7e308),
    (-1.7e308, -1.7e308, -1.7e308),
    (1.7e308, 1.5e308, 1.6e308),
    (-1.7e308, 1.7e308, 0.0),
    (5e-324, 5e-324, 5e-324),
    (-0.0, -0.0, -0.0),
    (4.0 - 2.0 ** -21, 4.0 + 2.0 ** -21, 4.0),
])
def test_wall_midpoint_is_finite_and_exact_for_equal_ends(a, b, want):
    assert _mid(a, b).hex() == want.hex()
