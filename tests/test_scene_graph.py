"""Scene-graph model, file I/O and validation."""

from __future__ import annotations

import importlib.util
import json
import math
import random

import pytest

from semnav import (Doorway, ParseError, Point2, Room, SceneGraph, UnknownId,
                    ValidationError, WallSegment, load_map, locate_room,
                    save_map, set_doorway_blocked, shared_boundary)

from conftest import fixture_path, rect_room


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


def test_locate_room_basics(threeroom_scene):
    for room in threeroom_scene.rooms:
        assert locate_room(threeroom_scene, room.center) == room.id
    assert locate_room(threeroom_scene, Point2(-5.0, -5.0)) is None
    assert locate_room(threeroom_scene, Point2(100.0, 2.0)) is None


def test_locate_room_shared_wall_tie_break(threeroom_scene):
    # x = 4 belongs to both r1 and r2; the smaller id wins
    assert locate_room(threeroom_scene, Point2(4.0, 2.0)) == "r1"
    assert locate_room(threeroom_scene, Point2(8.0, 1.0)) == "r2"


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
