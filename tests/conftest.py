"""Shared fixtures: the map fixtures on disk, generated random scenes and
the hypothesis strategies for points near room edges."""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import strategies as st

from semnav import (Doorway, Point2, Room, SceneGraph, WallSegment,
                    build_global_map, load_map)

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def child_env() -> dict:
    """The environment for a test's child Python: ``src`` first on
    PYTHONPATH, so the child imports the semnav under test."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}


@pytest.fixture(scope="session")
def threeroom_scene():
    return load_map(fixture_path("threeroom.map"))


@pytest.fixture(scope="session")
def threeroom_map(threeroom_scene):
    return build_global_map(threeroom_scene)


@pytest.fixture(scope="session")
def ring4_scene():
    return load_map(fixture_path("ring4.map"))


@pytest.fixture(scope="session")
def ring4_map(ring4_scene):
    return build_global_map(ring4_scene)


@pytest.fixture(scope="session")
def grid8_scene():
    return load_map(fixture_path("grid8.map"))


@pytest.fixture(scope="session")
def grid8_map(grid8_scene):
    return build_global_map(grid8_scene)


def rect_room(room_id: str, x0: float, y0: float, x1: float, y1: float) -> Room:
    center = Point2((x0 + x1) / 2.0, (y0 + y1) / 2.0)
    walls = [
        WallSegment(Point2(x0, y0), Point2(x1, y0)),
        WallSegment(Point2(x1, y0), Point2(x1, y1)),
        WallSegment(Point2(x1, y1), Point2(x0, y1)),
        WallSegment(Point2(x0, y1), Point2(x0, y0)),
    ]
    return Room.build(room_id, center, walls)


_OFFSETS = (st.sampled_from([0.0, 1e-9, -1e-9, 2e-9, -2e-9, 4e-9, -4e-9, 6e-9, -6e-9])
            | st.floats(-1e-8, 1e-8) | st.floats(-2.0, 2.0))


@st.composite
def near(draw, lo: float, hi: float) -> float:
    """A coordinate on, just beside or away from the interval's ends."""
    anchor = draw(st.sampled_from([lo, hi, (lo + hi) / 2.0]) | st.floats(lo - 1.0, hi + 1.0))
    return anchor + draw(_OFFSETS)


@st.composite
def rectangle_rooms(draw) -> Room:
    """A room over an axis-aligned rectangle at a random scale."""
    scale = draw(st.sampled_from([1.0, 1e3, 1e6]))
    x0 = scale * draw(st.floats(-1.0, 1.0))
    y0 = scale * draw(st.floats(-1.0, 1.0))
    x1 = x0 + draw(st.floats(0.05, 20.0))
    y1 = y0 + draw(st.floats(0.05, 20.0))
    return Room(id="a", center=Point2((x0 + x1) / 2.0, (y0 + y1) / 2.0), walls=(),
                bounds=(x0, y0, x1, y1))


def random_scene(rng: random.Random, max_rooms: int = 6,
                 max_doorways: int = 8) -> SceneGraph:
    """A random grid of rooms with random doorways on shared walls.

    Rooms tile a rows-by-cols grid (so adjacency and shared boundaries are
    exact by construction); doorway count, placement, width, multiplicity
    and blocked flags are randomized. The graph is not always connected,
    which is intentional: route searches must handle unreachable goals.
    """
    while True:
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        if 2 <= rows * cols <= max_rooms:
            break
    xs = [0.0]
    for _ in range(cols):
        xs.append(xs[-1] + rng.uniform(2.0, 6.0))
    ys = [0.0]
    for _ in range(rows):
        ys.append(ys[-1] + rng.uniform(2.0, 6.0))

    rooms = []
    cell_id = {}
    k = 0
    for r in range(rows):
        for c in range(cols):
            rid = f"r{k + 1}"
            cell_id[(r, c)] = rid
            rooms.append(rect_room(rid, xs[c], ys[r], xs[c + 1], ys[r + 1]))
            k += 1

    adjacencies = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                adjacencies.append(((r, c), (r, c + 1), "v"))
            if r + 1 < rows:
                adjacencies.append(((r, c), (r + 1, c), "h"))

    doorways = []
    n_doors = rng.randint(0, min(max_doorways, 2 * len(adjacencies)))
    for i in range(n_doors):
        ca, cb, orient = rng.choice(adjacencies)
        width = rng.uniform(0.2, 0.8)
        if orient == "v":
            x = xs[ca[1] + 1]
            lo, hi = ys[ca[0]], ys[ca[0] + 1]
            t = rng.uniform(lo + width, hi - width)
            center = Point2(x, t)
        else:
            y = ys[ca[0] + 1]
            lo, hi = xs[ca[1]], xs[ca[1] + 1]
            t = rng.uniform(lo + width, hi - width)
            center = Point2(t, y)
        doorways.append(Doorway(
            id=f"d{i + 1}", center=center, width=width,
            rooms=(cell_id[ca], cell_id[cb]),
            blocked=rng.random() < 0.15))

    return SceneGraph(frame="map",
                      bbox=(Point2(0.0, 0.0), Point2(xs[-1], ys[-1])),
                      rooms=tuple(rooms), doorways=tuple(doorways))


def interior_point(rng: random.Random, room: Room, margin: float = 0.2) -> Point2:
    x0, y0, x1, y1 = room.bounds
    m = min(margin, (x1 - x0) / 4.0, (y1 - y0) / 4.0)
    return Point2(rng.uniform(x0 + m, x1 - m), rng.uniform(y0 + m, y1 - m))
