"""The package's public surface: what ``semnav`` exports, and what the
benchmark driver in ``perfbench/run.py`` relies on."""

import ast
import dataclasses
import importlib
import inspect
import os
import re

import pytest

import semnav

RUN_PY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "run.py")

# every ``semnav.<name>`` that perfbench/run.py calls
PERFBENCH_NAMES = (
    "load_map", "build_global_map", "build_topology", "generate_pairs",
    "PlannerConfig", "INFORMED_RRT_STAR", "GeometricProblem", "plan",
    "semantic_route", "decompose", "solve_all", "replan",
    "set_doorway_blocked", "state_valid", "motion_valid", "run_bench",
    "BenchConfig", "SemNavError",
)


def test_all_names_resolve_once():
    assert len(semnav.__all__) == len(set(semnav.__all__))
    for name in semnav.__all__:
        assert hasattr(semnav, name), name


def test_region_is_public():
    assert "Region" in semnav.__all__
    assert semnav.Region is semnav.geometric_planner.Region


@pytest.mark.parametrize("name", ["sample_informed", "informed_axes", "path_from_dict",
                                  "global_path_from_dict", "route_from_dict",
                                  "read_csv", "_Region", "_rectangle", "Contour",
                                  "contour_from_room", "point_in_ring",
                                  "point_on_segment", "point_segment_distance",
                                  "EPS", "_RECT_BAND"])
def test_removed_names_are_gone(name):
    assert name not in semnav.__all__
    assert not hasattr(semnav, name)
    for module in (semnav.geometric_planner, semnav.subproblem_solver,
                   semnav.semantic_planner, semnav.bench_harness,
                   semnav.map_builder, semnav.geometry):
        assert not hasattr(module, name), (module.__name__, name)


@pytest.mark.parametrize("owner, name", [
    (semnav.Room, "widths"), (semnav.SceneGraph, "doorways_of"),
    (semnav.TopologyGraph, "node_count"), (semnav.TopologyGraph, "edge_count"),
    (semnav.WallSegment, "length"), (semnav.GlobalMap, "contour"),
    (semnav.Region, "room_table"), (semnav.GlobalMap, "contours"),
    (semnav.Room, "ring"), (semnav.Region, "bands"),
])
def test_removed_attributes_are_gone(owner, name):
    assert not hasattr(owner, name)
    if dataclasses.is_dataclass(owner):
        assert name not in {f.name for f in dataclasses.fields(owner)}


def test_removed_region_attributes_are_gone_from_instances(threeroom_map):
    # Region sets its attributes in __init__, so the class alone proves nothing
    region = semnav.Region(threeroom_map, semnav.GeometricProblem(
        start=semnav.Point2(2.0, 2.0), goal=semnav.Point2(2.0, 2.0),
        allowed_rooms=frozenset({"r1"})))
    for name in ("bands", "room_table"):
        assert not hasattr(region, name)


def test_option_lists_are_pinned():
    # options no caller sets are constants; a new one needs a caller first
    params = {
        semnav.build_global_map: ["scene", "resolution"],
        semnav.build_sdf: ["walls", "bbox", "resolution"],
        semnav.carve_doorways: ["graph"],
        semnav.doorway_openings: ["graph"],
        semnav.render_map_svg: ["scene", "gmap", "path", "show_sdf"],
        semnav.render_summary_svg: ["summary"],
        semnav.render_boxplot_svg: ["summary", "metric"],
    }
    for fn, names in params.items():
        assert list(inspect.signature(fn).parameters) == names, fn.__name__
    assert [f.name for f in dataclasses.fields(semnav.PlannerConfig)] == [
        "algorithm", "timeout", "max_iterations", "seed", "clock", "ops_per_second"]


def test_replan_has_no_map_build_options():
    params = inspect.signature(semnav.replan).parameters
    for name in ("resolution", "wall_half_width", "opening_depth", "attach_threshold"):
        assert name not in params


@pytest.mark.parametrize("name", PERFBENCH_NAMES)
def test_perfbench_names_are_exported(name):
    assert name in semnav.__all__


def test_perfbench_names_are_the_ones_run_py_uses():
    with open(RUN_PY) as f:
        used = set(re.findall(r"\bsemnav\.([A-Za-z_]\w*)", f.read()))
    used = {name for name in used if not name.startswith("__")
            and not inspect.ismodule(getattr(semnav, name, None))}
    assert used == set(PERFBENCH_NAMES)


def _run_py_list(name):
    """The string list that perfbench/run.py assigns to ``name``."""
    with open(RUN_PY) as f:
        tree = ast.parse(f.read())
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == name):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/run.py assigns no {name}")


# a target perfbench's tracer cannot wrap reads null in its per-layer metrics
@pytest.mark.parametrize("target", _run_py_list("SPAN_TARGETS")
                         + _run_py_list("HOT_TARGETS"))
def test_perfbench_trace_targets_resolve(target):
    module, function = target.split(".")
    assert callable(getattr(importlib.import_module(f"semnav.{module}"), function))


def test_perfbench_reads_harness_internals():
    # run.py clears the world cache before each set-up and salts plan seeds
    assert isinstance(semnav.bench_harness._WORLD_CACHE, dict)
    assert type(semnav.bench_harness._PLAN_SALT) is int


@pytest.mark.parametrize("fn", [semnav.solve_all, semnav.replan])
def test_solvers_accept_workers(fn):
    assert "workers" in inspect.signature(fn).parameters
