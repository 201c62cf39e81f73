"""Hierarchical semantic-geometric path planning toolkit.

Plan indoor robot paths in two layers: a semantic layer finds the cheapest
room/doorway route on a scene graph, and a geometric layer solves the
resulting per-room subproblems with sampling-based planners over a signed
distance field. A benchmark harness compares the hierarchy against flat
planning on the same queries.
"""

from __future__ import annotations

from .errors import (DegenerateRoom, DoorwayPlacement, EmptyInput, EmptyMap,
                     EmptyRegion, GoalOutsideMap, InvalidGoal, InvalidStart,
                     NoRoute, NotIncident, OutOfBounds, ParseError,
                     SemNavError, StartOutsideMap, SubproblemInfeasible,
                     UnknownId, ValidationError)
from .geometry import Point2, WallSegment
from .scene_graph import (Doorway, Room, SceneGraph, load_map, locate_room,
                          save_map, set_doorway_blocked, shared_boundary)
from .map_builder import (CarvedWalls, GlobalMap, SdfGrid, build_global_map,
                          build_sdf, point_in_contour, sdf_query)
from .semantic_planner import (EUCLIDEAN, METRICS, SQUARED, SemanticRoute,
                               TopologyGraph, build_topology, edge_cost,
                               route_to_dict, semantic_route)
from .geometric_planner import (ALGORITHMS, CLOCK_VIRTUAL, CLOCK_WALL,
                                INFORMED_RRT_STAR, RRT, RRT_STAR,
                                GeometricPath, GeometricProblem,
                                PlannerConfig, PlannerStats, Region,
                                motion_valid, path_to_dict, plan,
                                sample_state, state_valid)
from .subproblem_solver import (GlobalPath, ReplanOutcome, Subproblem,
                                decompose, global_path_to_dict,
                                join_segments, replan, solve_all)
from .bench_harness import (MODES, BenchConfig, BenchRecord, QueryResult,
                            export_csv, export_summary_json, generate_pairs,
                            plan_query, run_bench, summarize)
from .svg_render import render_boxplot_svg, render_map_svg, render_summary_svg

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS", "BenchConfig", "BenchRecord", "CLOCK_VIRTUAL", "CLOCK_WALL",
    "CarvedWalls", "DegenerateRoom", "Doorway", "DoorwayPlacement",
    "EUCLIDEAN", "EmptyInput", "EmptyMap", "EmptyRegion", "GeometricPath",
    "GeometricProblem", "GlobalMap", "GlobalPath", "GoalOutsideMap",
    "INFORMED_RRT_STAR", "InvalidGoal", "InvalidStart", "METRICS", "MODES",
    "NoRoute", "NotIncident", "OutOfBounds", "ParseError", "PlannerConfig",
    "PlannerStats", "Point2", "QueryResult", "Region", "ReplanOutcome", "Room",
    "RRT", "RRT_STAR", "SQUARED", "SceneGraph", "SdfGrid", "SemNavError",
    "SemanticRoute",
    "StartOutsideMap", "Subproblem", "SubproblemInfeasible", "TopologyGraph",
    "UnknownId", "ValidationError", "WallSegment", "build_global_map",
    "build_sdf", "build_topology", "decompose", "edge_cost",
    "export_csv", "export_summary_json", "generate_pairs",
    "global_path_to_dict", "join_segments", "load_map", "locate_room",
    "motion_valid", "path_to_dict", "plan", "plan_query", "point_in_contour",
    "render_boxplot_svg", "render_map_svg", "render_summary_svg",
    "replan", "route_to_dict", "run_bench", "sample_state", "save_map",
    "sdf_query", "semantic_route", "set_doorway_blocked", "shared_boundary",
    "solve_all", "state_valid", "summarize",
]
