"""Command-line interface: validate maps, plan queries, benchmark, render.

Exit codes are stable API: 0 success, 1 domain failure (invalid scene
content, no route, no path within budget), 2 usage or I/O errors. The
environment variable SNAV_LOG={error,warn,info,debug} controls logging
verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import errors
from .geometry import Point2
from .map_builder import build_global_map
from .geometric_planner import (ALGORITHMS, CLOCK_VIRTUAL, CLOCK_WALL,
                                DEFAULT_OPS_PER_SECOND, INFORMED_RRT_STAR,
                                PlannerConfig, path_to_dict)
from .bench_harness import (MODES, PAIRS_FIXED, PAIRS_RANDOM, BenchConfig,
                            export_csv, export_summary_json, plan_query,
                            run_bench, summarize)
from .scene_graph import _point, _read_json, load_map
from .semantic_planner import (DEFAULT_DOORWAY_PENALTY, METRICS, SQUARED,
                               build_topology, route_to_dict)
from .subproblem_solver import GlobalPath, global_path_to_dict
from .svg_render import render_map_svg, render_summary_svg

log = logging.getLogger("semnav")

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    level = _LOG_LEVELS.get(os.environ.get("SNAV_LOG", "warn").lower(),
                            logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(level)


def _parse_point(text: str) -> Point2:
    try:
        xs, ys = text.split(",")
        return Point2(float(xs), float(ys))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"expected a coordinate pair 'x,y', got '{text}'") from exc


def _write_text(path: str, content: str) -> None:
    with open(path, "w") as f:
        f.write(content)


def cmd_validate(args: argparse.Namespace) -> int:
    load_map(args.map, lenient=args.lenient)
    print(f"ok: {args.map}")
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    if (args.goal is None) == (args.goal_room is None):
        raise ValueError("exactly one of --goal and --goal-room is required")
    config = PlannerConfig(algorithm=args.algorithm, timeout=args.timeout,
                           seed=args.seed, clock=args.clock,
                           ops_per_second=args.ops_per_second)
    scene = load_map(args.map)
    gmap = build_global_map(scene)
    start = _parse_point(args.start)
    if args.goal_room is not None:
        goal = scene.room(args.goal_room).center
    else:
        goal = _parse_point(args.goal)
    topo = build_topology(scene, args.p_d, args.metric)
    result = plan_query(scene, gmap, topo, args.mode, start, goal, config,
                        redistribute=args.redistribute)

    report: dict = {"mode": args.mode, "start": list(start), "goal": list(goal)}
    route = result.route
    if route is not None:
        report["route"] = route_to_dict(route)
        log.info("route: %s via %s", " -> ".join(route.rooms),
                 ", ".join(route.doorways) or "no doorways")
    path = result.path
    waypoints = None
    report["path"] = None
    if isinstance(path, GlobalPath):
        waypoints = [p for seg in path.segments for p in seg.waypoints]
        report["path"] = global_path_to_dict(path)
    elif path is not None:
        waypoints = list(path.waypoints)
        report["path"] = path_to_dict(path)
    report["solved"] = result.solved
    report["samples"] = result.samples
    report["length_m"] = result.length

    if args.out:
        _write_text(args.out, json.dumps(report, indent=2) + "\n")
    if args.svg:
        _write_text(args.svg, render_map_svg(scene, gmap, path=waypoints))

    if not result.solved:
        print("no path found within budget")
        print(f"samples: {result.samples}")
        return 1
    print(f"length_m: {result.length!r}")
    print(f"samples: {result.samples}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    if (args.start is None) != (args.goal is None):
        raise ValueError("--start and --goal go together")
    modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
    fixed = args.start is not None
    config = BenchConfig(
        map_path=args.map, modes=modes, n_queries=args.queries,
        timeout=args.timeout, seed=args.seed,
        pairs=PAIRS_FIXED if fixed else PAIRS_RANDOM,
        start=_parse_point(args.start) if fixed else None,
        goal=_parse_point(args.goal) if fixed else None,
        penalty=args.p_d, metric=args.metric, clock=args.clock,
        ops_per_second=args.ops_per_second)
    progress = None
    if log.isEnabledFor(logging.INFO):
        progress = lambda done, total: log.info("query %d/%d", done, total)
    records = run_bench(config, workers=args.jobs, progress=progress)
    summary = summarize(records)

    if args.csv:
        export_csv(records, args.csv)
    if args.svg:
        _write_text(args.svg, render_summary_svg(summary))
    if args.summary:
        export_summary_json(summary, args.summary)

    header = (f"{'mode':<14}{'n':>6}{'solved':>8}{'med_samples':>13}"
              f"{'med_length_m':>14}{'med_time_s':>12}")
    print(header)
    for mode, stats in summary.items():
        med_len = stats["path_length_m"]["median"]
        print(f"{mode:<14}{stats['n']:>6}{stats['solve_rate']:>8.2f}"
              f"{stats['samples']['median']:>13}"
              f"{(f'{med_len:.3f}' if med_len is not None else '-'):>14}"
              f"{stats['time_s']['median']:>12.4f}")
    return 0


def _read_waypoints(path: str) -> list[Point2]:
    """Waypoints of a plan report, or of a bare path or joined path object."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise errors.ParseError(f"{path}: top level must be an object")
    payload = data.get("path", data) or {}
    if not isinstance(payload, dict):
        raise errors.ParseError(f"{path}: path: expected an object")
    if "segments" in payload:
        segments = payload["segments"]
        if not (isinstance(segments, list)
                and all(isinstance(s, dict) for s in segments)):
            raise errors.ParseError(f"{path}: segments: expected a list of objects")
        runs = [seg.get("waypoints") for seg in segments]
    elif "waypoints" in payload:
        runs = [payload["waypoints"]]
    else:
        raise errors.ParseError(f"{path}: no waypoints found")
    waypoints = []
    for run in runs:
        if not isinstance(run, list):
            raise errors.ParseError(f"{path}: waypoints: expected a list")
        waypoints.extend(_point(p, f"{path}: waypoints") for p in run)
    return waypoints


def cmd_render(args: argparse.Namespace) -> int:
    scene = load_map(args.map)
    gmap = build_global_map(scene)
    waypoints = _read_waypoints(args.path) if args.path else None
    _write_text(args.out, render_map_svg(scene, gmap, path=waypoints,
                                         show_sdf=args.show_sdf))
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semnav",
        description="Hierarchical semantic-geometric path planning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check a map file")
    p_val.add_argument("map", help="map JSON path")
    p_val.add_argument("--lenient", action="store_true",
                       help="ignore unknown fields in the map file")

    p_plan = sub.add_parser("plan", help="answer one start-to-goal query")
    p_plan.add_argument("--map", required=True)
    p_plan.add_argument("--start", required=True, metavar="X,Y")
    p_plan.add_argument("--goal", metavar="X,Y")
    p_plan.add_argument("--goal-room", dest="goal_room", metavar="ROOM_ID",
                        help="plan to the center of this room")
    p_plan.add_argument("--mode", choices=MODES, default="irrt_sg_sps")
    p_plan.add_argument("--algorithm", choices=ALGORITHMS,
                        default=INFORMED_RRT_STAR)
    p_plan.add_argument("--timeout", type=float, default=1.0, metavar="SECONDS")
    p_plan.add_argument("--seed", type=int, default=0)
    p_plan.add_argument("--p-d", dest="p_d", type=float,
                        default=DEFAULT_DOORWAY_PENALTY,
                        help="doorway crossing penalty")
    p_plan.add_argument("--metric", choices=METRICS, default=SQUARED)
    p_plan.add_argument("--redistribute", action="store_true",
                        help="give leftover budget to unsolved subproblems")
    p_plan.add_argument("--clock", choices=(CLOCK_VIRTUAL, CLOCK_WALL),
                        default=CLOCK_VIRTUAL)
    p_plan.add_argument("--ops-per-second", dest="ops_per_second", type=float,
                        default=DEFAULT_OPS_PER_SECOND)
    p_plan.add_argument("--out", help="write the plan report JSON here")
    p_plan.add_argument("--svg", help="write a map+path SVG here")

    p_bench = sub.add_parser("bench", help="run the benchmark campaign")
    p_bench.add_argument("--map", required=True)
    p_bench.add_argument("--queries", type=int, default=100)
    p_bench.add_argument("--timeout", type=float, default=0.1)
    p_bench.add_argument("--modes", default=",".join(MODES))
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--start", metavar="X,Y",
                         help="fixed start (with --goal: fixed-pair queries)")
    p_bench.add_argument("--goal", metavar="X,Y")
    p_bench.add_argument("--p-d", dest="p_d", type=float,
                         default=DEFAULT_DOORWAY_PENALTY)
    p_bench.add_argument("--metric", choices=METRICS, default=SQUARED)
    p_bench.add_argument("--jobs", type=int, default=None)
    p_bench.add_argument("--clock", choices=(CLOCK_VIRTUAL, CLOCK_WALL),
                         default=CLOCK_VIRTUAL)
    p_bench.add_argument("--ops-per-second", dest="ops_per_second", type=float,
                         default=DEFAULT_OPS_PER_SECOND)
    p_bench.add_argument("--csv", help="write records CSV here")
    p_bench.add_argument("--svg", help="write boxplot SVG here")
    p_bench.add_argument("--summary", help="write summary JSON here")

    p_render = sub.add_parser("render", help="draw a map to SVG")
    p_render.add_argument("--map", required=True)
    p_render.add_argument("--out", required=True)
    p_render.add_argument("--path", help="overlay a plan report JSON")
    p_render.add_argument("--show-sdf", dest="show_sdf", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {"validate": cmd_validate, "plan": cmd_plan,
                "bench": cmd_bench, "render": cmd_render}
    try:
        return handlers[args.command](args)
    except (errors.ParseError, OSError, ValueError) as exc:
        # malformed input files and filesystem trouble
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except errors.SemNavError as exc:
        # scene content problems and planning failures
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
