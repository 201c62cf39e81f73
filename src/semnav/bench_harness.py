"""Benchmark harness comparing three planning modes on one map.

Modes:

* ``irrt``          Informed RRT* over the whole map.
* ``irrt_sg``       Informed RRT* restricted to the rooms and doorway
                    openings of the semantic route.
* ``irrt_sg_sps``   The semantic route decomposed into per-room subproblems,
                    each solved with an equal share of the budget.

``plan_query`` answers one query in one mode; ``semnav plan`` calls it too.
Every query id gets one (start, goal, seed) triple, shared by all modes, so
the rows are directly comparable. ``run_bench`` builds one world (map and
topology) per call for the pair draw and every query. Queries run in
parallel across processes, each receiving the world once as its pool
starts; the modes of one query always run sequentially inside the same
worker. With the default virtual planning clock the full record set is a
pure function of the configuration, so CSV exports are byte-identical across
repeat runs and across worker counts.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .errors import EmptyInput, EmptyRegion
from .geometry import Point2
from .geometric_planner import (CLOCK_VIRTUAL, DEFAULT_GOAL_TOLERANCE,
                                DEFAULT_OPS_PER_SECOND, DEFAULT_ROBOT_RADIUS,
                                DEFAULT_VALIDITY_MARGIN, INFORMED_RRT_STAR,
                                GeometricPath, GeometricProblem, PlannerConfig,
                                PlannerStats, Region, _finite, plan)
from .map_builder import GlobalMap, build_global_map
from .rng import make_stream, mix
from .scene_graph import SceneGraph, load_map, locate_room
from .semantic_planner import (DEFAULT_DOORWAY_PENALTY, SQUARED, SemanticRoute,
                               TopologyGraph, build_topology, semantic_route)
from .subproblem_solver import GlobalPath, decompose, solve_all

MODE_IRRT = "irrt"
MODE_IRRT_SG = "irrt_sg"
MODE_IRRT_SG_SPS = "irrt_sg_sps"
MODES = (MODE_IRRT, MODE_IRRT_SG, MODE_IRRT_SG_SPS)

PAIRS_RANDOM = "random"
PAIRS_FIXED = "fixed"

CSV_HEADER = ("query_id", "mode", "seed", "solved", "samples",
              "path_length_m", "time_s")

_PAIR_SALT = 0xA5
_PLAN_SALT = 0x13


@dataclass(frozen=True)
class QueryResult:
    """One query answered in one mode.

    ``route`` is None for ``irrt``. ``path`` is a GeometricPath for the
    single-tree modes, a GlobalPath for ``irrt_sg_sps`` and None when the
    query stays unsolved; ``stats`` has one entry per planner run.
    """

    route: SemanticRoute | None
    path: GeometricPath | GlobalPath | None
    stats: tuple[PlannerStats, ...]
    length: float | None

    @property
    def solved(self) -> bool:
        return self.length is not None

    @property
    def samples(self) -> int:
        return sum(s.samples_created for s in self.stats)

    @property
    def time_s(self) -> float:
        return sum(s.planning_time for s in self.stats)


def plan_query(scene: SceneGraph, gmap: GlobalMap, topo: TopologyGraph,
               mode: str, start: Point2, goal: Point2, config: PlannerConfig, *,
               redistribute: bool = False,
               goal_tolerance: float = DEFAULT_GOAL_TOLERANCE,
               robot_radius: float = DEFAULT_ROBOT_RADIUS,
               validity_margin: float = DEFAULT_VALIDITY_MARGIN) -> QueryResult:
    """Answer one start-to-goal query in one of ``MODES``.

    ``irrt`` plans over the whole map. ``irrt_sg`` routes over ``topo`` and
    restricts the same planner to the route's rooms and doorway openings.
    ``irrt_sg_sps`` cuts the route into per-room subproblems for
    ``solve_all``; ``redistribute`` only applies there.
    """
    if mode not in MODES:
        raise ValueError(f"unknown planning mode '{mode}'")
    pk = {"goal_tolerance": goal_tolerance, "robot_radius": robot_radius,
          "validity_margin": validity_margin}
    route = None if mode == MODE_IRRT else semantic_route(topo, scene, start, goal)
    if mode == MODE_IRRT_SG_SPS:
        gpath, sub_stats = solve_all(decompose(route, scene), gmap, config,
                                     redistribute=redistribute, **pk)
        return QueryResult(route, gpath, tuple(sub_stats),
                           gpath.total_length if gpath is not None else None)
    if mode == MODE_IRRT_SG:
        pk["allowed_rooms"] = route.free_space
        pk["allowed_doorways"] = frozenset(route.doorways)
    path, stats = plan(gmap, GeometricProblem(start=start, goal=goal, **pk), config)
    return QueryResult(route, path, (stats,),
                       path.length if path is not None else None)


@dataclass(frozen=True)
class BenchConfig:
    """One benchmark campaign.

    ``pairs="random"`` draws, per query id, a start and a goal that are valid
    states in two different rooms; ``pairs="fixed"`` uses the given start and
    goal for every query (queries then differ only by planner seed). It
    checks itself when made and in ``dataclasses.replace``, its budget, seed
    and clock by building the ``PlannerConfig`` that each query gets.
    """

    map_path: str
    modes: tuple[str, ...] = MODES
    n_queries: int = 1
    timeout: float = 0.1
    seed: int = 0
    pairs: str = PAIRS_RANDOM
    start: Point2 | None = None
    goal: Point2 | None = None
    penalty: float = DEFAULT_DOORWAY_PENALTY
    metric: str = SQUARED
    goal_tolerance: float = DEFAULT_GOAL_TOLERANCE
    robot_radius: float = DEFAULT_ROBOT_RADIUS
    validity_margin: float = DEFAULT_VALIDITY_MARGIN
    clock: str = CLOCK_VIRTUAL
    ops_per_second: float = DEFAULT_OPS_PER_SECOND

    def __post_init__(self) -> None:
        if not self.modes:
            raise ValueError("no benchmark modes selected")
        for m in self.modes:
            if m not in MODES:
                raise ValueError(f"unknown benchmark mode '{m}'")
        n = self.n_queries  # True is an int, but no query count
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError("n_queries must be an int of at least 1")
        for name in ("timeout", "ops_per_second"):
            v = getattr(self, name)
            if not (_finite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, not {v!r}")
        PlannerConfig(timeout=self.timeout, seed=self.seed, clock=self.clock,
                      ops_per_second=self.ops_per_second)
        if self.pairs not in (PAIRS_RANDOM, PAIRS_FIXED):
            raise ValueError(f"unknown pair policy '{self.pairs}'")
        if self.pairs == PAIRS_FIXED and (self.start is None or self.goal is None):
            raise ValueError("fixed pairs need an explicit start and goal")


@dataclass(frozen=True)
class BenchRecord:
    query_id: int
    mode: str
    seed: int
    solved: bool
    samples: int
    path_length: float | None
    time_s: float


def generate_pairs(config: BenchConfig) -> list[tuple[Point2, Point2]]:
    """The (start, goal) pair of every query id, in order.

    Random pairs are valid states (full robot clearance) in two different
    rooms, drawn from a per-query stream on the map of ``config``, so the
    list only depends on the configuration. Raises EmptyRegion when no
    valid state can be drawn: at once when no node of the field reaches the
    clearance (a bilinear value is a convex combination of four node
    values, and the slack covers its rounding), else after 100,000 draws.
    """
    gmap = None
    if config.pairs == PAIRS_RANDOM:
        gmap = build_global_map(load_map(config.map_path))
    return _pairs(config, gmap)


def _pairs(config: BenchConfig, gmap: GlobalMap | None) -> list[tuple[Point2, Point2]]:
    """``generate_pairs`` on the map of ``config``, which only random pairs read."""
    if config.pairs == PAIRS_FIXED:
        assert config.start is not None and config.goal is not None
        return [(config.start, config.goal)] * config.n_queries
    probe = GeometricProblem(start=Point2(0.0, 0.0), goal=Point2(0.0, 0.0),
                             robot_radius=config.robot_radius,
                             validity_margin=config.validity_margin)
    region = Region(gmap, probe)
    top = float(gmap.sdf.values.max())
    if not top + abs(top) * 2.0 ** -48 >= region.clearance:
        raise EmptyRegion(f"no point of the map has {region.clearance:g} m "
                          f"of clearance (largest field value {top:g} m)")
    scene = gmap.scene
    lo, hi = scene.bbox
    pairs = []
    for qid in range(config.n_queries):
        rng = make_stream(mix(config.seed, qid, _PAIR_SALT))

        def draw(exclude_room: str | None) -> tuple[Point2, str]:
            for _ in range(100_000):
                p = Point2(rng.uniform(lo.x, hi.x), rng.uniform(lo.y, hi.y))
                if not region.valid(p):
                    continue
                room = locate_room(scene, p)
                if room is None or room == exclude_room:
                    continue
                return p, room
            raise EmptyRegion("could not draw a valid benchmark query point")

        start, start_room = draw(None)
        goal, _ = draw(start_room)
        pairs.append((start, goal))
    return pairs


_World = tuple[GlobalMap, TopologyGraph]
# a pool worker's world, set once as the pool starts; it ends with the pool
_pool_world: _World | None = None


def _enter_pool(world: _World) -> None:
    global _pool_world
    _pool_world = world


def _run_pooled(config: BenchConfig, qid: int,
                pair: tuple[Point2, Point2]) -> list[BenchRecord]:
    return _run_query(config, _pool_world, qid, pair)


def _run_query(config: BenchConfig, world: _World, qid: int,
               pair: tuple[Point2, Point2]) -> list[BenchRecord]:
    """All requested modes for one query id, sequentially."""
    gmap, topo = world
    start, goal = pair
    plan_seed = mix(config.seed, qid, _PLAN_SALT)
    base = PlannerConfig(algorithm=INFORMED_RRT_STAR, timeout=config.timeout,
                         seed=plan_seed, clock=config.clock,
                         ops_per_second=config.ops_per_second)
    records = []
    for mode in config.modes:
        result = plan_query(gmap.scene, gmap, topo, mode, start, goal, base,
                            goal_tolerance=config.goal_tolerance,
                            robot_radius=config.robot_radius,
                            validity_margin=config.validity_margin)
        records.append(BenchRecord(query_id=qid, mode=mode, seed=plan_seed,
                                   solved=result.solved,
                                   samples=result.samples,
                                   path_length=result.length,
                                   time_s=result.time_s))
    return records


def run_bench(config: BenchConfig, *, workers: int | None = None,
              progress=None) -> list[BenchRecord]:
    """Run the campaign and return records sorted by (query_id, mode).

    One world, built here, serves the pairs and every query and ends with
    the call; pool workers (``workers`` > 1) receive it as they start. The
    result is identical for any worker count; fewer than 1 raises ValueError.
    ``progress(done, total)`` is called after each finished query when given.
    """
    if workers is not None and workers < 1:
        raise ValueError("workers must be at least 1")
    gmap = build_global_map(load_map(config.map_path))
    world = (gmap, build_topology(gmap.scene, config.penalty, config.metric))
    pairs = _pairs(config, gmap)
    total = len(pairs)
    # a process pool starts all its workers up front: never more than queries
    workers = min(workers or 1, total)
    records: list[BenchRecord] = []
    if workers <= 1:
        for qid, pair in enumerate(pairs):
            records.extend(_run_query(config, world, qid, pair))
            if progress is not None:
                progress(qid + 1, total)
    else:
        with ProcessPoolExecutor(max_workers=workers, initializer=_enter_pool,
                                 initargs=(world,)) as pool:
            futures = [pool.submit(_run_pooled, config, qid, pair)
                       for qid, pair in enumerate(pairs)]
            for done, f in enumerate(futures):
                records.extend(f.result())
                if progress is not None:
                    progress(done + 1, total)
    records.sort(key=lambda r: (r.query_id, MODES.index(r.mode)))
    return records


def _nearest_rank(sorted_values: list, fraction: float):
    """Quantile by the nearest-rank rule on an already sorted list."""
    n = len(sorted_values)
    rank = max(1, math.ceil(fraction * n))
    return sorted_values[rank - 1]


def _five_numbers(values: list) -> dict:
    if not values:
        return {"min": None, "q1": None, "median": None, "q3": None, "max": None}
    vals = sorted(values)
    return {
        "min": vals[0],
        "q1": _nearest_rank(vals, 0.25),
        "median": _nearest_rank(vals, 0.5),
        "q3": _nearest_rank(vals, 0.75),
        "max": vals[-1],
    }


def summarize(records: list[BenchRecord]) -> dict:
    """Per-mode solve rate and five-number summaries.

    Sample counts and times cover all records of the mode; path lengths only
    the solved ones. Quantiles use the nearest-rank rule, so every reported
    number is an actual observation.
    """
    if not records:
        raise EmptyInput("no benchmark records to summarize")
    summary: dict = {}
    for mode in MODES:
        rows = [r for r in records if r.mode == mode]
        if not rows:
            continue
        solved = [r for r in rows if r.solved]
        summary[mode] = {
            "n": len(rows),
            "solve_rate": len(solved) / len(rows),
            "samples": _five_numbers([r.samples for r in rows]),
            "path_length_m": _five_numbers([r.path_length for r in solved
                                            if r.path_length is not None]),
            "time_s": _five_numbers([r.time_s for r in rows]),
        }
    return summary


def export_csv(records: list[BenchRecord], path: str) -> None:
    """Write records as CSV; floats use repr so values round-trip exactly."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow([
                r.query_id,
                r.mode,
                r.seed,
                "true" if r.solved else "false",
                r.samples,
                "" if r.path_length is None else repr(r.path_length),
                repr(r.time_s),
            ])


def export_summary_json(summary: dict, path: str) -> None:
    with open(path, "w") as f:
        json.dump(summary, f, indent=2)
        f.write("\n")
