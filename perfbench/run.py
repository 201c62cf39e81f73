"""semnav benchmark: wall time of planning queries and replans on grid8.

Run from the repository root:

    python3 perfbench/run.py --workload grid8_sps --seed 1 --seconds 35 --trace 0

One process, a closed loop with one client: the next operation starts when
the previous one returned. The package is imported from ``src/`` of the
checkout and called through its public functions, the way
``bench_harness._run_query`` calls them; inputs come from ``generate_pairs``
with the workload seed, and every planner runs on the default virtual clock,
so the work done per operation is a pure function of the seed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the same
operations twice, untraced then traced (see ``tracer.py``), and reports the
per-layer metrics plus the tracing overhead. The last line of standard output
is one JSON object; the lines before it list every metric with its unit and
sample count, the run metadata and a sha256 digest of the virtual-clock
records. Output checks run outside the timed region; a failed check makes the
run exit with code 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAP = "tests/fixtures/grid8.map"
SETUP_REPEATS = 5
TRACED_SETUP_REPEATS = 3
# share of --seconds given to the untraced pass of a traced run; the traced
# replay of the same operations takes the rest
UNTRACED_SHARE = 0.4
PAIR_CHUNK = 64
# On a shared 2-core x86-64 VM the speed of pure-Python code swung by about
# 1.5x in phases of a few seconds, and the medians of identical 25 s runs
# differed by up to 30%. Timed calls are therefore reported in
# speed-normalised seconds: wall seconds * CAL_REF_S / the time of a fixed
# pure-Python loop measured right before and after the call. CAL_REF_S is
# that loop's time on the same VM (Python 3.11) in a fast phase; raw wall
# seconds are printed beside the metrics.
CAL_REF_S = 0.0008
CAL_ITERATIONS = 4000
CAL_REPEATS = 3
# spans of traced runs are written here, inside the checkout
TRACE_DIR = ".perfbench_out"

MODE_IRRT = "irrt"
MODE_SPS = "irrt_sg_sps"
REPLAN = "replan"


@dataclass(frozen=True)
class Workload:
    kind: str          # a planning mode of bench_harness, or "replan"
    digest_ops: int    # operations always run and covered by the digest
    agree_queries: int  # queries compared against run_bench


# Each planning mode is its own workload, so each has its own bound: irrt
# runs no containment test and is the control for constrained-region changes;
# irrt_sg_sps is bound by validity checks. irrt_sg has no workload: it runs
# the layers of irrt_sg_sps, at 30 to 33 queries in a 25 s run, and its
# solved share, about 0.85, spread by 14% between five seeds. A replan
# blocks one doorway of the route: it rebuilds the map, reuses the segments
# that still check out and re-solves the rest. Off-route blocks are left
# out: they only rebuild the map, and their share of the operations, which
# sets both percentiles, would hang on the route lengths of the drawn pairs.
# Every workload plans with BenchConfig's default budget, 0.1 s of virtual
# time.
WORKLOADS = {
    "grid8_irrt": Workload(MODE_IRRT, 40, 5),
    "grid8_sps": Workload(MODE_SPS, 6, 2),
    "grid8_replan": Workload(REPLAN, 6, 1),
}

SPAN_TARGETS = [
    "scene_graph.load_map",
    "map_builder.build_global_map",
    "map_builder.build_sdf",
    "semantic_planner.build_topology",
    "bench_harness.generate_pairs",
    "semantic_planner.semantic_route",
    "subproblem_solver.decompose",
    "subproblem_solver.solve_all",
    "subproblem_solver.replan",
    "geometric_planner.plan",
]
HOT_TARGETS = [
    "map_builder.sdf_query",
    "map_builder.point_in_contour",
    "geometric_planner.sample_state",
]


def import_semnav():
    """Import the package from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "semnav" / "__init__.py").is_file() or not (ROOT / MAP).is_file():
        sys.stderr.write(f"perfbench: {src}/semnav or {MAP} is missing; "
                         "run from a checkout of the repository\n")
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import semnav
    if Path(semnav.__file__).resolve().parent != (src / "semnav").resolve():
        sys.stderr.write(f"perfbench: imported semnav from {semnav.__file__}\n")
        raise SystemExit(2)
    return semnav


semnav = None  # bound by main()
now = time.perf_counter


# ---------------------------------------------------------------- operations

@dataclass
class Op:
    """One measured operation and what the checks need from it."""

    qid: int
    key: str                # mode, or the blocked doorway of a replan
    seed: int
    pair: tuple
    wall: float = 0.0
    cal: float = CAL_REF_S  # calibration loop time around the call
    solved: bool = False
    samples: int = 0
    length: float | None = None
    bound: float = 0.0      # straight polyline through the points the path must visit
    virtual: float = 0.0
    stats: list = field(default_factory=list)   # freshly planned runs
    output: object = None   # path, GlobalPath or ReplanOutcome
    error: str | None = None
    reused: int = 0
    resolved: int = 0

    @property
    def norm(self) -> float:
        """Wall time in speed-normalised seconds."""
        return self.wall * CAL_REF_S / self.cal

    def line(self) -> str:
        return (f"{self.qid},{self.key},{self.seed},{self.solved},{self.samples},"
                f"{self.length!r},{self.virtual!r}\n")


def digest(ops: list[Op]) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(op.line().encode())
    return h.hexdigest()


class World:
    """Everything set-up builds, plus the per-query inputs."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.scene = semnav.load_map(cfg.map_path)
        self.gmap = semnav.build_global_map(self.scene)
        self.topo = semnav.build_topology(self.scene, cfg.penalty, cfg.metric)
        self.pairs = semnav.generate_pairs(cfg)

    def pair(self, qid: int):
        """Pair of query ``qid``; extending the list is untimed input generation."""
        if qid >= len(self.pairs):
            n = max(qid + 1, 2 * len(self.pairs))
            self.pairs = semnav.generate_pairs(replace(self.cfg, n_queries=n))
        return self.pairs[qid]


def clear_harness_cache() -> None:
    """generate_pairs memoises its world; set-up must pay for it every time."""
    cache = getattr(semnav.bench_harness, "_WORLD_CACHE", None)
    if isinstance(cache, dict):
        cache.clear()


def plan_seed(cfg, qid: int) -> int:
    salt = getattr(semnav.bench_harness, "_PLAN_SALT", 0x13)
    return semnav.rng.mix(cfg.seed, qid, salt)


def planner_config(cfg, seed: int):
    return semnav.PlannerConfig(algorithm=semnav.INFORMED_RRT_STAR,
                                timeout=cfg.timeout, seed=seed, clock=cfg.clock,
                                ops_per_second=cfg.ops_per_second)


def problem_kwargs(cfg) -> dict:
    return {"goal_tolerance": cfg.goal_tolerance,
            "robot_radius": cfg.robot_radius,
            "validity_margin": cfg.validity_margin}


def run_query(world: World, mode: str, qid: int, pair) -> Op:
    """One query in one mode, timed around the public calls only."""
    cfg = world.cfg
    start, goal = pair
    seed = plan_seed(cfg, qid)
    pcfg = planner_config(cfg, seed)
    pk = problem_kwargs(cfg)
    op = Op(qid=qid, key=mode, seed=seed, pair=(start, goal))
    t0 = now()
    try:
        if mode == MODE_IRRT:
            problem = semnav.GeometricProblem(start=start, goal=goal, **pk)
            path, st = semnav.plan(world.gmap, problem, pcfg)
            stats = [st]
        else:
            route = semnav.semantic_route(world.topo, world.scene, start, goal)
            subs = semnav.decompose(route, world.scene)
            path, stats = semnav.solve_all(subs, world.gmap, pcfg, workers=1, **pk)
    except semnav.SemNavError as exc:
        op.wall = now() - t0
        op.error = f"{type(exc).__name__}: {exc}"
        return op
    op.wall = now() - t0
    op.stats = list(stats)
    op.samples = sum(s.samples_created for s in stats)
    op.virtual = sum(s.planning_time for s in stats)
    if path is not None:
        op.solved = True
        op.length = path.total_length if mode == MODE_SPS else path.length
        op.output = (route if mode == MODE_SPS else problem, path)
        op.bound = (polyline(route, world.scene) if mode == MODE_SPS
                    else semnav.geometry.dist(start, goal))
    return op


def polyline(route, scene) -> float:
    """Length of the straight legs start, doorway centers, goal of a route
    (built here rather than by ``decompose``, which the tracer would count)."""
    pts = [route.start, *(scene.doorway(d).center for d in route.doorways), route.goal]
    return sum(semnav.geometry.dist(a, b) for a, b in zip(pts, pts[1:]))


@dataclass
class Prepared:
    """Untimed preparation of one replan pair: route and its solution."""

    qid: int
    pair: tuple
    route: object
    path: object
    stats: list
    seed: int

    def record(self) -> tuple:
        """The bench_harness record of this solve, as (query_id, mode, ...)."""
        return (self.qid, MODE_SPS, self.seed, self.path is not None,
                sum(s.samples_created for s in self.stats),
                self.path.total_length if self.path is not None else None,
                sum(s.planning_time for s in self.stats))


def prepare_replan(world: World, qid: int) -> Prepared:
    cfg = world.cfg
    start, goal = world.pair(qid)
    seed = plan_seed(cfg, qid)
    route = semnav.semantic_route(world.topo, world.scene, start, goal)
    subs = semnav.decompose(route, world.scene)
    path, stats = semnav.solve_all(subs, world.gmap, planner_config(cfg, seed),
                                   workers=1, **problem_kwargs(cfg))
    return Prepared(qid, (start, goal), route, path, stats, seed)


def run_replan(world: World, prep: Prepared, doorway: str) -> Op:
    cfg = world.cfg
    start = prep.pair[0]
    op = Op(qid=prep.qid, key=doorway, seed=prep.seed, pair=prep.pair)
    pcfg = planner_config(cfg, prep.seed)
    t0 = now()
    try:
        out = semnav.replan(world.scene, prep.route, prep.path, doorway, start,
                            pcfg, penalty=cfg.penalty, metric=cfg.metric,
                            workers=1, **problem_kwargs(cfg))
    except semnav.SemNavError as exc:
        op.wall = now() - t0
        op.error = f"{type(exc).__name__}: {exc}"
        return op
    op.wall = now() - t0
    reused = set(out.reused_indices)
    op.stats = [st for i, st in enumerate(out.stats, 1) if i not in reused]
    op.reused = len(reused)
    op.resolved = len(op.stats)
    op.samples = sum(s.samples_created for s in op.stats)
    op.virtual = sum(s.planning_time for s in op.stats)
    op.output = (prep, out)
    if out.path is not None:
        op.solved = True
        op.length = out.path.total_length
        op.bound = polyline(out.route, out.scene)
    return op


class Schedule:
    """The deterministic sequence of operations of a workload."""

    def __init__(self, world: World, wl: Workload):
        self.world = world
        self.wl = wl
        self.prep: Prepared | None = None
        self.blocks: list[str] = []
        self.prep_records: list[tuple] = []
        self.blocked_maps: dict[str, tuple] = {}

    def prepare(self, i: int):
        """Do the untimed work of operation ``i``; return the timed call.

        Operations are prepared in order. A replan operation blocks the next
        doorway of the current pair's route that ``replan_feasible`` admits;
        a pair whose doorways are used up is followed by the next pair,
        solved here, untimed.
        """
        world, kind = self.world, self.wl.kind
        if kind != REPLAN:
            pair = world.pair(i)
            return lambda: run_query(world, kind, i, pair)
        while not self.blocks:
            qid = 0 if self.prep is None else self.prep.qid + 1
            self.prep = prepare_replan(world, qid)
            self.prep_records.append(self.prep.record())
            self.blocks = [d for d in self.prep.route.doorways
                           if self.replan_feasible(self.prep, d)]
        prep, doorway = self.prep, self.blocks.pop(0)
        return lambda: run_replan(world, prep, doorway)

    def replan_feasible(self, prep: Prepared, doorway: str) -> bool:
        """Whether ``replan`` can answer a block of ``doorway``: the goal is
        still reachable, and every subproblem of the new route has valid
        endpoints on the rebuilt map. Otherwise it raises NoRoute or
        SubproblemInfeasible, as it should: closing a doorway's wall gap can
        leave a start near it without clearance. Such blocks are left out,
        so that no operation of the workload fails."""
        world = self.world
        if doorway not in self.blocked_maps:
            scene = semnav.set_doorway_blocked(world.scene, doorway, True)
            self.blocked_maps[doorway] = (scene, semnav.build_global_map(scene))
        scene, gmap = self.blocked_maps[doorway]
        topo = semnav.build_topology(scene, world.cfg.penalty, world.cfg.metric)
        try:
            route = semnav.semantic_route(topo, scene, *prep.pair)
        except semnav.SemNavError:
            return False
        pk = problem_kwargs(world.cfg)
        for sub in semnav.decompose(route, scene):
            problem = sub.to_problem(**pk)
            if not (semnav.state_valid(gmap, problem, problem.start)
                    and semnav.state_valid(gmap, problem, problem.goal)):
                return False
        return True

    def check(self, op: Op) -> list[str]:
        return check_op(self.world, op) if op.solved else []


def calibration() -> float:
    """Fastest of CAL_REPEATS runs of a fixed pure-Python float loop."""
    best = math.inf
    for _ in range(CAL_REPEATS):
        t0 = now()
        acc = 0.0
        for i in range(CAL_ITERATIONS):
            acc += math.hypot((i * 0.37) % 17.0 - 8.5, (i * 0.91) % 15.0 - 7.5)
        best = min(best, now() - t0)
    return best


def run_ops(schedule: Schedule, ops: list[Op], errors: list[str], keep_going,
            tracer=None) -> None:
    """Append operations to ``ops`` while ``keep_going(len(ops))``. Each is
    checked, untimed, right after it returns; its output is then dropped."""
    before = calibration()
    while keep_going(len(ops)):
        call = schedule.prepare(len(ops))
        if tracer is not None:
            tracer.begin(f"op{len(ops)}")
        try:
            op = call()
        finally:
            if tracer is not None:
                tracer.end()
        after = calibration()
        op.cal = (before + after) / 2.0
        before = after
        errors += schedule.check(op)
        op.output = None
        ops.append(op)


def for_seconds(seconds: float, min_ops: int = 0):
    deadline = now() + seconds
    return lambda done: done < min_ops or now() < deadline


# ---------------------------------------------------------------- checks

def _bits(path) -> tuple:
    return tuple(c.hex() for p in path.waypoints for c in p) + (path.length.hex(),)


def _probe(gmap, problem, path, where: str, errors: list[str]) -> None:
    pts = path.waypoints
    if pts[0] != problem.start or pts[-1] != problem.goal:
        errors.append(f"{where}: path does not run from its start to its goal")
    for p in pts:
        if not semnav.state_valid(gmap, problem, p):
            errors.append(f"{where}: waypoint {tuple(p)} is not a valid state")
            return
    for a, b in zip(pts, pts[1:]):
        if not semnav.motion_valid(gmap, problem, a, b):
            errors.append(f"{where}: edge {tuple(a)}->{tuple(b)} is not valid")
            return
    floor = semnav.geometry.dist(problem.start, problem.goal)
    if path.length < floor - 1e-9 * (1.0 + floor):
        errors.append(f"{where}: length {path.length!r} below straight line {floor!r}")


def _check_global(gmap, scene, route, gpath, pk, where, errors) -> None:
    subs = semnav.decompose(route, scene)
    if len(subs) != len(gpath.segments):
        errors.append(f"{where}: {len(gpath.segments)} segments for {len(subs)} rooms")
        return
    for a, b in zip(gpath.segments, gpath.segments[1:]):
        if a.waypoints[-1] != b.waypoints[0] or any(
                x.hex() != y.hex() for x, y in zip(a.waypoints[-1], b.waypoints[0])):
            errors.append(f"{where}: segment joint is not bit-exact")
    for sub, seg in zip(subs, gpath.segments):
        _probe(gmap, sub.to_problem(**pk), seg, f"{where} room {sub.room}", errors)
    total = sum(s.length for s in gpath.segments)
    if total != gpath.total_length:
        errors.append(f"{where}: total length is not the sum of its segments")
    floor = semnav.geometry.dist(route.start, route.goal)
    if gpath.total_length < floor - 1e-9 * (1.0 + floor):
        errors.append(f"{where}: length below the straight-line distance")


def check_op(world: World, op: Op) -> list[str]:
    errors: list[str] = []
    pk = problem_kwargs(world.cfg)
    where = f"query {op.qid} {op.key}"
    if op.key == MODE_SPS:
        route, gpath = op.output
        _check_global(world.gmap, world.scene, route, gpath, pk, where, errors)
    elif op.key == MODE_IRRT:
        problem, path = op.output
        _probe(world.gmap, problem, path, where, errors)
    else:
        prep, out = op.output
        if op.key in out.route.doorways:
            errors.append(f"{where}: blocked doorway still on the route")
        _check_global(out.gmap, out.scene, out.route, out.path, pk, where, errors)
        if prep.path is not None:
            before = {(s.start, s.goal, s.room): seg for s, seg in zip(
                semnav.decompose(prep.route, world.scene), prep.path.segments)}
            after = semnav.decompose(out.route, out.scene)
            for i in out.reused_indices:
                s = after[i - 1]
                old = before.get((s.start, s.goal, s.room))
                if old is None or _bits(old) != _bits(out.path.segments[i - 1]):
                    errors.append(f"{where}: reused segment {i} differs")
    return errors


def check_harness(schedule: Schedule, ops: list[Op]) -> list[str]:
    """The benchmark's records for the first queries equal run_bench's; for
    replan, the untimed solves it starts from."""
    wl, cfg = schedule.wl, schedule.world.cfg
    mode = MODE_SPS if wl.kind == REPLAN else wl.kind
    n = wl.agree_queries
    if wl.kind == REPLAN:
        mine = schedule.prep_records[:n]
    else:
        mine = [(op.qid, op.key, op.seed, op.solved, op.samples, op.length,
                 op.virtual) for op in ops[:n]]
    ref = semnav.run_bench(replace(cfg, modes=(mode,), n_queries=n), workers=1)
    theirs = [(r.query_id, r.mode, r.seed, r.solved, r.samples, r.path_length,
               r.time_s) for r in ref]
    if [repr(x) for x in mine] != [repr(x) for x in theirs]:
        return [f"records differ from run_bench: {mine} vs {theirs}"]
    return []


# ---------------------------------------------------------------- metrics

def quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def metadata(args, wl: Workload, cfg) -> dict:
    import numpy
    return {
        "workload": args.workload, "kind": wl.kind, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "map": MAP, "budget_s": cfg.timeout, "clock": cfg.clock,
        "ops_per_second": cfg.ops_per_second,
        "cal_ref_s": CAL_REF_S,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "commit": git_commit(),
        "loop": "closed, 1 client",
    }


def setup(cfg) -> tuple[World, float, float]:
    """Build the world; return it with its wall and normalised seconds."""
    clear_harness_cache()
    before = calibration()
    t0 = now()
    world = World(cfg)
    wall = now() - t0
    return world, wall, wall * CAL_REF_S / ((before + calibration()) / 2.0)


def end_to_end(args, wl, cfg):
    """Set-ups spread over the run, so that their median does not hang on
    how loaded the machine was in one moment; operations in between."""
    times: list[float] = []
    raw: list[float] = []
    ops: list[Op] = []
    errors: list[str] = []
    schedule = None
    for _ in range(SETUP_REPEATS):
        world, wall, norm = setup(cfg)
        raw.append(wall)
        times.append(norm)
        if schedule is None:
            schedule = Schedule(world, wl)
        gc.collect()
        run_ops(schedule, ops, errors, for_seconds(args.seconds / SETUP_REPEATS))
    run_ops(schedule, ops, errors, lambda done: done < wl.digest_ops)
    norms = [op.norm for op in ops]
    walls = [op.wall for op in ops]
    solved = [op for op in ops if op.length is not None]
    print(f"# raw wall: setup_s {statistics.median(raw):.6g} s, op_s.p50 "
          f"{quantile(walls, 50):.6g} s, op_s.p90 {quantile(walls, 90):.6g} s; "
          f"calibration loop median {statistics.median(op.cal for op in ops):.6g} s")
    metrics = {
        "setup_s": (statistics.median(times), "s", len(times)),
        "op_s.p50": (quantile(norms, 50), "s", len(norms)),
        "op_s.p90": (quantile(norms, 90), "s", len(norms)),
        "solved_frac": (len(solved) / len(ops), "ratio", len(ops)),
        "path_stretch": (sum(op.length for op in solved)
                         / sum(op.bound for op in solved) if solved else None,
                         "ratio", len(solved)),
    }
    return metrics, ops, schedule, errors


def per_layer(args, wl, cfg):
    """Untraced pass, then a traced replay of the same operations."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install(SPAN_TARGETS, HOT_TARGETS)
    try:
        for k in range(TRACED_SETUP_REPEATS):
            tracer.begin(f"setup{k}")
            try:
                world, _, _ = setup(cfg)
            finally:
                tracer.end()
    finally:
        tracer.uninstall()
    setup_spans = tracer.span_totals()
    tracer.reset()
    gc.collect()

    schedule = Schedule(world, wl)
    plain: list[Op] = []
    traced: list[Op] = []
    errors: list[str] = []
    run_ops(schedule, plain, errors,
            for_seconds(args.seconds * UNTRACED_SHARE, wl.digest_ops))
    gc.collect()
    tracer.install(SPAN_TARGETS, HOT_TARGETS)
    try:
        run_ops(Schedule(world, wl), traced, errors,
                lambda done: done < len(plain), tracer)
    finally:
        tracer.uninstall()
    if digest(traced) != digest(plain):
        errors.append("traced records differ from untraced records")

    n = len(traced)
    spans = tracer.span_totals()
    hot = tracer.hot_totals()
    own = tracer.self_times()
    missing = tracer.missing

    def per_setup(name):
        if name in missing:
            return None
        return setup_spans.get(name, [0, 0.0])[1] / TRACED_SETUP_REPEATS

    def per_call(name):
        if name in missing:
            return None
        calls = setup_spans.get(name, [0, 0.0])[0] + spans.get(name, [0, 0.0])[0]
        secs = setup_spans.get(name, [0, 0.0])[1] + spans.get(name, [0, 0.0])[1]
        return secs / calls if calls else 0.0

    def per_op(name, value):
        return None if name in missing else value / n

    wall_plain = sum(op.wall for op in plain)
    virtual = sum(op.virtual for op in plain)
    stats = [s for op in plain for s in op.stats]
    created = sum(s.samples_created for s in stats)
    valid = sum(s.samples_valid for s in stats)
    m = {
        "scene_graph.load_map.s": (per_setup("scene_graph.load_map"), "s/setup"),
        "semantic_planner.build_topology.s": (
            per_setup("semantic_planner.build_topology"), "s/setup"),
        "bench_harness.generate_pairs.s": (
            per_setup("bench_harness.generate_pairs"), "s/setup"),
        "map_builder.build_global_map.s": (
            per_call("map_builder.build_global_map"), "s/call"),
        "map_builder.build_sdf.s": (per_call("map_builder.build_sdf"), "s/call"),
    }
    for name in HOT_TARGETS:
        calls, secs = hot.get(name, (0, 0.0))
        m[f"{name}.calls"] = (per_op(name, calls), "calls/op")
        m[f"{name}.s"] = (per_op(name, secs), "s/op")
    for name in ("geometric_planner.plan", "semantic_planner.semantic_route",
                 "subproblem_solver.decompose"):
        m[f"{name}.s"] = (per_op(name, spans.get(name, (0, 0.0))[1]), "s/op")
    for name in ("geometric_planner.plan", "subproblem_solver.solve_all",
                 "subproblem_solver.replan"):
        m[f"{name}.self_s"] = (per_op(name, own.get(name, 0.0)), "s/op")
    m.update({
        "subproblem_solver.replan.reused": (
            sum(op.reused for op in plain) / n, "count/op"),
        "subproblem_solver.replan.resolved": (
            sum(op.resolved for op in plain) / n, "count/op"),
        "planner.iterations": (sum(s.iterations for s in stats) / n, "count/op"),
        "planner.samples_created": (created / n, "count/op"),
        "planner.samples_valid_frac": (valid / created if created else None, "ratio"),
        "planner.wall_per_virtual": (wall_plain / virtual if virtual else None, "ratio"),
        "planner.samples_per_wall_s": (created / wall_plain, "1/s"),
        "trace.overhead_frac": (sum(op.norm for op in traced)
                                / sum(op.norm for op in plain) - 1.0, "ratio"),
    })
    metrics = {k: (v, unit, n) for k, (v, unit) in m.items()}
    write_trace(ROOT / TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl", tracer)
    return metrics, plain, schedule, errors


def write_trace(path: Path, tracer) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        for s in tracer.spans:
            f.write(json.dumps({"id": s.sid, "op": s.op, "name": s.name,
                                "parent": s.parent, "t0": s.t0, "t1": s.t1}) + "\n")
        for (parent, name), (calls, secs) in tracer.hot_by_parent():
            f.write(json.dumps({"hot": name, "parent": parent,
                                "calls": calls, "s": secs}) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    global semnav
    semnav = import_semnav()

    wl = WORKLOADS[args.workload]
    cfg = semnav.BenchConfig(map_path=str(ROOT / MAP), seed=args.seed,
                             n_queries=PAIR_CHUNK)
    meta = metadata(args, wl, cfg)
    print("# meta " + json.dumps(meta, sort_keys=True))

    measure = per_layer if args.trace else end_to_end
    metrics, measured, schedule, errors = measure(args, wl, cfg)
    errors += check_harness(schedule, measured)

    # An operation fails when it raises. A query that returns no path within
    # its budget has completed: the planner is anytime, and run_bench records
    # the same outcome. Its share is the solved_frac metric.
    failed = [op for op in measured if op.error is not None]
    reasons: dict[str, int] = {}
    for op in failed:
        reasons[op.error] = reasons.get(op.error, 0) + 1
    unsolved = sum(1 for op in measured if not op.solved and op.error is None)
    print(f"# ops {len(measured)} failed {len(failed)} {json.dumps(reasons)} "
          f"unsolved within budget {unsolved}")
    print(f"# digest sha256:{digest(measured[:wl.digest_ops])} "
          f"over the first {wl.digest_ops} ops")
    for name, (value, unit, n) in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{name} {shown} {unit} n={n}")
    for e in errors:
        print(f"# CHECK FAILED: {e}")
    result = {
        "correct": not errors,
        "attempted": len(measured),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
