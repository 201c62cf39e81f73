"""End-to-end tests for the command line interface.

Every test drives ``semnav.cli.main`` in process and checks the exit code
contract: 0 on success, 1 on domain failures (bad scene content, no route,
no path within budget), 2 on usage and file errors.
"""

import json
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from semnav import BenchConfig, Point2, cli, errors, run_bench
from semnav.bench_harness import _PLAN_SALT
from semnav.cli import main
from semnav.rng import mix

from conftest import child_env, fixture_path

THREEROOM = fixture_path("threeroom.map")


def _read_json(path):
    with open(path) as f:
        return json.load(f)


def _blocked_map(tmp_path, block=("d1", "d2")):
    data = _read_json(THREEROOM)
    for door in data["doorways"]:
        if door["id"] in block:
            door["blocked"] = True
    out = tmp_path / "blocked.map"
    out.write_text(json.dumps(data))
    return str(out)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_ok(capsys):
    assert main(["validate", THREEROOM]) == 0
    assert capsys.readouterr().out == f"ok: {THREEROOM}\n"


def test_validate_missing_file_is_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.map")
    assert main(["validate", missing]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_malformed_json_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.map"
    bad.write_text("{not json")
    assert main(["validate", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def _huge_coordinate(digits):
    data = _read_json(THREEROOM)
    data["bbox"]["max"][0] = 0.125
    return json.dumps(data).replace("0.125", "1" * digits)


_UNREADABLE = (
    ("huge-int", _huge_coordinate(401)),  # parses as an int too large for a float
    ("digit-limit", _huge_coordinate(5000)),  # past Python's digit limit for int parsing
    ("deep-nesting", "[" * 200_000),  # past json's nesting limit
)


@pytest.mark.parametrize("command, text", [
    pytest.param(command, text, id=prefix + name)
    for prefix, command in (("", "validate"), ("render-path-", "render"))
    for name, text in _UNREADABLE])
def test_validate_unreadable_numbers_and_nesting_are_usage_errors(tmp_path, command, text):
    bad = tmp_path / "bad.map"
    bad.write_text(text)
    if command == "validate":
        argv = ["validate", str(bad)]
    else:
        argv = ["render", "--map", THREEROOM, "--out", str(tmp_path / "never.svg"),
                "--path", str(bad)]
    code = f"import sys; from semnav.cli import main; sys.exit(main({argv!r}))"
    done = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stderr.startswith(f"error: {bad}: ")
    assert "Traceback" not in done.stderr


def test_validate_dangling_reference_is_domain_error(tmp_path, capsys):
    data = _read_json(THREEROOM)
    data["doorways"][0]["rooms"] = ["r1", "r9"]
    bad = tmp_path / "dangling.map"
    bad.write_text(json.dumps(data))
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "unknown room r9" in err


def test_validate_unknown_field_strict_vs_lenient(tmp_path, capsys):
    data = _read_json(THREEROOM)
    data["flavor"] = "lemon"
    odd = tmp_path / "extra.map"
    odd.write_text(json.dumps(data))
    assert main(["validate", str(odd)]) == 2
    capsys.readouterr()
    assert main(["validate", "--lenient", str(odd)]) == 0


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


def _plan(*extra):
    return ["plan", "--map", THREEROOM, "--timeout", "0.05", "--seed", "3", *extra]


def test_plan_within_one_room(capsys):
    code = main(_plan("--start", "1,1", "--goal", "2.5,2.0", "--mode", "irrt"))
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("length_m: ")
    assert "samples: " in out


def test_plan_across_rooms_all_modes(capsys):
    lengths = {}
    for mode in ("irrt", "irrt_sg", "irrt_sg_sps"):
        code = main(_plan("--start", "1,1", "--goal", "10.5,2.0", "--mode", mode))
        assert code == 0
        out = capsys.readouterr().out
        lengths[mode] = float(out.splitlines()[0].split(": ")[1])
    straight = (9.5**2 + 1.0**2) ** 0.5
    for mode, length in lengths.items():
        assert straight <= length < 3.0 * straight, mode


def test_plan_goal_room_matches_explicit_center(capsys):
    code = main(_plan("--start", "1,1", "--goal-room", "r2"))
    assert code == 0
    by_room = capsys.readouterr().out
    code = main(_plan("--start", "1,1", "--goal", "6,2"))
    assert code == 0
    by_point = capsys.readouterr().out
    assert by_room == by_point


def test_plan_unknown_goal_room_is_domain_error(capsys):
    assert main(_plan("--start", "1,1", "--goal-room", "r9")) == 1
    assert "r9" in capsys.readouterr().err


def test_plan_requires_exactly_one_goal_flavor(capsys):
    assert main(_plan("--start", "1,1")) == 2
    assert "exactly one of" in capsys.readouterr().err
    assert main(_plan("--start", "1,1", "--goal", "6,2", "--goal-room", "r2")) == 2


def test_plan_bad_coordinate_is_usage_error(capsys):
    assert main(_plan("--start", "1;1", "--goal", "6,2")) == 2
    assert "coordinate pair" in capsys.readouterr().err


def test_plan_no_route_when_doorways_blocked(tmp_path, capsys):
    blocked = _blocked_map(tmp_path)
    code = main(["plan", "--map", blocked, "--start", "1,1", "--goal", "10.5,2",
                 "--mode", "irrt_sg", "--timeout", "0.05"])
    assert code == 1
    assert "NoRoute" in capsys.readouterr().err


def test_plan_budget_exhausted_reports_failure(capsys):
    code = main(["plan", "--map", THREEROOM, "--start", "1,1", "--goal", "10.5,2",
                 "--mode", "irrt", "--timeout", "1e-6", "--seed", "0"])
    assert code == 1
    out = capsys.readouterr().out
    assert "no path found within budget" in out
    assert "samples: " in out


def test_plan_writes_report_and_svg(tmp_path, capsys):
    report_path = tmp_path / "plan.json"
    svg_path = tmp_path / "plan.svg"
    code = main(_plan("--start", "1,1", "--goal", "10.5,2",
                      "--out", str(report_path), "--svg", str(svg_path)))
    assert code == 0
    printed = float(capsys.readouterr().out.splitlines()[0].split(": ")[1])

    report = _read_json(report_path)
    assert report["mode"] == "irrt_sg_sps"
    assert report["solved"] is True
    assert report["length_m"] == printed
    assert report["route"]["doorways"] == ["d1", "d2"]
    assert len(report["path"]["segments"]) == 3

    root = ET.fromstring(svg_path.read_text())
    assert any(el.get("data-layer") == "path" for el in root.iter())


def test_plan_agrees_with_bench_records(capsys):
    # one query, answered by `plan` and by the benchmark with the seed the
    # benchmark derives for query 0: every mode prints the record's numbers
    records = run_bench(BenchConfig(map_path=THREEROOM, pairs="fixed",
                                    start=Point2(1.0, 1.0),
                                    goal=Point2(10.5, 2.0), seed=4,
                                    timeout=0.05), workers=1)
    assert [r.mode for r in records] == ["irrt", "irrt_sg", "irrt_sg_sps"]
    seed = mix(4, 0, _PLAN_SALT)
    for rec in records:
        assert rec.solved, rec.mode
        code = main(["plan", "--map", THREEROOM, "--start", "1,1",
                     "--goal", "10.5,2", "--mode", rec.mode,
                     "--timeout", "0.05", "--seed", str(seed)])
        assert code == 0
        assert capsys.readouterr().out == (f"length_m: {rec.path_length!r}\n"
                                           f"samples: {rec.samples}\n")


@pytest.mark.parametrize("extra", [
    ("--timeout", "inf"), ("--timeout", "nan"), ("--ops-per-second", "nan"),
    ("--ops-per-second", "inf"), ("--p-d", "-1"), ("--p-d", "nan"),
    # finite, but the budget in virtual ticks overflows to inf
    ("--timeout", "1e308"),
])
def test_plan_non_finite_budget_or_negative_penalty_is_usage_error(extra):
    # a real process with a deadline: a budget that never runs out would hang
    argv = ["plan", "--map", THREEROOM, "--start", "1,1", "--goal", "10.5,2",
            *extra]
    code = f"import sys; from semnav.cli import main; sys.exit(main({argv!r}))"
    done = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 2
    assert done.stderr.startswith("error: ")


@pytest.mark.parametrize("extra", [("--timeout", "inf"),
                                   ("--ops-per-second", "nan")])
def test_bench_non_finite_budget_is_usage_error(tmp_path, capsys, extra):
    argv, csv_path = _bench(tmp_path, "x.csv", *extra)
    assert main(argv) == 2
    assert "must be positive and finite" in capsys.readouterr().err
    assert not csv_path.exists()


def test_plan_has_no_jobs_option(capsys):
    assert main(_plan("--start", "1,1", "--goal", "2.5,2", "--jobs", "2")) == 2
    assert "--jobs" in capsys.readouterr().err


def test_plan_route_logged_at_info_level(monkeypatch, caplog):
    monkeypatch.setenv("SNAV_LOG", "info")
    assert main(_plan("--start", "1,1", "--goal", "10.5,2")) == 0
    assert "route: r1 -> r2 -> r3 via d1, d2" in caplog.text


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _bench(tmp_path, name, *extra):
    csv_path = tmp_path / name
    argv = ["bench", "--map", THREEROOM, "--queries", "3", "--timeout", "0.02",
            "--modes", "irrt", "--seed", "7", "--csv", str(csv_path), *extra]
    return argv, csv_path


def test_bench_writes_csv(tmp_path, capsys):
    argv, csv_path = _bench(tmp_path, "a.csv")
    assert main(argv) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "query_id,mode,seed,solved,samples,path_length_m,time_s"
    assert len(lines) == 4
    table = capsys.readouterr().out
    assert table.splitlines()[0].split() == [
        "mode", "n", "solved", "med_samples", "med_length_m", "med_time_s"]
    assert "irrt" in table


def test_bench_repeat_runs_byte_identical(tmp_path, capsys):
    argv_a, csv_a = _bench(tmp_path, "a.csv")
    argv_b, csv_b = _bench(tmp_path, "b.csv")
    assert main(argv_a) == 0
    assert main(argv_b) == 0
    assert csv_a.read_bytes() == csv_b.read_bytes()


def test_bench_fixed_pair_with_summary_and_svg(tmp_path, capsys):
    summary_path = tmp_path / "summary.json"
    svg_path = tmp_path / "bench.svg"
    argv, csv_path = _bench(tmp_path, "fixed.csv",
                            "--start", "1,1", "--goal", "2.5,2",
                            "--modes", "irrt,irrt_sg",
                            "--summary", str(summary_path),
                            "--svg", str(svg_path))
    assert main(argv) == 0
    summary = _read_json(summary_path)
    assert set(summary) == {"irrt", "irrt_sg"}
    assert summary["irrt"]["n"] == 3
    root = ET.fromstring(svg_path.read_text())
    assert any(el.get("data-metric") == "samples" for el in root.iter())


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_bench_jobs_below_one_is_usage_error(tmp_path, capsys, jobs):
    argv, csv_path = _bench(tmp_path, "x.csv", "--jobs", jobs)
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --jobs must be at least 1\n"
    assert not csv_path.exists()


@pytest.mark.parametrize("half", [("--start", "2,2"), ("--goal", "2.5,2")])
def test_bench_start_and_goal_go_together(tmp_path, capsys, half):
    argv, csv_path = _bench(tmp_path, "x.csv", *half)
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --start and --goal go together\n"
    assert not csv_path.exists()


def test_bench_unknown_mode_is_usage_error(tmp_path, capsys):
    argv, _ = _bench(tmp_path, "x.csv", "--modes", "dijkstra")
    assert main(argv) == 2
    assert "unknown benchmark mode" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------


def test_render_map_only(tmp_path, capsys):
    out = tmp_path / "map.svg"
    assert main(["render", "--map", THREEROOM, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    root = ET.fromstring(out.read_text())
    layers = {el.get("data-layer") for el in root.iter() if el.get("data-layer")}
    assert {"rooms", "walls", "doorways"} <= layers
    assert "sdf" not in layers


def test_render_with_sdf(tmp_path):
    out = tmp_path / "sdf.svg"
    assert main(["render", "--map", THREEROOM, "--out", str(out),
                 "--show-sdf"]) == 0
    root = ET.fromstring(out.read_text())
    assert any(el.get("data-layer") == "sdf" for el in root.iter())


def test_render_overlays_plan_report(tmp_path, capsys):
    report_path = tmp_path / "plan.json"
    code = main(_plan("--start", "1,1", "--goal", "10.5,2",
                      "--out", str(report_path)))
    assert code == 0
    capsys.readouterr()
    out = tmp_path / "overlay.svg"
    assert main(["render", "--map", THREEROOM, "--out", str(out),
                 "--path", str(report_path)]) == 0
    root = ET.fromstring(out.read_text())
    polys = [el for el in root.iter() if el.get("data-layer") == "path"]
    assert len(polys) == 1


def test_render_accepts_bare_waypoint_json(tmp_path):
    wp = tmp_path / "wp.json"
    wp.write_text(json.dumps({"waypoints": [[1.0, 1.0], [2.0, 2.0]]}))
    out = tmp_path / "wp.svg"
    assert main(["render", "--map", THREEROOM, "--out", str(out),
                 "--path", str(wp)]) == 0
    root = ET.fromstring(out.read_text())
    assert any(el.get("data-layer") == "path" for el in root.iter())


@pytest.mark.parametrize("payload", [
    [1, 2],
    {"waypoints": [[1]]},
    {"waypoints": [["a", 1]]},
    {"path": {"segments": 3}},
])
def test_render_rejects_malformed_plan_report(tmp_path, capsys, payload):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    out = tmp_path / "never.svg"
    assert main(["render", "--map", THREEROOM, "--out", str(out),
                 "--path", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err
    assert "Traceback" not in err
    assert not out.exists()


def test_render_rejects_json_without_waypoints(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"speed": 4}))
    out = tmp_path / "never.svg"
    assert main(["render", "--map", THREEROOM, "--out", str(out),
                 "--path", str(bad)]) == 2
    assert "no waypoints" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "validate" in capsys.readouterr().out


def test_unknown_command_exits_two(capsys):
    assert main(["teleport"]) == 2


def test_missing_required_argument_exits_two(capsys):
    assert main(["plan", "--start", "1,1", "--goal", "2,2"]) == 2


def _error_classes(base=errors.SemNavError):
    """Every subclass of ``base``, however deep."""
    return [c for sub in base.__subclasses__() for c in (sub, *_error_classes(sub))]


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda c: c.__name__)
def test_every_semnav_error_maps_to_an_exit_code(cls, monkeypatch, capsys):
    # parse errors are usage errors; every other SemNavError, including
    # one added later, is a domain failure and never escapes as a traceback
    def fail(args):
        raise cls(3, "boom") if cls is errors.SubproblemInfeasible else cls("boom")

    monkeypatch.setattr(cli, "cmd_validate", fail)
    code = main(["validate", THREEROOM])
    err = capsys.readouterr().err
    if issubclass(cls, errors.ParseError):
        assert (code, err) == (2, "error: boom\n")
    else:
        assert (code, err) == (1, f"error: {cls.__name__}: boom\n")


def test_entry_point_runs_in_subprocess(tmp_path):
    # The same exit-code contract must hold for a real process.
    code = (
        "import sys; from semnav.cli import main; "
        f"sys.exit(main(['validate', {THREEROOM!r}]))"
    )
    done = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0
    assert done.stdout.strip() == f"ok: {THREEROOM}"
