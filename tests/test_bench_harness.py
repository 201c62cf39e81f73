"""Tests for the benchmark harness: pair generation, record bookkeeping,
summary statistics, CSV round trips, and worker-count invariance."""

import json
import math
import random

import pytest

from semnav import (
    BenchConfig,
    BenchRecord,
    EmptyInput,
    GeometricProblem,
    MODES,
    Point2,
    export_csv,
    export_summary_json,
    generate_pairs,
    locate_room,
    read_csv,
    run_bench,
    state_valid,
    summarize,
)

from conftest import fixture_path


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


def _config(**overrides):
    base = dict(
        map_path=fixture_path("threeroom.map"),
        modes=("irrt",),
        n_queries=1,
        timeout=0.01,
        seed=7,
        pairs="random",
    )
    base.update(overrides)
    return BenchConfig(**base)


class TestConfigValidation:
    def test_default_modes_are_the_three_planner_variants(self):
        assert MODES == ("irrt", "irrt_sg", "irrt_sg_sps")

    def test_valid_config_passes(self):
        _config().validate()
        _config(modes=MODES, n_queries=50).validate()

    def test_no_modes_rejected(self):
        with pytest.raises(ValueError, match="no benchmark modes"):
            _config(modes=()).validate()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmark mode 'rrt_connect'"):
            _config(modes=("irrt", "rrt_connect")).validate()

    def test_nonpositive_query_count_rejected(self):
        with pytest.raises(ValueError, match="n_queries"):
            _config(n_queries=0).validate()

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ValueError, match="timeout must be positive"):
            _config(timeout=0.0).validate()

    def test_unknown_pair_policy_rejected(self):
        with pytest.raises(ValueError, match="pair policy"):
            _config(pairs="adversarial").validate()

    def test_fixed_pairs_require_endpoints(self):
        with pytest.raises(ValueError, match="fixed"):
            _config(pairs="fixed").validate()
        # Supplying both endpoints makes the same config valid.
        _config(pairs="fixed", start=Point2(1.0, 1.0), goal=Point2(9.0, 2.0)).validate()


# ---------------------------------------------------------------------------
# pair generation
# ---------------------------------------------------------------------------


class TestGeneratePairs:
    def test_fixed_policy_repeats_the_endpoints(self):
        cfg = _config(
            pairs="fixed", n_queries=4, start=Point2(1.0, 1.0), goal=Point2(9.0, 2.0)
        )
        pairs = generate_pairs(cfg)
        assert len(pairs) == 4
        for start, goal in pairs:
            assert start == Point2(1.0, 1.0)
            assert goal == Point2(9.0, 2.0)

    def test_random_pairs_are_valid_and_span_rooms(self, threeroom_scene, threeroom_map):
        cfg = _config(n_queries=20, seed=123)
        pairs = generate_pairs(cfg)
        assert len(pairs) == 20
        problem = GeometricProblem(start=Point2(1.0, 1.0), goal=Point2(2.0, 2.0))
        for start, goal in pairs:
            # Both endpoints must be collision-free at the robot radius.
            assert state_valid(threeroom_map, problem, start)
            assert state_valid(threeroom_map, problem, goal)
            # Endpoints are drawn from distinct rooms so every query
            # actually exercises doorway traversal.
            assert locate_room(threeroom_scene, start) != locate_room(
                threeroom_scene, goal
            )

    def test_random_pairs_deterministic_per_config(self):
        cfg = _config(n_queries=10, seed=99)
        first = generate_pairs(cfg)
        second = generate_pairs(cfg)
        assert first == second

    def test_seed_changes_pairs(self):
        a = generate_pairs(_config(n_queries=10, seed=1))
        b = generate_pairs(_config(n_queries=10, seed=2))
        assert a != b


# ---------------------------------------------------------------------------
# running the benchmark
# ---------------------------------------------------------------------------


class TestRunBench:
    def test_fixed_same_room_pair_solves_in_every_mode(self):
        cfg = BenchConfig(
            map_path=fixture_path("threeroom.map"),
            modes=MODES,
            n_queries=1,
            timeout=0.05,
            seed=5,
            pairs="fixed",
            start=Point2(1.0, 1.0),
            goal=Point2(2.5, 2.0),
        )
        records = run_bench(cfg, workers=1)
        assert len(records) == 3
        assert [r.mode for r in records] == list(MODES)
        # One query id, one per-query seed, shared by all modes.
        assert {r.query_id for r in records} == {0}
        assert len({r.seed for r in records}) == 1
        for rec in records:
            assert rec.solved is True
            assert rec.path_length is not None and rec.path_length > 0.0
            assert rec.time_s > 0.0

    def test_records_sorted_and_complete(self, threeroom_map):
        cfg = _config(modes=MODES, n_queries=5, timeout=0.02, seed=31)
        records = run_bench(cfg, workers=1)
        assert len(records) == 15
        key = [(r.query_id, MODES.index(r.mode)) for r in records]
        assert key == sorted(key)
        for rec in records:
            assert rec.mode in MODES
            assert 0 <= rec.query_id < 5
            assert rec.samples >= 0
            assert rec.time_s >= 0.0
            if rec.solved:
                assert rec.path_length is not None
                assert math.isfinite(rec.path_length)
            else:
                assert rec.path_length is None
        # The per-query seed is a function of the query id alone, so all
        # three modes of a query share it and plan on the same endpoints.
        for qid in range(5):
            seeds = {r.seed for r in records if r.query_id == qid}
            assert len(seeds) == 1

    def test_unsolved_records_still_carry_costs(self):
        # A cross-map query with an almost-zero budget cannot finish in any
        # mode, but the records must still report the work that was done.
        cfg = BenchConfig(
            map_path=fixture_path("grid8.map"),
            modes=MODES,
            n_queries=1,
            timeout=1e-5,
            seed=3,
            pairs="fixed",
            start=Point2(2.0, 3.5),
            goal=Point2(15.0, 12.0),
        )
        records = run_bench(cfg, workers=1)
        assert len(records) == 3
        for rec in records:
            assert rec.solved is False
            assert rec.path_length is None
            assert rec.time_s >= 0.0

    def test_worker_count_does_not_change_results(self):
        cfg = _config(modes=MODES, n_queries=4, timeout=0.02, seed=11)
        solo = run_bench(cfg, workers=1)
        duo = run_bench(cfg, workers=2)
        assert solo == duo

    def test_repeated_runs_identical(self):
        cfg = _config(modes=("irrt", "irrt_sg"), n_queries=3, timeout=0.02, seed=8)
        assert run_bench(cfg, workers=2) == run_bench(cfg, workers=2)


# ---------------------------------------------------------------------------
# summary statistics
# ---------------------------------------------------------------------------


def _record(qid, mode, *, solved, length, samples, time_s):
    return BenchRecord(
        query_id=qid,
        mode=mode,
        seed=qid * 17 + 1,
        solved=solved,
        samples=samples,
        path_length=length,
        time_s=time_s,
    )


class TestSummarize:
    def test_five_number_summary_nearest_rank(self):
        records = [
            _record(i, "irrt", solved=True, length=float(v), samples=10 * v, time_s=0.1)
            for i, v in enumerate([3, 1, 5, 2, 4])
        ]
        summary = summarize(records)
        stats = summary["irrt"]["path_length_m"]
        assert stats["min"] == 1.0
        assert stats["q1"] == 2.0
        assert stats["median"] == 3.0
        assert stats["q3"] == 4.0
        assert stats["max"] == 5.0
        assert summary["irrt"]["n"] == 5
        assert summary["irrt"]["solve_rate"] == 1.0

    def test_nearest_rank_even_count(self):
        # With four values the 0.5 quantile is the ceil(0.5 * 4) = 2nd order
        # statistic, not an interpolated midpoint.
        records = [
            _record(i, "irrt", solved=True, length=float(v), samples=1, time_s=0.1)
            for i, v in enumerate([10, 20, 30, 40])
        ]
        stats = summarize(records)["irrt"]["path_length_m"]
        assert stats["q1"] == 10.0
        assert stats["median"] == 20.0
        assert stats["q3"] == 30.0
        assert stats["max"] == 40.0

    def test_single_record_collapses_quantiles(self):
        records = [_record(0, "irrt", solved=True, length=7.5, samples=4, time_s=0.2)]
        stats = summarize(records)["irrt"]
        for key in ("min", "q1", "median", "q3", "max"):
            assert stats["path_length_m"][key] == 7.5
            assert stats["samples"][key] == 4
            assert stats["time_s"][key] == 0.2
        assert stats["solve_rate"] == 1.0

    def test_solve_rate_counts_unsolved(self):
        records = [
            _record(0, "irrt", solved=True, length=2.0, samples=5, time_s=0.1),
            _record(1, "irrt", solved=False, length=None, samples=9, time_s=0.1),
            _record(2, "irrt", solved=True, length=4.0, samples=7, time_s=0.1),
        ]
        stats = summarize(records)["irrt"]
        assert stats["n"] == 3
        assert stats["solve_rate"] == pytest.approx(2.0 / 3.0)
        # Path-length statistics are computed over solved queries only...
        assert stats["path_length_m"]["min"] == 2.0
        assert stats["path_length_m"]["max"] == 4.0
        # ...while sample and time statistics include every record.
        assert stats["samples"]["max"] == 9

    def test_all_unsolved_mode_has_no_length_stats(self):
        records = [
            _record(i, "irrt", solved=False, length=None, samples=3, time_s=0.1)
            for i in range(3)
        ]
        stats = summarize(records)["irrt"]
        assert stats["solve_rate"] == 0.0
        assert stats["path_length_m"]["median"] is None

    def test_modes_reported_separately(self):
        records = [
            _record(0, "irrt", solved=True, length=3.0, samples=5, time_s=0.1),
            _record(0, "irrt_sg", solved=True, length=2.0, samples=4, time_s=0.1),
        ]
        summary = summarize(records)
        assert set(summary) == {"irrt", "irrt_sg"}
        assert summary["irrt"]["path_length_m"]["median"] == 3.0
        assert summary["irrt_sg"]["path_length_m"]["median"] == 2.0

    def test_empty_records_rejected(self):
        with pytest.raises(EmptyInput):
            summarize([])


# ---------------------------------------------------------------------------
# CSV and JSON export
# ---------------------------------------------------------------------------


class TestCsvExport:
    HEADER = "query_id,mode,seed,solved,samples,path_length_m,time_s"

    def _sample_records(self):
        return [
            _record(0, "irrt", solved=True, length=12.25, samples=840, time_s=0.05),
            _record(0, "irrt_sg", solved=False, length=None, samples=512, time_s=0.05),
            _record(
                1,
                "irrt",
                solved=True,
                length=0.1 + 0.2,  # a float with a long repr
                samples=3,
                time_s=1.0 / 3.0,
            ),
        ]

    def test_round_trip_is_exact(self, tmp_path):
        records = self._sample_records()
        path = tmp_path / "bench.csv"
        export_csv(records, str(path))
        assert read_csv(str(path)) == records

    def test_file_format(self, tmp_path):
        records = self._sample_records()
        path = tmp_path / "bench.csv"
        export_csv(records, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert lines[0] == self.HEADER
        assert lines[1] == "0,irrt,1,true,840,12.25,0.05"
        # Unsolved rows leave the path-length column empty.
        assert lines[2] == "0,irrt_sg,1,false,512,,0.05"
        # Floats are written with repr so nothing is lost to rounding.
        assert lines[3] == f"1,irrt,18,true,3,{0.1 + 0.2!r},{1.0 / 3.0!r}"

    def test_bench_output_byte_stable(self, tmp_path):
        cfg = _config(modes=("irrt",), n_queries=3, timeout=0.02, seed=21)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        export_csv(run_bench(cfg, workers=1), str(first))
        export_csv(run_bench(cfg, workers=2), str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_summary_json_round_trip(self, tmp_path):
        records = self._sample_records()
        summary = summarize(records)
        path = tmp_path / "summary.json"
        export_summary_json(summary, str(path))
        assert json.loads(path.read_text()) == summary


# ---------------------------------------------------------------------------
# golden virtual-clock CSV
# ---------------------------------------------------------------------------


class TestGoldenCsv:
    """Pins the planners' virtual-clock output across refactors: any change
    to a float the planners compute, to a budget charge or to the random
    streams shows up as a byte difference."""

    def test_grid8_campaign_reproduces_golden_csv(self, tmp_path):
        cfg = BenchConfig(map_path=fixture_path("grid8.map"), n_queries=8, seed=3)
        out = tmp_path / "bench.csv"
        export_csv(run_bench(cfg, workers=1), str(out))
        with open(fixture_path("golden_grid8_bench.csv"), "rb") as f:
            golden = f.read()
        assert out.read_bytes() == golden
