"""Every committed BENCH_*.json record at the repository root is valid
JSON and says how it was measured: the command and the machine."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_there_are_bench_files():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_parses_and_names_command_and_machine(path):
    record = json.loads(path.read_text())
    assert isinstance(record, dict)
    for key in ("command", "machine"):
        assert record.get(key), f"{path.name} has no {key!r}"


BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
CLAIMED = [p for p in BENCH_FILES if "claim" in json.loads(p.read_text())]


def test_some_bench_files_claim_a_gain():
    assert CLAIMED


@pytest.mark.parametrize("path", CLAIMED, ids=[p.name for p in CLAIMED])
def test_a_claim_names_a_benchmark_workload_and_end_to_end_metric(path):
    # a speedup counts only as a committed number on the benchmark itself
    claim = json.loads(path.read_text())["claim"]
    assert isinstance(claim, dict), f"{path.name}: claim is not an object"
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    metrics = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert claim.get("workload") in workloads, f"{path.name}: unknown workload"
    assert claim.get("metric") in metrics, f"{path.name}: not an end-to-end metric"
