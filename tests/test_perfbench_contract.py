"""The output contract of the benchmark in ``perfbench/run.py``: each run
exits 0 with nothing on stderr, and its last stdout line is one strict-JSON
result that carries every metric ``BENCHMARK.json`` names as a finite number.

Each run is short (``--seconds 0.5``); a run still completes the operations
its digest covers, so every metric has samples."""

import json
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("workload, trace", [
    *((w["name"], 0) for w in BENCHMARK["workloads"]),
    ("grid8_replan", 1),
])
def test_run_ends_with_a_strict_json_result(workload, trace):
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", workload,
         "--seed", "11", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stderr == ""
    result = json.loads(done.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    names = [m["name"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]]
    for name in names:
        value = result["metrics"][name]["value"]
        assert type(value) in (int, float) and math.isfinite(value), (name, value)
