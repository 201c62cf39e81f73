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
