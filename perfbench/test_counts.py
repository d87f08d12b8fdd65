"""Every count metric of the traced run repeats exactly for one seed.

Run from the repository root (about two minutes)::

    python3 -m pytest perfbench/test_counts.py
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] == "count"]
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def traced_run(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: result["metrics"][name]["value"] for name in COUNTS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    first = traced_run(workload, seed=7)
    second = traced_run(workload, seed=7)
    assert first == second
    assert any(first.values()), f"{workload} measured no count at all"
