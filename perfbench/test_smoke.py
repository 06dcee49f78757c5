"""Smoke test of the benchmark: a tiny run of every workload.

Run from the repository root with ``python3 -m pytest perfbench``.  Each
workload runs at ``--size tiny`` (small circuits, one second), untraced
and traced; every metric named in ``BENCHMARK.json`` must be present,
finite and carry its unit, and no operation may fail its check.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_present_finite_and_unitted(workload, trace):
    out = run(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], (int, float)), metric["name"]
        assert math.isfinite(got["value"]), metric["name"]
    if not trace:
        assert f"{workload}: " in out.stdout
        assert "op_fail_ratio=0," in out.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_model_outputs_repeat_for_a_seed(workload):
    outputs = []
    for _ in range(2):
        out = run(workload, 0, seed=7)
        assert out.returncode == 0, out.stderr
        outputs.append(
            [line for line in out.stdout.splitlines()
             if line.startswith("outputs ")]
        )
    assert len(outputs[0]) == 1
    assert outputs[0] == outputs[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    out = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
