"""Minimum-size runs of every workload through the benchmark's command line.

Each run is at least eleven primary ops long, so the module takes a few
minutes.  Run it with ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT, seed=0):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_min_run_emits_every_metric_with_no_errors(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0  # error_rate = failed / attempted
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert "error_rate" in proc.stdout
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_counting_pass_repeats_exactly():
    keys = [m["name"] for m in BENCHMARK["per_layer"]
            if m["name"].startswith(("perturb.interval_prob.", "exact.live_pair_share"))]
    seen = []
    for _ in range(2):
        proc = run_bench("exact-sweep", 1)
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        seen.append({k: metrics[k]["value"] for k in keys})
    assert seen[0] == seen[1]
    assert seen[0]["perturb.interval_prob.calls"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run_bench("exact-sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
