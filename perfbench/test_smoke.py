"""Tiny-n smoke check of the benchmark itself.

Runs every workload at 201 samples, untraced and traced, and checks that
each run is correct and emits exactly the metrics BENCHMARK.json names.
Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run(workload: str, trace: int, cwd: str = ROOT, seed: int = 3):
    argv = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_emits_every_metric(workload, trace):
    listed = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    metrics = result_of(run(workload, trace))["metrics"]
    assert set(metrics) == {m["name"] for m in listed}
    for m in listed:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_call_counts_repeat(workload):
    first, second = (result_of(run(workload, 1))["metrics"] for _ in range(2))
    calls = [name for name in first if name.endswith((".calls", ".bytes", ".nfev"))]
    assert calls
    assert {n: first[n]["value"] for n in calls} == {n: second[n]["value"] for n in calls}


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
