"""Smoke test of the benchmark itself, at the smallest sizes.

    python3 -m pytest -q perfbench/smoke.py

Runs every workload briefly (``--tiny``) with and without tracing,
checks that every metric of BENCHMARK.json is printed with its unit,
that a corrupted reference value is counted as a failure, and that the
driver refuses to run without the package sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import run  # noqa: E402


def _bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,seed", [(0, 0), (1, 1)])
def test_prints_every_metric_with_its_unit(workload, trace, seed):
    proc = _bench(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert math.isfinite(value["value"])
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split()
                   for line in lines[:-2]), f"{m['name']} not printed"
    info = json.loads(lines[-2])["info"]
    assert info["seed"] == seed
    assert info["reference_checked"] == (seed == 0)
    assert {"nproc", "python", "numpy", "blas_runtime", "git_commit"} <= set(info["environment"])
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        assert layers == pytest.approx(metrics["trace.pass_s"], rel=1e-6)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_counts_as_failure(workload):
    references = json.loads(run.REFERENCE_FILE.read_text())["tiny"]
    report = run.run(workload, 0, 0.0, trace=False, tiny=True, references=references)
    assert report["result"]["failed"] == 0, report["problems"]

    keys = [op.key for op in run.wl.build(run.import_package(), workload, 0, True, HERE).ops]
    corrupted = json.loads(json.dumps(references))
    sample = corrupted[keys[-1]]["sample"]
    sample[-1][-1] += 1e-6 * (1.0 + abs(sample[-1][-1]))
    report = run.run(workload, 0, 0.0, trace=False, tiny=True, references=corrupted)
    result = report["result"]
    assert result["failed"] > 0 and not result["correct"]
    assert result["metrics"]["success_rate"]["value"] < 1.0
    assert any(keys[-1] in problem for problem in report["problems"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(WORKLOADS[0], 0, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_spec_lists_the_driver_workloads():
    assert WORKLOADS == list(run.wl.WORKLOADS)
