"""Smoke test of the benchmark harness on tiny corpora (15-25 docs, K=4).

Runs bench/run.py from the root of a working directory, with --size tiny, and
checks the shape of its result line against BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd, run_py, workload, trace):
    return subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _check_result(proc, metrics):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] == (result["failed"] == 0)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in metrics}
    return result


# eval-sigmoid is not in BENCHMARK.json but stays runnable, so it is smoke-tested too
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]] + ["eval-sigmoid"])
def test_traced_run_reports_every_per_layer_metric(workload, tmp_path):
    result = _check_result(_run(tmp_path, BENCH / "run.py", workload, 1),
                           SPEC["per_layer"])
    assert result["metrics"]["inference.run_e_step.calls"]["value"] >= 1
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert list(tmp_path.glob(f".bench_out/{workload}-seed3-spans.jsonl"))
    assert not list(tmp_path.glob(".bench_work/*"))


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    result = _check_result(_run(tmp_path, BENCH / "run.py", "suggest", 0),
                           SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, tmp_path / "bench" / "run.py", "suggest", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
