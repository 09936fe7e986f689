"""Smoke test of the benchmark itself.

Runs every workload on a tiny block, untraced and traced, and checks the
output contract.  Run from the repository root:

    python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(workload, trace, seed=5, trials=14, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--trials", str(trials)],
        capture_output=True, text=True, timeout=600, cwd=cwd)


def report_and_result(workload, trace, **kw):
    out = run_bench(workload, trace, **kw)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    report, result = report_and_result(workload, 0)
    assert set(result) == RESULT_KEYS
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert report["error_rate"] == {"value": 0.0, "unit": "ratio"}
    for m in BENCHMARK["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert len(report["outputs_sha256"]) == 64
    assert report["schema_validation"]["validated"]
    assert not report["schema_validation"]["problems"]
    for cell in report["acceptance"].values():
        assert cell["ci95"][0] <= cell["p_hat"] <= cell["ci95"][1]
    for key in ("git_sha", "python", "numpy", "nproc", "seed"):
        assert key in report["provenance"]
    assert report["loadavg_start"] and report["loadavg_end"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    report, result = report_and_result(workload, 1)
    assert set(result) == RESULT_KEYS
    assert result["correct"] and result["failed"] == 0
    assert report["error_rate"]["value"] == 0.0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for m in BENCHMARK["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["metrics"]["trace.overhead"]["value"] > 0
    assert (ROOT / report["trace_file"]).is_file()


def test_traced_counts_repeat_at_the_same_seed():
    def counts():
        _, result = report_and_result("game-abstract", 1, seed=9)
        return {k: v["value"] for k, v in result["metrics"].items()
                if v["unit"] != "ms" and k != "trace.overhead"}

    first = counts()
    assert first["game.partition.calls"] > 0
    assert counts() == first


def test_untraced_and_traced_runs_give_the_same_outputs():
    plain, _ = report_and_result("game-gadget", 0, seed=4)
    traced, _ = report_and_result("game-gadget", 1, seed=4)
    assert plain["outputs_sha256"] == traced["outputs_sha256"]


def test_blocks_leave_ten_samples_beyond_the_95th_percentile():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    for _, block, _ in workloads.WORKLOADS.values():
        assert block * 0.05 >= 10


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = run_bench("game-gadget", 0, cwd=tmp_path,
                    script=tmp_path / "bench" / "run.py")
    assert out.returncode != 0
    assert "correct" not in out.stdout
