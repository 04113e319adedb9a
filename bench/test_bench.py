"""Checks on the benchmark itself.

    python3 -m pytest bench/test_bench.py

Each test runs bench/run.py in a fresh process on a fixed number of
inputs, so results depend only on the seed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
INPUTS = {"corpus": 48, "mutants": 60}
SEED = 3
# Two processes timing the same calls on the same inputs differ by up to
# about 15% on a shared 2-core VM; this allowance keeps the coverage test
# from failing on that noise while still catching a missing major layer
# (find_assignment alone is about 40% of the corpus check time).
TIMING_NOISE = 0.20


def run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "5", "--trace", str(trace),
         "--inputs", str(INPUTS[workload])],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def values(result: dict) -> dict[str, float]:
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    info, result = run(workload, 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == INPUTS[workload] == info["inputs"]
    assert info["error_rate"] == 0.0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in values(result).values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_work_counts_repeat_on_one_seed(workload):
    _, first = run(workload, 1)
    _, second = run(workload, 1)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] != "s"}
              for r in (first, second)]
    assert counts[0] == counts[1]
    assert values(first)["work.invisible_pairs"] > 0


def test_traced_corpus_busy_time_covers_untraced_check_time():
    untraced, _ = run("corpus", 0)
    _, traced = run("corpus", 1)
    m = values(traced)
    covered = m["cli.check_polygon.busy_s"] - m["cli.check_polygon.self_s"]
    allowed = abs(m["trace.overhead_s"]) + TIMING_NOISE * untraced["timed_s"]
    assert abs(covered - untraced["timed_s"]) <= allowed


def test_calibration_kernel_is_unchanged():
    # Every reported time is scaled by this kernel's speed, so a change to
    # the kernel re-bases every time the benchmark has ever reported.
    assert calibrate.kernel() == (42, Fraction(12348992713, 446185740))


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
