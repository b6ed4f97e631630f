"""Reduced-size smoke test of the benchmark runner.

    python3 -m pytest -q bench
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

SMALL = run.Sizes(unary_long=8, succ_long=6, long_runs=1, unary_sweep=2, succ_sweep=("1", "1"),
                  unary_random=5, succ_random=5, random_runs=2)

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    DECLARED = json.load(_handle)


def names(kind: str) -> set[str]:
    return {m["name"] for m in DECLARED[kind]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics(workload):
    report, result = run.measure(workload, seed=5, seconds=0, traced=False, sizes=SMALL)
    assert result["correct"], report["problems"]
    assert set(result["metrics"]) == names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["metrics"]["failed_share"]["value"] == result["failed"] / result["attempted"]
    assert ("parse_records_per_s" in report["metrics"]) == (workload == "random-traced")
    assert report["environment"]["seed"] == 5


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_per_layer_metrics_and_consistency(workload):
    report, result = run.measure(workload, seed=5, seconds=0, traced=True, sizes=SMALL)
    assert result["correct"], report["problems"]
    assert all(report["consistency"].values())
    assert set(result["metrics"]) == names("per_layer")
    digests = result["metrics"]["trace.digest_tapes.calls"]["value"]
    assert (digests > 0) == (workload == "random-traced")


def test_same_seed_same_fingerprint_other_seed_other_inputs():
    first, _ = run.measure("random-traced", seed=9, seconds=0, traced=False, sizes=SMALL)
    again, _ = run.measure("random-traced", seed=9, seconds=0, traced=False, sizes=SMALL)
    other, _ = run.measure("random-traced", seed=10, seconds=0, traced=False, sizes=SMALL)
    assert first["fingerprint"] == again["fingerprint"]
    assert first["fingerprint"]["sha256"] != other["fingerprint"]["sha256"]


def test_runs_that_miss_the_oracle_count_as_failed_not_incorrect():
    sizes = replace(SMALL, succ_sweep=("1", "1", "1"))
    report, result = run.measure("sweep", seed=0, seconds=0, traced=False, sizes=sizes)
    assert result["correct"], report["problems"]
    missed = [job["runs"] - job["ok"] for job in report["fingerprint"]["jobs"]]
    assert sum(missed) > 0
    warm_up = sum(missed[:run.WARM_JOBS])
    assert result["failed"] == sum(missed) * report["samples"]["cycles"] + warm_up


def test_fails_without_a_result_when_the_simulator_is_missing(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
