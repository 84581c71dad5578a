"""Smoke test of the benchmark at a tiny size (about a minute):

    python3 -m pytest -q bench/tests/smoke_bench.py

Each workload runs for one second untraced and traced; every named metric
must be emitted with its unit, and an injected wrong answer must be counted.
The file name keeps it out of the package's own test collection.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run as bench_run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def result(*args):
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["attempted"] >= 1
    return res


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_declared_metrics_match_the_emitted_ones():
    spec = declared()
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(bench_run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench_run.per_layer_units()


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_metrics(workload):
    res = result("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert res["correct"] and res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == dict(bench_run.END_TO_END)
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_per_layer_metrics(workload):
    res = result("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
    assert res["correct"] and res["failed"] == 0
    units = {k: v["unit"] for k, v in res["metrics"].items()}
    assert units == bench_run.per_layer_units()
    assert sum(v["value"] for k, v in res["metrics"].items()
               if k.endswith(".calls")) > 0


def test_injected_wrong_answer_is_counted():
    res = result("--workload", "classify-sweep", "--seed", "3", "--seconds", "1",
                 "--inject-fault")
    assert res["failed"] > 0 and not res["correct"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "classify-sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
