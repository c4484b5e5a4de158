"""Tests of the benchmark itself, with every workload shrunk by ``--smoke``.

Run from the repository root with ``python3 -m pytest bench/test_smoke.py``
(about a minute).  The repository's own test suite does not collect this file.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import SpanSummary  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted(workload, trace, kind):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(str(tmp_path), SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_excludes_children_and_recursion_counts_once():
    # outer [0, 10] holds inner [1, 4], which recursively holds inner [2, 3]
    spans = [["outer", 0.0, 10.0, -1, None],
             ["inner", 1.0, 4.0, 0, {"iters": 2}],
             ["inner", 2.0, 3.0, 1, {"iters": 5}]]
    s = SpanSummary(spans)
    assert s.total("outer") == 10.0 and s.self_s("outer") == 7.0
    assert s.total("inner") == 3.0 and s.calls("inner") == 1
    assert s.self_s("inner") == 3.0
    assert s.count_sum("inner", "iters") == 7
