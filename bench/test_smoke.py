"""Smoke test of the benchmark itself: every workload at minimal length,
untraced and traced, at seed 0 and one other seed.

    python3 -m pytest bench/test_smoke.py

It checks the output contract (every metric named in BENCHMARK.json, with
its unit), that no op failed, that per-layer call counts repeat exactly
between two traced runs, and that the benchmark refuses to report
anything when the package source is missing.  It asserts no timings.
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@functools.lru_cache(maxsize=None)
def result(workload, seed, trace):
    proc = bench(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_present_and_no_op_failed(workload, trace, seed):
    res = result(workload, seed, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for metric in res["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
    if trace:
        assert res["metrics"]["error_rate"]["value"] == 0
    else:
        assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_call_counts_repeat_exactly(workload):
    first = result(workload, 0, 1)["metrics"]
    second = json.loads(bench(workload, 0, 1).stdout.strip().splitlines()[-1])["metrics"]
    calls = [name for name in first if name.endswith(".calls")]
    assert calls
    assert {n: first[n]["value"] for n in calls} == {n: second[n]["value"] for n in calls}


def test_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
