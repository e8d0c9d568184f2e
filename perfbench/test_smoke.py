"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every workload prints every metric with its unit and
passes its correctness checks, that two traced runs at one seed give
identical counts, that every ``src/repro`` module maps to exactly one
layer, and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from perfbench.metrics import ALL_LAYERS, END_TO_END, LAYERS, OTHER, PER_LAYER, WORKLOADS
from perfbench.trace import layer_of_module

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Per-layer metrics that are host timings, not deterministic counts.
TIMINGS = {f"{layer}.self_share" for layer in ALL_LAYERS} | {
    "sim.events_per_s", "trace.overhead_x",
}


def run_bench(workload: str, trace: int, cwd: str = ROOT, seed: int = 5):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr[-3000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def check_metrics(result: dict, table) -> None:
    assert list(result["metrics"]) == [metric.name for metric in table]
    for metric in table:
        entry = result["metrics"][metric.name]
        assert entry["unit"] == metric.unit
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_end_to_end_metrics(workload):
    result = result_of(run_bench(workload, 0))
    check_metrics(result, END_TO_END)
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_their_counts(workload):
    first, second = (result_of(run_bench(workload, 1)) for _ in range(2))
    check_metrics(first, PER_LAYER)
    shares = sum(first["metrics"][f"{layer}.self_share"]["value"] for layer in ALL_LAYERS)
    assert shares == pytest.approx(1.0)
    counts = [name for name in first["metrics"] if name not in TIMINGS]
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}
    assert first["metrics"]["sim.events_per_op"]["value"] > 0


def test_every_program_module_maps_to_exactly_one_layer():
    package = os.path.join(ROOT, "src", "repro")
    modules = []
    for dirpath, _dirs, files in os.walk(package):
        for name in files:
            if name.endswith(".py"):
                rel = os.path.relpath(os.path.join(dirpath, name), package)[: -len(".py")]
                parts = ["repro"] + rel.split(os.sep)
                if parts[-1] == "__init__":
                    parts.pop()
                modules.append(".".join(parts))
    assert modules
    used = set()
    for module in modules:
        owners = [layer for layer in LAYERS
                  if module == f"repro.{layer}" or module.startswith(f"repro.{layer}.")]
        assert len(owners) <= 1, module
        assert layer_of_module(module) == (owners[0] if owners else OTHER), module
        used.add(layer_of_module(module))
    assert set(LAYERS) <= used, "a layer names no package under src/repro"


def test_benchmark_json_matches_the_metric_table():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    for metric in PER_LAYER:
        assert set(metric.on) <= set(WORKLOADS)
        assert set(metric.moves) <= {m.name for m in END_TO_END}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("pingpong", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "{" not in proc.stdout
