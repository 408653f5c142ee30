"""Tests of the benchmark itself, at minimum workload size.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))


def bench(root, workload, trace, seed=3):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=300, cwd=root)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    return result["metrics"]


def units(metrics):
    return {k: v["unit"] for k, v in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    metrics = result_of(bench(ROOT, workload, 0))
    assert units(metrics) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    metrics = result_of(bench(ROOT, workload, 1))
    assert units(metrics) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(metrics[k]["value"] >= 0 for k in metrics if k.endswith(".self_ms"))
    spans = np.load(ROOT / ".perfbench_work" / workload / "spans.npz")
    start, end, parent = spans["start_ns"], spans["end_ns"], spans["parent"]
    inner = parent >= 0
    child = np.bincount(parent[inner], weights=(end - start)[inner], minlength=len(start))
    assert len(start) > 0 and np.all(end - start - child >= 0)
    assert np.all(start[inner] >= start[parent[inner]])
    assert np.all(end[inner] <= end[parent[inner]])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_restores_the_package():
    import hcms.cli
    import hcms.tensor
    import tracing
    originals = (hcms.tensor.conv1d, hcms.cli.train, hcms.layers.ConvBlock.forward)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert hcms.tensor.conv1d is not originals[0]
        hcms.tensor.conv1d(np.ones((4, 2)), np.ones((3, 2, 2)), np.zeros(3))
    assert (hcms.tensor.conv1d, hcms.cli.train, hcms.layers.ConvBlock.forward) == originals
    assert tracer.names[tracer.name[0]] == "hcms.tensor.conv1d"
    assert tracer.work[0] == 2 * 3 * 3 * 2 * 2     # 2 * v * f * k * d


def test_inputs_depend_only_on_the_seed():
    import gen
    assert gen.to_conll(gen.cue_corpus(50, 7)) == gen.to_conll(gen.cue_corpus(50, 7))
    assert gen.to_conll(gen.cue_corpus(50, 7)) != gen.to_conll(gen.cue_corpus(50, 8))
