"""Smoke test of the benchmark itself, at toy sizes (about half a minute).

    python3 -m pytest -q perfbench/test_smoke.py

It checks that every workload runs, that the printed metric names and
units are the ones ``BENCHMARK.json`` declares, that the tracer leaves
``sasvbackend`` exactly as it found it, and that a target the package no
longer has is reported absent instead of failing.
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
sys.path.insert(0, str(HERE))

import job  # noqa: E402  (puts src/ on sys.path)
import tracing  # noqa: E402
from workloads import WORKLOADS, toy  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((HERE / "layer_map.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def package_snapshot() -> dict:
    """Identity of every attribute of the package's modules and their classes."""
    out = {}
    for module_name in tracing.LAYERS:
        module = sys.modules[f"sasvbackend.{module_name}"]
        for name, obj in vars(module).items():
            out[module_name, name] = id(obj)
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                for attr, value in vars(obj).items():
                    out[module_name, name, attr] = id(value)
    return out


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_prints_the_declared_metrics(trace, section):
    proc = run_benchmark("--workload", "all", "--seed", "5", "--toy", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(results) == {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    for name, result in results.items():
        assert set(result) == RESULT_KEYS
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, name
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared, name


def test_single_workload_run_ends_with_the_result_line():
    proc = run_benchmark("--workload", "cnn1d-dev", "--seed", "2",
                         "--seconds", "1", "--trace", "0", "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS and result["correct"]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_the_package_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark("--workload", "cnn1d-dev", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_changes_no_score_and_restores_the_package(tmp_path):
    workload = toy(WORKLOADS["cnn1d-dev"])
    job.generate(workload, 3, str(tmp_path / "inputs"))
    before = package_snapshot()
    plain = job.run_pipeline(workload, str(tmp_path / "inputs"), str(tmp_path))
    with tracing.Tracer().installed() as tracer:
        traced = job.run_pipeline(workload, str(tmp_path / "inputs"), str(tmp_path), tracer)
    assert package_snapshot() == before
    assert traced["eval_sha256"] == plain["eval_sha256"]
    assert traced["eval_sasv_eer"] == plain["eval_sasv_eer"]
    assert traced["absent"] == []
    layer = traced["per_layer"]
    assert layer["tensor.conv1d.calls"] > 0 and layer["tensor.conv1d.bwd_s"] > 0
    assert layer["training.steps"] == 3 and layer["attention.calls"] > 0
    assert abs(sum(v for k, v in layer.items() if k.endswith("wall_share_pct"))
               + 100 * layer["other_s"] / traced["wall_s"] - 100) < 1e-6


def test_missing_targets_are_reported_absent():
    before = package_snapshot()
    tracer = tracing.Tracer()
    assert not tracer.wrap("training", "trial_embeddings_gone", "data.resolve")
    assert not tracer.wrap("no_such_module", "f", "data.resolve")
    assert not tracer.wrap("training", "NoSuchClass.step", "training.optimizer")
    assert tracer.wrap("training", "fit", "training.fit")
    assert package_snapshot() != before
    tracer.unwrap_all()
    assert package_snapshot() == before
    assert tracer.absent == ["training.trial_embeddings_gone", "no_such_module.f",
                             "training.NoSuchClass.step"]


def test_layer_map_names_only_declared_metrics_and_workloads():
    per_layer = [m["name"] for m in BENCHMARK["per_layer"]]
    mapped = [name for layer in LAYER_MAP.values() for name in layer["metrics"]]
    assert sorted(mapped) == sorted(per_layer)
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    for layer in LAYER_MAP.values():
        assert set(layer["should_move"]) <= end_to_end
        assert set(layer["heavy_on"]) | set(layer["light_on"]) <= set(WORKLOADS)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
