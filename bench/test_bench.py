"""Tests of the benchmark harness: python -m pytest bench/test_bench.py

Workloads run here on a tiny model for a fraction of a second; one test
runs the command itself on the default model.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from anofuse import losses, train  # noqa: E402
from anofuse.errors import TrainingError, UndefinedMetricError  # noqa: E402
from spans import layer_times  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"channels": 8, "heads": 2, "rank": 2, "image_size": 16, "patch_size": 8,
        "n_train": 8, "n_test": 16, "defect_min": 2, "defect_max": 6}
SEED = 3


def tiny(name):
    return dataclasses.replace(workloads.WORKLOADS[name], train_steps=4, loss_window=2)


def run_tiny(name, trace, tmp_path, seconds=0.2):
    return workloads.run_workload(tiny(name), SEED, seconds, trace, tmp_path, TINY)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert units == workloads.END_TO_END_UNITS
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert units == workloads.per_layer_units(3)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_measures_every_metric(name, trace, tmp_path):
    e2e, layers, run = run_tiny(name, trace, tmp_path)
    assert run.failed == 0 and run.attempted >= 1
    assert set(e2e) == set(workloads.END_TO_END_UNITS)
    assert set(layers) == set(workloads.per_layer_units(3))
    # each mode prints one set: end-to-end untraced, per-layer traced
    printed = layers if trace else e2e
    for metric, value in printed.items():
        assert isinstance(value, (int, float)), metric
    if trace:
        assert layers["trace.traced_ops"] >= 1
    else:
        assert all(v > 0 for v in e2e.values())


def test_graph_nodes_and_checkpoint_bytes_repeat_exactly(tmp_path):
    runs = [run_tiny("train-b1", 1, tmp_path / str(i))[2] for i in range(2)]
    graphs = [g for run in runs for g in run.tracer.graphs]
    assert len(graphs) >= 2 * 4
    assert len(set(graphs)) == 1  # equal batch shape: same nodes and bytes every step
    assert runs[0].reference["checkpoint"] == runs[1].reference["checkpoint"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_calibration_kernel_runs_between_ops_not_inside_them(name, tmp_path):
    _, _, run = run_tiny(name, 1, tmp_path)
    kind = workloads.TIMED_KIND[run.workload.kind]
    ops = [op for op in run.ops if op[0] == kind]
    assert len(ops) >= 2
    for (_, _, _, end, kernel_s), (_, _, start, _, _) in zip(ops, ops[1:]):
        assert start - end >= kernel_s  # the kernel runs after an op ends
    # scaled times are wall times over the kernel's time beside them
    wall, scaled = workloads.timed_ms(run, False, wall=True), workloads.timed_ms(run, False)
    ratio = [s / w for s, w in zip(scaled, wall)]
    kernel_s = [op[4] for op in ops if not op[1]]
    assert ratio == pytest.approx([hostspeed.REFERENCE_S / k for k in kernel_s])


def test_injected_training_error_counts_as_a_failure(tmp_path, monkeypatch):
    calls = [0]
    cls_loss = losses.cls_loss

    def flaky(*args):
        calls[0] += 1
        if calls[0] == 6:  # second repetition, second step
            raise TrainingError("injected")
        return cls_loss(*args)

    monkeypatch.setattr(losses, "cls_loss", flaky)
    _, _, run = run_tiny("train-b1", 1, tmp_path)
    assert run.failed == 1


def test_injected_metric_error_counts_as_a_failure(tmp_path, monkeypatch):
    calls = [0]
    auroc = train.auroc

    def flaky(*args):
        calls[0] += 1
        if calls[0] == 3:  # second pass, pixel AUROC
            raise UndefinedMetricError("injected")
        return auroc(*args)

    monkeypatch.setattr(train, "auroc", flaky)
    _, _, run = run_tiny("eval-default", 0, tmp_path)
    assert run.failed == 1


def test_output_that_differs_from_the_first_run_counts_as_failures(tmp_path, monkeypatch):
    calls = [0]
    seg_loss = losses.seg_loss

    def drifting(*args):
        calls[0] += 1
        return seg_loss(*args) + (1e-12 if calls[0] > 4 else 0.0)

    monkeypatch.setattr(losses, "seg_loss", drifting)
    _, _, run = run_tiny("train-b1", 0, tmp_path)
    # the drift leaves the gradients alone: only the loss traces differ,
    # at every step of every repetition after the first
    assert run.failed >= 4 and run.failed % 4 == 0


def test_self_time_subtracts_children_and_spans_go_to_their_op():
    rows = [["train.adam", 0.0, 10.0, -1], ["data.batch", 1.0, 4.0, 0],
            ["model.text", 5.0, 9.0, 0], ["data.batch", 6.0, 7.0, 2],
            ["data.batch", 11.0, 12.0, -1], ["data.batch", 30.0, 31.0, -1]]
    times = layer_times(rows, [("step", 0.0, 10.0), ("step", 10.0, 20.0)])
    assert times[("step", "train.adam")] == [3.0]
    assert times[("step", "data.batch")] == [4.0, 1.0]
    assert times[("step", "model.text")] == [4.0]  # reported as the whole call


def test_command_prints_every_metric_with_its_unit():
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train-b1", "--seed", "1",
         "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    for metric in BENCHMARK["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines)
    assert any(line.startswith("env ") for line in lines)


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train-b1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert "correct" not in out.stdout
