"""The command's printed result agrees with BENCHMARK.json."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import gen
import run
from conftest import BENCH, ROOT, scaled

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    DECLARED = json.load(_handle)


def _run_small(tmp_path, monkeypatch, capsys, workload, trace):
    """``run.main`` on scaled-down inputs; returns (exit code, stdout lines)."""
    monkeypatch.setattr(gen, "SPECS", {name: scaled(spec) for name, spec in gen.SPECS.items()})
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0.1",
                     "--trace", str(trace)])
    return code, capsys.readouterr().out.strip().splitlines()


def test_declared_workloads_are_the_commands_choices():
    # dense stays runnable for its traced breakdown but is not declared.
    assert [w["name"] for w in DECLARED["workloads"]] == ["campaign", "daily"]
    assert DECLARED["command"] == ["python3", "pipebench/run.py"]
    assert DECLARED["paths"] == ["pipebench"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["campaign", "dense", "daily"])
def test_every_printed_metric_is_declared_with_unit_and_direction(
        tmp_path, monkeypatch, capsys, workload, trace):
    code, lines = _run_small(tmp_path, monkeypatch, capsys, workload, trace)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m for m in DECLARED["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]["unit"], name
        assert declared[name]["better"] in ("lower", "higher"), name
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    # The run record states the hygiene facts next to the result.
    record = json.loads(lines[-2])
    for key in ("cpus", "jobs", "python", "numpy", "rows", "log_bytes", "fail_frac"):
        assert key in record
    if workload == "daily":
        assert record["day_latency_ms"]["samples"] > 0


def test_fails_without_printing_when_only_the_benchmark_is_present(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "pipebench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    cmd = [sys.executable, os.path.join("pipebench", "run.py"), "--workload", "dense",
           "--seed", "5", "--seconds", "0.1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=str(tmp_path), capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
