"""The reference checks pass on the program as it is and catch perturbed outputs."""

from __future__ import annotations

import importlib
import os

import numpy as np
import pytest

import run


def _run_inprocess(dataset, tmp_path):
    """Cold setup then the workload's pipeline, scored like a benchmark run."""
    import pipeline

    directory, plan, expected = dataset
    paths = [os.path.join(directory, name) for name in plan["paths"]]
    cache = str(tmp_path / "cache")
    score = run.Score(expected)
    _seconds, cold = pipeline.setup(plan, paths, cache)
    score.add("setup", {"mode": "setup", "ok": True, "outputs": cold})
    _seconds, outputs, _latencies = pipeline.WORKLOADS[plan["workload"]](
        plan, paths, cache, str(tmp_path / "work"))
    score.add("run", {"mode": "run", "ok": True, "outputs": outputs})
    return score


@pytest.mark.parametrize("name", ["campaign", "dense", "daily"])
def test_program_passes_every_check(datasets, tmp_path, name):
    score = _run_inprocess(datasets[name], tmp_path)
    assert score.failures == []
    # Every planned operation was attempted, plus the warm==cold comparison.
    expected = datasets[name][2]
    ingest = sum(1 for key in expected if key.startswith("ingest/"))
    assert score.attempted == ingest + len(expected) + 1


def _add_one_to_gaps(original):
    def perturbed(*args, **kwargs):
        return [(day, gaps + 1) for day, gaps in original(*args, **kwargs)]
    return perturbed


def test_perturbed_sweep_gap_fails_campaign(datasets, tmp_path, monkeypatch):
    sweep = importlib.import_module("repro.core.sweep")
    monkeypatch.setattr(sweep, "_sweep_chunk", _add_one_to_gaps(sweep._sweep_chunk))
    score = _run_inprocess(datasets["campaign"], tmp_path)
    assert len(score.failures) / score.attempted > 0
    assert any(".gaps:" in failure for failure in score.failures)


def test_perturbed_stream_gap_fails_daily(datasets, tmp_path, monkeypatch):
    sweep = importlib.import_module("repro.core.sweep")
    original = sweep.SweepState.classify

    def perturbed(self, reference):
        result = original(self, reference)
        result.gaps = result.gaps + np.int64(1)
        return result

    monkeypatch.setattr(sweep.SweepState, "classify", perturbed)
    score = _run_inprocess(datasets["daily"], tmp_path)
    assert any(failure.startswith("run emit/") for failure in score.failures)


def test_perturbed_census_count_fails_dense(datasets, tmp_path, monkeypatch):
    census = importlib.import_module("repro.core.census")
    original = census.census

    def perturbed(*args, **kwargs):
        row = original(*args, **kwargs)
        row.teredo += 1
        return row

    monkeypatch.setattr(census, "census", perturbed)
    score = _run_inprocess(datasets["dense"], tmp_path)
    # Every Table 1a day and the Table 1b week disagree with the labels.
    failed = [f for f in score.failures if ".teredo:" in f]
    assert len(failed) == len(datasets["dense"][1]["days"]) + 1
    assert len(score.failures) / score.attempted > 0


def test_a_raising_repetition_fails_all_its_operations(datasets):
    _directory, _plan, expected = datasets["dense"]
    score = run.Score(expected)
    score.add("run", {"mode": "run", "ok": False, "error": "boom"})
    assert score.attempted == len(expected)
    assert len(score.failures) == len(expected)


def test_a_store_compared_without_a_cold_store_fails(datasets):
    _directory, _plan, expected = datasets["dense"]
    score = run.Score(expected)
    score.add("setup", {"mode": "setup", "ok": False, "error": "boom"})
    ingest = sum(1 for key in expected if key.startswith("ingest/"))
    assert len(score.failures) == ingest
    outputs = {op: {} for op in expected}
    score.add("run", {"mode": "run", "ok": True, "outputs": outputs})
    assert any("no cold store" in failure for failure in score.failures)
