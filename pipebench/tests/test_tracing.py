"""Traced runs: spans nest, self times are non-negative and fit in the workload span."""

from __future__ import annotations

import os

import pytest

import tracing


def _traced(dataset, tmp_path):
    import pipeline

    directory, plan, _expected = dataset
    paths = [os.path.join(directory, name) for name in plan["paths"]]
    cache = str(tmp_path / "cache")
    pipeline.setup(plan, paths, cache)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("bench.run"):
            pipeline.WORKLOADS[plan["workload"]](plan, paths, cache, str(tmp_path / "work"))
    finally:
        tracer.uninstall()
    return tracer


@pytest.mark.parametrize("name", ["campaign", "dense", "daily"])
def test_self_times_are_non_negative_and_fit_the_workload_span(datasets, tmp_path, name):
    tracer = _traced(datasets[name], tmp_path)
    spans = tracer.spans
    root = spans[0]
    assert root[0] == "bench.run" and root[3] == -1
    own = tracing.self_times_ns(spans)
    assert all(value >= 0 for value in own)
    assert sum(own) <= root[2] - root[1]
    for span in spans[1:]:
        parent = spans[span[3]]
        assert parent[1] <= span[1] <= span[2] <= parent[2]
    metrics = tracing.layer_metrics(spans, tracer.counters)
    assert sum(metrics[f"self.{layer}_s"] for layer in tracing.LAYERS) <= (
        root[2] - root[1]) / 1e9 + 1e-9


def test_uninstall_restores_every_binding():
    import importlib

    before = []
    for module, path, _name, _counter in tracing.TARGETS:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        before.append((owner, attr, owner.__dict__[attr]))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original


def test_daily_trace_counts_cache_misses_and_emissions(datasets, tmp_path):
    tracer = _traced(datasets["daily"], tmp_path)
    metrics = tracing.layer_metrics(tracer.spans, tracer.counters)
    days = len(datasets["daily"][1]["days"])
    assert metrics["daycache.misses"] == days
    assert metrics["daycache.hits"] == 0
    assert metrics["stream.emitted"] == days
    assert metrics["logfile.parse_s"] > 0 and metrics["spatial.lcp_s"] > 0
