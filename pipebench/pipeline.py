"""The three workloads' pipelines, as a user of the ``repro`` package runs them.

Every call into the program goes through a module attribute
(``logfile.load_store``, ``sweep.sweep_granularities`` ...), so the
timing wrappers of :mod:`tracing` see it.  Each workload function returns
the measured seconds, the outputs the checks need and the per-arrival
latencies (empty for the batch workloads); outputs are collected
after the timed interval (for ``daily``, between arrivals, outside each
arrival's latency).
"""

from __future__ import annotations

import importlib
import os
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from reference import MRA_LENGTHS, STABLE_N, WEEK, digest

logfile = importlib.import_module("repro.data.logfile")
daycache = importlib.import_module("repro.data.daycache")
obstore = importlib.import_module("repro.data.store")
sweep = importlib.import_module("repro.core.sweep")
temporal = importlib.import_module("repro.core.temporal")
census = importlib.import_module("repro.core.census")
spatial = importlib.import_module("repro.core.spatial")
density = importlib.import_module("repro.core.density")
streaming = importlib.import_module("repro.core.streaming")
tables = importlib.import_module("repro.analysis.tables")

Outputs = Dict[str, Dict[str, Any]]


def _ingest_outputs(store: Any, days: List[int]) -> Outputs:
    out: Outputs = {}
    for day in days:
        obs = store.get(day)
        if obs is not None:
            out[f"ingest/{day}"] = {"digest": _obs_digest(obs.addresses, obs.hits)}
    return out


def _obs_digest(addresses: np.ndarray, hits: Optional[np.ndarray]) -> str:
    hits = np.zeros(0, dtype=np.uint64) if hits is None else hits
    return digest(addresses["hi"], addresses["lo"], hits)


def _census_fields(row: Any) -> Dict[str, Any]:
    return {key: getattr(row, key) for key in (
        "total", "teredo", "isatap", "sixto4", "other", "other_64s",
        "avg_addrs_per_64", "eui64_not_6to4", "eui64_distinct_macs")}


def _spatial_fields(result: Any) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "total": int(result.total),
        "classes": [[s.n, s.p, int(s.num_prefixes), int(s.contained_addresses)]
                    for s in result.dense],
    }
    if result.mra_counts is not None:
        out["mra"] = {str(p): int(result.mra_counts[p]) for p in MRA_LENGTHS}
    return out


def _table3_fields(rows: List[Any]) -> Dict[str, Any]:
    return {"classes": [
        [r.density_class.n, r.density_class.p, int(r.num_prefixes), int(r.contained_addresses)]
        for r in rows]}


def _stability_fields(result: Any) -> Dict[str, Any]:
    return {"active": int(result.active_count), "gaps": digest(result.gaps)}


def setup(plan: Dict[str, Any], paths: List[str], cache_dir: str) -> Tuple[float, Outputs]:
    """Cold ingest: text parse plus day-cache fill into an empty cache."""
    start = time.perf_counter()
    store = logfile.load_store(paths, jobs=plan["jobs"], cache_dir=cache_dir)
    seconds = time.perf_counter() - start
    return seconds, _ingest_outputs(store, plan["days"])


def campaign(plan: Dict[str, Any], paths: List[str], cache_dir: str,
             work_dir: str) -> Tuple[float, Outputs, List[float]]:
    """Warm load, /128 + /64 sweep with checkpoints, Table 2, Table 1b."""
    jobs = plan["jobs"]
    start = time.perf_counter()
    store = logfile.load_store(paths, jobs=jobs, cache_dir=cache_dir)
    swept = sweep.sweep_granularities(
        store, plan["granularities"], jobs=jobs,
        checkpoint_dir=os.path.join(work_dir, "checkpoint"))
    stores = {128: store, 64: store.truncated(64)}
    table2 = {
        (p, epoch["name"]): temporal.stability_table(
            stores[p], epoch["name"], epoch["ref"], n=STABLE_N, week_length=WEEK,
            earlier_epochs=epoch["earlier"])
        for p in plan["granularities"] for epoch in plan["epochs"]
    }
    table1 = [
        census.census(store.union_over(range(e["ref"], e["ref"] + WEEK)),
                      period_name=e["name"])
        for e in plan["epochs"]
    ]
    text = _render_campaign(table2, table1)
    seconds = time.perf_counter() - start

    out = _ingest_outputs(store, plan["days"])
    for p, results in swept.items():
        for result in results:
            out[f"sweep/{p}/{result.reference_day}"] = _stability_fields(result)
    for (p, name), column in table2.items():
        out[f"table2/{p}/{name}"] = {
            key: getattr(column, key) for key in (
                "daily_active", "daily_stable", "weekly_active", "weekly_stable",
                "cross_epoch_daily", "cross_epoch_weekly")}
    for row in table1:
        out[f"census/{row.period_name}"] = _census_fields(row)
    out["render"] = {"nonempty": bool(text)}
    return seconds, out, []


def _census_table(rows: List[Any], title: str) -> str:
    cws = tables.count_with_share
    return tables.render_table(
        ["characteristic"] + [row.period_name for row in rows],
        [
            ["Teredo"] + [cws(r.teredo, r.total) for r in rows],
            ["ISATAP"] + [cws(r.isatap, r.total) for r in rows],
            ["6to4"] + [cws(r.sixto4, r.total) for r in rows],
            ["Other"] + [cws(r.other, r.total) for r in rows],
            ["Other /64s"] + [tables.si_count(r.other_64s) for r in rows],
            ["EUI-64 (!6to4)"] + [cws(r.eui64_not_6to4, r.total) for r in rows],
        ],
        title=title,
    )


def _render_campaign(table2: Dict[Tuple[int, str], Any], table1: List[Any]) -> str:
    parts = []
    for p in sorted({p for p, _ in table2}, reverse=True):
        columns = [c for (q, _), c in table2.items() if q == p]
        rows = [
            ["daily active"] + [tables.si_count(c.daily_active) for c in columns],
            ["daily 3d-stable"] + [tables.count_with_share(c.daily_stable, c.daily_active)
                                   for c in columns],
            ["weekly active"] + [tables.si_count(c.weekly_active) for c in columns],
            ["weekly 3d-stable"] + [tables.count_with_share(c.weekly_stable, c.weekly_active)
                                    for c in columns],
        ]
        labels = sorted({k for c in columns for k in c.cross_epoch_weekly})
        for label in labels:
            rows.append([f"weekly {label}"] + [
                tables.si_count(c.cross_epoch_weekly.get(label, 0)) for c in columns])
        parts.append(tables.render_table(
            ["/" + str(p)] + [c.epoch_name for c in columns], rows, title="Table 2"))
    parts.append(_census_table(table1, "Table 1b"))
    return "\n\n".join(parts)


def dense(plan: Dict[str, Any], paths: List[str], cache_dir: str,
          work_dir: str) -> Tuple[float, Outputs, List[float]]:
    """Warm load, Table 1a/1b census, culled spatial sweep, Table 3."""
    start = time.perf_counter()
    store = logfile.load_store(paths, jobs=plan["jobs"], cache_dir=cache_dir)
    days = [census.census_day(store, day) for day in plan["days"]]
    week = census.census(store.union_over(plan["week"]), period_name="week")
    profiles = spatial.sweep_spatial(store, cull=True)
    table3 = density.table3(week.other_addresses)
    text = "\n\n".join([
        _census_table(days, "Table 1a"),
        _census_table([week], "Table 1b"),
        tables.render_table(
            ["class", "prefixes", "addresses"],
            [[r.density_class.label, tables.si_count(r.num_prefixes),
              tables.si_count(r.contained_addresses)] for r in table3],
            title="Table 3"),
    ])
    seconds = time.perf_counter() - start

    out = _ingest_outputs(store, plan["days"])
    for day, row in zip(plan["days"], days):
        out[f"census/{day}"] = _census_fields(row)
    out["census/week"] = _census_fields(week)
    for profile in profiles:
        out[f"spatial/{profile.day}"] = _spatial_fields(profile)
    out["table3/week"] = _table3_fields(table3)
    out["render"] = {"nonempty": bool(text)}
    return seconds, out, []


def daily(plan: Dict[str, Any], paths: List[str], cache_dir: str,
          work_dir: str) -> Tuple[float, Outputs, List[float]]:
    """Closed loop over arrivals: cold cache load, census, spatial, stream.

    Every seventh arrival also builds Table 3 of the week's native union.
    Returns the run's seconds (the sum of every arrival's latency plus
    the final flush), the outputs and the per-arrival latencies in ms.
    """
    cache = os.path.join(work_dir, "daily-cache")
    stream = streaming.StabilityStream(7, 7)
    classes = density.TABLE3_CLASSES
    out: Outputs = {}
    latencies: List[float] = []
    week: List[np.ndarray] = []
    for path in paths:
        start = time.perf_counter()
        day, hi, lo, hits = daycache.load_day(path, cache)
        obs = obstore.DailyObservations.from_halves(day, hi, lo, hits, merged=True)
        row = census.census(obs.addresses, period_name=str(day))
        profile = spatial.day_spatial_summary(row.other_addresses, classes, day=day)
        week.append(row.other_addresses)
        table3 = None
        if len(week) == WEEK:
            table3 = density.table3(obstore.union_many(week))
            week = []
        emitted = stream.push_observations(obs)
        latencies.append(time.perf_counter() - start)
        out[f"ingest/{day}"] = {"digest": _obs_digest(obs.addresses, obs.hits)}
        out[f"census/{day}"] = _census_fields(row)
        out[f"spatial/{day}"] = _spatial_fields(profile)
        if table3 is not None:
            out[f"table3/{day}"] = _table3_fields(table3)
        for result in emitted:
            out[f"emit/{result.reference_day}"] = _stability_fields(result)
    start = time.perf_counter()
    emitted = stream.flush()
    flush = time.perf_counter() - start
    for result in emitted:
        out[f"emit/{result.reference_day}"] = _stability_fields(result)
    return sum(latencies) + flush, out, [1000.0 * x for x in latencies]


WORKLOADS = {"campaign": campaign, "dense": dense, "daily": daily}
