"""Timing wrappers installed from outside the program, and the spans they keep.

:class:`Tracer` replaces public functions of the program's modules with
wrappers that record one span per call: name, start, end, parent span
and ``ru_maxrss`` at exit.  A name bound into another module by
``from ... import`` is a separate attribute and is wrapped where it is
bound (e.g. ``repro.core.spatial.adjacent_common_prefix_lengths``).
Spans stay in memory until the run ends.

Calls made inside forked pool workers (``jobs > 1``) run in another
process, so their spans never reach the parent; for those the pool's
``RunReport`` (per-task elapsed time) is what the trace can see.

:func:`layer_metrics` turns spans into the per-layer metrics declared in
``BENCHMARK.json``.  Self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import resource
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: A span: [name, start_ns, end_ns, parent index (-1 for none), maxrss_kb].
Span = List[Any]
Counter = Callable[[Tuple[Any, ...], Dict[str, Any], Any], Dict[str, float]]


def _len_arg(key: str) -> Counter:
    return lambda args, kwargs, result: {key: len(args[0])}


def _parsed_rows(args: Any, kwargs: Any, result: Any) -> Dict[str, float]:
    return {"logfile.rows": len(result[1])}


def _bytes_written(args: Any, kwargs: Any, result: Any) -> Dict[str, float]:
    return {"daycache.bytes_written": os.path.getsize(result)}


def _pool_report(args: Any, kwargs: Any, result: Any) -> Dict[str, float]:
    report = result[1]
    return {
        "pool.tasks": report.tasks,
        "pool.task_s": sum(a.elapsed for a in report.attempts),
        "pool.retries": report.retries,
        "pool.fallbacks": report.fallbacks,
    }


def _swept_rows(args: Any, kwargs: Any, result: Any) -> Dict[str, float]:
    lists = result.values() if isinstance(result, dict) else [result]
    return {
        "sweep.ref_days": sum(len(results) for results in lists),
        "sweep.rows": sum(r.active_count for results in lists for r in results),
    }


def _emitted(args: Any, kwargs: Any, result: Any) -> Dict[str, float]:
    return {"stream.emitted": len(result)}


def _one(key: str) -> Counter:
    return lambda args, kwargs, result: {key: 1}


#: (module, attribute path, span name, counter) for every wrapped binding.
TARGETS: Tuple[Tuple[str, str, str, Optional[Counter]], ...] = (
    ("repro.data.logfile", "load_store", "store.load", None),
    ("repro.data.logfile", "read_daily_log_arrays", "logfile.parse", _parsed_rows),
    ("repro.net.batchparse", "parse_matrix", "batchparse.parse", None),
    ("repro.data.daycache", "content_hash", "daycache.hash", None),
    ("repro.data.daycache", "load_day", "daycache.load", None),
    ("repro.data.daycache", "store_day", "daycache.write", _bytes_written),
    ("repro.data.store", "truncate_array", "store.truncate", _len_arg("store.truncate_rows")),
    ("repro.data.store", "union_many", "store.union", None),
    ("repro.runtime.pool", "run_supervised", "pool.run", _pool_report),
    ("repro.core.sweep", "run_supervised", "pool.run", _pool_report),
    ("repro.core.spatial", "run_supervised", "pool.run", _pool_report),
    ("repro.runtime.checkpoint", "SweepCheckpoint.save_chunk", "checkpoint.save",
     _one("checkpoint.chunks")),
    ("repro.core.sweep", "sweep_granularities", "sweep.sweep", _swept_rows),
    ("repro.core.sweep", "sweep_days", "sweep.sweep", _swept_rows),
    ("repro.core.sweep", "SweepState.push_day", "sweepstate.push", None),
    ("repro.core.sweep", "SweepState.classify", "sweepstate.classify", None),
    ("repro.core.sweep", "SweepState.evict_before", "sweepstate.evict", None),
    ("repro.core.streaming", "StabilityStream.push_observations", "stream.push", _emitted),
    ("repro.core.streaming", "StabilityStream.flush", "stream.flush", _emitted),
    ("repro.core.temporal", "stability_table", "temporal.table2", None),
    ("repro.core.census", "census", "census.census", _len_arg("census.rows")),
    ("repro.core.census", "other_mask", "census.other_mask", None),
    ("repro.core.mra", "adjacent_common_prefix_lengths", "spatial.lcp", None),
    ("repro.core.spatial", "adjacent_common_prefix_lengths", "spatial.lcp", None),
    ("repro.core.density", "adjacent_common_prefix_lengths", "spatial.lcp", None),
    ("repro.core.spatial", "counts_from_lengths", "spatial.mra", None),
    ("repro.core.spatial", "dense_runs", "spatial.densify", None),
    ("repro.core.density", "dense_runs", "spatial.densify", None),
    ("repro.core.spatial", "day_spatial_summary", "spatial.day_summary", None),
    ("repro.core.spatial", "sweep_spatial", "spatial.sweep", None),
    ("repro.core.density", "table3", "density.table3", None),
    ("repro.analysis.tables", "render_table", "tables.render", None),
)


class Tracer:
    """Installs timing wrappers and keeps their spans and counters."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._installed: List[Tuple[Any, str, Any]] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block."""
        span: Span = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, 0]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            span[2] = time.perf_counter_ns()
            span[4] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            self._stack.pop()

    def install(self) -> None:
        """Wrap every target binding; :meth:`uninstall` restores them."""
        for module_name, path, name, counter in TARGETS:
            owner: Any = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, name, counter))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, func: Callable[..., Any], name: str,
              counter: Optional[Counter]) -> Callable[..., Any]:
        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                result = func(*args, **kwargs)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counters[key] += value
            return result

        return wrapper


def self_times_ns(spans: List[Span]) -> List[int]:
    """Each span's duration minus the time covered by its child spans."""
    own = [end - start for _name, start, end, _parent, _rss in spans]
    for _name, start, end, parent, _rss in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: List[Span], counters: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced phase (see ``BENCHMARK.json``)."""
    counters = defaultdict(float, counters)
    total: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    layer_self: Dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times_ns(spans)):
        name = span[0]
        total[name] += (span[2] - span[1]) / 1e9
        calls[name] += 1
        layer_self[name.split(".")[0]] += own / 1e9

    def rate(rows: float, seconds: float) -> float:
        return rows / seconds if seconds > 0 else 0.0

    m: Dict[str, float] = {
        "logfile.parse_s": total["logfile.parse"],
        "logfile.rows_per_s": rate(counters["logfile.rows"], total["logfile.parse"]),
        "batchparse.parse_s": total["batchparse.parse"],
        "daycache.hash_s": total["daycache.hash"],
        "daycache.load_s": total["daycache.load"],
        "daycache.misses": 0.0,
        "daycache.hits": 0.0,
        "daycache.write_s": total["daycache.write"],
        "daycache.bytes_written": counters["daycache.bytes_written"],
        "store.load_s": total["store.load"],
        "store.truncate_s": total["store.truncate"],
        "store.truncate_rows": counters["store.truncate_rows"],
        "store.union_s": total["store.union"],
        "pool.wall_s": total["pool.run"],
        "pool.task_s": counters["pool.task_s"],
        "pool.tasks": counters["pool.tasks"],
        "pool.retries": counters["pool.retries"],
        "pool.fallbacks": counters["pool.fallbacks"],
        "checkpoint.save_s": total["checkpoint.save"],
        "checkpoint.chunks": counters["checkpoint.chunks"],
        "sweep.s": total["sweep.sweep"],
        "sweep.rows_per_s": rate(counters["sweep.rows"], total["sweep.sweep"]),
        "sweep.ref_days": counters["sweep.ref_days"],
        "sweepstate.push_s": total["sweepstate.push"],
        "sweepstate.classify_s": total["sweepstate.classify"],
        "sweepstate.evict_s": total["sweepstate.evict"],
        "stream.push_s": total["stream.push"] + total["stream.flush"],
        "stream.emitted": counters["stream.emitted"],
        "temporal.table2_s": total["temporal.table2"],
        "census.s": total["census.census"],
        "census.rows": counters["census.rows"],
        "census.other_mask_s": total["census.other_mask"],
        "spatial.lcp_s": total["spatial.lcp"],
        "spatial.mra_s": total["spatial.mra"],
        "spatial.densify_s": total["spatial.densify"],
        "spatial.day_summary_s": total["spatial.day_summary"],
        "density.table3_s": total["density.table3"],
    }
    # A cache load that parsed text was a miss; one that did not, a hit.
    parsed_under: Dict[int, bool] = defaultdict(bool)
    for span in spans:
        if span[0] == "logfile.parse" and span[3] >= 0:
            parsed_under[span[3]] = True
    for index, span in enumerate(spans):
        if span[0] == "daycache.load":
            m["daycache.misses" if parsed_under[index] else "daycache.hits"] += 1
    for layer in LAYERS:
        m[f"self.{layer}_s"] = layer_self[layer]
    return m


#: Layers whose self time is reported; ``bench`` is the benchmark's own code.
LAYERS = ("bench", "store", "logfile", "batchparse", "daycache", "pool", "checkpoint",
          "sweep", "sweepstate", "stream", "temporal", "census", "spatial", "density",
          "tables")
