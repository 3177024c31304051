"""One measured repetition in a fresh interpreter (started by ``run.py``).

Usage::

    python3 pipebench/worker.py <setup|run> <dataset dir> <cache dir> <work dir> \\
        <trace 0|1> <result json>

``setup`` times a cold ``load_store`` into the (empty) cache directory;
``run`` times the workload's pipeline (campaign and dense load through
the warm cache; daily fills a fresh one, day by day).  The
result file holds the seconds, the process's peak RSS (with its fork
workers), the outputs for the checks, per-arrival latencies and, when
traced, the spans and counters.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import traceback
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv: List[str]) -> int:
    mode, data_dir, cache_dir, work_dir, traced, result_path = argv
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import pipeline
    import tracing

    with open(os.path.join(data_dir, "plan.json"), encoding="utf-8") as handle:
        plan = json.load(handle)
    paths = [os.path.join(data_dir, name) for name in plan["paths"]]
    tracer = tracing.Tracer() if traced == "1" else None
    if tracer is not None:
        tracer.install()
    result: Dict[str, Any] = {"mode": mode, "ok": False}
    try:
        if tracer is not None:
            with tracer.span(f"bench.{mode}"):
                timed = _call(pipeline, mode, plan, paths, cache_dir, work_dir)
        else:
            timed = _call(pipeline, mode, plan, paths, cache_dir, work_dir)
        result["seconds"], result["outputs"], result["latencies_ms"] = timed
        result["ok"] = True
    except Exception:  # a failed repetition is reported, not fatal
        result["error"] = traceback.format_exc()
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = tracer.spans
        result["counters"] = dict(tracer.counters)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = max(own, workers) / 1024.0
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def _call(pipeline: Any, mode: str, plan: Dict[str, Any], paths: List[str],
          cache_dir: str, work_dir: str) -> Tuple[float, Dict[str, Any], List[float]]:
    if mode == "setup":
        seconds, outputs = pipeline.setup(plan, paths, cache_dir)
        return seconds, outputs, []
    return pipeline.WORKLOADS[plan["workload"]](plan, paths, cache_dir, work_dir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
