"""End-to-end pipeline benchmark: daily text logs to verified Tables 1-3.

Usage (from the repository root)::

    python3 pipebench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

Generates (or reuses) the workload's logs for the seed under
``.pipebench/``, times the cold ingest (``setup_s``) and the workload's
pipeline (``run_s``) in fresh interpreters, checks every output against
the independent references of :mod:`reference`, and prints one JSON
line.  ``--trace 1`` prints the per-layer metrics of a traced run
instead.  See ``pipebench/README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy

import gen
import reference
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Cold ingests per run; setup_s is their median.
SETUP_REPS = 3
#: Fewest measured repetitions per run, however long each takes.
MIN_RUN_REPS = 5
#: Datasets kept per workload under .pipebench/data (oldest removed).
KEEP_DATASETS = 2
#: Any one repetition is abandoned after this many seconds.
REP_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "rows_per_s": "rows/s",
                    "peak_rss_mb": "MB"}

#: Per-layer metrics of the traced run phase, with units.
RUN_LAYER_UNITS = {
    "logfile.parse_s": "s", "logfile.rows_per_s": "rows/s", "batchparse.parse_s": "s",
    "daycache.hash_s": "s", "daycache.load_s": "s", "daycache.hits": "count",
    "daycache.misses": "count", "daycache.write_s": "s", "daycache.bytes_written": "bytes",
    "store.load_s": "s", "store.truncate_s": "s", "store.truncate_rows": "rows",
    "store.union_s": "s", "pool.wall_s": "s", "pool.task_s": "s", "pool.tasks": "count",
    "pool.retries": "count", "pool.fallbacks": "count", "checkpoint.save_s": "s",
    "checkpoint.chunks": "count", "sweep.s": "s", "sweep.rows_per_s": "rows/s",
    "sweep.ref_days": "count", "sweepstate.push_s": "s", "sweepstate.classify_s": "s",
    "sweepstate.evict_s": "s", "stream.push_s": "s", "stream.emitted": "count",
    "temporal.table2_s": "s", "census.s": "s", "census.rows": "rows",
    "census.other_mask_s": "s", "spatial.lcp_s": "s", "spatial.mra_s": "s",
    "spatial.densify_s": "s", "spatial.day_summary_s": "s", "density.table3_s": "s",
}
#: Layer metrics also reported for the traced cold ingest, prefixed ``setup.``.
SETUP_LAYERS = ("store.load_s", "logfile.parse_s", "logfile.rows_per_s",
                "batchparse.parse_s", "daycache.hash_s", "daycache.write_s",
                "daycache.bytes_written", "pool.wall_s", "pool.task_s")


def per_layer_units() -> Dict[str, str]:
    """Every metric ``--trace 1`` prints, with its unit."""
    units = dict(RUN_LAYER_UNITS)
    units.update({f"self.{layer}_s": "s" for layer in tracing.LAYERS})
    units.update({f"setup.{name}": RUN_LAYER_UNITS[name] for name in SETUP_LAYERS})
    units.update({"trace.run_s": "s", "trace.untraced_run_s": "s",
                  "trace.overhead_s": "s", "trace.spans": "count"})
    return units


def sources_digest() -> str:
    """Short hash of the benchmark's own modules.

    Generated logs and expectations depend on ``gen.py`` and
    ``reference.py`` (and the plan on ``run.py``), so a dataset is keyed
    by all of them: any edit rebuilds it instead of reusing stale answers.
    """
    h = hashlib.sha256()
    for name in sorted(os.listdir(HERE)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(HERE, name), "rb") as handle:
                h.update(handle.read())
    return h.hexdigest()[:12]


def dataset(state: str, workload: str, seed: int) -> str:
    """Directory of the workload's logs for the seed, generated if missing."""
    root = os.path.join(state, "data")
    name = f"{workload}-seed{seed}-{sources_digest()}"
    path = os.path.join(root, name)
    if os.path.exists(os.path.join(path, "expected.json")):
        os.utime(path)
        return path
    shutil.rmtree(path, ignore_errors=True)
    spec = gen.SPECS[workload]
    ds = gen.write_logs(path, workload, seed, spec)
    plan = reference.plan(ds)
    plan["spec"] = dataclasses.asdict(spec)
    with open(os.path.join(path, "plan.json"), "w", encoding="utf-8") as handle:
        json.dump(plan, handle)
    exp = reference.expected(ds, plan)
    with open(os.path.join(path, "expected.tmp"), "w", encoding="utf-8") as handle:
        json.dump(exp, handle)
    os.replace(os.path.join(path, "expected.tmp"), os.path.join(path, "expected.json"))
    # Bound disk use: keep the most recently used datasets of this workload.
    mine = sorted((e for e in os.listdir(root) if e.startswith(workload + "-")),
                  key=lambda e: os.path.getmtime(os.path.join(root, e)), reverse=True)
    for old in mine[KEEP_DATASETS:]:
        shutil.rmtree(os.path.join(root, old), ignore_errors=True)
    return path


def repetition(mode: str, data: str, cache: str, work: str, traced: bool,
               out: str) -> Dict[str, Any]:
    """Run one repetition in a fresh interpreter; returns its result."""
    os.makedirs(work, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, data, cache, work,
           "1" if traced else "0", out]
    # A session of its own, so a timeout also stops the worker's fork pool.
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _out, stderr = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"ok": False, "error": f"{mode} repetition timed out"}
    try:
        with open(out, encoding="utf-8") as handle:
            result: Dict[str, Any] = json.load(handle)
    except (OSError, ValueError):
        return {"ok": False, "error": f"exit {proc.returncode}: {stderr[-2000:]}"}
    finally:
        if os.path.exists(out):
            os.remove(out)
    return result


class Score:
    """Operations attempted and failed across a run's repetitions."""

    def __init__(self, exp: Dict[str, Dict[str, Any]]) -> None:
        self.exp = exp
        self.ingest = {k: v for k, v in exp.items() if k.startswith("ingest/")}
        self.attempted = 0
        self.failures: List[str] = []
        self.cold: Optional[Dict[str, Any]] = None

    def add(self, label: str, result: Dict[str, Any]) -> None:
        setup = result.get("mode") == "setup"
        want = self.ingest if setup else self.exp
        if not result.get("ok"):
            self.attempted += len(want)
            self.failures += [f"{label}: {result.get('error', 'failed')}"] * len(want)
            return
        attempted, failures = reference.check(result["outputs"], want, label + " ")
        self.attempted += attempted
        self.failures += failures
        ingest = {k: v for k, v in result["outputs"].items() if k.startswith("ingest/")}
        if setup and self.cold is None:
            self.cold = ingest
        elif not setup:
            # Warm (or per-arrival) store equals the first successful cold
            # store; with no cold store to compare against, it fails.
            self.attempted += 1
            if self.cold is None:
                self.failures.append(f"{label} store has no cold store to compare with")
            elif ingest != self.cold:
                self.failures.append(f"{label} store differs from the cold store")


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def repetitions(args: argparse.Namespace, data: str, work: str,
                score: "Score") -> Dict[str, List[Dict[str, Any]]]:
    """Set up, then measure for ``args.seconds``; every result is scored.

    Untraced: three cold ingests, then at least five warm repetitions.
    Traced: one untraced and one traced cold ingest, then untraced and
    traced repetitions alternate (at least two of each).
    """
    traced = bool(args.trace)
    out = os.path.join(work, "result.json")
    warm = os.path.join(work, "warm-cache")
    reps: Dict[str, List[Dict[str, Any]]] = {
        "setup": [], "setup_traced": [], "run": [], "run_traced": []}
    for k in range(1 if traced else SETUP_REPS):
        cache = warm if k == 0 else os.path.join(work, f"cache-{k}")
        reps["setup"].append(repetition("setup", data, cache, work, False, out))
        score.add(f"setup[{k}]", reps["setup"][-1])
        if k:
            shutil.rmtree(cache, ignore_errors=True)
    if traced:
        cache = os.path.join(work, "cache-traced")
        reps["setup_traced"].append(repetition("setup", data, cache, work, True, out))
        score.add("setup[traced]", reps["setup_traced"][-1])
        shutil.rmtree(cache, ignore_errors=True)
    start = time.perf_counter()
    k = 0
    while (time.perf_counter() - start < args.seconds
           or len(reps["run"]) < (2 if traced else MIN_RUN_REPS)
           or len(reps["run_traced"]) < (2 if traced else 0)):
        scratch = os.path.join(work, f"rep-{k}")
        use_trace = traced and k % 2 == 1
        result = repetition("run", data, warm, scratch, use_trace, out)
        shutil.rmtree(scratch, ignore_errors=True)
        score.add(f"run[{k}{' traced' if use_trace else ''}]", result)
        reps["run_traced" if use_trace else "run"].append(result)
        k += 1
    return {key: [r for r in results if r.get("ok")] for key, results in reps.items()}


def end_to_end(plan: Dict[str, Any], reps: Dict[str, List[Dict[str, Any]]]) -> Dict[str, float]:
    """The ``--trace 0`` metrics: medians over the repetitions."""
    run_s = _median([r["seconds"] for r in reps["run"]])
    return {
        "setup_s": _median([r["seconds"] for r in reps["setup"]]),
        "run_s": run_s,
        "rows_per_s": plan["rows"] / run_s if run_s else 0.0,
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in reps["run"]]),
    }


def per_layer(reps: Dict[str, List[Dict[str, Any]]]) -> Dict[str, float]:
    """The ``--trace 1`` metrics: medians over the traced repetitions."""
    runs = [tracing.layer_metrics(r["spans"], r["counters"]) for r in reps["run_traced"]]
    names = [n for n in per_layer_units() if not n.startswith(("setup.", "trace."))]
    metrics = {name: _median([m[name] for m in runs]) for name in names}
    for r in reps["setup_traced"]:
        cold = tracing.layer_metrics(r["spans"], r["counters"])
        metrics.update({f"setup.{name}": cold[name] for name in SETUP_LAYERS})
    traced_s = _median([r["seconds"] for r in reps["run_traced"]])
    untraced_s = _median([r["seconds"] for r in reps["run"]])
    metrics.update({
        "trace.run_s": traced_s,
        "trace.untraced_run_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.spans": _median([len(r["spans"]) for r in reps["run_traced"]]),
    })
    for name in per_layer_units():
        metrics.setdefault(name, 0.0)
    return metrics


def run_record(args: argparse.Namespace, plan: Dict[str, Any],
               reps: Dict[str, List[Dict[str, Any]]], score: "Score") -> Dict[str, Any]:
    """What ran, on what, and how often: printed before the result line."""
    record: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cpus": len(os.sched_getaffinity(0)), "jobs": plan["jobs"],
        "python": platform.python_version(), "numpy": numpy.__version__,
        "days": len(plan["days"]), "rows": plan["rows"], "log_bytes": plan["log_bytes"],
        "spec": plan["spec"], "setup_reps": len(reps["setup"]), "run_reps": len(reps["run"]),
        "setup_s_all": [r["seconds"] for r in reps["setup"]],
        "run_s_all": [r["seconds"] for r in reps["run"]],
        "attempted": score.attempted, "failed": len(score.failures),
        "fail_frac": len(score.failures) / max(1, score.attempted),
    }
    lat = [x for r in reps["run"] for x in r["latencies_ms"][plan["warmup_days"]:]]
    if lat:
        p90 = _percentile(lat, 0.9)
        record["day_latency_ms"] = {
            "samples": len(lat), "p50": _percentile(lat, 0.5), "p90": p90,
            "samples_above_p90": sum(1 for x in lat if x > p90),
            "warmup_days_skipped_per_rep": plan["warmup_days"]}
    record["failures"] = score.failures[:20]
    return record


def write_trace(state: str, args: argparse.Namespace,
                reps: Dict[str, List[Dict[str, Any]]]) -> None:
    """Keep the traced repetitions' spans for inspection."""
    traces = os.path.join(state, "traces")
    os.makedirs(traces, exist_ok=True)
    with open(os.path.join(traces, f"{args.workload}-seed{args.seed}.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"span_fields": ["name", "start_ns", "end_ns", "parent", "maxrss_kb"],
                   "setup": [r["spans"] for r in reps["setup_traced"]],
                   "runs": [r["spans"] for r in reps["run_traced"]]}, handle)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("campaign", "dense", "daily"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"pipebench: program sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    state = os.path.join(os.getcwd(), ".pipebench")
    data = dataset(state, args.workload, args.seed)
    with open(os.path.join(data, "plan.json"), encoding="utf-8") as handle:
        plan = json.load(handle)
    with open(os.path.join(data, "expected.json"), encoding="utf-8") as handle:
        score = Score(json.load(handle))
    work = os.path.join(state, "work", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        reps = repetitions(args, data, work, score)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = run_record(args, plan, reps, score)
    if args.trace:
        metrics, units = per_layer(reps), per_layer_units()
        write_trace(state, args, reps)
    else:
        metrics, units = end_to_end(plan, reps), END_TO_END_UNITS
    results = os.path.join(state, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(dict(record, metrics=metrics), handle, indent=1)
    for failure in record["failures"]:
        print(f"pipebench: FAIL {failure}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
