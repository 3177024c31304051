"""Temporal classification benchmark: sweep engine versus per-day scans.

Measures the §5.1 stability classifier over a year-long synthetic store
(persistent + ephemeral address populations, so the stability classes
are non-trivial):

* **per_day** — the pre-sweep per-day path, run from the test oracle
  (:func:`tests.oracles.temporal.reference_classify_day`): for every
  reference day, re-scan all window days with membership tests and
  scalar-dispatch ``np.minimum.at``/``np.maximum.at`` updates — the
  baseline the sweep is judged against.
* **sweep_serial** — :func:`repro.core.sweep.sweep_days` in one process.
* **sweep_jobs** — the same sweep fanned out over worker processes.
* **sweep_both_granularities** — /128 and /64 sweeps sharing one pool
  (:func:`repro.core.sweep.sweep_granularities`).
* **stream** — :class:`repro.core.streaming.StabilityStream` fed day by
  day (the online path, including its flush tail).

All sweep and stream outputs are asserted bit-identical to the per-day
baseline before any speedup is reported.  ``peak_rss_mb`` records the
process's high-water resident set after building the store, after the
serial sweep (which runs first, so its entry is the sweep's own peak)
and at the end (including reaped worker processes).

Usage::

    PYTHONPATH=src python benchmarks/bench_temporal.py            # 365 days x 100k
    PYTHONPATH=src python benchmarks/bench_temporal.py --quick    # CI smoke: 40 x 3k
    PYTHONPATH=src python benchmarks/bench_temporal.py --out BENCH_temporal.json

The results (durations, speedups, configuration) are written as JSON;
the repo keeps a reference run in ``BENCH_temporal.json``.  Not a pytest
module — run it as a script.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO_ROOT)
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.core.streaming import StabilityStream  # noqa: E402
from repro.core.sweep import sweep_days, sweep_granularities  # noqa: E402
from repro.core.temporal import StabilityResult  # noqa: E402
from repro.data.store import DailyObservations, ObservationStore  # noqa: E402
from tests.oracles.temporal import reference_classify_day  # noqa: E402


def _per_day(observations: ObservationStore, reference_day: int) -> StabilityResult:
    """One reference day classified by the per-day window rescan."""
    active, gaps = reference_classify_day(observations, reference_day)
    return StabilityResult(reference_day, (7, 7), active, gaps)


# --------------------------------------------------------------------------
# Synthetic data + measurement
# --------------------------------------------------------------------------


def build_synthetic_store(
    days: int, addrs_per_day: int, seed: int
) -> ObservationStore:
    """A store with realistic temporal structure.

    A quarter of each day's budget comes from a persistent pool (each
    pool address active on any day with p=0.8 — the stable hosts); the
    rest are fresh privacy-style addresses never seen again.  Addresses
    share a pool of /64 networks so the /64 granularity aggregates.
    """
    rng = np.random.default_rng(seed)
    networks = rng.integers(
        0, 1 << 48, size=max(addrs_per_day // 8, 1), dtype=np.uint64
    )
    networks = (networks << np.uint64(16)) | np.uint64(0x2000) << np.uint64(48)
    pool_size = max(addrs_per_day // 4, 1)
    pool_hi = rng.choice(networks, size=pool_size)
    pool_lo = rng.integers(0, 1 << 62, size=pool_size, dtype=np.uint64)
    store = ObservationStore()
    for day in range(days):
        keep = rng.random(pool_size) < 0.8
        ephemeral = addrs_per_day - int(np.count_nonzero(keep))
        eph_hi = rng.choice(networks, size=ephemeral)
        eph_lo = rng.integers(1 << 62, 1 << 63, size=ephemeral, dtype=np.uint64)
        hi = np.concatenate([pool_hi[keep], eph_hi])
        lo = np.concatenate([pool_lo[keep], eph_lo])
        store.add_observations(DailyObservations.from_halves(day, hi, lo))
    return store


def _timed(fn) -> Tuple[float, object]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _assert_identical(
    name: str, baseline: List[StabilityResult], candidate: List[StabilityResult]
) -> None:
    assert len(baseline) == len(candidate), name
    for base, other in zip(baseline, candidate):
        assert base.reference_day == other.reference_day, name
        assert np.array_equal(base.active, other.active), (
            f"{name}: active differs on day {base.reference_day}"
        )
        assert np.array_equal(base.gaps, other.gaps), (
            f"{name}: gaps differ on day {base.reference_day}"
        )


def _peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return round(resource.getrusage(who).ru_maxrss / 1024.0, 1)


def run_benchmark(days: int, addrs_per_day: int, jobs: int, seed: int) -> Dict:
    store = build_synthetic_store(days, addrs_per_day, seed)
    day_list = store.days()
    results: Dict[str, float] = {"per_day": 0.0}  # keeps the record's key order
    peak = {"store": _peak_rss_mb()}

    results["sweep_serial"], swept = _timed(lambda: sweep_days(store))
    peak["sweep_serial"] = _peak_rss_mb()
    results["per_day"], per_day = _timed(
        lambda: [_per_day(store, day) for day in day_list]
    )
    results["sweep_jobs"], swept_jobs = _timed(lambda: sweep_days(store, jobs=jobs))
    results["sweep_both_granularities"], both = _timed(
        lambda: sweep_granularities(store, [128, 64], jobs=jobs)
    )

    def run_stream():
        stream = StabilityStream()
        emitted: List[StabilityResult] = []
        for observations in store.iter_days():
            emitted.extend(stream.push_observations(observations))
        emitted.extend(stream.flush())
        return emitted

    results["stream"], streamed = _timed(run_stream)

    peak["process"] = max(
        _peak_rss_mb(), _peak_rss_mb(resource.RUSAGE_CHILDREN)
    )

    _assert_identical("sweep_serial", per_day, swept)
    _assert_identical("sweep_jobs", per_day, swept_jobs)
    _assert_identical("sweep_granularities[128]", per_day, both[128])
    _assert_identical("stream", per_day, streamed)

    speedups = {
        "sweep_vs_per_day": results["per_day"] / results["sweep_serial"],
        "sweep_jobs_vs_per_day": results["per_day"] / results["sweep_jobs"],
        "sweep_jobs_vs_serial": results["sweep_serial"] / results["sweep_jobs"],
        "stream_vs_per_day": results["per_day"] / results["stream"],
    }

    return {
        "config": {
            "days": days,
            "addrs_per_day": addrs_per_day,
            "jobs": jobs,
            "seed": seed,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
        },
        "seconds": {k: round(v, 4) for k, v in results.items()},
        "speedups": {k: round(v, 2) for k, v in speedups.items()},
        "peak_rss_mb": peak,
        "verified": "bit-identical to the per-day window rescan",
        "targets": {
            "sweep_vs_per_day >= 5x": round(speedups["sweep_vs_per_day"], 2),
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--days", type=int, default=365)
    parser.add_argument("--addrs", type=int, default=100_000, help="addresses per day")
    parser.add_argument("--jobs", type=int, default=min(os.cpu_count() or 1, 8))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--quick", action="store_true", help="tiny run for CI smoke (40 days x 3k)"
    )
    parser.add_argument("--out", default=None, help="write results JSON here")
    args = parser.parse_args(argv)
    if args.quick:
        args.days, args.addrs = 40, 3_000

    report = run_benchmark(args.days, args.addrs, args.jobs, args.seed)
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    for label, value in report["speedups"].items():
        print(f"  {label}: {value:.2f}x", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
