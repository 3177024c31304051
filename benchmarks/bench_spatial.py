"""Spatial classification benchmark: array-native engine versus trees.

Measures the §5.2 spatial methods over a synthetic address population
with realistic prefix clustering (addresses concentrated in a pool of
subnets, so the dense classes are non-trivial):

* **tree_densify** — the reference general densify
  (:func:`tests.oracles.tree.compute_dense_prefixes_tree`): one
  ``RadixNode`` per address, then the paper's post-order fold.
* **engine_densify** — :func:`repro.core.spatial.general_dense_prefixes`
  on the same set: one adjacent-LCP scan plus a vectorized interval
  sweep, no tree.
* **table3_seed** — the pre-engine fixed-length path kept verbatim: one
  truncate-copy + ``np.unique`` pass per density class.
* **table3_engine** — :func:`repro.core.density.table3`, all twelve
  classes sharing a single LCP scan.
* **sweep_serial / sweep_jobs** —
  :func:`repro.core.spatial.sweep_spatial` over a multi-day store, one
  process versus a fork-based worker pool.

The engine output is asserted **bit-identical** to the tree reference
(and the engine Table 3 to the seed path) before any speedup is
reported; the ``engine_vs_tree >= 10x`` target is recorded in the JSON.

Usage::

    PYTHONPATH=src python benchmarks/bench_spatial.py             # 1M addresses
    PYTHONPATH=src python benchmarks/bench_spatial.py --quick     # CI smoke: 20k
    PYTHONPATH=src python benchmarks/bench_spatial.py --out BENCH_spatial.json

The results (durations, speedups, configuration) are written as JSON;
the repo keeps a reference run in ``BENCH_spatial.json``.  Not a pytest
module — run it as a script.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO_ROOT)
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.core.density import TABLE3_CLASSES, table3  # noqa: E402
from repro.core.spatial import general_dense_prefixes, sweep_spatial  # noqa: E402
from repro.data import store as obstore  # noqa: E402
from repro.data.store import DailyObservations, ObservationStore  # noqa: E402
from tests.oracles.tree import compute_dense_prefixes_tree  # noqa: E402

#: The general-densify classes measured against the tree reference.
DENSIFY_CLASSES = [(2, 112), (8, 112), (2, 120)]


# --------------------------------------------------------------------------
# Pre-engine fixed-length path, kept verbatim so the comparison stays
# honest even as the library's own Table 3 keeps improving.
# --------------------------------------------------------------------------


def _seed_dense_fixed(
    array: np.ndarray, n: int, p: int
) -> Tuple[List[Tuple[int, int, int]], int]:
    if array.shape[0] == 0:
        return [], 0
    full = array.copy()
    if p <= 64:
        mask = np.uint64(0) if p == 0 else np.uint64(((1 << p) - 1) << (64 - p))
        full["hi"] = full["hi"] & mask
        full["lo"] = 0
    else:
        low_bits = p - 64
        mask = (
            np.uint64(0xFFFFFFFFFFFFFFFF)
            if low_bits == 64
            else np.uint64(((1 << low_bits) - 1) << (64 - low_bits))
        )
        full["lo"] = full["lo"] & mask
    unique, counts = np.unique(full, return_counts=True)
    dense_mask = counts >= n
    dense_networks = unique[dense_mask]
    dense_counts = counts[dense_mask]
    prefixes = [
        ((int(hi) << 64) | int(lo), p, int(count))
        for (hi, lo), count in zip(dense_networks, dense_counts)
    ]
    return prefixes, int(dense_counts.sum())


# --------------------------------------------------------------------------
# Synthetic data + measurement
# --------------------------------------------------------------------------


def build_synthetic_addresses(size: int, seed: int) -> np.ndarray:
    """A canonical address array with realistic spatial clustering.

    Addresses concentrate in a pool of /116-ish subnets (64 addresses
    per subnet on average, IIDs drawn from a 2**20 space), so every
    Table 3 class finds a non-trivial mix of dense and sparse prefixes.
    """
    rng = np.random.default_rng(seed)
    networks = rng.integers(0, 1 << 44, size=max(size // 64, 1), dtype=np.uint64)
    hi = (np.uint64(0x2000) << np.uint64(48)) | (
        rng.choice(networks, size=size) << np.uint64(4)
    )
    lo = rng.integers(0, 1 << 20, size=size, dtype=np.uint64)
    return obstore.halves_to_array(hi, lo)


def build_synthetic_store(days: int, addrs_per_day: int, seed: int) -> ObservationStore:
    store = ObservationStore()
    for day in range(days):
        array = build_synthetic_addresses(addrs_per_day, seed + day)
        store.add_observations(
            DailyObservations.from_halves(day, array["hi"], array["lo"])
        )
    return store


def _timed(fn) -> Tuple[float, object]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def run_benchmark(size: int, days: int, jobs: int, seed: int) -> Dict:
    array = build_synthetic_addresses(size, seed)
    distinct = int(array.shape[0])
    values = [(int(hi) << 64) | int(lo) for hi, lo in zip(array["hi"], array["lo"])]
    results: Dict[str, float] = {}

    results["tree_densify"], tree_reports = _timed(
        lambda: [
            compute_dense_prefixes_tree(values, n, p) for n, p in DENSIFY_CLASSES
        ]
    )
    results["engine_densify"], engine_reports = _timed(
        lambda: [general_dense_prefixes(array, n, p) for n, p in DENSIFY_CLASSES]
    )
    for (n, p), expected, got in zip(DENSIFY_CLASSES, tree_reports, engine_reports):
        assert got == expected, f"engine != tree for {n}@/{p}"

    results["table3_seed"], seed_rows = _timed(
        lambda: [
            _seed_dense_fixed(array, cls.n, cls.p) for cls in TABLE3_CLASSES
        ]
    )
    results["table3_engine"], engine_rows = _timed(lambda: table3(array))
    for cls, (prefixes, contained), row in zip(
        TABLE3_CLASSES, seed_rows, engine_rows
    ):
        assert row.prefixes == prefixes, f"table3 != seed for {cls.label}"
        assert row.contained_addresses == contained, cls.label

    store = build_synthetic_store(days, max(size // days, 1), seed)
    results["sweep_serial"], swept = _timed(lambda: sweep_spatial(store, jobs=1))
    results["sweep_jobs"], swept_jobs = _timed(lambda: sweep_spatial(store, jobs=jobs))
    assert len(swept) == len(swept_jobs) == days
    for one, two in zip(swept, swept_jobs):
        assert one.day == two.day and one.dense == two.dense
        assert np.array_equal(one.mra_counts, two.mra_counts)

    speedups = {
        "engine_vs_tree": results["tree_densify"] / results["engine_densify"],
        "table3_vs_seed": results["table3_seed"] / results["table3_engine"],
        "sweep_jobs_vs_serial": results["sweep_serial"] / results["sweep_jobs"],
    }

    return {
        "config": {
            "addresses": size,
            "distinct_addresses": distinct,
            "densify_classes": [f"{n}@/{p}" for n, p in DENSIFY_CLASSES],
            "sweep_days": days,
            "jobs": jobs,
            "seed": seed,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
        },
        "seconds": {k: round(v, 4) for k, v in results.items()},
        "speedups": {k: round(v, 2) for k, v in speedups.items()},
        "verified": "engine bit-identical to tree densify and seed table3",
        "targets": {
            "engine_vs_tree >= 10x": round(speedups["engine_vs_tree"], 2),
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=1_000_000, help="address count")
    parser.add_argument("--days", type=int, default=8, help="sweep store days")
    parser.add_argument("--jobs", type=int, default=min(os.cpu_count() or 1, 8))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--quick", action="store_true", help="tiny run for CI smoke (20k addrs)"
    )
    parser.add_argument("--out", default=None, help="write results JSON here")
    args = parser.parse_args(argv)
    if args.quick:
        args.size, args.days = 20_000, 4

    report = run_benchmark(args.size, args.days, args.jobs, args.seed)
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
