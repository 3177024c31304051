"""Independent reference answers and the checks that use them.

Nothing here imports the ``repro`` package, so a change that rewires an
engine cannot rewire its check with it.  References work on the
generator's ground truth (universe ids, see :mod:`gen`) with plain numpy:

* window rescans: for a reference day, one ``np.isin`` per window day;
* census counts from the construction labels of each address;
* fixed-length prefix counts: truncate, sort, count runs;
* per-day store digests of the sorted, merged (hi, lo, hits) columns.

:func:`plan` fixes what each workload's pipeline computes;
:func:`expected` gives the answer for every operation that has a
reference; :func:`check` scores a run's outputs against them.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

import gen

U64 = np.uint64
WINDOW = 7  # the paper's (-7d, +7d) sliding window
STABLE_N = 3  # Table 2 reports 3d-stable addresses
WEEK = 7

#: The Table 3 density classes (n, p), in the paper's row order.
TABLE3_CLASSES: Tuple[Tuple[int, int], ...] = (
    (2, 124), (3, 120), (2, 120), (2, 116), (64, 112), (32, 112),
    (16, 112), (8, 112), (4, 112), (2, 112), (2, 108), (2, 104),
)

#: Prefix lengths at which MRA aggregate counts are checked.
MRA_LENGTHS = (16, 32, 48, 56, 64, 80, 96, 104, 112, 116, 120, 124, 128)


def digest(*arrays: np.ndarray) -> str:
    """SHA-256 over the given integer arrays, as little-endian 64-bit values."""
    h = hashlib.sha256()
    for array in arrays:
        array = np.asarray(array)
        kind = "<u8" if array.dtype.kind == "u" else "<i8"
        h.update(np.ascontiguousarray(array, dtype=kind).tobytes())
    return h.hexdigest()


def prefix_ids(u_hi: np.ndarray) -> np.ndarray:
    """/64 id of each universe address (universe is sorted by hi, lo)."""
    change = np.ones(u_hi.shape[0], dtype=bool)
    change[1:] = u_hi[1:] != u_hi[:-1]
    return np.cumsum(change) - 1


def window_gaps(sets: Sequence[np.ndarray], index: int,
                before: int = WINDOW, after: int = WINDOW) -> np.ndarray:
    """Per-address max day gap within the window, by rescanning each day."""
    active = sets[index]
    first = np.full(active.shape[0], index, dtype=np.int64)
    last = first.copy()
    for j in range(max(0, index - before), min(len(sets), index + after + 1)):
        if j == index:
            continue
        seen = np.isin(active, sets[j], assume_unique=True)
        if j < index:
            first = np.where(seen, np.minimum(first, j), first)
        else:
            last = np.where(seen, np.maximum(last, j), last)
    return last - first


def table2_column(sets: Sequence[np.ndarray], ref: int,
                  earlier: Dict[str, int]) -> Dict[str, Any]:
    """One Table 2 column from rescans: daily and weekly 3d-stable counts."""
    week = range(ref, ref + WEEK)
    stable = [sets[i][window_gaps(sets, i) >= STABLE_N] for i in week]
    week_union = np.unique(np.concatenate([sets[i] for i in week]))
    daily_gaps = window_gaps(sets, ref)
    column: Dict[str, Any] = {
        "daily_active": int(sets[ref].shape[0]),
        "daily_stable": int((daily_gaps >= STABLE_N).sum()),
        "weekly_active": int(week_union.shape[0]),
        "weekly_stable": int(np.unique(np.concatenate(stable)).shape[0]),
        "cross_epoch_daily": {},
        "cross_epoch_weekly": {},
    }
    for label, e in earlier.items():
        earlier_week = np.unique(np.concatenate([sets[i] for i in range(e, e + WEEK)]))
        column["cross_epoch_daily"][label] = int(np.intersect1d(sets[ref], sets[e]).shape[0])
        column["cross_epoch_weekly"][label] = int(
            np.intersect1d(week_union, earlier_week).shape[0])
    return column


def census_truth(ids: np.ndarray, cat: np.ndarray, u_hi: np.ndarray,
                 mac: np.ndarray) -> Dict[str, Any]:
    """Table 1 characteristics of a set of universe ids, from the labels."""
    c = cat[ids]
    native = ids[c == gen.CAT_NATIVE]
    other_64s = int(np.unique(u_hi[native]).shape[0])
    eui = mac[ids[c != gen.CAT_6TO4]]
    eui = eui[eui != U64(1 << 63)]
    return {
        "total": int(ids.shape[0]),
        "teredo": int((c == gen.CAT_TEREDO).sum()),
        "isatap": int((c == gen.CAT_ISATAP).sum()),
        "sixto4": int((c == gen.CAT_6TO4).sum()),
        "other": int(native.shape[0]),
        "other_64s": other_64s,
        "avg_addrs_per_64": native.shape[0] / other_64s if other_64s else 0.0,
        "eui64_not_6to4": int(eui.shape[0]),
        "eui64_distinct_macs": int(np.unique(eui).shape[0]),
    }


def prefix_group_sizes(hi: np.ndarray, lo: np.ndarray, p: int) -> np.ndarray:
    """Sizes of the /p groups of a set of distinct addresses."""
    if hi.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    if p <= 64:
        key_hi = hi & U64(((1 << p) - 1) << (64 - p)) if p else hi & U64(0)
        key_lo = np.zeros_like(lo)
    else:
        key_hi = hi
        key_lo = lo & U64((((1 << (p - 64)) - 1) << (128 - p)) & ((1 << 64) - 1))
    order = np.lexsort((key_lo, key_hi))
    key_hi, key_lo = key_hi[order], key_lo[order]
    new = np.ones(hi.shape[0], dtype=bool)
    new[1:] = (key_hi[1:] != key_hi[:-1]) | (key_lo[1:] != key_lo[:-1])
    starts = np.nonzero(new)[0]
    return np.diff(np.append(starts, hi.shape[0]))


def spatial_truth(hi: np.ndarray, lo: np.ndarray) -> Dict[str, Any]:
    """Table 3 rows and MRA counts of a native set by plain prefix counting."""
    classes = []
    for n, p in TABLE3_CLASSES:
        sizes = prefix_group_sizes(hi, lo, p)
        dense = sizes >= n
        classes.append([n, p, int(dense.sum()), int(sizes[dense].sum())])
    mra = {str(p): int(prefix_group_sizes(hi, lo, p).shape[0]) for p in MRA_LENGTHS}
    return {"total": int(hi.shape[0]), "classes": classes, "mra": mra}


# ---------------------------------------------------------------------------
# Workload plans and expected outputs
# ---------------------------------------------------------------------------


def _sample(rng: np.random.Generator, count: int, fixed: Sequence[int], k: int) -> List[int]:
    picks = set(int(i) for i in fixed if 0 <= i < count)
    picks.update(int(i) for i in rng.choice(count, size=min(k, count), replace=False))
    return sorted(picks)


def plan(ds: "gen.Dataset") -> Dict[str, Any]:
    """What the workload's pipeline computes, in day numbers and paths."""
    d = len(ds.days)
    rng = np.random.default_rng(np.random.SeedSequence([ds.seed, 4]))
    out: Dict[str, Any] = {
        "workload": ds.name,
        "seed": ds.seed,
        "days": ds.days,
        "paths": [p.rsplit("/", 1)[-1] for p in ds.paths],
        "rows": int(sum(ids.shape[0] for ids in ds.day_ids)),
        "log_bytes": ds.log_bytes,
        "warmup_days": 2 * WINDOW,
    }
    if ds.name == "campaign":
        r0, r2 = WINDOW, d - WEEK - WINDOW - 3
        r1 = (r0 + r2) // 2
        refs = [r0, r1, r2]
        out.update(
            jobs=2,
            granularities=[128, 64],
            epochs=[
                {"name": f"epoch-{k}", "ref": ds.days[r],
                 "earlier": {f"prev-{j + 1}": ds.days[e]
                             for j, e in enumerate(reversed(refs[:k]))}}
                for k, r in enumerate(refs)
            ],
            sampled=[ds.days[i] for i in _sample(rng, d, [0, 63, 64, d - 1], 2)],
        )
    elif ds.name == "dense":
        out.update(jobs=1, week=ds.days[4:4 + WEEK],
                   sampled=[ds.days[i] for i in _sample(rng, d, [d // 2], 1)])
    else:
        out.update(jobs=1,
                   sampled=[ds.days[i] for i in _sample(rng, d, [0, d - 1], 3)])
    return out


def expected(ds: "gen.Dataset", pl: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """The reference answer of every checked operation, keyed by op name."""
    cat = ds.u_cat
    mac = gen.eui_macs(ds.u_lo)
    index = {day: i for i, day in enumerate(ds.days)}
    sampled = {index[day] for day in pl["sampled"]}
    exp: Dict[str, Dict[str, Any]] = {}
    for i, day in enumerate(ds.days):
        ids = ds.day_ids[i]
        exp[f"ingest/{day}"] = {
            "digest": digest(ds.u_hi[ids], ds.u_lo[ids], ds.day_hits[i])}
    if ds.name == "campaign":
        pid = prefix_ids(ds.u_hi)
        sets = {128: ds.day_ids, 64: [np.unique(pid[ids]) for ids in ds.day_ids]}
        for p, day_sets in sets.items():
            for i, day in enumerate(ds.days):
                entry: Dict[str, Any] = {"active": int(day_sets[i].shape[0])}
                if i in sampled:
                    entry["gaps"] = digest(window_gaps(day_sets, i))
                exp[f"sweep/{p}/{day}"] = entry
            for epoch in pl["epochs"]:
                earlier = {k: index[v] for k, v in epoch["earlier"].items()}
                exp[f"table2/{p}/{epoch['name']}"] = table2_column(
                    day_sets, index[epoch["ref"]], earlier)
        for epoch in pl["epochs"]:
            r = index[epoch["ref"]]
            week_ids = np.unique(np.concatenate(ds.day_ids[r:r + WEEK]))
            exp[f"census/{epoch['name']}"] = census_truth(week_ids, cat, ds.u_hi, mac)
        exp["render"] = {"nonempty": True}
    else:
        for i, day in enumerate(ds.days):
            ids = ds.day_ids[i]
            exp[f"census/{day}"] = census_truth(ids, cat, ds.u_hi, mac)
            native = ids[cat[ids] == gen.CAT_NATIVE]
            exp[f"spatial/{day}"] = (
                spatial_truth(ds.u_hi[native], ds.u_lo[native]) if i in sampled
                else {"total": int(native.shape[0])})
            if ds.name == "daily":
                exp[f"emit/{day}"] = {"active": int(ids.shape[0])}
                if i in sampled:
                    exp[f"emit/{day}"]["gaps"] = digest(window_gaps(ds.day_ids, i))
                if (i + 1) % WEEK == 0:
                    week_ids = np.unique(np.concatenate(ds.day_ids[i + 1 - WEEK:i + 1]))
                    native = week_ids[cat[week_ids] == gen.CAT_NATIVE]
                    exp[f"table3/{day}"] = {
                        "classes": spatial_truth(ds.u_hi[native], ds.u_lo[native])["classes"]}
    if ds.name == "dense":
        week_ids = np.unique(np.concatenate([ds.day_ids[index[d]] for d in pl["week"]]))
        exp["census/week"] = census_truth(week_ids, cat, ds.u_hi, mac)
        native = week_ids[cat[week_ids] == gen.CAT_NATIVE]
        exp["table3/week"] = {
            "classes": spatial_truth(ds.u_hi[native], ds.u_lo[native])["classes"]}
        exp["render"] = {"nonempty": True}
    return exp


def check(outputs: Dict[str, Any], exp: Dict[str, Dict[str, Any]],
          prefix: str = "") -> Tuple[int, List[str]]:
    """Score one run: (operations attempted, list of failure messages).

    Every operation the pipeline was asked for is attempted.  One fails
    if it is missing (the pipeline raised before producing it), or if
    any field its reference gives disagrees.  Outputs of operations
    without a reference count as attempted only.
    """
    failures: List[str] = []
    for op, want in exp.items():
        got = outputs.get(op)
        if got is None:
            failures.append(f"{prefix}{op}: missing")
            continue
        for key, value in want.items():
            if got.get(key) != value:
                failures.append(f"{prefix}{op}.{key}: got {got.get(key)!r}, want {value!r}")
                break
    attempted = len(set(exp) | set(outputs))
    return attempted, failures
