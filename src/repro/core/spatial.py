"""Array-native spatial classification engine (§5.2).

The paper's spatial methods — MRA count ratios (§5.2.1), aggregate
population CCDFs (§5.2.2) and the aguri-style *densify* operation behind
Table 3 (§5.2.3) — all interrogate the same object: the prefix structure
of a sorted address set.  The paper describes densify as a post-order
fold over a Patricia tree with one node per address; this engine
computes the identical answers directly on the canonical ``(hi, lo)``
columnar address arrays, with no tree:

* One vectorized **adjacent-LCP scan**
  (:func:`repro.core.mra.adjacent_common_prefix_lengths`) is shared by
  every spatial question about a set.
* **Fixed-length /p groups** are the runs between LCP entries below p
  (:func:`prefix_runs`), giving Table 3 rows and aggregate populations
  without re-truncating and re-sorting per length.
* **Patricia branch points** are exactly the LCP entries: the branch
  node split at adjacent pair i has prefix length ``lcp[i]``, and its
  subtree spans the maximal run of pairs with LCP >= ``lcp[i]``.  The
  nearest-smaller-value bounds of each entry (computed by vectorized
  pointer doubling) therefore recover every node's (length, count), and
  the paper's *general densify* reduces to an interval sweep: report the
  dense nodes not covered by any dense ancestor interval
  (:func:`general_dense_prefixes`) — bit-identical to building the
  radix tree and folding it (the tree is kept as a test oracle and
  asserted against in ``benchmarks/bench_spatial.py``).

Per-day spatial profiles over a whole store run through
:func:`sweep_spatial`, which mirrors :mod:`repro.core.sweep`'s
fork-based ``jobs=N`` fan-out and can apply the paper's census culling
step (§4.1) so the spatial classes describe the native "Other" subset,
as in the paper's Section 6 results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.mra import (
    ArrayOrAddresses,
    _as_address_array,
    adjacent_common_prefix_lengths,
    counts_from_lengths,
)
from repro.data.store import ObservationStore
from repro.net import addr
from repro.net.prefix import check_length
from repro.runtime.pool import PoolConfig, RunReport, resolve_jobs, run_supervised


def density_threshold(n: int, p: int, length: int) -> int:
    """Minimum count for a length-``length`` prefix to meet n@/p density.

    The desired minimum density is ``n / 2**(128 - p)``.  A length-``q``
    prefix spans ``2**(128 - q)`` addresses, so it meets the density when
    its count is at least ``n * 2**(p - q)`` — which for ``q > p`` is a
    fraction, i.e. any single observation suffices.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1: {n}")
    check_length(p)
    check_length(length)
    if length >= p:
        shift = length - p
        # ceil(n / 2**shift), never below 1.
        return max(1, (n + (1 << shift) - 1) >> shift)
    return n << (p - length)


def widen_dense_prefixes(
    found: Iterable[Tuple[int, int, int]], p: int
) -> List[Tuple[int, int, int]]:
    """Widen reported prefixes longer than ``p`` to exactly /p and merge.

    Prefixes longer than ``p`` are truncated to /p, and clusters landing
    on the same /p have their counts summed.  Prefixes already shorter
    than (or equal to) ``p`` are kept as-is — and because widening only
    *shortens* lengths down to ``p``, a widened /p can come to sit inside
    a kept shorter prefix when the input list contains nested prefixes
    (e.g. reports from a tree holding explicitly inserted prefixes, or
    dense lists merged across days).  Such nested entries are dropped
    after widening: a containing prefix's count already includes the
    addresses of everything below it, so keeping both would double-count.
    The result is guaranteed non-overlapping whenever containing prefixes
    carry subtree-total counts (as all densify reports do).
    """
    check_length(p)
    merged: Dict[Tuple[int, int], int] = {}
    for network, length, count in found:
        if length > p:
            network, length = addr.truncate(network, p), p
        key = (network, length)
        merged[key] = merged.get(key, 0) + count
    result: List[Tuple[int, int, int]] = []
    # Sorted by (network, length), a nested prefix immediately follows a
    # prefix that contains it or is disjoint from every kept one, so a
    # single look-back at the last kept entry suffices.
    for (network, length), count in sorted(merged.items()):
        if result:
            kept_network, kept_length, _kept_count = result[-1]
            if kept_length <= length and addr.truncate(network, kept_length) == kept_network:
                continue
        result.append((network, length, count))
    return result


#: Counts are array sizes, far below 2**62; thresholds above this cap can
#: never be met, so the table stays within int64.
_THRESHOLD_CAP = 1 << 62


def threshold_table(n: int, p: int) -> np.ndarray:
    """Density thresholds for every node length, as an int64 lookup table.

    ``table[length]`` is the minimum subtree count for a length-``length``
    node to meet the ``n@/p`` density, per :func:`density_threshold`;
    astronomically large thresholds (short lengths far above ``p``) are
    clipped to an unreachable cap so the table fits int64.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1: {n}")
    check_length(p)
    return np.array(
        [min(density_threshold(n, p, length), _THRESHOLD_CAP) for length in range(129)],
        dtype=np.int64,
    )


def _nearest_smaller_left(values: np.ndarray) -> np.ndarray:
    """Index of the nearest strictly smaller value to the left (-1 if none).

    Vectorized pointer doubling: every unresolved index jumps to its
    candidate's candidate, so chains of equal-or-larger values collapse
    geometrically — O(log n) passes of O(n) vector work, no Python loop
    over elements.
    """
    size = values.shape[0]
    out = np.arange(-1, size - 1, dtype=np.int64)
    while True:
        resolved_or_done = out < 0
        candidate = np.where(resolved_or_done, 0, out)
        need = ~resolved_or_done & (values[candidate] >= values)
        if not need.any():
            return out
        out[need] = out[out[need]]


def _nearest_smaller_right(values: np.ndarray) -> np.ndarray:
    """Index of the nearest strictly smaller value to the right (``size`` if none)."""
    size = values.shape[0]
    return (size - 1) - _nearest_smaller_left(values[::-1])[::-1]


def prefix_runs(
    array: np.ndarray, p: int, lengths: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Run-length encode a canonical address array into /p groups.

    Returns ``(starts, counts)``: index of each active /p prefix's first
    address, and the number of distinct addresses it contains, in
    ascending network order.  Adjacent addresses share a /p exactly when
    their common prefix is at least p long, so group boundaries are the
    LCP entries below p — no per-length truncate/sort/unique pass.
    """
    check_length(p)
    size = int(array.shape[0])
    if size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    if lengths is None:
        lengths = adjacent_common_prefix_lengths(array)
    boundaries = np.nonzero(lengths < p)[0]
    starts = np.concatenate([[0], boundaries + 1])
    ends = np.concatenate([boundaries + 1, [size]])
    return starts, ends - starts


def _network_int(array: np.ndarray, index: int, length: int) -> int:
    """The /length network containing the address at ``index``, as an int."""
    value = (int(array["hi"][index]) << 64) | int(array["lo"][index])
    return addr.truncate(value, length)


def dense_runs(
    array: np.ndarray,
    n: int,
    p: int,
    lengths: Optional[np.ndarray] = None,
) -> Tuple[List[Tuple[int, int, int]], int]:
    """Fixed-length dense search: /p groups holding at least n addresses.

    Returns the dense (network, p, count) list in ascending network order
    and the total number of observed addresses inside dense groups — the
    two quantities a Table 3 row accounts for.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1: {n}")
    starts, counts = prefix_runs(array, p, lengths)
    dense = counts >= n
    dense_starts = starts[dense]
    dense_counts = counts[dense]
    prefixes = [
        (_network_int(array, int(start), p), p, int(count))
        for start, count in zip(dense_starts, dense_counts)
    ]
    return prefixes, int(dense_counts.sum())


def general_dense_prefixes(
    addresses: ArrayOrAddresses,
    n: int,
    p: int,
    widen: bool = False,
    lengths: Optional[np.ndarray] = None,
) -> List[Tuple[int, int, int]]:
    """Vectorized general densify: the paper's §5.2.3 on columnar arrays.

    Returns the least-specific non-overlapping prefixes meeting density
    ``n / 2**(128 - p)`` that contain at least n observed addresses, as
    (network, length, count) tuples sorted by network — what building a
    per-address radix tree and folding it post-order reports, but
    computed from the adjacent-LCP array:

    1. every Patricia branch node is an LCP entry; its subtree count is
       the width of the maximal surrounding run of LCPs at least as long
       (nearest-smaller bounds, by vectorized pointer doubling);
    2. a node is *dense* when its count meets the density threshold for
       its own length (the densify fold condition);
    3. the reported nodes are the dense nodes whose pair-interval is
       covered by no other dense interval — absorbing folds every dense
       node into its shallowest dense ancestor, so exactly the
       coverage-1 intervals survive (one difference-array cumsum).

    Dense aggregates form at Patricia branch points, so a cluster whose
    addresses share, say, 125 leading bits reports as a /125 even when
    the requested class is 2@/112.  With ``widen=True`` any reported
    prefix longer than ``p`` is widened to exactly /p via
    :func:`widen_dense_prefixes`, the useful form for generating
    /p-sized scan targets.

    The tree implementation is kept as a test oracle; the equivalence is
    asserted property-style in the tests and in ``bench_spatial.py``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1: {n}")
    check_length(p)
    array = _as_address_array(addresses)
    size = int(array.shape[0])
    if size == 0:
        return []
    table = threshold_table(n, p)
    root_threshold = int(table[0])
    if size == 1:
        # Lone address: the only internal node is the root itself.
        if size >= root_threshold and size >= n:
            return [(0, 0, size)]
        return []
    if lengths is None:
        lengths = adjacent_common_prefix_lengths(array)
    if int(lengths.min()) > 0 and size >= root_threshold:
        # The root is not a branch point but meets the density: it
        # absorbs the entire tree, exactly as the post-order fold does.
        return [(0, 0, size)] if size >= n else []
    left = _nearest_smaller_left(lengths)
    right = _nearest_smaller_right(lengths)
    counts = right - left  # addresses spanned by each branch node
    dense = counts >= table[lengths]
    num_pairs = size - 1
    coverage_delta = np.zeros(num_pairs + 1, dtype=np.int64)
    np.add.at(coverage_delta, left[dense] + 1, 1)
    np.add.at(coverage_delta, right[dense], -1)
    coverage = np.cumsum(coverage_delta[:num_pairs])
    reported = dense & (coverage == 1) & (counts >= n)
    indices = np.nonzero(reported)[0]
    found = [
        (
            _network_int(array, int(left[i]) + 1, int(lengths[i])),
            int(lengths[i]),
            int(counts[i]),
        )
        for i in indices
    ]
    found.sort()
    if widen:
        return widen_dense_prefixes(found, p)
    return found


# ---------------------------------------------------------------------------
# Per-day spatial sweep: one engine pass per day, fork-based fan-out.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DenseSummary:
    """The Table 3 accounting of one density class on one address set."""

    n: int
    p: int
    num_prefixes: int
    contained_addresses: int

    @property
    def label(self) -> str:
        """The paper's notation, e.g. ``"2 @ /112"``."""
        return f"{self.n} @ /{self.p}"

    @property
    def possible_addresses(self) -> int:
        """Total addresses spanned: the active-probing target budget."""
        return self.num_prefixes * (1 << (128 - self.p))

    @property
    def address_density(self) -> float:
        """Observed contained addresses divided by possible addresses."""
        if self.possible_addresses == 0:
            return 0.0
        return self.contained_addresses / self.possible_addresses


@dataclass
class SpatialDayResult:
    """One day's spatial profile: MRA counts plus per-class dense rows.

    Attributes:
        day: the profiled day number.
        total: distinct addresses profiled (after any culling).
        mra_counts: the full ``n_0..n_128`` aggregate-count vector
            (``None`` when the sweep ran with ``mra=False``).
        dense: one :class:`DenseSummary` per requested density class.
        prefixes: the dense (network, length, count) lists per class
            label, kept only with ``keep_prefixes=True`` (they can be
            large; the summaries are what year-scale sweeps aggregate).
    """

    day: int
    total: int
    mra_counts: Optional[np.ndarray]
    dense: List[DenseSummary]
    prefixes: Optional[Dict[str, List[Tuple[int, int, int]]]] = None


def _class_params(density_class: object) -> Tuple[int, int]:
    """Accept DensityClass-like objects or plain (n, p) tuples."""
    n = getattr(density_class, "n", None)
    p = getattr(density_class, "p", None)
    if n is None or p is None:
        n, p = density_class  # type: ignore[misc]
    return int(n), int(p)


def day_spatial_summary(
    addresses: ArrayOrAddresses,
    classes: Sequence[object],
    day: int = 0,
    mra: bool = True,
    keep_prefixes: bool = False,
) -> SpatialDayResult:
    """Profile one address set: shared LCP scan, then every spatial leg.

    The LCP array is computed once and feeds the MRA count vector and
    every density class's run encoding — each extra class costs one
    vectorized comparison over the LCP array, not a fresh sort.
    """
    array = _as_address_array(addresses)
    size = int(array.shape[0])
    lengths = (
        adjacent_common_prefix_lengths(array) if size else np.empty(0, dtype=np.int64)
    )
    mra_counts = counts_from_lengths(lengths, size) if mra else None
    dense: List[DenseSummary] = []
    prefixes: Optional[Dict[str, List[Tuple[int, int, int]]]] = (
        {} if keep_prefixes else None
    )
    for density_class in classes:
        n, p = _class_params(density_class)
        found, contained = dense_runs(array, n, p, lengths)
        summary = DenseSummary(
            n=n, p=p, num_prefixes=len(found), contained_addresses=contained
        )
        dense.append(summary)
        if prefixes is not None:
            prefixes[summary.label] = found
    return SpatialDayResult(
        day=int(day),
        total=size,
        mra_counts=mra_counts,
        dense=dense,
        prefixes=prefixes,
    )


#: Store inherited by forked sweep workers (fork shares the parent's
#: memory copy-on-write, so day arrays are never pickled to workers).
_WORKER_STORE: Dict[int, ObservationStore] = {}


def _cull_other(array: np.ndarray) -> np.ndarray:
    """The native ("Other") subset of a day array, per the census step."""
    from repro.core.census import other_mask

    return array[other_mask(array)]


def _sweep_day_task(
    task: Tuple[Sequence[int], Sequence[object], bool, bool, bool]
) -> List[SpatialDayResult]:
    """Pool worker: profile one batch of days against the inherited store."""
    days, classes, mra, keep_prefixes, cull = task
    store = _WORKER_STORE[0]
    results: List[SpatialDayResult] = []
    for day in days:
        array = store.array(day)
        if cull:
            array = _cull_other(array)
        results.append(
            day_spatial_summary(
                array, classes, day=day, mra=mra, keep_prefixes=keep_prefixes
            )
        )
    return results


def sweep_spatial(
    observations: ObservationStore,
    days: Optional[Sequence[int]] = None,
    classes: Optional[Sequence[object]] = None,
    jobs: Optional[int] = None,
    mra: bool = True,
    keep_prefixes: bool = False,
    cull: bool = False,
    report_sink: "Optional[List[RunReport]]" = None,
) -> List[SpatialDayResult]:
    """Spatial profile of every requested day of a store.

    The spatial mirror of :func:`repro.core.sweep.sweep_days`: one
    :class:`SpatialDayResult` per day, with ``jobs`` fanning day batches
    out over supervised fork-based worker processes
    (:func:`repro.runtime.pool.run_supervised` — ``0`` = all CPUs,
    ``None``/``1`` = serial; crashed or wedged workers are retried, then
    re-run serially); results are independent of ``jobs``.
    ``report_sink`` receives the pool's
    :class:`repro.runtime.pool.RunReport`.  ``classes`` defaults to the
    twelve Table 3 classes.  With ``cull=True`` each day is first
    reduced to its native "Other" subset (the paper's §4.1 hand-off from
    the census to the classifiers).  Days absent from the store yield
    empty profiles.
    """
    from repro.core.density import TABLE3_CLASSES

    if classes is None:
        classes = TABLE3_CLASSES
    if days is None:
        day_list = observations.days()
    else:
        day_list = sorted({int(day) for day in days})
    if not day_list:
        return []
    workers = min(resolve_jobs(jobs), len(day_list))
    if workers > 1:
        batches = [list(batch) for batch in np.array_split(day_list, workers * 4)]
        tasks = [
            (batch, tuple(classes), mra, keep_prefixes, cull)
            for batch in batches
            if batch
        ]
        _WORKER_STORE[0] = observations
        try:
            outputs, report = run_supervised(
                _sweep_day_task,
                tasks,
                PoolConfig(jobs=workers, label="spatial-sweep"),
            )
        finally:
            _WORKER_STORE.clear()
        if report_sink is not None:
            report_sink.append(report)
        return [result for batch_results in outputs for result in batch_results]
    results: List[SpatialDayResult] = []
    for day in day_list:
        array = observations.array(day)
        if cull:
            array = _cull_other(array)
        results.append(
            day_spatial_summary(
                array, classes, day=day, mra=mra, keep_prefixes=keep_prefixes
            )
        )
    return results
