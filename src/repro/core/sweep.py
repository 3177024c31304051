"""Incremental sliding-window sweep engine for temporal classification (§5.1).

The paper's question — "which of this day's addresses are nd-stable?" —
can be answered by re-scanning every day of the ``(-before, +after)``
window, but classifying *every* day of a store that way touches each day
array ``window``-many times.  This module is the one temporal engine: it
classifies every requested day in one chronological pass, and
:func:`repro.core.temporal.classify_day` is its one-day case.

The core observation: for an address active on reference day ``r``, the
classifier's per-address extremes are exactly the first and last days the
address was observed within ``[r - before, r + after]`` — and because the
address *is* observed on ``r``, those extremes can be read off the
address's global observation sequence with two binary searches.  So the
engine:

1. concatenates the window days' ``(hi, lo)`` address columns with a
   parallel day column (each day array touched once);
2. maps each address to an order-preserving int64 id
   (:func:`repro.data.store.address_ids`: dense ranks of each column)
   and each observation to the key ``id * scale + day-offset``, which
   sorts like (address, day) — so one values-only ``np.sort`` of int64
   keys replaces a two-column ``lexsort`` and its permutation;
3. answers every reference observation's window query with two
   vectorized binary searches of the sorted keys against themselves;
   ``scale`` leaves a margin wider than the window, so a query never
   leaves its address's key range and the gap is a key difference;
4. regroups the gaps by day with a stable (radix) sort of the day
   offsets: ids follow address order, so each day's rows come out in
   that day's array order, with no scatter.

The emitted :class:`~repro.core.temporal.StabilityResult` objects are
bit-identical to the per-day window rescan and to the former
column-``lexsort`` chunk engine (both kept as test oracles), while
each day array is touched O(1) times instead of O(window).

Long campaigns are processed in bounded-memory chunks of reference days
(overlapping by the window so results stay exact), and chunks can be
fanned out over ``fork``-based worker processes — across disjoint day
ranges and, via :func:`sweep_granularities`, across prefix granularities
(/128 addresses and /64 prefixes) simultaneously.

:class:`SweepState` is the engine's incremental form for streaming: a
window state that days enter (``push_day``) and leave (``evict_before``),
holding the live window's observations merged and sorted so any buffered
day can be classified without rebuilding a store.  It never sorts: a
pushed day is merged in with one 128-bit ``searchsorted``
(:func:`repro.data.store.search_sorted`) and eviction is an
order-preserving filter.
:class:`repro.core.streaming.StabilityStream` is built on it.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.mra import _as_address_array
from repro.core.temporal import (
    DEFAULT_WINDOW_AFTER,
    DEFAULT_WINDOW_BEFORE,
    StabilityResult,
)
from repro.data import store as obstore
from repro.data.store import ADDRESS_DTYPE, ObservationStore
from repro.runtime.checkpoint import SweepCheckpoint, sweep_signature
from repro.runtime.pool import PoolConfig, RunReport, resolve_jobs, run_supervised

#: Reference days per chunk: bounds peak memory (a chunk loads
#: ``chunk + before + after`` day arrays) and is the unit of parallelism.
DEFAULT_CHUNK_DAYS = 64


class _SortedWindow:
    """Observations of several days, sorted by (address, day): the live
    window of :class:`SweepState`.

    ``hi``/``lo``/``day`` are the sorted columns; ``gid`` numbers
    equal-address runs; ``key = gid * scale + day-offset`` lets
    per-address day ranges be located with global ``searchsorted``.
    Building one from sorted columns is O(n): no sort.

    ``margin`` must be at least ``before + after + 1`` of any window
    later queried, so that out-of-range query keys cannot cross into a
    neighbouring address's key range.
    """

    __slots__ = ("hi", "lo", "day", "gid", "key", "scale", "offset")

    def __init__(
        self, hi: np.ndarray, lo: np.ndarray, day: np.ndarray, margin: int
    ) -> None:
        self.hi = hi
        self.lo = lo
        self.day = day
        n = day.shape[0]
        boundary = np.empty(n, dtype=bool)
        boundary[0] = True
        boundary[1:] = (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])
        self.gid = np.cumsum(boundary, dtype=np.int64) - 1
        self.offset = int(day.min())
        span = int(day.max()) - self.offset + 1
        self.scale = span + int(margin)
        if (int(self.gid[-1]) + 1) * self.scale >= 2**62:
            raise ValueError(
                "day span too large for sweep keys; reduce chunk_days"
            )
        self.key = self.gid * self.scale + (day - self.offset)

    def extremes(
        self,
        positions: np.ndarray,
        low: "np.ndarray | int",
        high: "np.ndarray | int",
    ) -> Tuple[np.ndarray, np.ndarray]:
        """First and last observation day, within ``[low, high]``, of the
        address at each queried (sorted-order) position.

        ``low``/``high`` may be scalars or arrays parallel to
        ``positions``.  Each queried position's own day must lie inside
        its ``[low, high]`` (true for window queries: the reference day
        observation is its own witness), which guarantees both searches
        land inside the address's run.
        """
        base = self.gid[positions] * self.scale
        first = np.searchsorted(self.key, base + (low - self.offset), side="left")
        last = (
            np.searchsorted(self.key, base + (high - self.offset), side="right") - 1
        )
        return self.day[first], self.day[last]


def _concat_columns(
    arrays: Sequence[np.ndarray], days: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate day arrays into (hi, lo, day) columns."""
    sizes = [array.shape[0] for array in arrays]
    hi = np.concatenate([array["hi"] for array in arrays])
    lo = np.concatenate([array["lo"] for array in arrays])
    day = np.repeat(np.asarray(days, dtype=np.int64), sizes)
    return hi, lo, day


def _address_day_keys(
    hi: np.ndarray, lo: np.ndarray, day: np.ndarray, offset: int, scale: int
) -> np.ndarray:
    """Int64 keys ``address_id * scale + (day - offset)``.

    Keys sort like (address, day).  When the rank-product id bound times
    ``scale`` would pass 2**62, the ids are first re-ranked densely (one
    id per distinct address); only that many distinct addresses raise.
    """
    ids, bound = obstore.address_ids(hi, lo)
    if bound * scale >= 2**62:
        ids, bound = obstore.dense_ranks(ids)
        if bound * scale >= 2**62:
            raise ValueError("day span too large for sweep keys; reduce chunk_days")
    return ids * scale + (day - offset)


def grouped_spans(
    arrays: Sequence[np.ndarray], days: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-address (addresses, first, last, days_seen) over day arrays.

    The sweep engine's grouped pass without a window: one numeric sort of
    int64 (address id, day) keys instead of a structured ``np.unique``
    plus scalar-dispatch ``ufunc.at`` updates.  Backs
    :func:`repro.core.churn.observation_spans`.
    """
    total = sum(array.shape[0] for array in arrays)
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return np.empty(0, dtype=ADDRESS_DTYPE), empty, empty.copy(), empty.copy()
    hi, lo, day = _concat_columns(arrays, [int(d) for d in days])
    offset = int(day.min())
    scale = int(day.max()) - offset + 1
    key = _address_day_keys(hi, lo, day, offset, scale)
    order = np.argsort(key)
    key = key[order]
    # Runs of equal ``key // scale`` are one address's days, in order.
    address_id = key // scale
    starts = np.flatnonzero(np.diff(address_id, prepend=-1))
    ends = np.append(starts[1:], total)
    day = key - address_id * scale + offset
    rows = order[starts]
    addresses = np.empty(starts.shape[0], dtype=ADDRESS_DTYPE)
    addresses["hi"] = hi[rows]
    addresses["lo"] = lo[rows]
    return addresses, day[starts], day[ends - 1], ends - starts


def _plan_chunks(ref_days: Sequence[int], chunk_days: int) -> List[List[int]]:
    """Split sorted reference days into chunks of bounded day span."""
    chunks: List[List[int]] = []
    current = [ref_days[0]]
    for day in ref_days[1:]:
        if day - current[0] >= chunk_days:
            chunks.append(current)
            current = [day]
        else:
            current.append(day)
    chunks.append(current)
    return chunks


def _sweep_chunk(
    observations: ObservationStore,
    ref_days: Sequence[int],
    window_before: int,
    window_after: int,
) -> List[Tuple[int, np.ndarray]]:
    """Classify one chunk of reference days; return (day, gaps) pairs.

    Gaps arrays are parallel to each reference day's sorted address
    array; absent days yield empty arrays.
    """
    low = ref_days[0] - window_before
    high = ref_days[-1] + window_after
    window_days = [day for day in observations.days() if low <= day <= high]
    arrays = [observations.array(day) for day in window_days]
    if sum(array.shape[0] for array in arrays) == 0:
        return [(day, np.empty(0, dtype=np.int64)) for day in ref_days]
    hi, lo, day_col = _concat_columns(arrays, window_days)
    offset = window_days[0]
    span = window_days[-1] - offset + 1
    # The margin keeps every window query inside its own address's keys.
    scale = span + window_before + window_after + 1
    key = np.sort(_address_day_keys(hi, lo, day_col, offset, scale))
    day_offset = key % scale
    # Boundary days are context only: their own windows leave the chunk.
    is_ref = np.zeros(span, dtype=bool)
    for day in ref_days:
        if 0 <= day - offset < span:
            is_ref[day - offset] = True
    ref_rows = np.flatnonzero(is_ref[day_offset])
    query = key[ref_rows]
    first = np.searchsorted(key, query - window_before, side="left")
    last = np.searchsorted(key, query + window_after, side="right") - 1
    # Both ends hold the queried address, so key differences are day gaps.
    gaps = key[last] - key[first]
    # Regroup by day.  Within a day, ids (hence keys) follow address
    # order, which is the day array's order; a stable sort of <=16-bit
    # offsets is a radix sort.
    ref_offset = day_offset[ref_rows]
    if span <= 1 << 16:
        ref_offset = ref_offset.astype(np.uint16)
    gaps = gaps[np.argsort(ref_offset, kind="stable")]
    out: List[Tuple[int, np.ndarray]] = []
    start = 0
    for day in ref_days:
        size = observations.array(day).shape[0]
        out.append((day, gaps[start : start + size]))
        start += size
    return out


# ---------------------------------------------------------------------------
# Parallel fan-out: chunks (and granularities) over fork-based workers.
# ---------------------------------------------------------------------------

#: Stores inherited by forked workers (set immediately before the pool is
#: created; fork shares the parent's memory copy-on-write, so the stores
#: are never pickled).
_WORKER_STORES: Dict[int, ObservationStore] = {}


def _worker_sweep(
    task: Tuple[int, Sequence[int], int, int]
) -> Tuple[int, List[Tuple[int, np.ndarray]]]:
    """Pool worker: run one (store key, chunk) task against the inherited
    stores."""
    key, ref_days, window_before, window_after = task
    return key, _sweep_chunk(_WORKER_STORES[key], ref_days, window_before, window_after)


def _sweep_stores(
    stores: Dict[int, ObservationStore],
    ref_days: Sequence[int],
    window_before: int,
    window_after: int,
    jobs: Optional[int],
    chunk_days: int,
    checkpoint_dir: Optional[str] = None,
    report_sink: Optional[List[RunReport]] = None,
) -> Dict[int, Dict[int, np.ndarray]]:
    """Sweep several stores over the same reference days.

    Returns ``{store key: {day: gaps}}``.  With ``jobs`` workers, all
    (store, chunk) tasks share one supervised fork-based pool
    (:func:`repro.runtime.pool.run_supervised`), so parallelism spans
    both disjoint day ranges and prefix granularities while crashed or
    wedged workers are retried and finally re-run serially.

    With ``checkpoint_dir``, each completed chunk is persisted
    atomically as it lands (in completion order) and valid chunks from
    a previous identically-parameterized run are loaded instead of
    recomputed — the kill-and-resume path.  Results are bit-identical
    with or without checkpointing, resumption, ``jobs``, or
    ``chunk_days``.
    """
    if window_before < 0 or window_after < 0:
        raise ValueError("window spans must be non-negative")
    if chunk_days < 1:
        raise ValueError(f"chunk_days must be >= 1: {chunk_days}")
    gaps: Dict[int, Dict[int, np.ndarray]] = {key: {} for key in stores}
    if not ref_days:
        return gaps
    chunks = _plan_chunks(ref_days, chunk_days)
    checkpoint: Optional[SweepCheckpoint] = None
    if checkpoint_dir is not None:
        checkpoint = SweepCheckpoint(
            checkpoint_dir,
            sweep_signature(
                stores, ref_days, window_before, window_after, chunk_days
            ),
        )
    tasks: List[Tuple[int, Sequence[int], int, int]] = []
    #: parallel to ``tasks``: the (store key, chunk index, chunk) behind each.
    task_meta: List[Tuple[int, int, List[int]]] = []
    for key in stores:
        for chunk_index, chunk in enumerate(chunks):
            if checkpoint is not None:
                cached = checkpoint.load_chunk(key, chunk_index, chunk)
                if cached is not None:
                    gaps[key].update(cached)
                    continue
            tasks.append((key, chunk, window_before, window_after))
            task_meta.append((key, chunk_index, chunk))
    if not tasks:
        # Fully resumed from checkpoints: report an empty run so callers
        # can tell "nothing recomputed" from "no report collected".
        if report_sink is not None:
            report_sink.append(RunReport(label="sweep", tasks=0))
        return gaps
    workers = min(resolve_jobs(jobs), len(tasks))

    def on_result(
        index: int, value: Tuple[int, List[Tuple[int, np.ndarray]]]
    ) -> None:
        key, chunk_result = value
        gaps[key].update(chunk_result)
        if checkpoint is not None:
            _store_key, chunk_index, _chunk = task_meta[index]
            checkpoint.save_chunk(key, chunk_index, chunk_result)

    _WORKER_STORES.update(stores)
    try:
        _results, report = run_supervised(
            _worker_sweep,
            tasks,
            PoolConfig(jobs=workers, label="sweep"),
            on_result=on_result,
        )
    finally:
        _WORKER_STORES.clear()
    if report_sink is not None:
        report_sink.append(report)
    return gaps


def _normalized_days(
    observations: ObservationStore, days: Optional[Sequence[int]]
) -> List[int]:
    """The sorted, deduplicated reference day list for a sweep."""
    if days is None:
        return observations.days()
    return sorted({int(day) for day in days})


def sweep_days(
    observations: ObservationStore,
    days: Optional[Sequence[int]] = None,
    window_before: int = DEFAULT_WINDOW_BEFORE,
    window_after: int = DEFAULT_WINDOW_AFTER,
    jobs: Optional[int] = None,
    chunk_days: int = DEFAULT_CHUNK_DAYS,
    checkpoint_dir: Optional[str] = None,
    report_sink: Optional[List[RunReport]] = None,
) -> List[StabilityResult]:
    """Classify every requested day of the store in one rolling pass.

    Bit-identical to rescanning each reference day's window separately,
    but each day array is touched O(1) times instead of once per
    overlapping window.  ``days`` defaults to every day in the store;
    days absent from the store yield empty results.

    ``jobs`` fans chunks of ``chunk_days`` reference days out over
    supervised fork-based worker processes (``0`` = all CPUs,
    ``None``/``1`` = serial); ``checkpoint_dir`` persists each completed
    chunk atomically so a killed sweep resumes from its last checkpoint;
    ``report_sink`` receives the pool's
    :class:`repro.runtime.pool.RunReport`.  Results are independent of
    ``jobs``, ``chunk_days``, checkpointing, and resumption.
    """
    ref_days = _normalized_days(observations, days)
    gaps = _sweep_stores(
        {0: observations},
        ref_days,
        window_before,
        window_after,
        jobs,
        chunk_days,
        checkpoint_dir=checkpoint_dir,
        report_sink=report_sink,
    )[0]
    return [
        StabilityResult(
            reference_day=day,
            window=(window_before, window_after),
            active=observations.array(day),
            gaps=gaps[day],
        )
        for day in ref_days
    ]


def sweep_granularities(
    observations: ObservationStore,
    prefix_lens: Iterable[int],
    days: Optional[Sequence[int]] = None,
    window_before: int = DEFAULT_WINDOW_BEFORE,
    window_after: int = DEFAULT_WINDOW_AFTER,
    jobs: Optional[int] = None,
    chunk_days: int = DEFAULT_CHUNK_DAYS,
    checkpoint_dir: Optional[str] = None,
    report_sink: Optional[List[RunReport]] = None,
) -> Dict[int, List[StabilityResult]]:
    """Sweep several prefix granularities of one store at once.

    ``prefix_lens`` names the granularities (128 = full addresses; 64 =
    the paper's /64 prefixes; any length works).  All granularities'
    chunks share one supervised worker pool, so a two-granularity year
    sweep keeps ``jobs`` workers busy throughout.  Returns
    ``{prefix_len: results}`` with each list equal to
    :func:`sweep_days` on the derived store.  ``checkpoint_dir`` and
    ``report_sink`` behave as in :func:`sweep_days`; checkpoint entries
    are keyed per granularity.
    """
    stores = {
        int(p): observations if int(p) >= 128 else observations.truncated(int(p))
        for p in prefix_lens
    }
    ref_days = _normalized_days(observations, days)
    gaps = _sweep_stores(
        stores,
        ref_days,
        window_before,
        window_after,
        jobs,
        chunk_days,
        checkpoint_dir=checkpoint_dir,
        report_sink=report_sink,
    )
    return {
        p: [
            StabilityResult(
                reference_day=day,
                window=(window_before, window_after),
                active=store.array(day),
                gaps=gaps[p][day],
            )
            for day in ref_days
        ]
        for p, store in stores.items()
    }


class SweepState:
    """The sweep engine's incremental window state, for streaming use.

    Days enter with :meth:`push_day` (chronological order) and leave with
    :meth:`evict_before`; :meth:`classify` answers for any buffered
    reference day, bit-identical to :func:`sweep_days` over a store
    holding the same days.  The buffered observations are kept merged
    and sorted by (address, day) incrementally: a pushed day is the
    latest, so its sorted rows slot in after every equal address with
    one 128-bit ``searchsorted``, and eviction is an order-preserving
    day-mask filter.  Run ids and keys are rebuilt in O(n) at most once
    per change; nothing is ever re-sorted.
    """

    def __init__(
        self,
        window_before: int = DEFAULT_WINDOW_BEFORE,
        window_after: int = DEFAULT_WINDOW_AFTER,
    ) -> None:
        if window_before < 0 or window_after < 0:
            raise ValueError("window spans must be non-negative")
        self.window_before = window_before
        self.window_after = window_after
        self._days: "deque[int]" = deque()
        self._hi = np.empty(0, dtype=np.uint64)
        self._lo = np.empty(0, dtype=np.uint64)
        self._day = np.empty(0, dtype=np.int64)
        self._window: Optional[_SortedWindow] = None

    @property
    def days_held(self) -> int:
        """Number of days currently buffered."""
        return len(self._days)

    def push_day(self, day: int, addresses: np.ndarray) -> None:
        """Add one day's sorted address array to the live window."""
        day = int(day)
        if self._days and day <= self._days[-1]:
            raise ValueError(
                f"days must be pushed in increasing order: {day} after "
                f"{self._days[-1]}"
            )
        self._days.append(day)
        addresses = _as_address_array(addresses)
        if addresses.shape[0] == 0:
            return
        # Equal addresses already held are from earlier days: insert after.
        slots = obstore.search_sorted(
            self._hi, self._lo, addresses["hi"], addresses["lo"], side="right"
        )
        self._hi = np.insert(self._hi, slots, addresses["hi"])
        self._lo = np.insert(self._lo, slots, addresses["lo"])
        self._day = np.insert(self._day, slots, day)
        self._window = None

    def evict_before(self, day: int) -> None:
        """Drop buffered days earlier than ``day`` from the window."""
        evicted = False
        while self._days and self._days[0] < day:
            self._days.popleft()
            evicted = True
        if evicted:
            keep = self._day >= day
            self._hi, self._lo, self._day = (
                self._hi[keep], self._lo[keep], self._day[keep]
            )
            self._window = None

    def _sorted_window(self) -> Optional[_SortedWindow]:
        if self._window is None and self._day.shape[0]:
            self._window = _SortedWindow(
                self._hi,
                self._lo,
                self._day,
                margin=self.window_before + self.window_after + 1,
            )
        return self._window

    def classify(self, reference: int) -> StabilityResult:
        """Classify a buffered reference day within the live window.

        Days outside ``[reference - before, reference + after]`` that are
        still buffered (e.g. after a gap jump) are excluded by the key
        query, not by eviction, so classification never depends on
        eviction timing.
        """
        reference = int(reference)
        window = self._sorted_window()
        if window is None:
            qpos = np.empty(0, dtype=np.int64)
        else:
            qpos = np.nonzero(window.day == reference)[0]
        active = np.empty(qpos.shape[0], dtype=ADDRESS_DTYPE)
        if qpos.shape[0]:
            active["hi"] = window.hi[qpos]
            active["lo"] = window.lo[qpos]
            first, last = window.extremes(
                qpos, reference - self.window_before, reference + self.window_after
            )
            gaps = last - first
        else:
            gaps = np.empty(0, dtype=np.int64)
        return StabilityResult(
            reference_day=reference,
            window=(self.window_before, self.window_after),
            active=active,
            gaps=gaps,
        )
