"""Reference sweep chunk: the (address, day) column ``lexsort`` engine.

The test oracle for :func:`repro.core.sweep._sweep_chunk` and
:func:`repro.core.sweep.grouped_spans`, kept verbatim from the engine's
former implementation: the window days' ``(hi, lo, day)`` columns are
ordered by one stable two-column ``np.lexsort``, gathered into a
:class:`_SortedWindow` whose ``gid`` numbers equal-address runs, queried
with ``gid * scale + day`` keys, and the gaps scattered back to each
day's array order through the sort permutation.
"""

from typing import List, Sequence, Tuple

import numpy as np

from repro.data.store import ADDRESS_DTYPE, ObservationStore


class _SortedWindow:
    """Observations of several days, sorted by (address, day).

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


def grouped_spans(
    arrays: Sequence[np.ndarray], days: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-address (addresses, first, last, days_seen) over day arrays.

    The sweep engine's grouped pass without a window: one stable column
    sort by (address, day) instead of a structured ``np.unique`` plus
    scalar-dispatch ``ufunc.at`` updates.  Backs
    :func:`repro.core.churn.observation_spans`.
    """
    total = sum(array.shape[0] for array in arrays)
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return np.empty(0, dtype=ADDRESS_DTYPE), empty, empty.copy(), empty.copy()
    hi, lo, day = _concat_columns(arrays, [int(d) for d in days])
    order = np.lexsort((day, lo, hi))
    shi, slo, sday = hi[order], lo[order], day[order]
    boundary = np.empty(total, dtype=bool)
    boundary[0] = True
    boundary[1:] = (shi[1:] != shi[:-1]) | (slo[1:] != slo[:-1])
    starts = np.nonzero(boundary)[0]
    ends = np.concatenate([starts[1:], [total]])
    addresses = np.empty(starts.shape[0], dtype=ADDRESS_DTYPE)
    addresses["hi"] = shi[starts]
    addresses["lo"] = slo[starts]
    return addresses, sday[starts], sday[ends - 1], ends - starts


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
    sizes = [array.shape[0] for array in arrays]
    total = sum(sizes)
    if total == 0:
        return [(day, np.empty(0, dtype=np.int64)) for day in ref_days]
    hi, lo, day_col = _concat_columns(arrays, window_days)
    # Stable, so each address's rows keep their chronological order.
    order = np.lexsort((lo, hi))
    window = _SortedWindow(
        hi[order], lo[order], day_col[order], margin=window_before + window_after + 1
    )
    # Mark which sorted positions belong to reference days (boundary days
    # are context only — their own windows extend outside this chunk).
    span = int(window.day.max()) - window.offset + 1
    is_ref = np.zeros(span, dtype=bool)
    for day in ref_days:
        if 0 <= day - window.offset < span:
            is_ref[day - window.offset] = True
    qpos = np.nonzero(is_ref[window.day - window.offset])[0]
    gaps_all = np.empty(total, dtype=np.int64)
    if qpos.shape[0]:
        qday = window.day[qpos]
        first, last = window.extremes(qpos, qday - window_before, qday + window_after)
        gaps_all[order[qpos]] = last - first
    starts = np.concatenate([[0], np.cumsum(sizes)])
    day_index = {day: i for i, day in enumerate(window_days)}
    out: List[Tuple[int, np.ndarray]] = []
    for day in ref_days:
        i = day_index.get(day)
        if i is None:
            out.append((day, np.empty(0, dtype=np.int64)))
        else:
            out.append((day, gaps_all[starts[i] : starts[i + 1]]))
    return out
