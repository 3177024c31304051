"""Day-indexed observation storage for active-address analysis.

The paper's input is a sequence of *daily aggregated logs*: for each day, the
set of client addresses observed (with hit counts).  This module provides the
column-oriented store the temporal classifier runs over.

Addresses are held as numpy structured arrays with two unsigned 64-bit
columns ``(hi, lo)`` — the high and low halves of the 128-bit address —
sorted lexicographically and deduplicated.  The per-day set algebra
(truncation, union, intersection, difference, membership, hit merges) runs
on those two columns through a few sort-aware kernels
(:func:`canonical_columns`, :func:`search_sorted`): sorted input skips the
sort, unsorted input is ordered by the int64 ids of :func:`address_ids`,
and lookups are numeric ``searchsorted`` calls — never a structured-dtype
``unique`` / ``intersect1d`` / ``union1d``, whose void comparisons cost
10-100x more, nor a two-column ``lexsort``.

Days are plain integers (day numbers); use any epoch you like, as the
classifiers only ever take differences.  :func:`day_number` converts ISO
dates for convenience.
"""

from __future__ import annotations

import datetime
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, overload

import numpy as np

from repro.net import batchparse

#: Structured dtype for address columns: high then low 64 bits, so that the
#: lexicographic order numpy uses for structured comparison equals numeric
#: order of the 128-bit value.
ADDRESS_DTYPE = np.dtype([("hi", "<u8"), ("lo", "<u8")])

_EPOCH = datetime.date(2014, 1, 1)


def day_number(date: "str | datetime.date") -> int:
    """Convert an ISO date (or date object) to a day number.

    Day 0 is 2014-01-01, placing the paper's three measurement epochs at
    small positive numbers; only differences ever matter.
    """
    if isinstance(date, str):
        date = datetime.date.fromisoformat(date)
    return (date - _EPOCH).days


def day_date(day: int) -> datetime.date:
    """Inverse of :func:`day_number`."""
    return _EPOCH + datetime.timedelta(days=int(day))


# ---------------------------------------------------------------------------
# Column kernels: set algebra on the (hi, lo) uint64 columns.
# ---------------------------------------------------------------------------


def _pack(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Interleave uint64 halves into a structured address array."""
    array = np.empty(np.shape(hi)[0], dtype=ADDRESS_DTYPE)
    array["hi"] = hi
    array["lo"] = lo
    return array


def dense_ranks(values: np.ndarray) -> Tuple[np.ndarray, int]:
    """Rank each value among the distinct values of ``values``.

    Returns int64 ranks (equal values share a rank, smaller values get
    smaller ranks) and the number of distinct values.  One plain
    ``np.argsort``; ties need no stability because they share a rank.
    """
    n = values.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64), 0
    order = np.argsort(values)
    ordered = values[order]
    ranked = np.empty(n, dtype=np.int64)
    ranked[0] = 0
    np.cumsum(ordered[1:] != ordered[:-1], out=ranked[1:])
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = ranked
    return ranks, int(ranked[-1]) + 1


def address_ids(hi: np.ndarray, lo: np.ndarray) -> Tuple[np.ndarray, int]:
    """Order-preserving int64 ids for 128-bit addresses held as columns.

    ``hi_rank * lo_count + lo_rank``, from the dense ranks of each column:
    equal addresses get equal ids, and ids compare like the addresses, so
    one numeric sort of the ids (or of keys built on them) orders rows by
    address.  Returns the ids and their exclusive upper
    bound ``hi_count * lo_count`` (at most ``len(hi) ** 2``, so the ids
    fit int64 for any array that fits in memory).
    """
    hi_rank, hi_count = dense_ranks(hi)
    lo_rank, lo_count = dense_ranks(lo)
    return hi_rank * lo_count + lo_rank, hi_count * lo_count


def _run_starts(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """First row of every run of equal addresses in sorted columns."""
    boundary = np.empty(hi.shape[0], dtype=bool)
    boundary[:1] = True
    np.not_equal(hi[1:], hi[:-1], out=boundary[1:])
    boundary[1:] |= lo[1:] != lo[:-1]
    return np.flatnonzero(boundary)


@overload
def canonical_columns(
    hi: np.ndarray, lo: np.ndarray, hits: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]: ...


@overload
def canonical_columns(
    hi: np.ndarray, lo: np.ndarray, hits: None = None
) -> Tuple[np.ndarray, np.ndarray, None]: ...


def canonical_columns(
    hi: np.ndarray, lo: np.ndarray, hits: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Sort ``(hi, lo[, hits])`` columns by address and merge duplicates.

    The one sort-and-dedupe kernel: columns already in non-decreasing
    order (sorted days, truncations of sorted days) skip the sort, and
    the rest are ordered by one numeric ``argsort`` of their
    :func:`address_ids` instead of a structured-dtype sort.  Equal-address
    runs keep their first row and, with ``hits``, the uint64 sum of the
    run's hits (wrapping like ``np.add.at``, so the order inside a run
    does not matter).  Returns the inputs themselves when they are
    already strictly increasing.
    """
    if hi.shape[0] > 1:
        ascending = (hi[1:] > hi[:-1]) | ((hi[1:] == hi[:-1]) & (lo[1:] >= lo[:-1]))
        if not ascending.all():
            order = np.argsort(address_ids(hi, lo)[0])
            hi, lo = hi[order], lo[order]
            if hits is not None:
                hits = hits[order]
    starts = _run_starts(hi, lo)
    if starts.shape[0] == hi.shape[0]:
        return hi, lo, hits
    summed = None if hits is None else np.add.reduceat(hits, starts)
    return hi[starts], lo[starts], summed


def search_sorted(
    hi: np.ndarray,
    lo: np.ndarray,
    query_hi: np.ndarray,
    query_lo: np.ndarray,
    side: str = "left",
) -> np.ndarray:
    """``np.searchsorted`` for 128-bit keys held as uint64 column pairs.

    ``hi``/``lo`` must be sorted by address (duplicates allowed).  One
    numeric ``searchsorted`` per side brackets each query's equal-``hi``
    run; a vectorized binary search on ``lo`` then narrows only the
    queries whose bracket is non-empty, for as many rounds as the
    longest such run needs.
    """
    left = np.searchsorted(hi, query_hi, side="left")
    right = np.searchsorted(hi, query_hi, side="right")
    todo = np.flatnonzero(left < right)
    while todo.shape[0]:
        low, high = left[todo], right[todo]
        mid = (low + high) // 2
        if side == "left":
            step = lo[mid] < query_lo[todo]
        else:
            step = lo[mid] <= query_lo[todo]
        low = np.where(step, mid + 1, low)
        high = np.where(step, high, mid)
        left[todo] = low
        right[todo] = high
        todo = todo[low < high]
    return left


def _merged(
    hi: np.ndarray, lo: np.ndarray, hits: Optional[np.ndarray]
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """A day's sorted unique address array and its summed hit counts."""
    if hits is not None and hits.shape[0] != np.shape(hi)[0]:
        raise ValueError("hits must parallel addresses")
    hi, lo, hits = canonical_columns(
        np.asarray(hi, dtype=np.uint64), np.asarray(lo, dtype=np.uint64), hits
    )
    return _pack(hi, lo), hits


def to_array(addresses: Iterable[int]) -> np.ndarray:
    """Build a sorted, deduplicated address array from integer addresses."""
    return halves_to_array(*batchparse.ints_to_halves(addresses))


def halves_to_array(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Build a sorted, deduplicated address array from uint64 halves."""
    return _merged(hi, lo, None)[0]


def from_array(array: np.ndarray) -> List[int]:
    """Convert an address array back to a list of 128-bit integers."""
    return batchparse.halves_to_ints(array["hi"], array["lo"])


def array_size(array: np.ndarray) -> int:
    """Number of addresses in an address array."""
    return int(array.shape[0])


def intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Set intersection of two sorted address arrays."""
    if array_size(a) > array_size(b):
        a, b = b, a
    return a[member_mask(a, b)]


def union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Set union of two sorted address arrays."""
    return union_many([a, b])


def difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Addresses in ``a`` but not in ``b``."""
    return a[~member_mask(a, b)]


def member_mask(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean mask over ``a``: which elements also appear in ``b``.

    ``b`` must be sorted and unique (``a`` sorted makes the search
    faster but is not required).
    """
    if array_size(b) == 0:
        return np.zeros(array_size(a), dtype=bool)
    hi, lo = b["hi"], b["lo"]
    positions = search_sorted(hi, lo, a["hi"], a["lo"])
    positions = np.minimum(positions, array_size(b) - 1)
    return (hi[positions] == a["hi"]) & (lo[positions] == a["lo"])


def union_many(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Union of any number of address arrays (empty input gives empty set)."""
    if not arrays:
        return np.empty(0, dtype=ADDRESS_DTYPE)
    merged = np.concatenate(arrays)
    return halves_to_array(merged["hi"], merged["lo"])


def truncate_array(array: np.ndarray, prefix_len: int) -> np.ndarray:
    """Truncate every address to ``prefix_len`` bits; dedupe and sort.

    Truncating to /64 reduces the problem to distinct ``hi`` values with
    ``lo`` zero — the "/64 prefixes" the paper tracks alongside full
    addresses.  Truncation keeps sorted input sorted, so a sorted array
    costs one mask and one adjacent-run dedupe.
    """
    if not 0 <= prefix_len <= 128:
        raise ValueError(f"prefix length out of range: {prefix_len}")
    hi, lo = array["hi"], array["lo"]
    if prefix_len <= 64:
        if prefix_len == 0:
            hi_mask = np.uint64(0)
        else:
            hi_mask = np.uint64(((1 << prefix_len) - 1) << (64 - prefix_len))
        hi = hi & hi_mask
        lo = np.zeros(hi.shape[0], dtype=np.uint64)
    else:
        low_bits = prefix_len - 64
        if low_bits == 64:
            lo_mask = np.uint64(0xFFFFFFFFFFFFFFFF)
        else:
            lo_mask = np.uint64(((1 << low_bits) - 1) << (64 - low_bits))
        lo = lo & lo_mask
    return halves_to_array(hi, lo)


class DailyObservations:
    """One day's worth of observed addresses, with optional hit counts.

    Addresses are stored sorted and deduplicated; hit counts, when given,
    are summed per unique address and kept in a parallel array.
    """

    def __init__(
        self,
        day: int,
        addresses: Iterable[int],
        hits: Optional[Iterable[int]] = None,
    ) -> None:
        self.day = int(day)
        hi, lo = batchparse.ints_to_halves(addresses)
        hit_list = None if hits is None else np.asarray(list(hits), dtype=np.uint64)
        self.addresses, self.hits = _merged(hi, lo, hit_list)

    @classmethod
    def from_array(cls, day: int, array: np.ndarray) -> "DailyObservations":
        """Wrap a prebuilt (sorted, unique) address array without copying."""
        instance = cls.__new__(cls)
        instance.day = int(day)
        instance.addresses = array
        instance.hits = None
        return instance

    @classmethod
    def from_halves(
        cls,
        day: int,
        hi: np.ndarray,
        lo: np.ndarray,
        hits: "Optional[np.ndarray]" = None,
        merged: bool = False,
    ) -> "DailyObservations":
        """Build a day directly from columnar uint64 halves.

        This is the zero-copy-ish entry point of the fast ingestion
        pipeline: the batch parser and the day-log cache both produce
        ``(hi, lo[, hits])`` columns.  With ``merged=True`` the columns
        are trusted to be sorted and duplicate-free already (the cache
        stores them that way) and are wrapped without re-deduplication.
        """
        instance = cls.__new__(cls)
        instance.day = int(day)
        if merged:
            instance.addresses = _pack(hi, lo)
            instance.hits = (
                None if hits is None else np.asarray(hits, dtype=np.uint64)
            )
            return instance
        hit_array = None if hits is None else np.asarray(hits, dtype=np.uint64)
        instance.addresses, instance.hits = _merged(hi, lo, hit_array)
        return instance

    def __len__(self) -> int:
        return array_size(self.addresses)

    def as_ints(self) -> List[int]:
        """The day's addresses as 128-bit integers."""
        return from_array(self.addresses)

    def truncated(self, prefix_len: int) -> "DailyObservations":
        """This day's observations reduced to distinct /prefix_len networks."""
        return DailyObservations.from_array(
            self.day, truncate_array(self.addresses, prefix_len)
        )


class ObservationStore:
    """A day-indexed collection of :class:`DailyObservations`.

    The unit the temporal classifier consumes.  Also supports deriving a
    prefix-level store (e.g. /64s) and unions over day ranges.
    """

    def __init__(self) -> None:
        self._days: Dict[int, DailyObservations] = {}

    def add_day(
        self,
        day: int,
        addresses: Iterable[int],
        hits: Optional[Iterable[int]] = None,
    ) -> DailyObservations:
        """Insert (or replace) one day of observations."""
        observations = DailyObservations(day, addresses, hits)
        self._days[observations.day] = observations
        return observations

    def add_observations(self, observations: DailyObservations) -> None:
        """Insert a prebuilt day of observations."""
        self._days[observations.day] = observations

    def days(self) -> List[int]:
        """Sorted list of days present in the store."""
        return sorted(self._days)

    def __contains__(self, day: int) -> bool:
        return int(day) in self._days

    def __len__(self) -> int:
        return len(self._days)

    def get(self, day: int) -> Optional[DailyObservations]:
        """The observations for ``day``, or None when absent."""
        return self._days.get(int(day))

    def array(self, day: int) -> np.ndarray:
        """The sorted address array for ``day`` (empty when absent)."""
        observations = self._days.get(int(day))
        if observations is None:
            return np.empty(0, dtype=ADDRESS_DTYPE)
        return observations.addresses

    def union_over(self, days: Iterable[int]) -> np.ndarray:
        """Union of the address sets of the given days."""
        return union_many([self.array(day) for day in days])

    def truncated(self, prefix_len: int) -> "ObservationStore":
        """Derive a store whose members are /prefix_len networks."""
        derived = ObservationStore()
        for day, observations in self._days.items():
            derived.add_observations(observations.truncated(prefix_len))
        return derived

    def iter_days(self) -> Iterator[DailyObservations]:
        """Iterate the days in chronological order."""
        for day in self.days():
            yield self._days[day]

    def save(self, path: str) -> None:
        """Persist the store to an ``.npz`` file."""
        payload: Dict[str, np.ndarray] = {}
        for day, observations in self._days.items():
            payload[f"hi_{day}"] = observations.addresses["hi"]
            payload[f"lo_{day}"] = observations.addresses["lo"]
            if observations.hits is not None:
                payload[f"hits_{day}"] = observations.hits
        np.savez_compressed(path, **payload)

    @classmethod
    def load(cls, path: str) -> "ObservationStore":
        """Load a store saved with :meth:`save`."""
        store = cls()
        with np.load(path) as data:
            days = sorted(
                int(name[3:]) for name in data.files if name.startswith("hi_")
            )
            for day in days:
                hi = data[f"hi_{day}"]
                lo = data[f"lo_{day}"]
                observations = DailyObservations.from_array(day, _pack(hi, lo))
                hits_key = f"hits_{day}"
                if hits_key in data.files:
                    observations.hits = data[hits_key]
                store.add_observations(observations)
        return store
