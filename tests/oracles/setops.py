"""Reference address-set algebra on the structured ``(hi, lo)`` dtype.

The test oracle for the column kernels of :mod:`repro.data.store`: the
same operations written with numpy's structured-dtype ``unique`` /
``intersect1d`` / ``union1d`` / ``setdiff1d`` and ``searchsorted``, which
sort and compare with generic void comparisons.  These are the store's
former implementations, kept verbatim; the hit merge is the
``np.unique(..., return_inverse=True)`` + ``np.add.at`` pass that
``DailyObservations`` and the log reader/writer each carried, and
``stable_truncations`` is the former ``core.stableprefix`` grouping.
"""

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.store import ADDRESS_DTYPE
from repro.net import batchparse


def _raw_from_ints(addresses: Iterable[int]) -> np.ndarray:
    """Bulk-convert integer addresses to an (unsorted) structured array."""
    hi, lo = batchparse.ints_to_halves(addresses)
    raw = np.empty(hi.shape[0], dtype=ADDRESS_DTYPE)
    raw["hi"] = hi
    raw["lo"] = lo
    return raw


def to_array(addresses: Iterable[int]) -> np.ndarray:
    """Build a sorted, deduplicated address array from integer addresses."""
    return np.unique(_raw_from_ints(addresses))


def halves_to_array(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Build a sorted, deduplicated address array from uint64 halves."""
    raw = np.empty(np.shape(hi)[0], dtype=ADDRESS_DTYPE)
    raw["hi"] = hi
    raw["lo"] = lo
    return np.unique(raw)


def intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Set intersection of two sorted address arrays."""
    return np.intersect1d(a, b, assume_unique=True)


def union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Set union of two sorted address arrays."""
    return np.union1d(a, b)


def difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Addresses in ``a`` but not in ``b``."""
    return np.setdiff1d(a, b, assume_unique=True)


def member_mask(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean mask over ``a``: which elements also appear in ``b``.

    Both arrays must be sorted and unique; uses ``searchsorted`` rather
    than ``np.isin`` because structured ``isin`` falls back to slow paths.
    """
    if b.shape[0] == 0:
        return np.zeros(a.shape[0], dtype=bool)
    positions = np.searchsorted(b, a)
    positions = np.clip(positions, 0, b.shape[0] - 1)
    return b[positions] == a


def union_many(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Union of any number of address arrays (empty input gives empty set)."""
    if not arrays:
        return np.empty(0, dtype=ADDRESS_DTYPE)
    return np.unique(np.concatenate(arrays))


def truncate_array(array: np.ndarray, prefix_len: int) -> np.ndarray:
    """Truncate every address to ``prefix_len`` bits; dedupe and sort."""
    if not 0 <= prefix_len <= 128:
        raise ValueError(f"prefix length out of range: {prefix_len}")
    result = array.copy()
    if prefix_len <= 64:
        if prefix_len == 0:
            hi_mask = np.uint64(0)
        else:
            hi_mask = np.uint64(((1 << prefix_len) - 1) << (64 - prefix_len))
        result["hi"] = result["hi"] & hi_mask
        result["lo"] = 0
    else:
        low_bits = prefix_len - 64
        if low_bits == 64:
            lo_mask = np.uint64(0xFFFFFFFFFFFFFFFF)
        else:
            lo_mask = np.uint64(((1 << low_bits) - 1) << (64 - low_bits))
        result["lo"] = result["lo"] & lo_mask
    return np.unique(result)


def merge_hits(
    hi: np.ndarray, lo: np.ndarray, hits: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted unique addresses and their summed hit counts.

    ``hits=None`` counts one hit per row (the log writer's rule).
    """
    entries = np.empty(np.shape(hi)[0], dtype=ADDRESS_DTYPE)
    entries["hi"] = hi
    entries["lo"] = lo
    unique, inverse = np.unique(entries, return_inverse=True)
    summed = np.zeros(unique.shape[0], dtype=np.uint64)
    if hits is None:
        np.add.at(summed, inverse, np.uint64(1))
    else:
        np.add.at(summed, inverse, np.asarray(hits, dtype=np.uint64))
    return unique, summed


def stable_truncations(
    arrays: Sequence[np.ndarray], days: Sequence[int], length: int, n: int,
    min_days: int = 2,
) -> np.ndarray:
    """Prefixes of ``length`` observed on ``min_days`` days spanning >= n."""
    chunks: List[np.ndarray] = []
    day_chunks: List[np.ndarray] = []
    for day, array in zip(days, arrays):
        truncated = truncate_array(array, length)
        chunks.append(truncated)
        day_chunks.append(np.full(truncated.shape[0], day, dtype=np.int64))
    if not chunks:
        return np.empty(0, dtype=ADDRESS_DTYPE)
    combined = np.concatenate(chunks)
    combined_days = np.concatenate(day_chunks)
    unique, inverse = np.unique(combined, return_inverse=True)
    first = np.full(unique.shape[0], np.iinfo(np.int64).max, dtype=np.int64)
    last = np.full(unique.shape[0], np.iinfo(np.int64).min, dtype=np.int64)
    day_counts = np.zeros(unique.shape[0], dtype=np.int64)
    np.minimum.at(first, inverse, combined_days)
    np.maximum.at(last, inverse, combined_days)
    np.add.at(day_counts, inverse, 1)  # one entry per (day, prefix): distinct
    return unique[((last - first) >= n) & (day_counts >= min_days)]
