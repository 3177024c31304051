"""Multi-Resolution Aggregate (MRA) counts and count ratios (§5.2.1).

Given a set of N addresses, the *active aggregate count* ``n_p`` is the
size of the smallest set of /p prefixes covering all of them (Kohler et
al.).  By definition ``n_0 = 1`` and ``n_128 = N`` (for distinct
addresses).  The *MRA count ratio* generalizes Kohler's ratio to segments
of k bits::

    γ^k_p = n_{p+k} / n_p        k ∈ {1, 4, 16}, p a multiple of k

γ ranges from 1 (splitting prefixes never separates addresses — total
aggregation) to 2**k (every split separates them — no aggregation), and
the product of the ratios along one resolution equals N.  MRA plots of
these ratios expose addressing structure: privacy addressing shows a
plateau at 2 past bit 64 with a drop to ~1 at bit 70 (the cleared "u"
bit), dense server blocks show prominence in the 112–128 segment, and
dynamic /64 pools saturate the 44–64 segment.

The implementation computes *all 129* aggregate counts in one pass: with
the addresses sorted, ``n_p`` is one more than the number of adjacent
pairs whose common prefix is shorter than p, so a histogram of adjacent
common-prefix lengths yields every count at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple, Union

import numpy as np

from repro.data import store as obstore
from repro.data.store import ADDRESS_DTYPE

#: The three resolutions the paper plots: single bits, nybbles, 16-bit segments.
CANONICAL_RESOLUTIONS = (1, 4, 16)

ArrayOrAddresses = Union[np.ndarray, Iterable[int]]


def is_canonical(array: np.ndarray) -> bool:
    """True when an address array is strictly increasing (sorted, unique).

    Every consumer of the shared ``(hi, lo)`` columnar form — MRA counts,
    density classes, aggregate populations — requires this canonical
    order: :func:`adjacent_common_prefix_lengths` reads structure off
    *adjacent* pairs, and the dense/population accounting counts
    *distinct* addresses.  The check is one vectorized pass.
    """
    if array.shape[0] < 2:
        return True
    hi, lo = array["hi"], array["lo"]
    ascending = (hi[1:] > hi[:-1]) | ((hi[1:] == hi[:-1]) & (lo[1:] > lo[:-1]))
    return bool(np.all(ascending))


def _as_address_array(addresses: ArrayOrAddresses) -> np.ndarray:
    """Accept either a structured address array or an iterable of ints.

    Structured arrays are validated with a cheap ascending-order guard and
    sorted/deduplicated when they fail it: silently trusting arbitrary
    ``ADDRESS_DTYPE`` input previously returned wrong aggregate counts for
    unsorted arrays and double-counted duplicated addresses in the dense
    and population accounting.
    """
    if isinstance(addresses, np.ndarray) and addresses.dtype == ADDRESS_DTYPE:
        if is_canonical(addresses):
            return addresses
        return obstore.halves_to_array(addresses["hi"], addresses["lo"])
    return obstore.to_array(addresses)


def _bit_length_u64(values: np.ndarray) -> np.ndarray:
    """Vectorized bit length of uint64 values (0 maps to 0).

    Splits each value into 32-bit halves so ``frexp`` exponents (exact for
    integers below 2**53) give the answer without float rounding risk.
    """
    high = (values >> np.uint64(32)).astype(np.uint32)
    low = (values & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    high_bits = np.frexp(high.astype(np.float64))[1]
    low_bits = np.frexp(low.astype(np.float64))[1]
    return np.where(high != 0, high_bits + 32, low_bits).astype(np.int64)


def adjacent_common_prefix_lengths(array: np.ndarray) -> np.ndarray:
    """Common-prefix length of each adjacent pair of a sorted address array."""
    if array.shape[0] < 2:
        return np.empty(0, dtype=np.int64)
    xor_hi = array["hi"][1:] ^ array["hi"][:-1]
    xor_lo = array["lo"][1:] ^ array["lo"][:-1]
    hi_len = 64 - _bit_length_u64(xor_hi)
    lo_len = 128 - _bit_length_u64(xor_lo)
    return np.where(xor_hi != 0, hi_len, lo_len)


def counts_from_lengths(lengths: np.ndarray, size: int) -> np.ndarray:
    """Aggregate counts ``n_0 .. n_128`` from precomputed adjacent LCPs.

    The spatial engine computes one LCP array per address set and derives
    MRA counts, fixed-length runs and general dense prefixes from it; this
    is the MRA leg of that shared pass.  ``size`` is the number of
    addresses (``len(lengths) + 1`` for non-empty sets).
    """
    counts = np.zeros(129, dtype=np.int64)
    if size == 0:
        return counts
    # A pair with common prefix length L splits at every p > L, so
    # n_p = 1 + #{pairs with L < p} = 1 + cumulative histogram below p.
    histogram = np.bincount(lengths, minlength=129)
    counts[0] = 1
    counts[1:] = 1 + np.cumsum(histogram)[:128]
    return counts


def aggregate_counts(addresses: ArrayOrAddresses) -> np.ndarray:
    """Return the full vector ``n_0 .. n_128`` of active aggregate counts.

    ``counts[p]`` is the number of /p prefixes needed to cover the set.
    An empty input yields all zeros.  Structured-array input is validated
    (and sorted/deduplicated when necessary): the adjacent-pair scan is
    only meaningful on the canonical sorted form.
    """
    array = _as_address_array(addresses)
    size = int(array.shape[0])
    if size == 0:
        return np.zeros(129, dtype=np.int64)
    return counts_from_lengths(adjacent_common_prefix_lengths(array), size)


@dataclass
class MraProfile:
    """The MRA profile of one address set: every aggregate count.

    ``counts[p]`` is ``n_p``.  Ratio series for any resolution are derived
    on demand; this object is the data behind one MRA plot.
    """

    counts: np.ndarray

    @property
    def size(self) -> int:
        """Number of distinct addresses profiled (``n_128``)."""
        return int(self.counts[128])

    def n(self, p: int) -> int:
        """Aggregate count at prefix length ``p``."""
        if not 0 <= p <= 128:
            raise ValueError(f"prefix length out of range: {p}")
        return int(self.counts[p])

    def ratio(self, p: int, k: int = 1) -> float:
        """The MRA count ratio ``γ^k_p = n_{p+k} / n_p``."""
        if not 0 <= p <= 128 - k:
            raise ValueError(f"ratio undefined at p={p}, k={k}")
        denominator = self.counts[p]
        if denominator == 0:
            return 0.0
        return float(self.counts[p + k]) / float(denominator)

    def series(self, k: int) -> List[Tuple[int, float]]:
        """The plotted series for resolution ``k``: (p, γ^k_p) pairs.

        ``p`` runs over multiples of ``k`` from 0 through 128-k, matching
        the paper's canonical x positions (a point plotted at p describes
        the segment of bits p..p+k-1).
        """
        if k < 1 or 128 % k != 0:
            raise ValueError(f"k must divide 128: {k}")
        return [(p, self.ratio(p, k)) for p in range(0, 128, k)]

    def segment_ratios_16(self) -> List[float]:
        """The eight 16-bit segment ratios (Figure 5b's per-prefix data)."""
        return [self.ratio(p, 16) for p in range(0, 128, 16)]

    def ratio_product(self, k: int) -> float:
        """Product of the ratios at resolution ``k``.

        Equals the set size for any k (the identity the paper notes),
        which the property-based tests assert.  The factors telescope —
        ``(n_k/n_0)(n_2k/n_k)...(n_128/n_{128-k}) = n_128/n_0`` — so the
        product is evaluated exactly over the integer counts; repeated
        float multiplication drifts below the identity for large sets.
        A zero anywhere in the denominators (the empty set) makes some
        factor 0, hence a zero product, matching :meth:`ratio`.
        """
        if k < 1 or 128 % k != 0:
            raise ValueError(f"k must divide 128: {k}")
        denominators = self.counts[0:128:k]
        if np.any(denominators == 0):
            return 0.0
        return float(self.counts[128]) / float(self.counts[0])


def profile(addresses: ArrayOrAddresses) -> MraProfile:
    """Compute the MRA profile of an address set."""
    return MraProfile(counts=aggregate_counts(addresses))


def grouped_aggregate_counts(
    groups: Sequence[ArrayOrAddresses],
) -> np.ndarray:
    """Aggregate-count vectors of many address sets in one vectorized pass.

    Returns a ``(len(groups), 129)`` matrix whose row g equals
    ``aggregate_counts(groups[g])``.  All groups are concatenated and a
    single adjacent-LCP scan runs over the combined columns; pairs that
    straddle a group boundary are masked out, and one 2-D histogram
    yields every group's count vector at once — no per-group Python loop
    over thousands of BGP prefixes.
    """
    arrays = [_as_address_array(group) for group in groups]
    num_groups = len(arrays)
    counts = np.zeros((num_groups, 129), dtype=np.int64)
    if num_groups == 0:
        return counts
    sizes = np.array([array.shape[0] for array in arrays], dtype=np.int64)
    total = int(sizes.sum())
    if total == 0:
        return counts
    concat = np.concatenate(arrays)
    group_of = np.repeat(np.arange(num_groups, dtype=np.int64), sizes)
    lengths = adjacent_common_prefix_lengths(concat)
    within = group_of[1:] == group_of[:-1]
    keys = group_of[:-1][within] * 129 + lengths[within]
    histogram = np.bincount(keys, minlength=num_groups * 129)
    histogram = histogram.reshape(num_groups, 129)
    nonempty = sizes > 0
    counts[nonempty, 0] = 1
    counts[:, 1:] = np.cumsum(histogram, axis=1)[:, :128]
    counts[:, 1:] += counts[:, :1]
    return counts


def profiles_by_group(
    groups: Iterable[Tuple[object, ArrayOrAddresses]]
) -> List[Tuple[object, MraProfile]]:
    """Profile many (key, addresses) groups, e.g. one per BGP prefix.

    Used for Figure 5b, where the distribution of each 16-bit segment's
    ratio is taken across all BGP prefixes.  Backed by
    :func:`grouped_aggregate_counts`, so the whole collection is profiled
    with one concatenated LCP scan instead of one pass per group.
    """
    items = list(groups)
    matrix = grouped_aggregate_counts([addresses for _key, addresses in items])
    return [
        (key, MraProfile(counts=matrix[index]))
        for index, (key, _addresses) in enumerate(items)
    ]


def segment_ratio_matrix(
    profiles: Sequence[MraProfile],
) -> np.ndarray:
    """Stack 16-bit segment ratios into a (num_profiles, 8) matrix.

    Column j holds γ¹⁶ at p = 16·j across the profiles; feed the columns
    to :func:`repro.viz.boxplot.box_stats` to get Figure 5b.
    """
    return np.array(
        [prof.segment_ratios_16() for prof in profiles], dtype=np.float64
    )
