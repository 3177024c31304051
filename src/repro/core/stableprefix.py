"""Longest stable prefix discovery (§7.2, the paper's future work).

The paper proposes combining the temporal and spatial classifiers to
automatically find the *stable portions of network identifiers*: the
longest prefixes that persist across observations, without needing
long-lived IIDs (EUI-64) as guides.  Such prefixes are likely significant
aggregates in the network's routing tables, so the result is a passively
gleaned sketch of the operator's address plan.

Definition used here: a prefix is *stable* when its truncated form was
observed on two days at least ``n`` days apart (address stability applied
at that length), and it is a **longest stable prefix** when no observed
more-specific prefix within it is also stable.  The search proceeds from
long prefixes to short ones over a configurable set of lengths (every
nybble boundary by default, matching operator subnetting practice), so a
network that assigns subscribers dynamic /64s from stable /44 pools
reports /44s — recovering the pool boundary, as the paper's discussion of
the US mobile carrier anticipates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.sweep import grouped_spans
from repro.data import store as obstore
from repro.data.store import ObservationStore

#: Nybble-aligned candidate lengths from /16 through /128.
DEFAULT_LENGTHS: Tuple[int, ...] = tuple(range(128, 12, -4))


@dataclass
class StablePrefixReport:
    """Result of a longest-stable-prefix search.

    Attributes:
        n: the day-gap parameter of the underlying stability test.
        lengths: the candidate lengths searched (descending).
        prefixes: the longest stable prefixes as (network, length) pairs,
            sorted by network then length.
    """

    n: int
    lengths: Tuple[int, ...]
    prefixes: List[Tuple[int, int]]

    def by_length(self) -> Dict[int, int]:
        """Histogram: number of longest stable prefixes per length."""
        histogram: Dict[int, int] = {}
        for _network, length in self.prefixes:
            histogram[length] = histogram.get(length, 0) + 1
        return histogram

    def dominant_length(self) -> int:
        """The most common longest-stable-prefix length.

        For a network with one addressing plan this recovers the
        network-identifier boundary (e.g. 64 for static-/64 plans, 44 for
        a /44-pool mobile carrier).  Returns 0 when nothing was stable.
        """
        histogram = self.by_length()
        if not histogram:
            return 0
        return max(histogram, key=lambda length: (histogram[length], length))


def _stable_truncations(
    observations: ObservationStore, length: int, n: int, min_days: int = 2
) -> np.ndarray:
    """Prefixes of ``length`` observed on ``min_days`` days spanning >= n.

    Works over the whole store: for each truncated prefix the first and
    last observation days and the distinct-day count are tracked.  The
    span witnesses stability; the day count is the *evidence* threshold —
    at high address densities a 4-bit-deeper prefix repeats across two
    days by coincidence easily, but recurring on many days marks a real
    assignment boundary rather than chance.
    """
    days = observations.days()
    truncated = [
        obstore.truncate_array(observations.array(day), length) for day in days
    ]
    prefixes, first, last, days_seen = grouped_spans(truncated, days)
    # Each truncated day is unique, so a prefix's rows are distinct days.
    return prefixes[((last - first) >= n) & (days_seen >= min_days)]


def longest_stable_prefixes(
    observations: ObservationStore,
    n: int = 3,
    lengths: Sequence[int] = DEFAULT_LENGTHS,
    min_days: int = 2,
) -> StablePrefixReport:
    """Find the longest stable prefixes across the store's whole span.

    ``lengths`` must be sorted descending; the first (longest) length at
    which a region of the space shows stability claims that region, and
    shorter stable ancestors of claimed regions are suppressed.
    ``min_days`` sets the evidence threshold (see
    :func:`_stable_truncations`): raise it when the dataset holds many
    addresses per subnet, or chance recurrences of deeper prefixes will
    mask the true assignment boundary.
    """
    ordered = tuple(sorted(set(lengths), reverse=True))
    if not ordered:
        raise ValueError("at least one candidate length required")
    claimed = np.empty(0, dtype=obstore.ADDRESS_DTYPE)
    claimed_length = 129  # length at which `claimed` networks were cut
    results: List[Tuple[int, int]] = []

    for length in ordered:
        stable = _stable_truncations(observations, length, n, min_days)
        if stable.shape[0] == 0:
            continue
        if claimed.shape[0] > 0:
            # Suppress prefixes that contain an already-claimed longer one.
            covering = obstore.truncate_array(claimed, length)
            keep = ~obstore.member_mask(stable, covering)
            fresh = stable[keep]
        else:
            fresh = stable
        results.extend((value, length) for value in obstore.from_array(fresh))
        claimed = obstore.union(claimed, fresh)
        claimed_length = length

    results.sort()
    return StablePrefixReport(n=n, lengths=ordered, prefixes=results)


def plan_boundary_estimate(
    observations: ObservationStore,
    n: int = 3,
    lengths: Sequence[int] = DEFAULT_LENGTHS,
    min_days: int = 2,
) -> int:
    """Estimate a network's subscriber-assignment boundary length.

    Convenience wrapper returning the dominant longest-stable-prefix
    length — the automated version of the paper's manual reverse
    engineering of addressing practice (§7.1–§7.2).
    """
    return longest_stable_prefixes(
        observations, n, lengths, min_days
    ).dominant_length()
