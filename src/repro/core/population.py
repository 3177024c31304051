"""Aggregate population distributions (§5.2.2, Figure 3).

Kohler et al.'s "aggregate population" is the number of observed items
(addresses, or /64 prefixes) inside each prefix of a given aggregate
length.  The paper plots the complementary CDF of these populations across
prefixes — for /32, /48 and /112 aggregates of addresses and /32, /48
aggregates of /64s — to show how strongly observed IPv6 addresses
concentrate in a small subset of prefixes.

The populations are computed on the array-native spatial engine
(:mod:`repro.core.spatial`): aggregates are the runs of the sorted
address array delimited by adjacent common prefixes shorter than the
aggregate length, so a whole family of aggregate lengths shares one
adjacent-LCP scan per base array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.core.mra import (
    ArrayOrAddresses,
    _as_address_array,
    adjacent_common_prefix_lengths,
)
from repro.core.spatial import prefix_runs
from repro.data import store as obstore


def aggregate_populations(
    addresses: ArrayOrAddresses,
    aggregate_len: int,
    lengths: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Population of every active /``aggregate_len`` prefix.

    Returns one count of *distinct* addresses per active aggregate
    (prefixes containing zero observed items are naturally absent), in
    ascending aggregate-network order.  ``lengths`` optionally supplies
    the precomputed adjacent-LCP array of the canonical input, letting
    several aggregate lengths share one scan.
    """
    array = _as_address_array(addresses)
    if array.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    _starts, counts = prefix_runs(array, aggregate_len, lengths)
    return counts


@dataclass
class PopulationCcdf:
    """A CCDF over aggregate populations: P(population >= x).

    Attributes:
        label: series label, e.g. ``"48-agg. of IPv6 addrs"``.
        populations: sorted populations, one per active aggregate.
    """

    label: str
    populations: np.ndarray

    @property
    def num_aggregates(self) -> int:
        """Number of active aggregates (prefixes with population >= 1)."""
        return int(self.populations.shape[0])

    def proportion_at_least(self, x: float) -> float:
        """Proportion of aggregates with population >= x."""
        if self.num_aggregates == 0:
            return 0.0
        index = np.searchsorted(self.populations, x, side="left")
        return float(self.num_aggregates - index) / self.num_aggregates

    def points(self) -> List[Tuple[float, float]]:
        """The (population, CCDF proportion) step points for plotting."""
        if self.num_aggregates == 0:
            return []
        # CCDF steps of one integer population column, not an address set:
        # repro-lint: ignore[R008]
        unique, first_index = np.unique(self.populations, return_index=True)
        total = self.num_aggregates
        return [
            (float(value), float(total - start) / total)
            for value, start in zip(unique, first_index)
        ]


def population_ccdf(
    addresses: ArrayOrAddresses,
    aggregate_len: int,
    label: str = "",
    lengths: Optional[np.ndarray] = None,
) -> PopulationCcdf:
    """Build the CCDF of populations for one aggregate length."""
    populations = np.sort(aggregate_populations(addresses, aggregate_len, lengths))
    if not label:
        label = f"{aggregate_len}-agg."
    return PopulationCcdf(label=label, populations=populations)


def figure3_series(
    addresses: ArrayOrAddresses,
) -> List[PopulationCcdf]:
    """The five series of Figure 3 for one week's address set.

    Addresses contribute /32-, /48- and /112-aggregate populations; the
    derived /64 set contributes /32- and /48-aggregate populations.  One
    adjacent-LCP scan per base set (addresses, /64s) feeds all its series.
    """
    array = _as_address_array(addresses)
    sixty_fours = obstore.truncate_array(array, 64)
    addr_lengths = adjacent_common_prefix_lengths(array)
    sf_lengths = adjacent_common_prefix_lengths(sixty_fours)
    return [
        population_ccdf(array, 32, "32-agg. of IPv6 addrs", addr_lengths),
        population_ccdf(sixty_fours, 32, "32-agg. of /64s", sf_lengths),
        population_ccdf(array, 48, "48-agg. of IPv6 addrs", addr_lengths),
        population_ccdf(sixty_fours, 48, "48-agg. of /64s", sf_lengths),
        population_ccdf(array, 112, "112-agg of IPv6 addrs", addr_lengths),
    ]


def average_per_aggregate(
    addresses: ArrayOrAddresses, aggregate_len: int
) -> float:
    """Mean population per active aggregate.

    With ``aggregate_len=64`` this is Table 1's "ave. addrs per /64".
    """
    populations = aggregate_populations(addresses, aggregate_len)
    if populations.shape[0] == 0:
        return 0.0
    return float(populations.mean())
