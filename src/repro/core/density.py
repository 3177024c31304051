"""Dense-prefix classification and Table 3 reporting (§5.2.2–§6.2.2).

The spatial class *n@/p-dense* is the set of length-p prefixes containing
at least n observed addresses, together with the addresses inside them.
This module wraps the spatial engine's primitives with the bookkeeping the
paper reports for each density class:

* the number of dense prefixes found,
* the observed addresses contained in them,
* the number of *possible* addresses the prefixes span
  (``prefixes * 2**(128-p)`` — the active-probing target budget), and
* the resulting address density (observed / possible).

These are exactly the columns of Table 3.

The searches run on the array-native spatial engine
(:mod:`repro.core.spatial`): one adjacent-LCP scan of the sorted address
array is shared by every density class of a :func:`table3` sweep, and
each class is one run-length encoding of that scan — no per-class
truncate/sort/unique pass and no radix tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.mra import (
    ArrayOrAddresses,
    _as_address_array,
    adjacent_common_prefix_lengths,
)
from repro.core.spatial import dense_runs
from repro.data import store as obstore
from repro.net import addr
from repro.net.prefix import Prefix, check_length


@dataclass(frozen=True)
class DensityClass:
    """A density class specification: at least ``n`` addresses in a /p."""

    n: int
    p: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1: {self.n}")
        check_length(self.p)

    @property
    def label(self) -> str:
        """The paper's notation, e.g. ``"2 @ /112"``."""
        return f"{self.n} @ /{self.p}"

    @property
    def span(self) -> int:
        """Addresses covered by one prefix of this class."""
        return 1 << (128 - self.p)


#: The twelve density classes of Table 3, in the paper's row order.
TABLE3_CLASSES: Tuple[DensityClass, ...] = (
    DensityClass(2, 124),
    DensityClass(3, 120),
    DensityClass(2, 120),
    DensityClass(2, 116),
    DensityClass(64, 112),
    DensityClass(32, 112),
    DensityClass(16, 112),
    DensityClass(8, 112),
    DensityClass(4, 112),
    DensityClass(2, 112),
    DensityClass(2, 108),
    DensityClass(2, 104),
)


@dataclass
class DenseResult:
    """One row of Table 3: the outcome of one density-class search.

    Attributes:
        density_class: the (n, p) class searched.
        prefixes: the dense prefixes as (network, length, count) tuples.
        contained_addresses: observed addresses inside the dense prefixes.
    """

    density_class: DensityClass
    prefixes: List[Tuple[int, int, int]]
    contained_addresses: int

    @property
    def num_prefixes(self) -> int:
        """Count of dense prefixes found."""
        return len(self.prefixes)

    @property
    def possible_addresses(self) -> int:
        """Total addresses spanned: the active-probing target budget."""
        return self.num_prefixes * self.density_class.span

    @property
    def address_density(self) -> float:
        """Observed contained addresses divided by possible addresses."""
        if self.possible_addresses == 0:
            return 0.0
        return self.contained_addresses / self.possible_addresses


def find_dense(
    addresses: ArrayOrAddresses,
    density_class: DensityClass,
    lengths: Optional[np.ndarray] = None,
) -> DenseResult:
    """Find all prefixes of one density class among distinct addresses.

    Input is canonicalized (sorted, deduplicated) before counting, so
    repeated observations of an address can neither push a prefix over
    the ``n`` threshold nor inflate ``contained_addresses``.  ``lengths``
    optionally supplies the precomputed adjacent-LCP array of the
    canonical input, letting multi-class sweeps share one scan.
    """
    array = _as_address_array(addresses)
    prefixes, contained = dense_runs(array, density_class.n, density_class.p, lengths)
    return DenseResult(
        density_class=density_class,
        prefixes=prefixes,
        contained_addresses=contained,
    )


def table3(
    addresses: ArrayOrAddresses,
    classes: Sequence[DensityClass] = TABLE3_CLASSES,
) -> List[DenseResult]:
    """Run the full Table 3 sweep over the given density classes.

    One adjacent-LCP scan of the canonical address array serves every
    class; each row is then a single run-length pass over that scan.
    """
    array = _as_address_array(addresses)
    lengths = adjacent_common_prefix_lengths(array)
    return [find_dense(array, density_class, lengths) for density_class in classes]


def dense_prefix_objects(result: DenseResult) -> List[Prefix]:
    """The dense prefixes of a result as :class:`Prefix` objects."""
    return [Prefix(network, length) for network, length, _count in result.prefixes]


def scan_targets(result: DenseResult, limit: int = 1_000_000) -> List[int]:
    """Enumerate candidate probe targets inside the dense prefixes.

    Every address of every dense prefix, up to ``limit`` (the budget
    guard): this is the §6.2.2 proposal that dense blocks are feasible
    active-scan targets, /112s being the IPv6 analogue of IPv4 /16s.
    """
    targets: List[int] = []
    for network, length, _count in result.prefixes:
        span = 1 << (128 - length)
        remaining = limit - len(targets)
        if remaining <= 0:
            break
        targets.extend(range(network, network + min(span, remaining)))
    return targets
