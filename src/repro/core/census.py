"""Census pipeline: Table-1-style address characteristics (§4.1).

Given the raw active address set of a day (or a week's union), this module
produces the characteristics row the paper reports in Table 1:

* counts and shares of Teredo, ISATAP and 6to4 addresses,
* the "Other" (native transport) count and share,
* active /64 prefixes among Other addresses and the mean addresses per
  active /64,
* EUI-64 addresses among non-6to4 traffic and their distinct MACs.

It also performs the culling step: handing the "Other" subset onward to
the temporal and spatial classifiers, which is how the paper scopes all
of its Section 6 results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import format as fmt
from repro.core.format import TransitionKind
from repro.data import store as obstore
from repro.net import addr, mac


@dataclass
class CensusRow:
    """One column of Table 1: characteristics of one observation period.

    All counts are of distinct addresses.  ``other_addresses`` holds the
    native subset for downstream classification.
    """

    period_name: str
    total: int
    teredo: int
    isatap: int
    sixto4: int
    other: int
    other_64s: int
    avg_addrs_per_64: float
    eui64_not_6to4: int
    eui64_distinct_macs: int
    other_addresses: Optional[np.ndarray] = None

    def share(self, count: int) -> float:
        """Share of the period's total address count."""
        if self.total == 0:
            return 0.0
        return count / self.total

    @property
    def teredo_share(self) -> float:
        """Teredo addresses as a share of all addresses."""
        return self.share(self.teredo)

    @property
    def isatap_share(self) -> float:
        """ISATAP addresses as a share of all addresses."""
        return self.share(self.isatap)

    @property
    def sixto4_share(self) -> float:
        """6to4 addresses as a share of all addresses."""
        return self.share(self.sixto4)

    @property
    def other_share(self) -> float:
        """Native ("Other") addresses as a share of all addresses."""
        return self.share(self.other)

    @property
    def eui64_share(self) -> float:
        """EUI-64 (not 6to4) addresses as a share of all addresses."""
        return self.share(self.eui64_not_6to4)


def transition_masks(
    array: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (teredo, sixto4, isatap) membership masks of an array.

    The masks are mutually exclusive (an ISATAP-looking IID inside a
    Teredo or 6to4 prefix counts as the tunnelling mechanism, matching
    :func:`repro.core.format.transition_kind`).
    """
    hi = array["hi"]
    lo = array["lo"]
    teredo_mask = (hi >> np.uint64(32)) == np.uint64(0x20010000)
    sixto4_mask = (hi >> np.uint64(48)) == np.uint64(0x2002)
    isatap_marker = (lo >> np.uint64(32)) & np.uint64(0xFDFFFFFF)
    isatap_mask = (
        (isatap_marker == np.uint64(0x00005EFE)) & ~teredo_mask & ~sixto4_mask
    )
    return teredo_mask, sixto4_mask, isatap_mask


def other_mask(array: np.ndarray) -> np.ndarray:
    """Mask selecting the native ("Other") addresses of an array.

    The vectorized form of the culling step: the spatial and temporal
    classifiers run on ``array[other_mask(array)]``, which is how the
    paper scopes its Section 6 results.
    """
    teredo, sixto4, isatap = transition_masks(array)
    return ~(teredo | sixto4 | isatap)


def _eui64_stats_array(array: np.ndarray) -> Tuple[int, int]:
    """Vectorized EUI-64 count and distinct-MAC count on an address array.

    The ``ff:fe`` marker occupies IID bits 24..39 (from the LSB), i.e.
    ``(lo >> 24) & 0xffff == 0xfffe``; the MAC is recovered by dropping
    the marker and flipping the u bit.
    """
    lo = array["lo"]
    marker = (lo >> np.uint64(24)) & np.uint64(0xFFFF)
    is_eui = marker == np.uint64(0xFFFE)
    eui_lo = lo[is_eui]
    count = int(eui_lo.shape[0])
    if count == 0:
        return 0, 0
    unflipped = eui_lo ^ np.uint64(1 << 57)  # u bit: IID bit 6 from the MSB
    high24 = unflipped >> np.uint64(40)
    low24 = unflipped & np.uint64(0xFFFFFF)
    macs = (high24 << np.uint64(24)) | low24
    # MACs are one uint64 column, not an address set:
    # repro-lint: ignore[R008]
    return count, int(np.unique(macs).shape[0])


def census(
    addresses: "np.ndarray | Iterable[int]", period_name: str = ""
) -> CensusRow:
    """Compute the Table 1 characteristics of one observation period.

    Accepts a structured address array or an iterable of integer
    addresses; distinct addresses are what get counted, as in the paper's
    aggregated logs.  Input is canonicalized (sorted, deduplicated) —
    trusting arbitrary structured-array input previously counted
    duplicated addresses twice in every Table 1 column.
    """
    from repro.core.mra import _as_address_array

    array = _as_address_array(addresses)
    total = int(array.shape[0])

    teredo_mask, sixto4_mask, isatap_mask = transition_masks(array)
    native_mask = ~(teredo_mask | sixto4_mask | isatap_mask)

    other_array = array[native_mask]
    other_64s = obstore.truncate_array(other_array, 64)
    other_count = int(other_array.shape[0])
    sixty_four_count = int(other_64s.shape[0])
    avg = other_count / sixty_four_count if sixty_four_count else 0.0

    eui_count, mac_count = _eui64_stats_array(array[~sixto4_mask])

    return CensusRow(
        period_name=period_name,
        total=total,
        teredo=int(np.count_nonzero(teredo_mask)),
        isatap=int(np.count_nonzero(isatap_mask)),
        sixto4=int(np.count_nonzero(sixto4_mask)),
        other=other_count,
        other_64s=sixty_four_count,
        avg_addrs_per_64=avg,
        eui64_not_6to4=eui_count,
        eui64_distinct_macs=mac_count,
        other_addresses=other_array,
    )


def census_day(observations: "obstore.ObservationStore", day: int) -> CensusRow:
    """Table 1a: characteristics of a single day."""
    return census(observations.array(day), period_name=f"day {day}")


def census_week(
    observations: "obstore.ObservationStore", days: Sequence[int]
) -> CensusRow:
    """Table 1b: characteristics of a week's union of daily sets."""
    label = f"days {min(days)}-{max(days)}" if days else "empty"
    return census(observations.union_over(days), period_name=label)


def cull_other(addresses: Iterable[int]) -> List[int]:
    """Return only the native ("Other") addresses, the classifiers' input.

    Scalar (non-vectorized) variant for small collections and tests.
    """
    return [
        value
        for value in addresses
        if fmt.transition_kind(value) is TransitionKind.OTHER
    ]
